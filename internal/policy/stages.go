package policy

import (
	"strings"

	"repro/internal/auth"
	"repro/internal/clock"
	"repro/internal/dns"
	"repro/internal/greylist"
	"repro/internal/mail"
	"repro/internal/ndr"
	"repro/internal/world"
)

// stageDef is one catalog entry: the single source of truth a chain,
// Stages(), StageNames() and the CLI docs are all built from. check
// binds the stage to the world env and one receiver domain.
type stageDef struct {
	name  string
	typ   ndr.Type
	phase Phase
	doc   string
	check func(env *Env, d *world.ReceiverDomain) CheckFunc
}

// catalog is the full receiver gauntlet in MTA order. The order is
// phase-monotonic (MAIL < RCPT < DATA) so the linear bulk-engine walk
// and the per-phase wire walk agree on the first rejection.
var catalog = []stageDef{
	{
		name: "tls", typ: ndr.T4STARTTLS, phase: PhaseMail,
		doc: "STARTTLS mandate: reject plaintext MAIL until the sender learns to negotiate TLS (T4)",
		check: func(env *Env, d *world.ReceiverDomain) CheckFunc {
			return func(st StageState, req *Request) Verdict {
				if d.Policy.TLS != world.TLSMandatory || req.TLS {
					return Pass()
				}
				if req.Proxy == nil {
					// Unknown clients have no mandate memory to learn into.
					return Reject(ndr.T4STARTTLS)
				}
				// Coremail starts in plaintext and learns the mandate on
				// first contact. High-volume domains get their mandate
				// propagated across a region's proxies (shared
				// configuration); for tail domains every proxy discovers
				// it individually.
				var key uint64
				if d.Rank < 100 {
					key = Key("tls", int(req.Proxy.Region[0])<<8|int(req.Proxy.Region[1]), d.Name, 0)
				} else {
					key = Key("tls", req.Proxy.ID+1000, d.Name, 0)
				}
				if !st.LearnOnce(key) {
					return Reject(ndr.T4STARTTLS)
				}
				return Pass()
			}
		},
	},
	{
		name: "dnsbl", typ: ndr.T5Blocklisted, phase: PhaseMail,
		doc: "DNS blocklist lookup against the shared reputation feed (T5)",
		check: func(env *Env, d *world.ReceiverDomain) CheckFunc {
			return func(st StageState, req *Request) Verdict {
				pol := &d.Policy
				if pol.UsesDNSBL && !req.At.Before(pol.DNSBLFrom) &&
					env.World.Blocklist.Listed(req.ClientIP, req.At) {
					return Reject(ndr.T5Blocklisted)
				}
				return Pass()
			}
		},
	},
	{
		name: "source-rate", typ: ndr.T7TooFast, phase: PhaseMail,
		doc: "per-source hourly inbound rate limit (T7); fresh emails consume quota, retries re-test it",
		check: func(env *Env, d *world.ReceiverDomain) CheckFunc {
			return func(st StageState, req *Request) Verdict {
				limit := d.Policy.PerProxyHourlyLimit
				if limit <= 0 {
					return Pass()
				}
				key := Key("hr", req.SourceID(), d.Name, clock.Hour(req.At))
				n := st.Peek(key)
				if req.First {
					n = st.Bump(key)
				}
				if n > limit {
					return Reject(ndr.T7TooFast)
				}
				return Pass()
			}
		},
	},
	{
		name: "sender-dns", typ: ndr.T1SenderDNS, phase: PhaseMail,
		doc: "MAIL FROM domain DNS health: NS lookup for basic validation and SPF (T1)",
		check: func(env *Env, d *world.ReceiverDomain) CheckFunc {
			return func(st StageState, req *Request) Verdict {
				ans := st.Resolver().Lookup(req.From.Domain, dns.TypeNS, req.At)
				if ans.Code == dns.ServFail || ans.Code == dns.Timeout {
					return Reject(ndr.T1SenderDNS)
				}
				return Pass()
			}
		},
	},
	{
		name: "greylist", typ: ndr.T6Greylisted, phase: PhaseRcpt,
		doc: "greylisting: defer unseen (client, from, to) tuples (T6)",
		check: func(env *Env, d *world.ReceiverDomain) CheckFunc {
			return func(st StageState, req *Request) Verdict {
				if d.Policy.Greylisting && d.Greylist != nil {
					v := d.Greylist.Check(req.ClientIP, req.From.String(), req.To.String(), req.At)
					if v == greylist.Defer {
						return Reject(ndr.T6Greylisted)
					}
				}
				return Pass()
			}
		},
	},
	{
		name: "spamtrap", typ: ndr.TNone, phase: PhaseRcpt,
		doc: "spamtrap exposure: spam reaching trap addresses reports the client to the shared blocklist (side effect only)",
		check: func(env *Env, d *world.ReceiverDomain) CheckFunc {
			return func(st StageState, req *Request) Verdict {
				// Traps fire once the sender is past connection-level
				// blocks; the report drives the Figure-6 blocklisting
				// dynamics rather than this attempt's verdict.
				if req.Proxy == nil {
					return Pass()
				}
				if req.SpamFlagged || d.Filter.Classify(req.Tokens) {
					pol := &d.Policy
					if st.RNG().Bool(env.World.TrapProb * req.Proxy.TrapExposure * (pol.SpamtrapShare / 0.03)) {
						st.ReportSpam(req.Proxy.IP, req.At)
					}
				}
				return Pass()
			}
		},
	},
	{
		name: "rcpt-count", typ: ndr.T10TooManyRcpts, phase: PhaseRcpt,
		doc: "recipient-count ceiling per message (T10)",
		check: func(env *Env, d *world.ReceiverDomain) CheckFunc {
			return func(st StageState, req *Request) Verdict {
				if d.Policy.MaxRcpts > 0 && req.RcptCount > d.Policy.MaxRcpts {
					return Reject(ndr.T10TooManyRcpts)
				}
				return Pass()
			}
		},
	},
	{
		name: "rcpt-exists", typ: ndr.T8NoSuchUser, phase: PhaseRcpt,
		doc: "recipient existence and account-inactive checks (T8)",
		check: func(env *Env, d *world.ReceiverDomain) CheckFunc {
			return func(st StageState, req *Request) Verdict {
				mbox, ok := d.Users[req.To.Local]
				if !ok {
					return Reject(ndr.T8NoSuchUser)
				}
				if mbox.InactiveAt(req.At) {
					return Verdict{Type: ndr.T8NoSuchUser, Template: inactiveIdx}
				}
				return Pass()
			}
		},
	},
	{
		name: "quota", typ: ndr.T9MailboxFull, phase: PhaseRcpt,
		doc: "mailbox over-quota windows (T9)",
		check: func(env *Env, d *world.ReceiverDomain) CheckFunc {
			return func(st StageState, req *Request) Verdict {
				// Looked up again rather than threaded from rcpt-exists so
				// the stage stays meaningful when rcpt-exists is ablated.
				if mbox, ok := d.Users[req.To.Local]; ok && mbox.FullAt(req.At) {
					return Reject(ndr.T9MailboxFull)
				}
				return Pass()
			}
		},
	},
	{
		name: "inbound-rate", typ: ndr.T11RateLimited, phase: PhaseRcpt,
		doc: "per-recipient and per-domain daily inbound volume limits (T11)",
		check: func(env *Env, d *world.ReceiverDomain) CheckFunc {
			return func(st StageState, req *Request) Verdict {
				pol := &d.Policy
				if pol.UserDailyLimit > 0 {
					key := Key("ud", 0, req.To.String(), clock.Day(req.At))
					n := st.Peek(key)
					if req.First {
						n = st.Bump(key)
					}
					if n > pol.UserDailyLimit {
						return Reject(ndr.T11RateLimited)
					}
				}
				if pol.DomainDailyLimit > 0 {
					key := Key("dd", 0, d.Name, clock.Day(req.At))
					n := st.Peek(key)
					if req.First {
						n = st.Bump(key)
					}
					if n > pol.DomainDailyLimit {
						return Reject(ndr.T11RateLimited)
					}
				}
				return Pass()
			}
		},
	},
	{
		name: "auth", typ: ndr.T3AuthFail, phase: PhaseData,
		doc: "SPF/DKIM verification with DMARC policy (T3); DKIM needs the message body, so the stage sits at DATA; DKIM is checked only when SPF has not passed",
		check: func(env *Env, d *world.ReceiverDomain) CheckFunc {
			return func(st StageState, req *Request) Verdict {
				if !d.Policy.EnforceAuth || req.Proxy == nil {
					return Pass()
				}
				senderDomain := req.From.Domain
				spfRes := st.SPF().Evaluate(req.ClientIP, senderDomain, req.At)
				dkimRes := auth.DKIMNone
				if sd := env.SenderDomain(senderDomain); sd != nil {
					// The key lookup moves the shard resolver's cache
					// and failure draws, so it runs whatever SPF said;
					// the signature can decide only where SPF did not pass.
					key := st.DKIM().Lookup(sd.Signer.Domain, sd.Signer.Selector, req.At)
					if !spfRes.Pass() {
						dkimRes = key.Check(sd.Signer.Sign(req.MsgID), req.MsgID)
					}
				}
				if spfRes.Pass() || dkimRes.Pass() {
					return Pass()
				}
				if spfRes == auth.SPFTempError || dkimRes == auth.DKIMTempError {
					return Verdict{Type: ndr.T3AuthFail, Template: authBothIdx} // temp 421 variant
				}
				dm := st.DMARC().Evaluate(senderDomain, spfRes, senderDomain, dkimRes, senderDomain, req.At)
				if dm.Found && dm.Policy == auth.DMARCReject && !dm.Aligned {
					return Verdict{Type: ndr.T3AuthFail, Template: authDMARCIdx}
				}
				// Neither mechanism passed; strict receivers bounce (the
				// paper's 42%/55% both-vs-either split emerges from how
				// records break).
				if spfRes == auth.SPFFail && dkimRes == auth.DKIMFail {
					return Verdict{Type: ndr.T3AuthFail, Template: authBothIdx}
				}
				return Verdict{Type: ndr.T3AuthFail, Template: authEitherIdx}
			}
		},
	},
	{
		name: "size", typ: ndr.T12TooLarge, phase: PhaseData,
		doc: "message size ceiling (T12)",
		check: func(env *Env, d *world.ReceiverDomain) CheckFunc {
			return func(st StageState, req *Request) Verdict {
				if d.Policy.MaxMsgSize > 0 && req.SizeBytes > d.Policy.MaxMsgSize {
					return Reject(ndr.T12TooLarge)
				}
				return Pass()
			}
		},
	},
	{
		name: "content", typ: ndr.T13ContentSpam, phase: PhaseData,
		doc: "content spam filter over the message tokens (T13)",
		check: func(env *Env, d *world.ReceiverDomain) CheckFunc {
			return func(st StageState, req *Request) Verdict {
				if d.Filter.Classify(req.Tokens) {
					return Reject(ndr.T13ContentSpam)
				}
				return Pass()
			}
		},
	},
	{
		name: "quirk", typ: ndr.T16Unknown, phase: PhaseData,
		doc: "idiosyncratic rejections: RFC-compliance pedantry, intrusion prevention and similar receiver quirks (T16)",
		check: func(env *Env, d *world.ReceiverDomain) CheckFunc {
			return func(st StageState, req *Request) Verdict {
				if d.Policy.QuirkProb > 0 && st.RNG().Bool(d.Policy.QuirkProb) {
					return Reject(ndr.T16Unknown)
				}
				return Pass()
			}
		},
	},
}

// Catalog indices of the specific templates some stages pin, resolved
// once against the ndr catalog.
var (
	authBothIdx   = findTemplate(ndr.T3AuthFail, "SPF and DKIM both")
	authEitherIdx = findTemplate(ndr.T3AuthFail, "SPF or DKIM")
	authDMARCIdx  = findTemplate(ndr.T3AuthFail, "DMARC policy")
	inactiveIdx   = findInactiveTemplate()
)

// findTemplate locates the catalog template of typ whose text contains
// marker.
func findTemplate(typ ndr.Type, marker string) int {
	for _, i := range ndr.TemplatesFor(typ) {
		if strings.Contains(ndr.Catalog[i].Text, marker) {
			return i
		}
	}
	return -1
}

// findInactiveTemplate returns the catalog index of the "account
// inactive" T8 variant (enhanced code 5.2.1).
func findInactiveTemplate() int {
	for _, i := range ndr.TemplatesFor(ndr.T8NoSuchUser) {
		if ndr.Catalog[i].Enh == (mail.EnhancedCode{Class: 5, Subject: 2, Detail: 1}) {
			return i
		}
	}
	return -1
}
