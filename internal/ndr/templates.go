package ndr

import (
	"strings"

	"repro/internal/mail"
)

// Params carries the per-message values substituted into a template.
type Params struct {
	Addr   string // full recipient address
	Local  string // recipient local part
	Domain string // recipient (or sender, for T1/T3) domain
	IP     string // client (proxy MTA) IP
	MX     string // receiver MX host (for sender-side session errors)
	BL     string // blocklist name
	Vendor string // opaque vendor-defined code, e.g. "p05sm12345"
	Sec    string // seconds value (greylist retry, timeout elapsed)
	Size   string // size limit in bytes
}

// Template is one NDR message template. Text contains the full reply
// line including the reply-code prefix, with {placeholders} substituted
// at render time. Code and Enh are the machine-readable ground truth the
// delivery engine uses for retry decisions; Enh.IsZero() marks the
// templates that omit an enhanced status code (28.79% of NDR messages in
// the paper carry none).
type Template struct {
	Type      Type
	Code      mail.ReplyCode
	Enh       mail.EnhancedCode
	Text      string
	Ambiguous bool    // one of the Table-6 ambiguous templates
	Weight    float64 // relative prevalence among the type's templates
}

// Soft reports whether the template signals a transient (4xx) failure.
func (tp *Template) Soft() bool { return tp.Code.Temporary() }

// Render substitutes params into the template text.
func (tp *Template) Render(p Params) string { return expand(tp.Text, &p) }

// expand replaces each {placeholder} in text with its value from p in
// one left-to-right pass. Substituted values are not rescanned, and a
// brace that opens no placeholder is copied as is. No placeholder is a
// prefix of another, so this is what a strings.Replacer over the nine
// pairs produces, without building one per reply.
func expand(text string, p *Params) string {
	i := strings.IndexByte(text, '{')
	if i < 0 {
		return text
	}
	var b strings.Builder
	b.Grow(len(text) + 32)
	for i >= 0 {
		b.WriteString(text[:i])
		text = text[i:]
		if v, n := p.placeholder(text); n > 0 {
			b.WriteString(v)
			text = text[n:]
		} else {
			b.WriteByte('{')
			text = text[1:]
		}
		i = strings.IndexByte(text, '{')
	}
	b.WriteString(text)
	return b.String()
}

// placeholder returns the value of the placeholder s starts with and
// the placeholder's length, or a zero length when s, which starts with
// '{', starts with none.
func (p *Params) placeholder(s string) (string, int) {
	end := strings.IndexByte(s, '}')
	if end < 0 {
		return "", 0
	}
	var v string
	switch s[1:end] {
	case "addr":
		v = p.Addr
	case "local":
		v = p.Local
	case "domain":
		v = p.Domain
	case "ip":
		v = p.IP
	case "mx":
		v = p.MX
	case "bl":
		v = p.BL
	case "vendor":
		v = p.Vendor
	case "sec":
		v = p.Sec
	case "size":
		v = p.Size
	default:
		return "", 0
	}
	return v, end + 1
}

// enh is shorthand for constructing enhanced codes in the catalog.
func enh(c, s, d int) mail.EnhancedCode { return mail.EnhancedCode{Class: c, Subject: s, Detail: d} }

// Catalog is the full template catalog. Strings quoted in the paper
// appear verbatim. Order is stable; the index is the template's ID.
var Catalog = []Template{
	// ---- T1: sender domain DNS failure (receiver-side checks) ----
	{T1SenderDNS, 450, enh(4, 1, 8), "450 4.1.8 {domain}: Sender address rejected: Domain not found", false, 4},
	{T1SenderDNS, 450, enh(4, 7, 1), "450-4.7.1 Client host rejected: cannot find your hostname, [{ip}]", false, 3},
	{T1SenderDNS, 451, enh(4, 4, 3), "451 4.4.3 Temporary lookup failure on sender domain {domain}", false, 2},
	{T1SenderDNS, 550, mail.EnhancedCode{}, "550 unknown sender domain {domain}", false, 1},

	// ---- T2: receiver domain DNS failure (sender-side, Coremail-written) ----
	{T2ReceiverDNS, 550, enh(5, 4, 4), "550 5.4.4 [internal] Host not found ({domain}): MX lookup failed", false, 5},
	{T2ReceiverDNS, 451, enh(4, 4, 3), "451 4.4.3 [internal] Temporary DNS failure resolving {domain}", false, 2},
	{T2ReceiverDNS, 550, enh(5, 1, 2), "550 5.1.2 Bad destination system address: {domain} NXDOMAIN", false, 3},
	{T2ReceiverDNS, 554, mail.EnhancedCode{}, "554 [internal] No route to host for {domain}: DNS error", false, 1},

	// ---- T3: authentication failure ----
	{T3AuthFail, 421, enh(4, 7, 0), "421-4.7.0 This message does not pass authentication checks (SPF and DKIM both do not pass)", false, 4},
	{T3AuthFail, 550, enh(5, 7, 26), "550-5.7.26 This message does not have authentication information or fails to pass authentication checks (SPF or DKIM)", false, 5},
	{T3AuthFail, 550, enh(5, 7, 26), "550-5.7.26 Unauthenticated email from {domain} is not accepted due to domain's DMARC policy", false, 1},
	{T3AuthFail, 550, enh(5, 7, 1), "550 5.7.1 Email rejected per SPF policy: {ip} is not allowed to send mail from {domain}", false, 2},
	{T3AuthFail, 550, enh(5, 7, 20), "550 5.7.20 No passing DKIM signature found in message from {domain}", false, 1},

	// ---- T4: STARTTLS ----
	{T4STARTTLS, 530, enh(5, 7, 0), "530 5.7.0 Must issue a STARTTLS command first", false, 4},
	{T4STARTTLS, 454, enh(4, 7, 0), "454 4.7.0 TLS not available due to local problem", false, 1},
	{T4STARTTLS, 550, enh(5, 7, 10), "550 5.7.10 Encryption required: {domain} mandates TLS for all mail", false, 2},

	// ---- T5: blocklisted ----
	{T5Blocklisted, 554, mail.EnhancedCode{}, "554 Service unavailable; Client host [{ip}] blocked using {bl}", false, 6},
	{T5Blocklisted, 550, enh(5, 7, 1), "550-5.7.1 This email was rejected because it violates our security policy. Remotehost is listed in the following RBL lists: {bl}", false, 3},
	{T5Blocklisted, 554, enh(5, 7, 1), "554 5.7.1 {ip} listed at {bl}; see delisting portal", false, 2},
	{T5Blocklisted, 421, enh(4, 7, 0), "421 4.7.0 Connection refused: {ip} has poor reputation, try again later", false, 3},
	{T5Blocklisted, 550, mail.EnhancedCode{}, "550 Blocked - consult blocklist removal portal for [{ip}]", false, 1},

	// ---- T6: greylisted ----
	{T6Greylisted, 450, enh(4, 7, 1), "450 4.7.1 Greylisted, please try again in {sec} seconds", false, 4},
	{T6Greylisted, 451, enh(4, 7, 1), "451-4.7.1 Greylisting in action, retry later from the same server", false, 2},
	{T6Greylisted, 450, enh(4, 2, 0), "450 4.2.0 {addr}: Recipient address rejected: Greylisted", false, 2},

	// ---- T7: delivering too fast ----
	{T7TooFast, 421, enh(4, 7, 0), "421 4.7.0 Too many connections from {ip}, slow down", false, 3},
	{T7TooFast, 450, enh(4, 7, 1), "450 4.7.1 Error: too much mail from {ip}, deferring", false, 2},
	{T7TooFast, 421, enh(4, 7, 28), "421-4.7.28 Our system has detected an unusual rate of unsolicited mail originating from your IP address {ip}, deferred", false, 2},

	// ---- T8: no such user ----
	{T8NoSuchUser, 550, enh(5, 1, 1), "550-5.1.1 {addr} Email address could not be found, or was misspelled ({vendor})", false, 6},
	{T8NoSuchUser, 550, enh(5, 7, 1), "550-5.7.1 Recipient address rejected: user {addr} does not exist", false, 4},
	{T8NoSuchUser, 550, enh(5, 1, 1), "550 5.1.1 <{addr}>: Recipient address rejected: User unknown in virtual mailbox table", false, 3},
	{T8NoSuchUser, 550, mail.EnhancedCode{}, "550 No such user {local} here", false, 2},
	{T8NoSuchUser, 550, enh(5, 1, 1), "550 5.1.1 sorry, no mailbox here by that name ({vendor})", false, 1},
	{T8NoSuchUser, 550, enh(5, 2, 1), "550-5.2.1 The email account that you tried to reach is inactive and has been disabled ({vendor})", false, 1},

	// ---- T9: mailbox full ----
	{T9MailboxFull, 452, enh(4, 2, 2), "452-4.2.2 The email account that you tried to reach is over quota", false, 4},
	{T9MailboxFull, 552, enh(5, 2, 2), "552-5.2.2 The email account that you tried to reach is over quota and inactive", false, 2},
	{T9MailboxFull, 501, enh(5, 0, 1), "501-5.0.1 {local} has exceeded his/her disk space limit.", false, 1},
	{T9MailboxFull, 452, enh(4, 1, 1), "452-4.1.1 {addr} mailbox full", false, 3},
	{T9MailboxFull, 552, mail.EnhancedCode{}, "552 Requested mail action aborted: exceeded storage allocation", false, 2},

	// ---- T10: too many recipients ----
	{T10TooManyRcpts, 550, enh(5, 5, 3), "550 5.5.3 Too many recipients for this message", false, 3},
	{T10TooManyRcpts, 452, enh(4, 5, 3), "452 4.5.3 Error: too many recipients", false, 2},

	// ---- T11: rate limited ----
	{T11RateLimited, 450, enh(4, 2, 1), "450 4.2.1 The user you are trying to contact is receiving mail too quickly ({vendor})", false, 3},
	{T11RateLimited, 421, enh(4, 7, 0), "421 4.7.0 {domain} has exceeded its inbound message rate limit", false, 2},
	{T11RateLimited, 452, enh(4, 3, 1), "452 4.3.1 Mail quota exceeded for this hour, try again later", false, 1},
	{T11RateLimited, 550, enh(5, 2, 1), "550 5.2.1 Recipient {addr} receiving at too high a rate, rejected", false, 1},

	// ---- T12: too large ----
	{T12TooLarge, 552, enh(5, 3, 4), "552 5.3.4 Message size exceeds fixed maximum message size", false, 3},
	{T12TooLarge, 554, enh(5, 3, 4), "554 5.3.4 Message too big for system; maximum {size} bytes", false, 2},
	{T12TooLarge, 523, mail.EnhancedCode{}, "523 the message size exceeds the recipient's size limit", false, 1},

	// ---- T13: content spam ----
	{T13ContentSpam, 550, enh(5, 7, 1), "550-5.7.1 Message contains spam or virus. ({vendor})", false, 4},
	{T13ContentSpam, 554, enh(5, 7, 1), "554 5.7.1 The message was rejected because it contains prohibited virus or spam content", false, 3},
	{T13ContentSpam, 550, mail.EnhancedCode{}, "550 High probability of spam; message refused", false, 2},
	{T13ContentSpam, 554, enh(5, 6, 0), "554-5.6.0 Message identified as SPAM ({vendor})", false, 2},

	// ---- T14: session timeout (sender-side, Coremail-written) ----
	{T14Timeout, 421, enh(4, 4, 1), "421 4.4.1 [internal] Connection timed out while talking to {mx}", false, 5},
	{T14Timeout, 451, enh(4, 4, 2), "451 4.4.2 [internal] Timeout waiting for response from {mx} after DATA", false, 3},
	{T14Timeout, 421, mail.EnhancedCode{}, "421 [internal] SMTP session timeout with {mx} ({sec}s elapsed)", false, 2},

	// ---- T15: session interruption (sender-side) ----
	{T15Interrupted, 451, enh(4, 4, 2), "451 4.4.2 [internal] Connection reset by peer during transmission to {mx}", false, 3},
	{T15Interrupted, 421, enh(4, 4, 2), "421 4.4.2 [internal] Lost connection with {mx} while sending RCPT TO", false, 2},
	{T15Interrupted, 451, enh(4, 3, 0), "451 4.3.0 [internal] Remote server {mx} closed connection unexpectedly", false, 2},

	// ---- T16: unknown/other (non-ambiguous oddballs the paper quotes) ----
	{T16Unknown, 550, mail.EnhancedCode{}, "550 ({vendor}) This message is not RFC 5322 compliant", false, 2},
	{T16Unknown, 421, mail.EnhancedCode{}, "421 ({vendor}) Intrusion prevention active for [{ip}]", false, 2},
	{T16Unknown, 554, mail.EnhancedCode{}, "554 Denied ({vendor})", false, 1},

	// ---- Ambiguous Table-6 templates (flagged, typed T16) ----
	{T16Unknown, 550, enh(5, 4, 1), "550 5.4.1 Recipient address rejected: Access denied. AS(201806281) [{vendor}]", true, 20},
	{T16Unknown, 554, enh(5, 7, 1), "554 5.7.1 [{ip}] Message rejected due to local policy. ({vendor})", true, 3},
	{T16Unknown, 550, mail.EnhancedCode{}, "550 ({vendor}) Mail is rejected by recipients", true, 2},
	{T16Unknown, 554, mail.EnhancedCode{}, "554 [{ip}] Not allowed.(CONNECT)", true, 2},
	{T16Unknown, 554, mail.EnhancedCode{}, "554 Relay access denied ({vendor})", true, 1},
}

// typeIndex caches catalog indices per type, built once at init.
var typeIndex = func() map[Type][]int {
	m := make(map[Type][]int)
	for i, tp := range Catalog {
		m[tp.Type] = append(m[tp.Type], i)
	}
	return m
}()

// TemplatesFor returns the catalog indices of all templates of type t
// (including ambiguous ones for T16).
func TemplatesFor(t Type) []int { return typeIndex[t] }

// NonAmbiguousTemplatesFor returns catalog indices of non-ambiguous
// templates of type t.
func NonAmbiguousTemplatesFor(t Type) []int {
	var out []int
	for _, i := range typeIndex[t] {
		if !Catalog[i].Ambiguous {
			out = append(out, i)
		}
	}
	return out
}

// AmbiguousTemplates returns catalog indices of the Table-6 ambiguous
// templates.
func AmbiguousTemplates() []int {
	var out []int
	for i, tp := range Catalog {
		if tp.Ambiguous {
			out = append(out, i)
		}
	}
	return out
}

// SuccessReplies are the acceptance lines receivers send; the dataset's
// delivery_result holds one of these for successful attempts.
var SuccessReplies = []string{
	"250 OK",
	"250 2.0.0 OK: queued as {vendor}",
	"250 2.6.0 <{vendor}@{domain}> accepted",
	"250 2.0.0 Ok: {vendor} bytes queued",
}

// RenderSuccess renders a success reply variant (idx modulo the list).
func RenderSuccess(idx int, p Params) string {
	tpl := SuccessReplies[((idx%len(SuccessReplies))+len(SuccessReplies))%len(SuccessReplies)]
	return expand(tpl, &p)
}
