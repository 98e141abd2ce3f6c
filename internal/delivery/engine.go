// Package delivery executes email deliveries against a generated
// world: Coremail's random-proxy retry strategy on the sender side, and
// the receiver-side policy gauntlet (the internal/policy stage chain:
// DNS, TLS mandate, DNSBL, greylisting, rate limits, SPF/DKIM/DMARC,
// recipient existence, quota, size, content filtering) on the other.
// Every delivery produces a Figure-3 dataset record; the bounce-reason
// ground truth is returned separately for validation only and never
// enters the dataset.
package delivery

import (
	"fmt"
	"hash/fnv"
	"math"
	"time"

	"repro/internal/auth"
	"repro/internal/dataset"
	"repro/internal/dns"
	"repro/internal/mail"
	"repro/internal/ndr"
	"repro/internal/policy"
	"repro/internal/simrng"
	"repro/internal/world"
)

// NumShards is the fixed number of receiver-domain partitions the
// engine's mutable state is split into. It is independent of the
// worker count: workers claim whole shards per batch, so the
// shard→state mapping (and therefore the dataset) never changes when
// the worker count does.
const NumShards = 16

// Engine drives deliveries. Create with New. The engine is safe for
// concurrent use through DeliverBatch/ParallelRun: mutable delivery
// state is partitioned into NumShards receiver-domain shards, each
// delivered by exactly one worker goroutine per batch, and every
// submission draws from a private RNG stream derived from its message
// ID rather than from engine-call order. Any worker count therefore
// produces a byte-identical dataset for the same seed.
type Engine struct {
	W *world.World

	// MaxAttempts is Coremail's retry budget for Normal email; Spam is
	// delivered exactly once (Section 3.1).
	MaxAttempts int

	// PinProxy repeats the same proxy MTA for every retry of an email
	// instead of picking randomly — the greylist-friendly remediation
	// the paper says Coremail promised (ablation knob).
	PinProxy bool

	// Metrics counts per-stage rejections across every receiver chain.
	Metrics *policy.Metrics

	env         *policy.Env
	chains      map[string]*policy.Chain // receiver domain -> assembled gauntlet
	seedBase    uint64
	shards      [NumShards]*shard
	domainShard map[string]int // receiver domain -> shard (built from world ranks)
}

// shard holds the delivery state for one receiver-domain partition:
// the DNS resolver (its cache and transient-failure draws are
// order-sensitive, so each shard gets its own), the auth evaluators
// bound to that resolver, and the policy-stage counter and
// learned-mandate maps (keyed by policy.Key, shared across the shard's
// domains).
type shard struct {
	resolver *dns.Resolver
	spf      *auth.SPFEvaluator
	dkim     *auth.DKIMVerifier
	dmarc    *auth.DMARCEvaluator

	counters map[uint64]int  // rate-limit windows (T7/T11)
	learned  map[uint64]bool // TLS mandates discovered (T4)
}

// New creates an engine over w with the default 5-attempt budget.
func New(w *world.World) *Engine {
	e := &Engine{
		W:           w,
		MaxAttempts: 5,
		Metrics:     policy.NewMetrics(),
		env:         policy.NewEnv(w),
		seedBase:    w.Cfg.Seed ^ 0xde11ef27,
		chains:      make(map[string]*policy.Chain, len(w.Domains)),
		domainShard: make(map[string]int, len(w.Domains)),
	}
	root := simrng.New(e.seedBase)
	for i := range e.shards {
		res := dns.NewResolver(w.DNS, root.Stream(fmt.Sprintf("shard:%d:resolver", i)))
		res.TransientFailProb = w.Cfg.TransientDNSFailProb
		e.shards[i] = &shard{
			resolver: res,
			spf:      &auth.SPFEvaluator{Resolver: res},
			dkim:     &auth.DKIMVerifier{Resolver: res},
			dmarc:    &auth.DMARCEvaluator{Resolver: res},
			counters: make(map[uint64]int),
			learned:  make(map[uint64]bool),
		}
	}
	// Spread known domains round-robin by popularity rank so the Zipf
	// head doesn't pile onto one shard; unknown (dead/typo) domains
	// fall back to hashing in shardOf. Each domain gets its policy
	// chain assembled once, up front.
	for _, d := range w.Domains {
		e.domainShard[d.Name] = d.Rank % NumShards
		e.chains[d.Name] = policy.NewChain(e.env, d, policy.ChainOptions{Metrics: e.Metrics})
	}
	return e
}

// DisableStages turns the named policy stages off in every receiver
// chain (the -disable-stage ablation knob). Call before delivering.
func (e *Engine) DisableStages(names ...string) error {
	for _, c := range e.chains {
		if err := c.Disable(names...); err != nil {
			return err
		}
	}
	return nil
}

// ForceStages makes the named policy stages reject unconditionally in
// every receiver chain. Call before delivering.
func (e *Engine) ForceStages(names ...string) error {
	for _, c := range e.chains {
		if err := c.Force(names...); err != nil {
			return err
		}
	}
	return nil
}

// shardOf maps a receiver domain to its shard.
func (e *Engine) shardOf(domain string) int {
	if s, ok := e.domainShard[domain]; ok {
		return s
	}
	h := fnv.New64a()
	h.Write([]byte(domain))
	return int(h.Sum64() % NumShards)
}

// submissionRNG derives the private RNG stream for one submission from
// its stable message ID, so a delivery's randomness is independent of
// how deliveries interleave across workers.
func (e *Engine) submissionRNG(id string) *simrng.RNG {
	return simrng.New(e.seedBase).Stream("msg:" + id)
}

// Truth is the engine's ground-truth annotation for one delivered
// email: the bounce type of each failed attempt. Validation tests use
// it; the analysis pipeline never sees it.
type Truth struct {
	AttemptTypes []ndr.Type
}

// attemptOutcome is one delivery attempt's result.
type attemptOutcome struct {
	reply     string
	latencyMS int64
	toIP      string
	success   bool
	temporary bool
	typ       ndr.Type
}

// spamReport is a buffered spamtrap hit awaiting ordered application
// to the shared blocklist.
type spamReport struct {
	ip string
	at time.Time
}

// result is one delivered submission awaiting the ordered merge.
type result struct {
	rec     dataset.Record
	truth   Truth
	reports []spamReport
}

// dctx bundles everything one delivery touches: the engine, the
// receiver domain's shard, and the submission's private RNG stream.
// Spamtrap reports are buffered here so the caller can apply them to
// the shared blocklist in deterministic sequence order.
//
// dctx is the engine's policy.StageState: stages read and write the
// owning shard's counter and learned maps, which only the shard's
// worker goroutine touches during a batch — ParallelRun determinism is
// unchanged by routing the mutations through the interface.
type dctx struct {
	e       *Engine
	sh      *shard
	rng     *simrng.RNG
	reports []spamReport
}

// RNG returns the submission's private random stream.
func (dc *dctx) RNG() *simrng.RNG { return dc.rng }

// Resolver returns the shard's DNS resolver.
func (dc *dctx) Resolver() *dns.Resolver { return dc.sh.resolver }

// SPF returns the shard's SPF evaluator.
func (dc *dctx) SPF() *auth.SPFEvaluator { return dc.sh.spf }

// DKIM returns the shard's DKIM verifier.
func (dc *dctx) DKIM() *auth.DKIMVerifier { return dc.sh.dkim }

// DMARC returns the shard's DMARC evaluator.
func (dc *dctx) DMARC() *auth.DMARCEvaluator { return dc.sh.dmarc }

// Bump increments and returns the shard counter at key.
func (dc *dctx) Bump(key uint64) int {
	dc.sh.counters[key]++
	return dc.sh.counters[key]
}

// Peek returns the shard counter at key.
func (dc *dctx) Peek(key uint64) int { return dc.sh.counters[key] }

// LearnOnce records key in the shard's learned set and reports whether
// it was already known.
func (dc *dctx) LearnOnce(key uint64) bool {
	if dc.sh.learned[key] {
		return true
	}
	dc.sh.learned[key] = true
	return false
}

// ReportSpam buffers a spamtrap hit for ordered application to the
// shared blocklist at merge time.
func (dc *dctx) ReportSpam(ip string, at time.Time) {
	dc.reports = append(dc.reports, spamReport{ip: ip, at: at})
}

// Deliver executes the full delivery of one submission and returns its
// dataset record plus ground truth. Spamtrap reports are applied
// immediately; batch runs instead defer them to the ordered merge (see
// DeliverBatch).
func (e *Engine) Deliver(sub *world.Submission) (dataset.Record, Truth) {
	res := e.deliver(sub)
	e.applyReports(res.reports)
	return res.rec, res.truth
}

// deliver runs one submission with no cross-shard writes: blocklist
// reports are returned for the caller to apply.
func (e *Engine) deliver(sub *world.Submission) result {
	msg := sub.Msg
	dc := &dctx{
		e:   e,
		sh:  e.shards[e.shardOf(msg.To.Domain)],
		rng: e.submissionRNG(msg.ID),
	}
	maxAttempts := e.MaxAttempts
	if msg.IsSpam() {
		maxAttempts = 1 // "Coremail sends emails that are determined to be spam once"
	}
	rec := dataset.Record{
		From:      msg.From.String(),
		To:        msg.To.String(),
		StartTime: msg.QueuedAt,
		EmailFlag: string(msg.Flag),
	}
	var truth Truth
	t := msg.QueuedAt
	var pinned *world.ProxyMTA
	st := deliveryState{}
	for attempt := 0; attempt < maxAttempts; attempt++ {
		proxy := e.W.PickProxy(dc.rng)
		if e.PinProxy {
			if pinned == nil {
				pinned = proxy
			}
			proxy = pinned
		}
		st.first = attempt == 0
		out := dc.attempt(msg, proxy, t, &st)
		if out.typ == ndr.T4STARTTLS {
			// Coremail "immediately switches to using STARTTLS to
			// redeliver the email": later attempts of this message
			// negotiate TLS up front.
			st.forceTLS = true
		}
		rec.FromIP = append(rec.FromIP, proxy.IP)
		rec.ToIP = append(rec.ToIP, out.toIP)
		rec.DeliveryResult = append(rec.DeliveryResult, out.reply)
		rec.DeliveryLatency = append(rec.DeliveryLatency, out.latencyMS)
		truth.AttemptTypes = append(truth.AttemptTypes, out.typ)
		t = t.Add(time.Duration(out.latencyMS) * time.Millisecond)
		rec.EndTime = t
		if out.success || attempt == maxAttempts-1 {
			break
		}
		t = t.Add(dc.retryDelay(attempt))
	}
	return result{rec: rec, truth: truth, reports: dc.reports}
}

// retryDelay is Coremail's backoff schedule: minutes at first, hours
// later (soft-bounced emails average ~3 attempts over tens of minutes).
func (dc *dctx) retryDelay(attempt int) time.Duration {
	base := []time.Duration{
		7 * time.Minute, 22 * time.Minute, time.Hour, 3 * time.Hour,
	}
	d := base[minInt(attempt, len(base)-1)]
	jitter := 0.7 + 0.6*dc.rng.Float64()
	return time.Duration(float64(d) * jitter)
}

// attempt runs one delivery attempt through DNS, the network model,
// and the receiver's policy gauntlet.
// deliveryState carries per-message knowledge across retry attempts.
type deliveryState struct {
	first    bool
	forceTLS bool
}

func (dc *dctx) attempt(msg *mail.Message, proxy *world.ProxyMTA, t time.Time, st *deliveryState) attemptOutcome {
	w := dc.e.W

	rcvrDomain := msg.To.Domain

	// 1. Resolve the receiver's MX (T2 on failure).
	hosts, code := dc.sh.resolver.ResolveMX(rcvrDomain, t)
	if code != dns.NoError {
		return dc.senderSideBounce(msg, proxy, t, ndr.T2ReceiverDNS, code, "")
	}
	ips, code := dc.sh.resolver.ResolveA(hosts[0], t)
	if code != dns.NoError || len(ips) == 0 {
		return dc.senderSideBounce(msg, proxy, t, ndr.T2ReceiverDNS, code, hosts[0])
	}
	mxIP := ips[0]

	d := w.DomainByName[rcvrDomain]
	lat := dc.sessionLatencyMS(proxy, d, rcvrDomain)

	// 2. Network quality (T14 timeout / T15 interruption).
	country := ""
	if d != nil {
		country = d.Country
	} else if cc, _, ok := w.Geo.Lookup(mxIP); ok {
		country = cc
	}
	pTimeout := w.Geo.TimeoutProb(proxy.Region, country)
	if dc.rng.Bool(pTimeout) {
		out := dc.senderSideBounce(msg, proxy, t, ndr.T14Timeout, dns.NoError, hosts[0])
		out.toIP = mxIP
		out.latencyMS = 30000 + int64(dc.rng.IntN(270000))
		return out
	}
	if dc.rng.Bool(pTimeout * 0.45) {
		out := dc.senderSideBounce(msg, proxy, t, ndr.T15Interrupted, dns.NoError, hosts[0])
		out.toIP = mxIP
		out.latencyMS = lat / 2
		return out
	}

	// Mid-study dead domains (and other MX-resolvable hosts without a
	// live policy object) accept mail.
	if d == nil {
		return attemptOutcome{
			reply:     ndr.RenderSuccess(dc.rng.IntN(4), ndr.Params{Vendor: dc.vendor(), Domain: rcvrDomain}),
			latencyMS: lat, toIP: mxIP, success: true, typ: ndr.TNone,
		}
	}

	// 3. Receiver policy gauntlet: the domain's stage chain evaluated
	// linearly, with this dctx as the shard-owned StageState.
	req := &policy.Request{
		From:        msg.From,
		To:          msg.To,
		MsgID:       msg.ID,
		ClientIP:    proxy.IP,
		Proxy:       proxy,
		At:          t,
		First:       st.first,
		TLS:         st.forceTLS,
		SpamFlagged: msg.IsSpam(),
		RcptCount:   msg.RcptCount,
		SizeBytes:   msg.SizeBytes,
		Tokens:      msg.Tokens,
	}
	chain := dc.e.chains[d.Name]
	if v := chain.Evaluate(dc, req); v.Rejected() {
		return dc.renderReceiverBounce(msg, proxy, d, chain.Resolve(v, req), lat, mxIP)
	}

	return attemptOutcome{
		reply:     ndr.RenderSuccess(int(dc.rng.Uint64()), ndr.Params{Vendor: dc.vendor(), Domain: rcvrDomain}),
		latencyMS: lat, toIP: mxIP, success: true, typ: ndr.TNone,
	}
}

// renderReceiverBounce renders the receiver's NDR for the chain's
// resolved rejection.
func (dc *dctx) renderReceiverBounce(msg *mail.Message, proxy *world.ProxyMTA, d *world.ReceiverDomain, res policy.Resolved, lat int64, mxIP string) attemptOutcome {
	tp := &ndr.Catalog[res.Index]
	params := ndr.Params{
		Addr:   msg.To.String(),
		Local:  msg.To.Local,
		Domain: policy.TemplateDomain(res.Type, msg.From.Domain, d.Name),
		IP:     proxy.IP,
		MX:     d.MXHost,
		BL:     policy.BlocklistName(d.Name),
		Vendor: dc.vendor(),
		Sec:    "300",
		Size:   fmt.Sprintf("%d", d.Policy.MaxMsgSize),
	}
	return attemptOutcome{
		reply:     tp.Render(params),
		latencyMS: lat,
		toIP:      mxIP,
		temporary: res.Temporary,
		typ:       res.Type,
	}
}

// senderSideBounce renders an NDR written by Coremail's own proxy (DNS
// failures and connection errors never reach the receiver MTA).
func (dc *dctx) senderSideBounce(msg *mail.Message, proxy *world.ProxyMTA, t time.Time, typ ndr.Type, code dns.RCode, mxHost string) attemptOutcome {
	idxs := ndr.NonAmbiguousTemplatesFor(typ)
	// Temporary DNS trouble uses the 4xx variant; NXDOMAIN the 5xx one.
	var idx int
	switch typ {
	case ndr.T2ReceiverDNS:
		if code == dns.ServFail || code == dns.Timeout {
			idx = pickByCodeClass(idxs, true, dc.rng)
		} else {
			idx = pickByCodeClass(idxs, false, dc.rng)
		}
	default:
		idx = idxs[dc.rng.IntN(len(idxs))]
	}
	tp := &ndr.Catalog[idx]
	if mxHost == "" {
		mxHost = "mx1." + msg.To.Domain
	}
	params := ndr.Params{
		Addr: msg.To.String(), Local: msg.To.Local, Domain: msg.To.Domain,
		IP: proxy.IP, MX: mxHost, Vendor: dc.vendor(),
		Sec: fmt.Sprintf("%d", 30+dc.rng.IntN(270)),
	}
	return attemptOutcome{
		reply:     tp.Render(params),
		latencyMS: 200 + int64(dc.rng.IntN(2500)),
		temporary: tp.Soft(),
		typ:       typ,
	}
}

func pickByCodeClass(idxs []int, temporary bool, r *simrng.RNG) int {
	var matching []int
	for _, i := range idxs {
		if ndr.Catalog[i].Soft() == temporary {
			matching = append(matching, i)
		}
	}
	if len(matching) == 0 {
		matching = idxs
	}
	return matching[r.IntN(len(matching))]
}

// sessionLatencyMS draws the SMTP session latency for a successful or
// policy-terminated session.
func (dc *dctx) sessionLatencyMS(proxy *world.ProxyMTA, d *world.ReceiverDomain, domain string) int64 {
	country := ""
	if d != nil {
		country = d.Country
	}
	median := dc.e.W.Geo.MedianLatencyMS(proxy.Region, country)
	v := dc.rng.LogNormal(math.Log(median), 0.55)
	if v < 400 {
		v = 400
	}
	if v > 590000 {
		v = 590000
	}
	return int64(v)
}

func (dc *dctx) vendor() string {
	return fmt.Sprintf("x%08x", uint32(dc.rng.Uint64()))
}

// applyReports feeds buffered spamtrap hits to the shared blocklist.
// The blocklist draws its delist delay in call order, so callers must
// apply reports in deterministic sequence order.
func (e *Engine) applyReports(reports []spamReport) {
	for _, r := range reports {
		e.W.Blocklist.ReportSpam(r.ip, r.at)
	}
}

func minInt(a, b int) int {
	if a < b {
		return a
	}
	return b
}
