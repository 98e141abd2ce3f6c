// Package policy implements the receiver-side policy gauntlet — the
// single chain of checks behind all 16 of the paper's bounce types —
// as a composable stage pipeline shared by the bulk delivery engine
// and the live SMTP bridge. Each named Stage inspects one mechanism
// (TLS mandate, DNSBL, greylisting, rate limits, authentication,
// recipient existence, quota, size, content, quirks) and produces a
// unified Verdict; a Chain assembles the stages for one receiver
// domain from its world.Policy, executes them in MTA order, and maps
// them onto SMTP phases (MAIL/RCPT/DATA) for the wire path. Chains
// carry per-stage hit counters and an ablation hook (disable or force
// any stage by name), which turns every T1–T16 mechanism into a
// first-class experiment knob.
package policy

import (
	"fmt"
	"hash/fnv"
	"strings"
	"sync/atomic"
	"time"

	"repro/internal/auth"
	"repro/internal/dns"
	"repro/internal/mail"
	"repro/internal/ndr"
	"repro/internal/simrng"
	"repro/internal/world"
)

// Phase is the SMTP conversation phase a stage naturally runs at. The
// stage catalog is phase-monotonic (all MAIL stages precede all RCPT
// stages, which precede all DATA stages), so executing the chain
// linearly and executing it phase-by-phase over the wire hit the same
// first rejection.
type Phase int

// SMTP phases, in conversation order.
const (
	PhaseConnect Phase = iota
	PhaseMail
	PhaseRcpt
	PhaseData
)

// String returns the SMTP verb the phase corresponds to.
func (p Phase) String() string {
	switch p {
	case PhaseConnect:
		return "CONNECT"
	case PhaseMail:
		return "MAIL"
	case PhaseRcpt:
		return "RCPT"
	case PhaseData:
		return "DATA"
	}
	return "?"
}

// Request is one delivery attempt as the receiver MTA sees it. The
// bulk engine fills it from the simulated message; the SMTP bridge
// fills it from the live session (leaving Proxy nil when the client is
// not a known proxy MTA, and Tokens empty before DATA).
type Request struct {
	From mail.Address
	To   mail.Address
	// MsgID is the stable token DKIM signatures cover.
	MsgID string
	// ClientIP is the sending MTA's address (DNSBL, greylist, SPF).
	ClientIP string
	// Proxy is the sending proxy MTA when known; nil on wire sessions
	// from unrecognized clients, which skips sender-side simulation
	// details (TLS mandate learning, spamtrap exposure, DKIM signing).
	Proxy *world.ProxyMTA
	// At is the (virtual) instant the attempt happens.
	At time.Time
	// First marks the first attempt of a message: rate-limit windows
	// are consumed by fresh emails only, retries re-test them.
	First bool
	// TLS reports that the session has (or will) negotiate STARTTLS.
	TLS bool
	// SpamFlagged is the sender-side spam classification.
	SpamFlagged bool
	RcptCount   int
	SizeBytes   int
	Tokens      []string
}

// SourceID is a stable small integer identifying the sending MTA for
// rate-limit keys: the proxy ID when known, a hash of the client IP
// otherwise.
func (r *Request) SourceID() int {
	if r.Proxy != nil {
		return r.Proxy.ID
	}
	h := fnv.New32a()
	h.Write([]byte(r.ClientIP))
	return int(h.Sum32() & 0x7fff)
}

// Verdict is the unified outcome of a stage (or chain) evaluation.
type Verdict struct {
	// Type is the bounce type of the rejection; TNone means the
	// request passed.
	Type ndr.Type
	// Template is an ndr.Catalog index override; -1 lets the domain's
	// dialect pick at Resolve time.
	Template int
}

// Pass is the accepting verdict.
func Pass() Verdict { return Verdict{Type: ndr.TNone, Template: -1} }

// Reject builds a rejecting verdict with no template override.
func Reject(t ndr.Type) Verdict { return Verdict{Type: t, Template: -1} }

// Rejected reports whether the verdict refuses the request.
func (v Verdict) Rejected() bool { return v.Type != ndr.TNone }

// Resolved is a completed rejection: the concrete catalog template the
// receiver renders, with its SMTP reply code, enhanced status code,
// and permanence class.
type Resolved struct {
	Type      ndr.Type
	Index     int // ndr.Catalog index
	Code      mail.ReplyCode
	Enh       mail.EnhancedCode
	Temporary bool
}

// StageState is the mutable, shard-owned substrate stages read and
// write: counters for rate-limit windows, the learned-mandate set, the
// DNS resolver and authentication evaluators, the deterministic RNG of
// the current delivery, and the spamtrap report sink. The bulk engine
// backs it with per-shard maps (one owner goroutine per batch); the
// SMTP bridge backs it with a mutex-guarded per-backend instance.
type StageState interface {
	// RNG returns the random stream probability draws come from.
	RNG() *simrng.RNG
	// Resolver returns the DNS resolver policy checks query.
	Resolver() *dns.Resolver
	// SPF, DKIM and DMARC return the evaluators bound to Resolver.
	SPF() *auth.SPFEvaluator
	DKIM() *auth.DKIMVerifier
	DMARC() *auth.DMARCEvaluator
	// Bump increments and returns the counter at key.
	Bump(key uint64) int
	// Peek returns the counter at key without incrementing.
	Peek(key uint64) int
	// LearnOnce records key and reports whether it was already known.
	LearnOnce(key uint64) bool
	// ReportSpam sinks a spamtrap hit against ip at t.
	ReportSpam(ip string, at time.Time)
}

// CheckFunc evaluates one stage against a request.
type CheckFunc func(st StageState, req *Request) Verdict

// Stage is one named receiver check bound to a domain's policy.
type Stage struct {
	Name  string
	Type  ndr.Type // principal bounce type; TNone for side-effect stages
	Phase Phase
	Check CheckFunc
}

// StageInfo describes one catalog entry for documentation and CLIs.
type StageInfo struct {
	Name  string
	Type  ndr.Type
	Phase Phase
	Doc   string
}

// Stages returns the full stage catalog in chain order.
func Stages() []StageInfo {
	out := make([]StageInfo, len(catalog))
	for i, def := range catalog {
		out[i] = StageInfo{Name: def.name, Type: def.typ, Phase: def.phase, Doc: def.doc}
	}
	return out
}

// StageNames returns the catalog's stage names in chain order.
func StageNames() []string {
	names := make([]string, len(catalog))
	for i, def := range catalog {
		names[i] = def.name
	}
	return names
}

// ParseStageList splits a comma-separated stage list and validates
// every name against the catalog. An empty string yields nil.
func ParseStageList(s string) ([]string, error) {
	if strings.TrimSpace(s) == "" {
		return nil, nil
	}
	var out []string
	for _, name := range strings.Split(s, ",") {
		name = strings.TrimSpace(name)
		if name == "" {
			continue
		}
		if !knownStage(name) {
			return nil, fmt.Errorf("policy: unknown stage %q (have %s)",
				name, strings.Join(StageNames(), ", "))
		}
		out = append(out, name)
	}
	return out, nil
}

func knownStage(name string) bool {
	for _, def := range catalog {
		if def.name == name {
			return true
		}
	}
	return false
}

// Env is the world-level context chains evaluate against, built once
// and shared read-only by every chain.
type Env struct {
	World        *world.World
	senderByName map[string]*world.SenderDomain
	proxyByIP    map[string]*world.ProxyMTA
}

// NewEnv indexes w for chain construction.
func NewEnv(w *world.World) *Env {
	env := &Env{
		World:        w,
		senderByName: make(map[string]*world.SenderDomain, len(w.SenderDomains)),
		proxyByIP:    make(map[string]*world.ProxyMTA, len(w.Proxies)),
	}
	for _, sd := range w.SenderDomains {
		env.senderByName[sd.Name] = sd
	}
	for _, p := range w.Proxies {
		env.proxyByIP[p.IP] = p
	}
	return env
}

// SenderDomain returns the customer domain named name, or nil.
func (env *Env) SenderDomain(name string) *world.SenderDomain { return env.senderByName[name] }

// ProxyByIP returns the proxy MTA at ip, or nil.
func (env *Env) ProxyByIP(ip string) *world.ProxyMTA { return env.proxyByIP[ip] }

// Metrics aggregates per-stage rejection counts across every chain
// sharing it. Counters are atomic: chains owned by different shard
// workers (and concurrent SMTP sessions) bump them freely, and the
// totals are independent of interleaving.
type Metrics struct {
	hits map[string]*atomic.Uint64
}

// NewMetrics creates a counter set covering the stage catalog.
func NewMetrics() *Metrics {
	m := &Metrics{hits: make(map[string]*atomic.Uint64, len(catalog))}
	for _, def := range catalog {
		m.hits[def.name] = new(atomic.Uint64)
	}
	return m
}

func (m *Metrics) bump(name string) {
	if c, ok := m.hits[name]; ok {
		c.Add(1)
	}
}

// StageHit is one per-stage rejection counter in exportable form —
// the /v1/stats and /metrics surface of the policy chain.
type StageHit struct {
	Stage string `json:"stage"`
	Phase string `json:"phase"`
	Type  string `json:"type"` // principal bounce type; "-" for side-effect stages
	Hits  uint64 `json:"hits"`
}

// Snapshot exports every stage counter (including zeros) in chain
// order, so consumers render a stable catalog without knowing it.
func (m *Metrics) Snapshot() []StageHit {
	out := make([]StageHit, 0, len(catalog))
	for _, def := range catalog {
		typ := def.typ.String()
		if def.typ == ndr.TNone {
			typ = "-"
		}
		out = append(out, StageHit{
			Stage: def.name,
			Phase: def.phase.String(),
			Type:  typ,
			Hits:  m.hits[def.name].Load(),
		})
	}
	return out
}

// Format renders non-zero hit counts as "name=count" pairs in chain
// order (stable for logs and tests).
func (m *Metrics) Format() string {
	var parts []string
	for _, name := range StageNames() {
		if n := m.hits[name].Load(); n > 0 {
			parts = append(parts, fmt.Sprintf("%s=%d", name, n))
		}
	}
	return strings.Join(parts, " ")
}

// ChainOptions configures chain construction.
type ChainOptions struct {
	// Metrics receives per-stage rejection counts; nil disables.
	Metrics *Metrics
	// Disable lists stage names to skip (ablation).
	Disable []string
	// Force lists stage names that reject unconditionally (ablation;
	// no effect on side-effect stages with Type TNone).
	Force []string
}

type chainStage struct {
	Stage
	disabled bool
	forced   bool
}

// Chain is the assembled policy gauntlet of one receiver domain. It is
// read-only after construction (and after any Disable/Force calls made
// before traffic starts), so one chain may be evaluated by its owning
// shard worker and inspected concurrently.
type Chain struct {
	env         *Env
	domain      *world.ReceiverDomain
	metrics     *Metrics
	stages      []chainStage
	byName      map[string]int
	resolveSeed uint64
}

// NewChain assembles the stage chain for domain d from its policy.
func NewChain(env *Env, d *world.ReceiverDomain, opts ChainOptions) *Chain {
	c := &Chain{
		env:         env,
		domain:      d,
		metrics:     opts.Metrics,
		byName:      make(map[string]int, len(catalog)),
		resolveSeed: env.World.Cfg.Seed ^ 0x5e7a11cd,
	}
	for _, def := range catalog {
		c.byName[def.name] = len(c.stages)
		c.stages = append(c.stages, chainStage{Stage: Stage{
			Name:  def.name,
			Type:  def.typ,
			Phase: def.phase,
			Check: def.check(env, d),
		}})
	}
	if err := c.Disable(opts.Disable...); err != nil {
		panic(err) // names validated by ParseStageList; programmer error
	}
	if err := c.Force(opts.Force...); err != nil {
		panic(err)
	}
	return c
}

// Disable turns the named stages off. Unknown names error.
func (c *Chain) Disable(names ...string) error {
	return c.set(names, func(s *chainStage) { s.disabled = true })
}

// Force makes the named stages reject unconditionally. Unknown names
// error; forcing a side-effect stage (Type TNone) is a no-op.
func (c *Chain) Force(names ...string) error {
	return c.set(names, func(s *chainStage) { s.forced = true })
}

func (c *Chain) set(names []string, apply func(*chainStage)) error {
	for _, name := range names {
		i, ok := c.byName[name]
		if !ok {
			return fmt.Errorf("policy: unknown stage %q", name)
		}
		apply(&c.stages[i])
	}
	return nil
}

// Evaluate runs every enabled stage in MTA order and returns the first
// rejection (a passing verdict if the gauntlet clears).
func (c *Chain) Evaluate(st StageState, req *Request) Verdict {
	return c.eval(st, req, func(Phase) bool { return true })
}

// EvaluatePhase runs only the stages bound to phase p — the wire
// path's per-callback entry point. Because the catalog is
// phase-monotonic, running CONNECT/MAIL/RCPT/DATA in conversation
// order visits the stages in the same order Evaluate does.
func (c *Chain) EvaluatePhase(p Phase, st StageState, req *Request) Verdict {
	return c.eval(st, req, func(sp Phase) bool { return sp == p })
}

func (c *Chain) eval(st StageState, req *Request, want func(Phase) bool) Verdict {
	for i := range c.stages {
		cs := &c.stages[i]
		if cs.disabled || !want(cs.Phase) {
			continue
		}
		var v Verdict
		if cs.forced && cs.Type != ndr.TNone {
			v = Reject(cs.Type)
		} else {
			v = cs.Check(st, req)
		}
		if v.Rejected() {
			if c.metrics != nil {
				c.metrics.bump(cs.Name)
			}
			return v
		}
	}
	return Pass()
}

// Resolve completes a rejection into the concrete catalog template the
// domain renders. The dialect draw is keyed by the envelope (sender ×
// domain × type) rather than by evaluation order, so the bulk engine
// and the wire bridge resolve the identical reply for the same
// rejection — the property the differential engine-vs-wire test
// enforces.
func (c *Chain) Resolve(v Verdict, req *Request) Resolved {
	d := c.domain
	rng := simrng.New(c.resolveSeed).
		Stream("ndr:" + d.Name + "|" + req.From.String() + "|" + v.Type.String())
	idx := -1
	if d.Policy.AmbiguousNDR && AmbiguousEligible(v.Type) {
		idx = d.AmbiguousTemplate(rng)
	}
	if idx < 0 && v.Template >= 0 {
		idx = v.Template
	}
	if idx < 0 {
		idx = d.TemplateFor(v.Type, rng)
	}
	tp := &ndr.Catalog[idx]
	return Resolved{Type: v.Type, Index: idx, Code: tp.Code, Enh: tp.Enh, Temporary: tp.Soft()}
}

// AmbiguousEligible reports whether receivers with AmbiguousNDR
// obscure rejections of type typ behind Table-6 templates.
func AmbiguousEligible(typ ndr.Type) bool {
	switch typ {
	case ndr.T8NoSuchUser, ndr.T13ContentSpam, ndr.T11RateLimited,
		ndr.T5Blocklisted, ndr.T3AuthFail, ndr.T1SenderDNS:
		return true
	}
	return false
}

// TemplateDomain picks which domain name appears in the NDR text:
// sender-side identity types reference the sender domain.
func TemplateDomain(typ ndr.Type, sender, receiver string) string {
	switch typ {
	case ndr.T1SenderDNS, ndr.T3AuthFail:
		return sender
	default:
		return receiver
	}
}

// BlocklistName picks the blocklist a domain names in its T5 NDRs,
// stable per domain.
func BlocklistName(domain string) string {
	h := fnv.New32a()
	h.Write([]byte(domain))
	switch h.Sum32() % 10 {
	case 0:
		return "SpamCop"
	case 1:
		return "Barracuda"
	default:
		return "Spamhaus"
	}
}

// Key derives the uint64 counter key for (kind, numeric id, string
// scope, window index) tuples — rate-limit windows and learned-mandate
// sets share one keyspace per StageState.
func Key(kind string, a int, s string, b int) uint64 {
	h := fnv.New64a()
	h.Write([]byte(kind))
	h.Write([]byte{byte(a), byte(a >> 8)})
	h.Write([]byte(s))
	var buf [4]byte
	buf[0], buf[1], buf[2], buf[3] = byte(b), byte(b>>8), byte(b>>16), byte(b>>24)
	h.Write(buf[:])
	return h.Sum64()
}
