// Package faultinject is a deterministic, seedable fault-injection
// layer for the ingest and streaming paths: it wraps io.Readers (and
// through them dataset sources and the bounced HTTP ingest path) with
// the failure modes a long-running collector sees in the wild — torn
// mid-record streams, truncated gzip members, corrupted bytes that
// surface as decode errors, slow-loris peers, stalled consumers, and
// duplicated/replayed batches.
//
// Every decision is drawn from a simrng stream derived from the spec
// seed and a monotonically increasing stream index, so a fault
// schedule is a pure function of (seed, order of wrapped streams):
// re-running the same request sequence replays the same faults, which
// is what makes the chaos differential test (`make chaos`) a
// deterministic seed sweep rather than a flaky soak.
package faultinject

import (
	"errors"
	"fmt"
	"io"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/simrng"
)

// Fault kinds, used as counter keys and in injected error text.
const (
	KindTorn    = "torn"      // stream cut mid-record (unexpected EOF)
	KindTruncGz = "truncgz"   // gzip member truncated (client-side plans)
	KindCorrupt = "corrupt"   // one byte flipped (surfaces as decode error)
	KindLoris   = "slowloris" // body trickled with long pauses
	KindDup     = "dup"       // batch duplicated / replayed
)

// ErrInjected tags every error produced by an injected fault so tests
// and operators can distinguish injected failures from organic ones
// with errors.Is.
var ErrInjected = errors.New("faultinject: injected fault")

// injectedError carries the fault kind alongside ErrInjected.
type injectedError struct{ kind string }

func (e *injectedError) Error() string {
	return "faultinject: injected " + e.kind + " fault: unexpected EOF"
}

func (e *injectedError) Unwrap() error { return ErrInjected }

// Spec is the parsed -fault-spec configuration. Probabilities are per
// wrapped stream (or per batch, for client-side plans); zero disables
// the fault. The zero Spec injects nothing.
type Spec struct {
	// Seed drives every fault decision. Two injectors with the same
	// seed and spec fire identically over the same stream sequence.
	Seed uint64
	// Torn is the probability a stream is cut mid-record.
	Torn float64
	// TruncGzip is the probability a gzip body is truncated before
	// sending (client-side batch plans).
	TruncGzip float64
	// Corrupt is the probability one byte of the stream is flipped,
	// which downstream decoders surface as a line-numbered error.
	Corrupt float64
	// Loris is the probability a body is trickled slowly.
	Loris float64
	// LorisPause is the pause inserted between trickled chunks
	// (default 200ms when Loris > 0).
	LorisPause time.Duration
	// Dup is the probability a successfully delivered batch is
	// replayed verbatim (client-side batch plans).
	Dup float64
	// Stall delays the store consumer by this much per record,
	// simulating a wedged downstream so queue shedding engages.
	Stall time.Duration
}

// ParseSpec parses the -fault-spec grammar: a comma- or
// semicolon-separated list of key=value pairs, e.g.
//
//	seed=7,torn=0.05,corrupt=0.02,loris=0.01,lorispause=250ms,dup=0.1,stall=500us
//
// Keys: seed (uint), torn, truncgz, corrupt, loris, dup (probabilities
// in [0,1]), lorispause, stall (Go durations). An empty string yields
// a zero spec.
func ParseSpec(s string) (*Spec, error) {
	sp := &Spec{}
	s = strings.TrimSpace(s)
	if s == "" {
		return sp, nil
	}
	for _, field := range strings.FieldsFunc(s, func(r rune) bool { return r == ',' || r == ';' }) {
		k, v, ok := strings.Cut(strings.TrimSpace(field), "=")
		if !ok {
			return nil, fmt.Errorf("faultinject: bad field %q (want key=value)", field)
		}
		k, v = strings.TrimSpace(k), strings.TrimSpace(v)
		switch k {
		case "seed":
			n, err := strconv.ParseUint(v, 10, 64)
			if err != nil {
				return nil, fmt.Errorf("faultinject: seed: %w", err)
			}
			sp.Seed = n
		case "lorispause", "stall":
			d, err := time.ParseDuration(v)
			if err != nil || d < 0 {
				return nil, fmt.Errorf("faultinject: %s: bad duration %q", k, v)
			}
			if k == "stall" {
				sp.Stall = d
			} else {
				sp.LorisPause = d
			}
		case "torn", "truncgz", "corrupt", "loris", "dup":
			p, err := strconv.ParseFloat(v, 64)
			if err != nil || p < 0 || p > 1 {
				return nil, fmt.Errorf("faultinject: %s: bad probability %q", k, v)
			}
			switch k {
			case "torn":
				sp.Torn = p
			case "truncgz":
				sp.TruncGzip = p
			case "corrupt":
				sp.Corrupt = p
			case "loris":
				sp.Loris = p
			case "dup":
				sp.Dup = p
			}
		default:
			return nil, fmt.Errorf("faultinject: unknown key %q", k)
		}
	}
	if sp.Loris > 0 && sp.LorisPause == 0 {
		sp.LorisPause = 200 * time.Millisecond
	}
	return sp, nil
}

// String renders the spec back in ParseSpec's grammar.
func (sp *Spec) String() string {
	var parts []string
	add := func(k string, v float64) {
		if v > 0 {
			parts = append(parts, fmt.Sprintf("%s=%g", k, v))
		}
	}
	parts = append(parts, fmt.Sprintf("seed=%d", sp.Seed))
	add("torn", sp.Torn)
	add("truncgz", sp.TruncGzip)
	add("corrupt", sp.Corrupt)
	add("loris", sp.Loris)
	if sp.Loris > 0 {
		parts = append(parts, fmt.Sprintf("lorispause=%s", sp.LorisPause))
	}
	add("dup", sp.Dup)
	if sp.Stall > 0 {
		parts = append(parts, fmt.Sprintf("stall=%s", sp.Stall))
	}
	return strings.Join(parts, ",")
}

// Active reports whether the spec injects any fault at all.
func (sp Spec) Active() bool {
	return sp.Torn > 0 || sp.TruncGzip > 0 || sp.Corrupt > 0 ||
		sp.Loris > 0 || sp.Dup > 0 || sp.Stall > 0
}

// Injector hands out per-stream fault plans and counts the faults that
// actually fire. Safe for concurrent use.
type Injector struct {
	spec   Spec
	stream atomic.Uint64

	counts sync.Map // kind -> *atomic.Uint64
}

// New creates an injector for spec. A nil or inactive spec still
// yields a usable injector that never injects.
func New(spec *Spec) *Injector {
	in := &Injector{}
	if spec != nil {
		in.spec = *spec
	}
	return in
}

// Spec returns the injector's configuration.
func (in *Injector) Spec() Spec { return in.spec }

// count bumps the fired-fault counter for kind.
func (in *Injector) count(kind string) {
	c, ok := in.counts.Load(kind)
	if !ok {
		c, _ = in.counts.LoadOrStore(kind, new(atomic.Uint64))
	}
	c.(*atomic.Uint64).Add(1)
}

// Counts returns the number of faults fired so far by kind.
func (in *Injector) Counts() map[string]uint64 {
	out := map[string]uint64{}
	in.counts.Range(func(k, v any) bool {
		out[k.(string)] = v.(*atomic.Uint64).Load()
		return true
	})
	return out
}

// ConsumerStall returns the per-record consumer delay (zero when the
// stall fault is disabled).
func (in *Injector) ConsumerStall() time.Duration { return in.spec.Stall }

// Plan is one stream's drawn fault schedule. The zero Plan injects
// nothing.
type Plan struct {
	in *Injector

	// Torn cuts the raw stream after TornAfter bytes.
	Torn      bool
	TornAfter int
	// Corrupt flips one byte of the decoded stream at CorruptAt.
	Corrupt   bool
	CorruptAt int
	// Loris trickles reads in small chunks with Pause between them.
	Loris bool
	Pause time.Duration
	// TruncGzip and Dup are client-side decisions: the sender truncates
	// its gzip body / replays the batch. Reader wrappers ignore them.
	TruncGzip bool
	Dup       bool
}

// NextPlan draws the fault schedule for the next stream. Draws are
// consumed in a fixed order so a plan depends only on the seed and the
// stream index.
func (in *Injector) NextPlan() Plan {
	n := in.stream.Add(1)
	rng := simrng.New(in.spec.Seed ^ 0xfa017ec7).Stream(fmt.Sprintf("stream:%d", n))
	p := Plan{in: in, Pause: in.spec.LorisPause}
	p.Torn = rng.Bool(in.spec.Torn)
	p.TornAfter = 1 + rng.IntN(16<<10)
	p.Corrupt = rng.Bool(in.spec.Corrupt)
	p.CorruptAt = rng.IntN(32 << 10)
	p.Loris = rng.Bool(in.spec.Loris)
	p.TruncGzip = rng.Bool(in.spec.TruncGzip)
	p.Dup = rng.Bool(in.spec.Dup)
	return p
}

// Fired records a client-side fault (TruncGzip, Dup, client-built torn
// bodies) in the injector's counters.
func (p Plan) Fired(kind string) {
	if p.in != nil {
		p.in.count(kind)
	}
}

// WrapRaw applies the plan's raw-layer faults (torn stream,
// slow-loris pacing) to r. Wrapping the compressed layer of a gzip
// stream with a torn cut is exactly a truncated-gzip fault.
func (p Plan) WrapRaw(r io.Reader) io.Reader {
	if p.Loris && p.Pause > 0 {
		r = &lorisReader{r: r, pause: p.Pause, plan: p}
	}
	if p.Torn {
		r = &tornReader{r: r, left: p.TornAfter, plan: p}
	}
	return r
}

// WrapDecoded applies the plan's decoded-layer faults (byte
// corruption) to r, after any decompression.
func (p Plan) WrapDecoded(r io.Reader) io.Reader {
	if p.Corrupt {
		r = &corruptReader{r: r, at: p.CorruptAt, plan: p}
	}
	return r
}

// tornReader delivers left bytes, then fails with an injected
// unexpected-EOF — a connection dropped mid-record.
type tornReader struct {
	r     io.Reader
	left  int
	plan  Plan
	fired bool
}

func (t *tornReader) Read(b []byte) (int, error) {
	if t.left <= 0 {
		if !t.fired {
			t.fired = true
			t.plan.Fired(KindTorn)
		}
		return 0, &injectedError{kind: KindTorn}
	}
	if len(b) > t.left {
		b = b[:t.left]
	}
	n, err := t.r.Read(b)
	t.left -= n
	if err == io.EOF {
		// The stream ended before the cut: nothing to tear.
		return n, err
	}
	return n, err
}

// corruptReader flips one byte at offset at — enough to break a JSON
// record and exercise the decoder's line-numbered error path.
type corruptReader struct {
	r    io.Reader
	at   int
	off  int
	plan Plan
}

func (c *corruptReader) Read(b []byte) (int, error) {
	n, err := c.r.Read(b)
	if n > 0 && c.off <= c.at && c.at < c.off+n {
		i := c.at - c.off
		// XOR with a control byte: guaranteed to change the byte and
		// near-guaranteed to break JSON framing or a string literal.
		b[i] ^= 0x1f
		if b[i] == '\n' { // keep line framing intact
			b[i] = 0x01
		}
		c.plan.Fired(KindCorrupt)
	}
	c.off += n
	return n, err
}

// lorisReader trickles tiny reads with a pause between them — the
// read-side view of a slow-loris peer. A server-side read deadline is
// the intended countermeasure.
type lorisReader struct {
	r     io.Reader
	pause time.Duration
	plan  Plan
	fired bool
}

func (l *lorisReader) Read(b []byte) (int, error) {
	if !l.fired {
		l.fired = true
		l.plan.Fired(KindLoris)
	} else if l.pause > 0 {
		time.Sleep(l.pause)
	}
	if len(b) > 64 {
		b = b[:64]
	}
	return l.r.Read(b)
}
