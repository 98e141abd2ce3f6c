package analysis

import (
	"strings"
	"unsafe"

	"repro/internal/dataset"
	"repro/internal/drain"
	"repro/internal/ndr"
)

// emptyTypes backs AttemptTypes for records with no delivery attempts:
// non-nil empty (as make([]ndr.Type, 0) is on the ctx-free path), zero
// capacity so caller appends copy out.
var emptyTypes = make([]ndr.Type, 0)

// noneTypes backs AttemptTypes for clean records, every line a 2xx and
// so every type TNone, the zero Type. It is shared and never written,
// so a clean verdict points into no ctx's arena: a snapshot that
// carries it does not keep the arena of the snapshot that made it.
var noneTypes = make([]ndr.Type, 64)

// ClassifyCtx is a per-goroutine classification context over finished
// (frozen) pipelines: it owns drain Matchers — reusable token buffers
// over the lock-free trees — and arenas backing the verdict slices, so
// a record classifies with amortized near-zero heap allocations where
// Pipeline.ClassifyRecord pays a token slice per NDR line plus two
// slices and a map per record. Verdicts are identical to
// Pipeline.ClassifyRecord's (the equivalence test pins this).
//
// A ctx is bound to one ShardedPipeline and is not safe for concurrent
// use; classification fan-outs create one per worker.
type ClassifyCtx struct {
	sp       *ShardedPipeline
	matchers []*drain.Matcher // lazily built, aligned with sp.Shards
	types    dataset.Arena[ndr.Type]

	memo bool     // classifyLine goes through seen (newMemoCtx)
	seen lineMemo // the memo
}

// NewClassifyCtx returns a classification context for the stack. Every
// shard pipeline must already be finished (parser frozen).
func (sp *ShardedPipeline) NewClassifyCtx() *ClassifyCtx {
	return &ClassifyCtx{sp: sp, matchers: make([]*drain.Matcher, len(sp.Shards))}
}

// newMemoCtx is NewClassifyCtx for one pass over a snapshot's records.
// A finished pipeline is frozen, so a line's verdict is a function of
// the line and its substream alone: the ctx matches each distinct
// (substream, line) once and answers every repeat from a memo. That is
// memoisation within one pipeline, not a cache across snapshots — the
// memo dies with the ctx. It is keyed by where a line's bytes are, not
// what they say, which is cheap and small, and exact for as long as the
// lines it was given live: the ctx must not outlive the records it
// classifies. A RecordStore interns its NDR lines, one copy per
// distinct line, so over a snapshot's records the two keys are the
// same, and most lines are answered by lookup — the records repeat
// their NDR lines the way the paper's do (190M NDRs, ≈ 10K templates).
func (sp *ShardedPipeline) newMemoCtx() *ClassifyCtx {
	cx := sp.NewClassifyCtx()
	cx.memo = true
	return cx
}

func (cx *ClassifyCtx) matcher(shard int) *drain.Matcher {
	if cx.matchers[shard] == nil {
		cx.matchers[shard] = cx.sp.Shards[shard].Parser.Matcher()
	}
	return cx.matchers[shard]
}

// ClassifyRecord routes the record to its substream's pipeline and
// classifies it through the ctx's reusable buffers. The returned
// verdict's slices are arena-backed, or shared by every clean record:
// immutable once returned, valid indefinitely, full-capacity (appends
// copy out).
func (cx *ClassifyCtx) ClassifyRecord(rec *dataset.Record) (c ClassifiedRecord) {
	c.setFacts(rec)
	n := len(rec.DeliveryResult)
	if n == 0 {
		c.AttemptTypes = emptyTypes
		return c
	}
	if n <= len(noneTypes) && clean(rec) {
		c.AttemptTypes = noneTypes[:n:n]
		return c
	}
	// Only a record with an NDR line reads its substream's pipeline, so
	// only it pays for StreamOf's hash.
	shard := StreamOf(rec)
	p, m := cx.sp.Shards[shard], cx.matcher(shard)
	c.AttemptTypes = cx.types.Alloc(n)
	var seen uint32 // bit per ndr.Type (T0..T16 fit easily)
	var typeBuf [ndr.NumTypes + 1]ndr.Type
	nt := 0
	failed, ambiguousOnly := 0, true
	for i, line := range rec.DeliveryResult {
		if strings.HasPrefix(line, "2") {
			c.AttemptTypes[i] = ndr.TNone
			continue
		}
		failed++
		typ, amb := cx.classifyLine(shard, p, m, line)
		c.AttemptTypes[i] = typ
		if amb {
			continue
		}
		ambiguousOnly = false
		if seen&(1<<uint(typ)) == 0 {
			seen |= 1 << uint(typ)
			typeBuf[nt] = typ
			nt++
		}
	}
	if nt > 0 {
		c.Types = cx.types.Alloc(nt)
		copy(c.Types, typeBuf[:nt])
	}
	c.Ambiguous = failed > 0 && ambiguousOnly
	return c
}

// classifyLine is p.classifyLineWith(m, line), through the memo if the
// ctx has one.
func (cx *ClassifyCtx) classifyLine(shard int, p *Pipeline, m *drain.Matcher, line string) (ndr.Type, bool) {
	if !cx.memo || line == "" {
		return p.classifyLineWith(m, line)
	}
	key := memoSlot{addr: uintptr(unsafe.Pointer(unsafe.StringData(line))), n: uint32(len(line)), shard: uint8(shard)}
	sl := cx.seen.slot(key)
	if sl.n == 0 {
		typ, amb := p.classifyLineWith(m, line)
		key.typ, key.ambiguous = uint8(typ), amb
		*sl = key
		cx.seen.n++
	}
	return ndr.Type(sl.typ), sl.ambiguous
}

// lineMemo maps (substream, line address, line length) to a verdict,
// open-addressed with linear probing. An address is a plain number to
// the garbage collector, so the table is never scanned and keeps no
// line alive; that is why a ctx must not outlive its lines, whose
// memory could otherwise come back holding others.
type lineMemo struct {
	slots []memoSlot // a power of two long, at most three quarters full
	n     int
}

// memoSlot is one line's verdict; n == 0 marks an empty slot (an empty
// line is never memoised).
type memoSlot struct {
	addr      uintptr
	n         uint32
	shard     uint8
	typ       uint8 // an ndr.Type
	ambiguous bool
}

// slot returns the slot of key's (addr, n, shard), empty (n == 0) for
// the caller to fill if the memo does not hold it. Filling it must
// count it in t.n.
func (t *lineMemo) slot(key memoSlot) *memoSlot {
	if 4*(t.n+1) > 3*len(t.slots) {
		t.grow()
	}
	mask := uint64(len(t.slots) - 1)
	h := (uint64(key.addr) ^ uint64(key.n)<<32 ^ uint64(key.shard)<<56) * 0x9e3779b97f4a7c15
	for i := h >> 32 & mask; ; i = (i + 1) & mask {
		sl := &t.slots[i]
		if sl.n == 0 || sl.addr == key.addr && sl.n == key.n && sl.shard == key.shard {
			return sl
		}
	}
}

func (t *lineMemo) grow() {
	old := t.slots
	t.slots = make([]memoSlot, max(1024, 2*len(old)))
	for _, sl := range old {
		if sl.n != 0 {
			*t.slot(sl) = sl
		}
	}
}

// classifyLineWith is ClassifyLine with the tree walk through m (which
// must wrap p.Parser) instead of an allocating Parser.Match.
func (p *Pipeline) classifyLineWith(m *drain.Matcher, line string) (typ ndr.Type, ambiguous bool) {
	g := m.Match(line)
	if g == nil {
		if p.Classifier == nil {
			return ndr.T16Unknown, false
		}
		t, _ := p.Classifier.Predict(line)
		return t, false
	}
	if p.groupAmbiguous[g.ID] {
		return ndr.T16Unknown, true
	}
	if t, ok := p.groupType[g.ID]; ok {
		return t, false
	}
	return ndr.T16Unknown, false
}
