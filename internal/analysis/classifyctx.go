package analysis

import (
	"strings"

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
}

// NewClassifyCtx returns a classification context for the stack. Every
// shard pipeline must already be finished (parser frozen).
func (sp *ShardedPipeline) NewClassifyCtx() *ClassifyCtx {
	return &ClassifyCtx{sp: sp, matchers: make([]*drain.Matcher, len(sp.Shards))}
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
		typ, amb := p.classifyLineWith(m, line)
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
