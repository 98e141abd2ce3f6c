package analysis

import (
	"fmt"
	"strings"

	"repro/internal/dataset"
	"repro/internal/ndr"
)

// Collector consumes one classified record at a time. Table and
// figure builders are implemented as collectors so they run over the
// Analysis's stored corpus (visit) and merge as partial aggregates.
type Collector interface {
	Add(rec *dataset.Record, c *ClassifiedRecord)
}

// PartialCollector is a collector whose state is a mergeable partial
// aggregate: Add-ing a corpus on one node and Merge-ing the results is
// indistinguishable from Add-ing the whole corpus on one node, for any
// split and any merge order. The contract every concrete collector
// obeys:
//
//   - Add accumulates raw, order-free state only. All tie-breaking,
//     ranking, truncation, and derived ratios live in the collector's
//     result() normalization, never in Add.
//   - Merge folds another collector of the same concrete type into the
//     receiver (commutative and associative over collector states).
//   - MarshalPartial/UnmarshalPartial round-trip the state through a
//     versioned, stable encoding: equal states encode to equal bytes.
type PartialCollector interface {
	Collector
	Merge(other PartialCollector) error
	MarshalPartial() []byte
	UnmarshalPartial(b []byte) error
}

// mergeTypeError reports a Merge called across concrete types.
func mergeTypeError(name string, got PartialCollector) error {
	return fmt.Errorf("analysis: merge %s partial with %T", name, got)
}

// visit feeds every stored record through the collectors in order.
func (a *Analysis) visit(cs ...Collector) {
	for i := 0; i < a.Records.Len(); i++ {
		rec := a.Records.At(i)
		for _, col := range cs {
			col.Add(rec, &a.Classified[i])
		}
	}
}

// overviewCollector accumulates the Section-4.1 headline statistic.
type overviewCollector struct {
	o            Overview
	softAttempts int
}

func (oc *overviewCollector) Add(_ *dataset.Record, c *ClassifiedRecord) {
	oc.o.Total++
	switch c.Degree {
	case dataset.NonBounced:
		oc.o.NonBounced++
	case dataset.SoftBounced:
		oc.o.SoftBounced++
		oc.softAttempts += len(c.AttemptTypes)
	default:
		oc.o.HardBounced++
	}
	if c.Ambiguous {
		oc.o.AmbiguousBounced++
	}
}

func (oc *overviewCollector) Merge(other PartialCollector) error {
	o, ok := other.(*overviewCollector)
	if !ok {
		return mergeTypeError("overview", other)
	}
	oc.o.Total += o.o.Total
	oc.o.NonBounced += o.o.NonBounced
	oc.o.SoftBounced += o.o.SoftBounced
	oc.o.HardBounced += o.o.HardBounced
	oc.o.AmbiguousBounced += o.o.AmbiguousBounced
	oc.softAttempts += o.softAttempts
	return nil
}

func (oc *overviewCollector) MarshalPartial() []byte {
	var e enc
	e.version(1)
	e.intv(oc.o.Total)
	e.intv(oc.o.NonBounced)
	e.intv(oc.o.SoftBounced)
	e.intv(oc.o.HardBounced)
	e.intv(oc.o.AmbiguousBounced)
	e.intv(oc.softAttempts)
	return e.buf
}

func (oc *overviewCollector) UnmarshalPartial(b []byte) error {
	d := dec{b: b}
	d.checkVersion("overview", 1)
	oc.o.Total = d.intv()
	oc.o.NonBounced = d.intv()
	oc.o.SoftBounced = d.intv()
	oc.o.HardBounced = d.intv()
	oc.o.AmbiguousBounced = d.intv()
	oc.softAttempts = d.intv()
	return d.err
}

func (oc *overviewCollector) result() Overview {
	o := oc.o
	if o.SoftBounced > 0 {
		o.SoftAvgAttempts = float64(oc.softAttempts) / float64(o.SoftBounced)
	}
	return o
}

// typeDistCollector accumulates Table 1.
type typeDistCollector struct {
	counts map[ndr.Type]int
}

func newTypeDistCollector() *typeDistCollector {
	return &typeDistCollector{counts: map[ndr.Type]int{}}
}

func (tc *typeDistCollector) Add(_ *dataset.Record, c *ClassifiedRecord) {
	if c.Degree == dataset.NonBounced || c.Ambiguous {
		return
	}
	for _, t := range c.Types {
		tc.counts[t]++
	}
}

func (tc *typeDistCollector) Merge(other PartialCollector) error {
	o, ok := other.(*typeDistCollector)
	if !ok {
		return mergeTypeError("typedist", other)
	}
	for t, n := range o.counts {
		tc.counts[t] += n
	}
	return nil
}

func (tc *typeDistCollector) MarshalPartial() []byte {
	keys := make(map[int]int, len(tc.counts))
	for t, n := range tc.counts {
		keys[int(t)] = n
	}
	var e enc
	e.version(1)
	e.u64(uint64(len(keys)))
	for _, t := range sortedIntKeys(keys) {
		e.intv(t)
		e.intv(keys[t])
	}
	return e.buf
}

func (tc *typeDistCollector) UnmarshalPartial(b []byte) error {
	d := dec{b: b}
	d.checkVersion("typedist", 1)
	n := d.count()
	tc.counts = make(map[ndr.Type]int, n)
	for i := 0; i < n; i++ {
		t := ndr.Type(d.intv())
		tc.counts[t] = d.intv()
	}
	return d.err
}

// enhancedCollector accumulates the RFC 3463 enhanced-status-code
// share over NDR lines.
type enhancedCollector struct {
	with, total int
}

// Add counts the record's NDR lines — its non-2xx lines, the ones a
// pipeline types as anything but TNone — by the record alone, so a
// record's count is the same under every pipeline.
func (ec *enhancedCollector) Add(rec *dataset.Record, _ *ClassifiedRecord) {
	for _, line := range rec.DeliveryResult {
		if strings.HasPrefix(line, "2") {
			continue
		}
		ec.total++
		if ndr.HasEnhancedCode(line) {
			ec.with++
		}
	}
}

func (ec *enhancedCollector) Merge(other PartialCollector) error {
	o, ok := other.(*enhancedCollector)
	if !ok {
		return mergeTypeError("enhanced", other)
	}
	ec.with += o.with
	ec.total += o.total
	return nil
}

func (ec *enhancedCollector) MarshalPartial() []byte {
	var e enc
	e.version(1)
	e.intv(ec.with)
	e.intv(ec.total)
	return e.buf
}

func (ec *enhancedCollector) UnmarshalPartial(b []byte) error {
	d := dec{b: b}
	d.checkVersion("enhanced", 1)
	ec.with = d.intv()
	ec.total = d.intv()
	return d.err
}

func (ec *enhancedCollector) result() float64 {
	if ec.total == 0 {
		return 0
	}
	return 1 - float64(ec.with)/float64(ec.total)
}
