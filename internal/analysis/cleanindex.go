package analysis

import (
	"maps"
	"slices"

	"repro/internal/dataset"
)

// cleanIndex holds what the clean records — every line a 2xx, the five
// sixths of a corpus no bounce names — contribute to the scoped detect
// and Figure-7 folds, grouped by the entities a scope names, so that a
// scoped pass picks whole groups instead of walking the records. A
// clean record was delivered at its first attempt and has no type, so
// under addRecord it adds its sender's total, a working contact of its
// sender address, "resolved after all" and a success end for its
// receiver domain — all filed here — and, for the few entities a
// narrow scope names, a delivered (sender, receiver, recipient) and a
// success end for its (sender, receiver) and its recipient, which the
// pass reads from the record, found by its number.
//
// Records are append-only, and so is the index: a builder starts from
// shallow copies of the maps and outer slices, and lays the new records
// out past the lengths the previous index reads, so a study may go on
// reading that one while the next is built.
type cleanIndex struct {
	domains []string         // receiver domains by id, in first-seen order
	ids     map[string]int32 // receiver domain -> id
	ends    [][]int64        // by receiver domain id: EndTime.UnixNano of its clean records
	senders []cleanSender    // by sender id, in first-seen order
	from    map[string]int32 // sender address -> sender id
}

// cleanSender is one sender address's clean records, in record order,
// as three aligned columns.
type cleanSender struct {
	address, domain string   // rec.From, ClassifiedRecord.FromDomain
	locals          []string // localOf(rec.To)
	doms            []int32  // receiver domain id
	recs            []int32  // record number
}

// cleanBuilder extends an index in two steps: add gives each new clean
// record its sender and receiver-domain ids, and finish grows every
// column the records land in once, to fit them, then fills it. A cold
// build so allocates each column at its final size, and a warm one
// grows a full column by at least a quarter.
type cleanBuilder struct {
	idx     *cleanIndex
	entries []cleanEntry
}

// cleanEntry is one clean record on its way into the index.
type cleanEntry struct {
	sender, dom, rec int32
	end              int64
	local            string
}

// builder returns a builder of the index of idx's records (none for
// nil) and n more clean ones, which never writes anything idx reads.
func (idx *cleanIndex) builder(n int) *cleanBuilder {
	next := &cleanIndex{ids: map[string]int32{}, from: map[string]int32{}}
	if idx != nil {
		next = &cleanIndex{
			domains: idx.domains, ids: maps.Clone(idx.ids), ends: slices.Clone(idx.ends),
			senders: slices.Clone(idx.senders), from: maps.Clone(idx.from),
		}
	}
	return &cleanBuilder{idx: next, entries: make([]cleanEntry, 0, n)}
}

// add files clean record i.
func (b *cleanBuilder) add(i int, rec *dataset.Record, c *ClassifiedRecord) {
	idx := b.idx
	id, ok := idx.ids[c.ToDomain]
	if !ok {
		id = int32(len(idx.domains))
		idx.ids[c.ToDomain] = id
		idx.domains = append(idx.domains, c.ToDomain)
		idx.ends = append(idx.ends, nil)
	}
	k, ok := idx.from[rec.From]
	if !ok {
		k = int32(len(idx.senders))
		idx.from[rec.From] = k
		idx.senders = append(idx.senders, cleanSender{address: rec.From, domain: c.FromDomain})
	}
	b.entries = append(b.entries, cleanEntry{k, id, int32(i), rec.EndTime.UnixNano(), localOf(rec.To)})
}

// finish lays the added records out and returns the index.
func (b *cleanBuilder) finish() *cleanIndex {
	idx := b.idx
	senders, domains := make([]int, len(idx.senders)), make([]int, len(idx.domains))
	for _, e := range b.entries {
		senders[e.sender]++
		domains[e.dom]++
	}
	for k, n := range senders {
		if g := &idx.senders[k]; n > 0 {
			g.locals, g.doms, g.recs = fit(g.locals, n), fit(g.doms, n), fit(g.recs, n)
		}
	}
	for id, n := range domains {
		if n > 0 {
			idx.ends[id] = fit(idx.ends[id], n)
		}
	}
	for _, e := range b.entries {
		g := &idx.senders[e.sender]
		g.locals = append(g.locals, e.local)
		g.doms = append(g.doms, e.dom)
		g.recs = append(g.recs, e.rec)
		idx.ends[e.dom] = append(idx.ends[e.dom], e.end)
	}
	return idx
}

// fit returns s with room for n more elements: s itself, or a copy at
// its length plus n, or plus a quarter when that is more. The elements
// past its length are then free of any earlier index's reader.
func fit[T any](s []T, n int) []T {
	if cap(s)-len(s) >= n {
		return s
	}
	return append(make([]T, 0, len(s)+max(n, len(s)/4)), s...)
}

// fold adds to dc and uc — scoped, and seeded with what every failed
// attempt names — what addRecord adds for the indexed records of view.
func (idx *cleanIndex) fold(view dataset.Records, dc *detectCollector, uc *durationsCollector) {
	// full[id] lists the recipients at receiver domain id that bounced T9.
	type recipient struct{ local, addr string }
	full := make([][]recipient, len(idx.domains))
	for addr := range uc.fullBad {
		r := dataset.Record{To: addr}
		if id, ok := idx.ids[r.ToDomain()]; ok {
			full[id] = append(full[id], recipient{localOf(addr), addr})
		}
	}
	// contacts[id] gathers one sender address's working contacts at
	// receiver domain id, so that okBy takes them as one group.
	contacts, touched := make([][]string, len(idx.domains)), []int32(nil)
	for k := range idx.senders {
		g := &idx.senders[k]
		s := dc.sender(g.domain)
		s.total += len(g.recs)
		if dc.breach {
			for _, i := range g.recs {
				s.recipients[view.At(int(i)).To] = true
			}
			b := dc.bulk[g.domain]
			if b == nil {
				b = &bulkAgg{}
				dc.bulk[g.domain] = b
			}
			b.emails += len(g.recs) // a clean record is non-bounced
		}
		io, auth := dc.perFrom[g.address], uc.authRcvr[g.domain]
		guess := false
		for _, n := range s.t8PerRcvr {
			guess = guess || n >= 30
		}
		for j, id := range g.doms {
			if io != nil {
				if len(contacts[id]) == 0 {
					touched = append(touched, id)
				}
				contacts[id] = append(contacts[id], g.locals[j])
			}
			if guess || auth != nil {
				dom := idx.domains[id]
				if guess && s.t8PerRcvr[dom] >= 30 {
					dc.pairs[g.domain+"\x00"+dom+"\x00"+view.At(int(g.recs[j])).To]++
				}
				if auth[dom] {
					k := g.domain + "\x00" + dom
					uc.authOk[k] = append(uc.authOk[k], view.At(int(g.recs[j])).EndTime.UnixNano())
				}
			}
			for _, r := range full[id] {
				if r.local != g.locals[j] {
					continue
				}
				if rec := view.At(int(g.recs[j])); rec.To == r.addr {
					uc.okByAddr[r.addr] = append(uc.okByAddr[r.addr], rec.EndTime.UnixNano())
				}
			}
		}
		for _, id := range touched {
			dom := idx.domains[id]
			io.okBy[dom] = append(io.okBy[dom], contacts[id]...)
			contacts[id] = contacts[id][:0]
		}
		touched = touched[:0]
	}
	for id, ends := range idx.ends {
		dom := idx.domains[id]
		if _, named := dc.resolved[dom]; named {
			dc.resolved[dom] = 2
		}
		if uc.mxBad[dom] != nil {
			uc.okByDom[dom] = append(uc.okByDom[dom], ends...)
		}
	}
}

// cleanSplit returns the records that are not clean and the index of
// the rest, which the Analysis was made with. A record is clean exactly
// when it has no failed attempt (ClassifiedRecord.failed).
func (a *Analysis) cleanSplit() ([]int32, *cleanIndex) { return a.dirty, a.index }

// failedFold returns what the records with a failed attempt name to
// detect and Figure 7 (addFailed), made on first use and only read
// afterwards: the round-1 state BouncedPartials ships and the seed of
// the Analysis's own scoped pass.
func (a *Analysis) failedFold() (*detectCollector, *durationsCollector) {
	a.failedOnce.Do(func() {
		dc, uc := newDetectCollector(), newDurationsCollector()
		dirty, _ := a.cleanSplit()
		for _, i := range dirty {
			rec, c := a.Records.At(int(i)), &a.Classified[i]
			dc.addFailed(rec, c)
			uc.addFailed(rec, c)
		}
		a.failedDetect, a.failedDurations = dc, uc
	})
	return a.failedDetect, a.failedDurations
}

// scopedFold is detect's and Figure 7's scoped addRecord over the whole
// corpus, against dc and uc seeded with what every failed attempt names:
// the records that are not clean one by one, the clean ones through the
// index.
func (a *Analysis) scopedFold(dc *detectCollector, uc *durationsCollector) {
	dirty, idx := a.cleanSplit()
	for _, i := range dirty {
		rec, c := a.Records.At(int(i)), &a.Classified[i]
		dc.addRecord(rec, c)
		uc.addRecord(rec, c)
	}
	idx.fold(a.Records, dc, uc)
}

// scoped returns the Analysis's detections and the scoped Figure-7
// fold Durations resolves, made on first use and only read afterwards:
// the failed records' fold, then scopedFold, then the detect fold
// resolved and let go.
func (a *Analysis) scoped() (*Detections, *durationsCollector) {
	a.scopedOnce.Do(func() {
		dc, uc := newDetectCollector(), newDurationsCollector()
		fdc, fuc := a.failedFold()
		dc.Merge(fdc) // the same type: cannot fail
		uc.Merge(fuc)
		dc.scoped, dc.breach, uc.scoped = true, a.Env != nil && a.Env.Breach != nil, true
		a.scopedFold(dc, uc)
		a.det, a.durations = dc.result(a.Env, a.rank), uc
	})
	return a.det, a.durations
}
