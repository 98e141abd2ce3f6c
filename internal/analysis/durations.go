package analysis

import (
	"cmp"
	"slices"
	"sort"
	"time"

	"repro/internal/dataset"
	"repro/internal/ndr"
	"repro/internal/stats"
)

// EpisodeStats summarizes misconfiguration episodes inferred from the
// dataset for one entity class (Figure 7).
type EpisodeStats struct {
	Entities     int       // entities with at least one episode
	AlwaysBroken int       // never observed recovering
	Recurrent    int       // ≥2 separate episodes
	Durations    []float64 // completed episode durations in days
}

// MeanDays returns the mean completed-episode duration.
func (e EpisodeStats) MeanDays() float64 { return stats.Mean(e.Durations) }

// MedianDays returns the median completed-episode duration.
func (e EpisodeStats) MedianDays() float64 { return stats.Median(e.Durations) }

// ShareAtLeast returns the fraction of completed episodes lasting at
// least d days.
func (e EpisodeStats) ShareAtLeast(d float64) float64 {
	return stats.FractionAtLeast(e.Durations, d)
}

// DurationsFigure is Figure 7's three distributions.
type DurationsFigure struct {
	AuthDKIMSPF EpisodeStats // per sender domain (paper: 12-day mean fix)
	MXRecords   EpisodeStats // per receiver domain (mostly <1 day)
	MailboxFull EpisodeStats // per recipient (86-day mean, >51% ≥30d)
}

// event is a timestamped good/bad observation for one entity; the
// timestamp is UnixNano so partials carry it verbatim on the wire.
type event struct {
	at  int64
	bad bool
}

// episodize converts an entity's event sequence into episode durations:
// an episode starts at the first bad event and completes at the first
// subsequent good event. Entities whose final episode never completes
// count as always-broken when they had exactly one (unfinished)
// episode. The sort is a total order — time ascending, bad before good
// at equal times — so shard splits cannot reorder tied events.
func episodize(events []event) (durations []float64, episodes int, completedAll bool) {
	slices.SortFunc(events, func(x, y event) int {
		if c := cmp.Compare(x.at, y.at); c != 0 {
			return c
		}
		switch {
		case x.bad == y.bad:
			return 0
		case x.bad:
			return -1
		}
		return 1
	})
	var start int64
	inEpisode := false
	completedAll = true
	for _, ev := range events {
		if ev.bad {
			if !inEpisode {
				inEpisode = true
				start = ev.at
				episodes++
			}
			continue
		}
		if inEpisode {
			durations = append(durations, time.Duration(ev.at-start).Hours()/24)
			inEpisode = false
		}
	}
	if inEpisode {
		completedAll = false
	}
	return durations, episodes, completedAll
}

// durationsCollector accumulates the raw timestamps Figure 7 needs.
// Which entities count (and which T2 domains are typo-excluded) depends
// on the merged detections, so Add records timestamps per entity and
// resolve assembles the event sequences afterwards.
type durationsCollector struct {
	authBad  map[string][]int64         // sender domain -> T3 bounce starts
	authRcvr map[string]map[string]bool // sender domain -> receivers that T3-bounced it
	authOk   map[string][]int64         // "fromDom\x00toDom" -> success ends
	mxBad    map[string][]int64         // receiver domain -> T2 bounce starts
	okByDom  map[string][]int64         // receiver domain -> non-T2 success ends
	fullBad  map[string][]int64         // recipient -> T9 bounce starts
	okByAddr map[string][]int64         // recipient -> non-T9 success ends

	// scoped: fed a whole corpus bounced first (Analysis.Durations, a
	// shard's round 2), as detectCollector.scoped.
	scoped bool
}

func newDurationsCollector() *durationsCollector {
	return &durationsCollector{
		authBad:  map[string][]int64{},
		authRcvr: map[string]map[string]bool{},
		authOk:   map[string][]int64{},
		mxBad:    map[string][]int64{},
		okByDom:  map[string][]int64{},
		fullBad:  map[string][]int64{},
		okByAddr: map[string][]int64{},
	}
}

func (uc *durationsCollector) Add(rec *dataset.Record, c *ClassifiedRecord) {
	if c.failed() {
		uc.addFailed(rec, c)
	}
	uc.addRecord(rec, c)
}

// addFailed files the bad events: when an auth failure (T3), an MX
// error (T2) or a full mailbox (T9) bounced the record, and for T3 at
// which receiver.
func (uc *durationsCollector) addFailed(rec *dataset.Record, c *ClassifiedRecord) {
	if c.HasType(ndr.T3AuthFail) {
		uc.authBad[c.FromDomain] = append(uc.authBad[c.FromDomain], rec.StartTime.UnixNano())
		set := uc.authRcvr[c.FromDomain]
		if set == nil {
			set = map[string]bool{}
			uc.authRcvr[c.FromDomain] = set
		}
		set[c.ToDomain] = true
	}
	if c.HasType(ndr.T2ReceiverDNS) {
		uc.mxBad[c.ToDomain] = append(uc.mxBad[c.ToDomain], rec.StartTime.UnixNano())
	}
	if c.HasType(ndr.T9MailboxFull) {
		uc.fullBad[rec.To] = append(uc.fullBad[rec.To], rec.StartTime.UnixNano())
	}
}

// addRecord files the good events: when a delivery succeeded, for the
// (sender, receiver), the receiver domain and the recipient. resolve
// reads an entity's good events only beside its bad ones, so a scoped
// collector keeps them only for an entity addFailed has named.
func (uc *durationsCollector) addRecord(rec *dataset.Record, c *ClassifiedRecord) {
	if !c.Succeeded {
		return
	}
	end := rec.EndTime.UnixNano()
	if !uc.scoped || uc.authRcvr[c.FromDomain][c.ToDomain] {
		k := c.FromDomain + "\x00" + c.ToDomain
		uc.authOk[k] = append(uc.authOk[k], end)
	}
	if !c.HasType(ndr.T2ReceiverDNS) && (!uc.scoped || uc.mxBad[c.ToDomain] != nil) {
		uc.okByDom[c.ToDomain] = append(uc.okByDom[c.ToDomain], end)
	}
	if !c.HasType(ndr.T9MailboxFull) && (!uc.scoped || uc.fullBad[rec.To] != nil) {
		uc.okByAddr[rec.To] = append(uc.okByAddr[rec.To], end)
	}
}

// dropFailed empties what addFailed files, leaving a round-2 collector
// with only the good events addRecord added.
func (uc *durationsCollector) dropFailed() {
	uc.authBad, uc.authRcvr = map[string][]int64{}, map[string]map[string]bool{}
	uc.mxBad, uc.fullBad = map[string][]int64{}, map[string][]int64{}
}

func mergeTimes(dst, src map[string][]int64) {
	for k, v := range src {
		dst[k] = append(dst[k], v...)
	}
}

func (uc *durationsCollector) Merge(other PartialCollector) error {
	o, ok := other.(*durationsCollector)
	if !ok {
		return mergeTypeError("durations", other)
	}
	mergeTimes(uc.authBad, o.authBad)
	for from, set := range o.authRcvr {
		t := uc.authRcvr[from]
		if t == nil {
			t = map[string]bool{}
			uc.authRcvr[from] = t
		}
		for to := range set {
			t[to] = true
		}
	}
	mergeTimes(uc.authOk, o.authOk)
	mergeTimes(uc.mxBad, o.mxBad)
	mergeTimes(uc.okByDom, o.okByDom)
	mergeTimes(uc.fullBad, o.fullBad)
	mergeTimes(uc.okByAddr, o.okByAddr)
	return nil
}

// encodeTimes writes a timestamp multiset map with sorted keys and
// sorted values, so equal states encode to equal bytes.
func (e *enc) encodeTimes(m map[string][]int64) {
	e.u64(uint64(len(m)))
	for _, k := range sortedKeys(m) {
		e.str(k)
		ts := append([]int64(nil), m[k]...)
		sort.Slice(ts, func(i, j int) bool { return ts[i] < ts[j] })
		e.i64List(ts)
	}
}

func (d *dec) decodeTimes() map[string][]int64 {
	n := d.count()
	m := make(map[string][]int64, n)
	for i := 0; i < n; i++ {
		k := d.str()
		m[k] = d.i64List()
	}
	return m
}

func (uc *durationsCollector) MarshalPartial() []byte {
	var e enc
	e.version(1)
	e.encodeTimes(uc.authBad)
	e.u64(uint64(len(uc.authRcvr)))
	for _, from := range sortedKeys(uc.authRcvr) {
		e.str(from)
		e.strSet(uc.authRcvr[from])
	}
	e.encodeTimes(uc.authOk)
	e.encodeTimes(uc.mxBad)
	e.encodeTimes(uc.okByDom)
	e.encodeTimes(uc.fullBad)
	e.encodeTimes(uc.okByAddr)
	return e.buf
}

func (uc *durationsCollector) UnmarshalPartial(b []byte) error {
	d := dec{b: b}
	d.checkVersion("durations", 1)
	uc.authBad = d.decodeTimes()
	n := d.count()
	uc.authRcvr = make(map[string]map[string]bool, n)
	for i := 0; i < n; i++ {
		from := d.str()
		uc.authRcvr[from] = d.strSet()
	}
	uc.authOk = d.decodeTimes()
	uc.mxBad = d.decodeTimes()
	uc.okByDom = d.decodeTimes()
	uc.fullBad = d.decodeTimes()
	uc.okByAddr = d.decodeTimes()
	return d.err
}

// appendEvents appends one event per timestamp, all bad or all good.
func appendEvents(evs []event, ats []int64, bad bool) []event {
	for _, at := range ats {
		evs = append(evs, event{at, bad})
	}
	return evs
}

// resolve assembles the per-entity event sequences and summarizes them.
// Misconfiguration periods are bounded by observed bounces of the
// relevant type and the next observed success for the same entity. One
// event buffer serves every entity in turn: episodize sorts it to a
// total order, so the order it is filled in does not matter.
func (uc *durationsCollector) resolve(det *Detections) DurationsFigure {
	var fig DurationsFigure
	var evs []event

	// --- DKIM/SPF (T3) per sender domain. A "good" event is a success
	// from the sender at a receiver that T3-bounced it.
	for from, bads := range uc.authBad {
		evs = appendEvents(evs[:0], bads, true)
		for to := range uc.authRcvr[from] {
			evs = appendEvents(evs, uc.authOk[from+"\x00"+to], false)
		}
		fig.AuthDKIMSPF.add(evs)
	}

	// --- MX errors (T2, excluding typo domains) per receiver domain.
	for to, bads := range uc.mxBad {
		if _, isTypo := det.DomainTypos[to]; isTypo {
			continue
		}
		evs = appendEvents(appendEvents(evs[:0], bads, true), uc.okByDom[to], false)
		fig.MXRecords.add(evs)
	}

	// --- Mailbox full (T9) per recipient address.
	for addr, bads := range uc.fullBad {
		if !det.FullMailboxes[addr] {
			continue
		}
		evs = appendEvents(appendEvents(evs[:0], bads, true), uc.okByAddr[addr], false)
		fig.MailboxFull.add(evs)
	}

	for _, s := range []*EpisodeStats{&fig.AuthDKIMSPF, &fig.MXRecords, &fig.MailboxFull} {
		sort.Float64s(s.Durations)
	}
	return fig
}

// Durations infers Figure 7 from the dataset alone: the bad events
// first, then the good events of the entities that had one.
func (a *Analysis) Durations(det *Detections) DurationsFigure {
	_, uc := a.scoped()
	return uc.resolve(det)
}

// add folds one entity's events into the stats; the caller sorts
// Durations once every entity is in.
func (s *EpisodeStats) add(evs []event) {
	durations, episodes, completed := episodize(evs)
	if episodes == 0 {
		return
	}
	s.Entities++
	s.Durations = append(s.Durations, durations...)
	if !completed && len(durations) == 0 {
		s.AlwaysBroken++
	}
	if episodes >= 2 {
		s.Recurrent++
	}
}
