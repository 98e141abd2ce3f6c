package analysis

import (
	"fmt"
	"sort"
	"strconv"
	"time"

	"repro/internal/clock"
	"repro/internal/dataset"
	"repro/internal/geo"
	"repro/internal/ndr"
	"repro/internal/stats"
)

// Timeline is Figure 5's data: per-day bounce-degree counts and
// per-month volumes.
type Timeline struct {
	Days   [clock.StudyDays]struct{ Non, Soft, Hard int }
	Months []MonthVolume
}

// MonthVolume is one point of Figure 5's monthly line.
type MonthVolume struct {
	Month  string
	Emails int
}

// timelineCollector accumulates Figure 5 in one pass.
type timelineCollector struct {
	tl      Timeline
	monthly map[yearMonth]int
}

// yearMonth keys Figure 5's monthly line inside the collector. Its
// name, clock.MonthKey's YYYY-MM, is made only where the partial codec
// and the figure read it.
type yearMonth struct {
	year  int
	month time.Month
}

func monthOf(t time.Time) yearMonth {
	y, m, _ := t.Date()
	return yearMonth{y, m}
}

func (ym yearMonth) String() string {
	return clock.MonthKey(time.Date(ym.year, ym.month, 1, 0, 0, 0, 0, time.UTC))
}

// parseYearMonth reads back a name String made; ok is false for any
// other string.
func parseYearMonth(s string) (yearMonth, bool) {
	if len(s) < 4 || s[len(s)-3] != '-' {
		return yearMonth{}, false
	}
	y, err := strconv.Atoi(s[:len(s)-3])
	if err != nil {
		return yearMonth{}, false
	}
	m, err := strconv.Atoi(s[len(s)-2:])
	if err != nil || m < 1 || m > 12 {
		return yearMonth{}, false
	}
	ym := yearMonth{y, time.Month(m)}
	return ym, ym.String() == s
}

func newTimelineCollector() *timelineCollector {
	return &timelineCollector{monthly: map[yearMonth]int{}}
}

func (tc *timelineCollector) Add(rec *dataset.Record, c *ClassifiedRecord) {
	day := clock.Day(rec.StartTime)
	switch c.Degree {
	case dataset.NonBounced:
		tc.tl.Days[day].Non++
	case dataset.SoftBounced:
		tc.tl.Days[day].Soft++
	default:
		tc.tl.Days[day].Hard++
	}
	tc.monthly[monthOf(rec.StartTime)]++
}

func (tc *timelineCollector) Merge(other PartialCollector) error {
	o, ok := other.(*timelineCollector)
	if !ok {
		return mergeTypeError("timeline", other)
	}
	for d := range tc.tl.Days {
		tc.tl.Days[d].Non += o.tl.Days[d].Non
		tc.tl.Days[d].Soft += o.tl.Days[d].Soft
		tc.tl.Days[d].Hard += o.tl.Days[d].Hard
	}
	for m, n := range o.monthly {
		tc.monthly[m] += n
	}
	return nil
}

func (tc *timelineCollector) MarshalPartial() []byte {
	var e enc
	e.version(1)
	e.intv(clock.StudyDays)
	for d := range tc.tl.Days {
		e.intv(tc.tl.Days[d].Non)
		e.intv(tc.tl.Days[d].Soft)
		e.intv(tc.tl.Days[d].Hard)
	}
	named := make(map[string]int, len(tc.monthly))
	for m, n := range tc.monthly {
		named[m.String()] = n
	}
	e.strIntMap(named)
	return e.buf
}

func (tc *timelineCollector) UnmarshalPartial(b []byte) error {
	d := dec{b: b}
	d.checkVersion("timeline", 1)
	if days := d.intv(); d.err == nil && days != clock.StudyDays {
		return mergeTypeError("timeline-days", tc)
	}
	for i := range tc.tl.Days {
		tc.tl.Days[i].Non = d.intv()
		tc.tl.Days[i].Soft = d.intv()
		tc.tl.Days[i].Hard = d.intv()
	}
	n := d.count()
	tc.monthly = make(map[yearMonth]int, n)
	for i := 0; i < n && d.err == nil; i++ {
		name := d.str()
		ym, ok := parseYearMonth(name)
		if !ok && d.err == nil {
			d.err = fmt.Errorf("analysis: timeline partial names no month: %q", name)
		}
		tc.monthly[ym] = d.intv()
	}
	return d.err
}

func (tc *timelineCollector) result() Timeline {
	tl := tc.tl
	for m, n := range tc.monthly {
		tl.Months = append(tl.Months, MonthVolume{Month: m.String(), Emails: n})
	}
	sort.Slice(tl.Months, func(i, j int) bool { return tl.Months[i].Month < tl.Months[j].Month })
	return tl
}

// BlocklistFigure is Figure 6's data.
type BlocklistFigure struct {
	// ListedPerDay is how many proxy MTAs are blocklisted each day.
	ListedPerDay [clock.StudyDays]int
	// BlockedNormal/BlockedSpam count T5-bounced emails per day by
	// sender-ESP flag.
	BlockedNormal [clock.StudyDays]int
	BlockedSpam   [clock.StudyDays]int
	// ProxiesOver70Pct counts proxies listed on >70% of days (paper: 5).
	ProxiesOver70Pct int
	// AvgListed is the mean number of listed proxies per day
	// (paper: about half of 34).
	AvgListed float64
	// NormalShare is the share of T5-blocked emails flagged Normal
	// (paper: 78.06%).
	NormalShare float64
}

// blockedCollector accumulates Figure 6's per-day T5 counts. The
// blocklist-probe half of the figure depends only on the Environment,
// so result recomputes it from env rather than carrying it in the
// partial.
type blockedCollector struct {
	normalDays   [clock.StudyDays]int
	spamDays     [clock.StudyDays]int
	normal, spam int
}

func (bc *blockedCollector) Add(rec *dataset.Record, c *ClassifiedRecord) {
	if !c.HasType(ndr.T5Blocklisted) {
		return
	}
	day := clock.Day(rec.StartTime)
	if rec.EmailFlag == "Spam" {
		bc.spamDays[day]++
		bc.spam++
	} else {
		bc.normalDays[day]++
		bc.normal++
	}
}

func (bc *blockedCollector) Merge(other PartialCollector) error {
	o, ok := other.(*blockedCollector)
	if !ok {
		return mergeTypeError("blocked", other)
	}
	for d := range bc.normalDays {
		bc.normalDays[d] += o.normalDays[d]
		bc.spamDays[d] += o.spamDays[d]
	}
	bc.normal += o.normal
	bc.spam += o.spam
	return nil
}

func (bc *blockedCollector) MarshalPartial() []byte {
	var e enc
	e.version(1)
	e.intv(clock.StudyDays)
	for d := range bc.normalDays {
		e.intv(bc.normalDays[d])
		e.intv(bc.spamDays[d])
	}
	e.intv(bc.normal)
	e.intv(bc.spam)
	return e.buf
}

func (bc *blockedCollector) UnmarshalPartial(b []byte) error {
	d := dec{b: b}
	d.checkVersion("blocked", 1)
	if days := d.intv(); d.err == nil && days != clock.StudyDays {
		return mergeTypeError("blocked-days", bc)
	}
	for i := range bc.normalDays {
		bc.normalDays[i] = d.intv()
		bc.spamDays[i] = d.intv()
	}
	bc.normal = d.intv()
	bc.spam = d.intv()
	return d.err
}

func (bc *blockedCollector) result(env *Environment) BlocklistFigure {
	var f BlocklistFigure
	if env == nil || env.Blocklist == nil {
		return f
	}
	perProxy := make([]int, len(env.ProxyIPs))
	sum := 0
	for day := 0; day < clock.StudyDays; day++ {
		at := clock.DayStart(day).Add(12 * time.Hour)
		n := 0
		for i, ip := range env.ProxyIPs {
			if env.Blocklist.Listed(ip, at) {
				n++
				perProxy[i]++
			}
		}
		f.ListedPerDay[day] = n
		sum += n
	}
	f.AvgListed = float64(sum) / clock.StudyDays
	for _, days := range perProxy {
		if float64(days)/clock.StudyDays > 0.7 {
			f.ProxiesOver70Pct++
		}
	}
	copy(f.BlockedNormal[:], bc.normalDays[:])
	copy(f.BlockedSpam[:], bc.spamDays[:])
	if bc.normal+bc.spam > 0 {
		f.NormalShare = float64(bc.normal) / float64(bc.normal+bc.spam)
	}
	return f
}

// InfraMatrix is Figure 8: timeout ratio per (sender proxy country,
// receiver country).
type InfraMatrix struct {
	SenderCCs   []string
	ReceiverCCs []string
	// Ratio[s][r] is timeouts/emails ×100 for sender CC s, receiver CC r.
	Ratio [][]float64
	// Totals per receiver country (for ranking the worst).
	ReceiverTimeoutPct map[string]float64
}

// infraCell is one (sender CC, receiver CC) accumulator.
type infraCell struct {
	emails, timeouts int
}

// infraCollector accumulates Figure 8 in one pass. The per-record
// email dedup (one email per pair/receiver) is record-local, so it
// lives in Add; all ranking lives in result.
type infraCollector struct {
	geo         *geo.DB
	proxyRegion map[string]string
	cells       map[string]*infraCell // "proxyCC\x00cc"
	rcvr        map[string]*infraCell
}

func newInfraCollector(db *geo.DB, proxyRegion map[string]string) *infraCollector {
	return &infraCollector{
		geo: db, proxyRegion: proxyRegion,
		cells: map[string]*infraCell{}, rcvr: map[string]*infraCell{},
	}
}

func (ic *infraCollector) Add(rec *dataset.Record, c *ClassifiedRecord) {
	if ic.geo == nil {
		return
	}
	// Attribute per attempt: each attempt has a proxy and may be a
	// timeout; email-level N2 counts an email once per sender CC it
	// timed out from.
	seenPair := map[string]bool{}
	seenRcvr := map[string]bool{}
	for j := range rec.DeliveryResult {
		proxyCC := ic.proxyRegion[rec.FromIP[j]]
		ip := rec.ToIP[j]
		cc := ""
		if ip != "" {
			cc, _, _ = ic.geo.Lookup(ip)
		}
		if cc == "" {
			cc = receiverCCIn(ic.geo, rec)
		}
		if proxyCC == "" || cc == "" {
			continue
		}
		key := proxyCC + "\x00" + cc
		cell := ic.cells[key]
		if cell == nil {
			cell = &infraCell{}
			ic.cells[key] = cell
		}
		rt := ic.rcvr[cc]
		if rt == nil {
			rt = &infraCell{}
			ic.rcvr[cc] = rt
		}
		if !seenPair[key] {
			seenPair[key] = true
			cell.emails++
		}
		if !seenRcvr[cc] {
			seenRcvr[cc] = true
			rt.emails++
		}
		if c.AttemptTypes[j] == ndr.T14Timeout {
			cell.timeouts++
			rt.timeouts++
		}
	}
}

func (ic *infraCollector) Merge(other PartialCollector) error {
	o, ok := other.(*infraCollector)
	if !ok {
		return mergeTypeError("infra", other)
	}
	for k, cell := range o.cells {
		t := ic.cells[k]
		if t == nil {
			cp := *cell
			ic.cells[k] = &cp
			continue
		}
		t.emails += cell.emails
		t.timeouts += cell.timeouts
	}
	for k, cell := range o.rcvr {
		t := ic.rcvr[k]
		if t == nil {
			cp := *cell
			ic.rcvr[k] = &cp
			continue
		}
		t.emails += cell.emails
		t.timeouts += cell.timeouts
	}
	return nil
}

func encodeCellMap(e *enc, m map[string]*infraCell) {
	e.u64(uint64(len(m)))
	for _, k := range sortedKeys(m) {
		e.str(k)
		e.intv(m[k].emails)
		e.intv(m[k].timeouts)
	}
}

func decodeCellMap(d *dec) map[string]*infraCell {
	n := d.count()
	m := make(map[string]*infraCell, n)
	for i := 0; i < n; i++ {
		k := d.str()
		m[k] = &infraCell{emails: d.intv(), timeouts: d.intv()}
	}
	return m
}

func (ic *infraCollector) MarshalPartial() []byte {
	var e enc
	e.version(1)
	encodeCellMap(&e, ic.cells)
	encodeCellMap(&e, ic.rcvr)
	return e.buf
}

func (ic *infraCollector) UnmarshalPartial(b []byte) error {
	d := dec{b: b}
	d.checkVersion("infra", 1)
	ic.cells = decodeCellMap(&d)
	ic.rcvr = decodeCellMap(&d)
	return d.err
}

func (ic *infraCollector) result(minEmails, n int) InfraMatrix {
	out := InfraMatrix{ReceiverTimeoutPct: map[string]float64{}}
	type rk struct {
		cc  string
		pct float64
	}
	var ranked []rk
	for cc, c := range ic.rcvr {
		if c.emails < minEmails {
			continue
		}
		p := 100 * float64(c.timeouts) / float64(c.emails)
		out.ReceiverTimeoutPct[cc] = p
		ranked = append(ranked, rk{cc, p})
	}
	// Map-fed rows: the shared measure-desc/name-asc normalization keeps
	// the column order deterministic on every topology.
	SortRanked(ranked,
		func(r rk) float64 { return r.pct },
		func(r rk) string { return r.cc })
	if n < len(ranked) {
		ranked = ranked[:n]
	}
	for _, r := range ranked {
		out.ReceiverCCs = append(out.ReceiverCCs, r.cc)
	}
	out.SenderCCs = []string{"US", "DE", "GB", "HK"} // Figure 8's rows
	out.Ratio = make([][]float64, len(out.SenderCCs))
	for si, s := range out.SenderCCs {
		out.Ratio[si] = make([]float64, len(out.ReceiverCCs))
		for ri, r := range out.ReceiverCCs {
			c := ic.cells[s+"\x00"+r]
			if c != nil && c.emails > 0 {
				out.Ratio[si][ri] = 100 * float64(c.timeouts) / float64(c.emails)
			}
		}
	}
	return out
}

// receiverCCIn geolocates a record's receiver by any attempt with an
// IP.
func receiverCCIn(db *geo.DB, rec *dataset.Record) string {
	ip := lastNonEmpty(rec.ToIP)
	if ip == "" {
		return ""
	}
	cc, _, _ := db.Lookup(ip)
	return cc
}

// CountryLatency is one Figure-10 point.
type CountryLatency struct {
	Country  string
	Emails   int
	MedianMS float64
}

// LatencyStats is Figure 10 plus the Appendix-C aggregates.
type LatencyStats struct {
	Countries []CountryLatency
	// Global latency over successful deliveries.
	GlobalMeanMS   float64
	GlobalMedianMS float64
	// Fast/slow-Internet split (Appendix C: 9.74s/6.97s vs 16.73s/12.54s).
	FastMeanMS   float64
	FastMedianMS float64
	SlowMeanMS   float64
	SlowMedianMS float64
}

// latencyCollector accumulates per-country latency samples of
// successful deliveries. Only the raw per-country sample lists are
// partial state; the global/fast/slow aggregates derive from them at
// result time, over value-sorted lists, so that sample arrival order —
// which sharding permutes — cannot perturb the floating-point sums.
type latencyCollector struct {
	geo   *geo.DB
	perCC map[string][]float64
}

func newLatencyCollector(db *geo.DB) *latencyCollector {
	return &latencyCollector{geo: db, perCC: map[string][]float64{}}
}

func (lc *latencyCollector) Add(rec *dataset.Record, c *ClassifiedRecord) {
	if lc.geo == nil {
		return
	}
	if !c.Succeeded {
		return
	}
	// Latency of the successful (final) attempt.
	lat := float64(rec.DeliveryLatency[len(rec.DeliveryLatency)-1])
	cc := receiverCCIn(lc.geo, rec)
	if cc == "" {
		return
	}
	lc.perCC[cc] = append(lc.perCC[cc], lat)
}

func (lc *latencyCollector) Merge(other PartialCollector) error {
	o, ok := other.(*latencyCollector)
	if !ok {
		return mergeTypeError("latency", other)
	}
	for cc, lats := range o.perCC {
		lc.perCC[cc] = append(lc.perCC[cc], lats...)
	}
	return nil
}

func (lc *latencyCollector) MarshalPartial() []byte {
	var e enc
	e.version(1)
	e.u64(uint64(len(lc.perCC)))
	for _, cc := range sortedKeys(lc.perCC) {
		e.str(cc)
		// Values sort before encoding: the list is a multiset, and the
		// stable-bytes guarantee requires a canonical element order.
		lats := append([]float64(nil), lc.perCC[cc]...)
		sort.Float64s(lats)
		e.f64List(lats)
	}
	return e.buf
}

func (lc *latencyCollector) UnmarshalPartial(b []byte) error {
	d := dec{b: b}
	d.checkVersion("latency", 1)
	n := d.count()
	lc.perCC = make(map[string][]float64, n)
	for i := 0; i < n; i++ {
		cc := d.str()
		lc.perCC[cc] = d.f64List()
	}
	return d.err
}

func (lc *latencyCollector) result(env *Environment, minEmails int) LatencyStats {
	var out LatencyStats
	if env == nil || env.Geo == nil {
		return out
	}
	var global, fast, slow []float64
	for _, cc := range sortedKeys(lc.perCC) {
		lats := lc.perCC[cc]
		global = append(global, lats...)
		if c, ok := env.Geo.Country(cc); ok {
			if c.FastInternet {
				fast = append(fast, lats...)
			} else {
				slow = append(slow, lats...)
			}
		}
		if len(lats) < minEmails {
			continue
		}
		out.Countries = append(out.Countries, CountryLatency{
			Country: cc, Emails: len(lats), MedianMS: stats.Median(lats),
		})
	}
	SortRanked(out.Countries,
		func(c CountryLatency) float64 { return c.MedianMS },
		func(c CountryLatency) string { return c.Country })
	// Sum in value order: Mean is sensitive to float addition order, and
	// only a canonical order makes K-shard merges bit-equal to one pass.
	sort.Float64s(global)
	sort.Float64s(fast)
	sort.Float64s(slow)
	out.GlobalMeanMS = stats.Mean(global)
	out.GlobalMedianMS = stats.Median(global)
	out.FastMeanMS = stats.Mean(fast)
	out.FastMedianMS = stats.Median(fast)
	out.SlowMeanMS = stats.Mean(slow)
	out.SlowMedianMS = stats.Median(slow)
	return out
}

// STARTTLSStats is the Section-4.3.1 TLS-mandate measurement, derived
// from observed T4 NDRs (behavior, not configuration).
type STARTTLSStats struct {
	MandatingDomains int
	// Top100Share / Top10KShare are the shares of the InEmailRank
	// top-100 and the whole observed population that mandate TLS
	// (paper: 38% vs 8.53%).
	Top100Share float64
	AllShare    float64
	// SoftBounced counts emails that T4-bounced.
	SoftBounced int
}

// starttlsCollector finds TLS-mandating domains from observed T4 NDRs.
type starttlsCollector struct {
	mandating   map[string]bool
	softBounced int
}

func newSTARTTLSCollector() *starttlsCollector {
	return &starttlsCollector{mandating: map[string]bool{}}
}

func (sc *starttlsCollector) Add(_ *dataset.Record, c *ClassifiedRecord) {
	if c.HasType(ndr.T4STARTTLS) {
		sc.mandating[c.ToDomain] = true
		sc.softBounced++
	}
}

func (sc *starttlsCollector) Merge(other PartialCollector) error {
	o, ok := other.(*starttlsCollector)
	if !ok {
		return mergeTypeError("starttls", other)
	}
	for dom := range o.mandating {
		sc.mandating[dom] = true
	}
	sc.softBounced += o.softBounced
	return nil
}

func (sc *starttlsCollector) MarshalPartial() []byte {
	var e enc
	e.version(1)
	e.strSet(sc.mandating)
	e.intv(sc.softBounced)
	return e.buf
}

func (sc *starttlsCollector) UnmarshalPartial(b []byte) error {
	d := dec{b: b}
	d.checkVersion("starttls", 1)
	sc.mandating = d.strSet()
	sc.softBounced = d.intv()
	return d.err
}

func (sc *starttlsCollector) result(rank []dataset.RankEntry) STARTTLSStats {
	var out STARTTLSStats
	out.SoftBounced = sc.softBounced
	out.MandatingDomains = len(sc.mandating)
	top100, all := 0, 0
	for pos, e := range rank {
		if sc.mandating[e.Domain] {
			all++
			if pos < 100 {
				top100++
			}
		}
	}
	if len(rank) > 0 {
		n100 := 100
		if len(rank) < 100 {
			n100 = len(rank)
		}
		out.Top100Share = float64(top100) / float64(n100)
		out.AllShare = float64(all) / float64(len(rank))
	}
	return out
}

// FilterDisagreement is the Section-4.2.2 cross-ESP spam-filter
// comparison: rule differences between the sender ESP's filter (the
// email_flag) and receiver filters cause both wasted single-shot
// deliveries and reputation-damaging retries.
type FilterDisagreement struct {
	// SenderSpamTotal is the number of Coremail-flagged spam emails.
	SenderSpamTotal int
	// SenderSpamNotSpamAtReceiver: flagged Spam, yet the receiver did
	// not judge it spam — it was accepted or bounced for a non-content
	// reason (receiver disagreed; paper: 46.49%).
	SenderSpamNotSpamAtReceiver int
	// ReceiverSpamTotal is the number of emails receivers rejected as
	// spam content (T13).
	ReceiverSpamTotal int
	// ReceiverSpamFlaggedNormal: rejected as spam by the receiver but
	// flagged Normal by the sender (paper: 39.46%) — these get retried,
	// burning reputation.
	ReceiverSpamFlaggedNormal int
	// NormalSpamRetryAttempts counts the extra attempts spent retrying
	// receiver-rejected spam that the sender considered Normal.
	NormalSpamRetryAttempts int
}

// SenderDisagreeShare is the share of sender-flagged spam the receiver
// accepted.
func (f FilterDisagreement) SenderDisagreeShare() float64 {
	if f.SenderSpamTotal == 0 {
		return 0
	}
	return float64(f.SenderSpamNotSpamAtReceiver) / float64(f.SenderSpamTotal)
}

// ReceiverDisagreeShare is the share of receiver-rejected spam the
// sender flagged Normal.
func (f FilterDisagreement) ReceiverDisagreeShare() float64 {
	if f.ReceiverSpamTotal == 0 {
		return 0
	}
	return float64(f.ReceiverSpamFlaggedNormal) / float64(f.ReceiverSpamTotal)
}

// filterCollector accumulates the cross-filter comparison.
type filterCollector struct {
	f FilterDisagreement
}

func (fc *filterCollector) Add(rec *dataset.Record, c *ClassifiedRecord) {
	isT13 := c.HasType(ndr.T13ContentSpam)
	if rec.EmailFlag == "Spam" {
		fc.f.SenderSpamTotal++
		if c.Succeeded || !isT13 {
			fc.f.SenderSpamNotSpamAtReceiver++
		}
	}
	if isT13 {
		fc.f.ReceiverSpamTotal++
		if rec.EmailFlag != "Spam" {
			fc.f.ReceiverSpamFlaggedNormal++
			if n := len(c.AttemptTypes); n > 1 {
				fc.f.NormalSpamRetryAttempts += n - 1
			}
		}
	}
}

func (fc *filterCollector) Merge(other PartialCollector) error {
	o, ok := other.(*filterCollector)
	if !ok {
		return mergeTypeError("filter", other)
	}
	fc.f.SenderSpamTotal += o.f.SenderSpamTotal
	fc.f.SenderSpamNotSpamAtReceiver += o.f.SenderSpamNotSpamAtReceiver
	fc.f.ReceiverSpamTotal += o.f.ReceiverSpamTotal
	fc.f.ReceiverSpamFlaggedNormal += o.f.ReceiverSpamFlaggedNormal
	fc.f.NormalSpamRetryAttempts += o.f.NormalSpamRetryAttempts
	return nil
}

func (fc *filterCollector) MarshalPartial() []byte {
	var e enc
	e.version(1)
	e.intv(fc.f.SenderSpamTotal)
	e.intv(fc.f.SenderSpamNotSpamAtReceiver)
	e.intv(fc.f.ReceiverSpamTotal)
	e.intv(fc.f.ReceiverSpamFlaggedNormal)
	e.intv(fc.f.NormalSpamRetryAttempts)
	return e.buf
}

func (fc *filterCollector) UnmarshalPartial(b []byte) error {
	d := dec{b: b}
	d.checkVersion("filter", 1)
	fc.f.SenderSpamTotal = d.intv()
	fc.f.SenderSpamNotSpamAtReceiver = d.intv()
	fc.f.ReceiverSpamTotal = d.intv()
	fc.f.ReceiverSpamFlaggedNormal = d.intv()
	fc.f.NormalSpamRetryAttempts = d.intv()
	return d.err
}

// BlocklistRecovery quantifies the Section-4.2.2 finding that most
// blocklist bounces recover by switching proxy MTAs (paper: 80.71%
// redelivered, at an average of three attempts).
type BlocklistRecovery struct {
	Affected    int // emails with at least one T5 attempt
	Recovered   int // of those, eventually delivered
	AvgAttempts float64
}

// RecoveryShare is Recovered/Affected.
func (b BlocklistRecovery) RecoveryShare() float64 {
	if b.Affected == 0 {
		return 0
	}
	return float64(b.Recovered) / float64(b.Affected)
}

// recoveryCollector accumulates the T5 recovery statistic.
type recoveryCollector struct {
	out      BlocklistRecovery
	attempts int
}

func (rc *recoveryCollector) Add(_ *dataset.Record, c *ClassifiedRecord) {
	if !c.HasType(ndr.T5Blocklisted) {
		return
	}
	rc.out.Affected++
	if c.Succeeded {
		rc.out.Recovered++
		rc.attempts += len(c.AttemptTypes)
	}
}

func (rc *recoveryCollector) Merge(other PartialCollector) error {
	o, ok := other.(*recoveryCollector)
	if !ok {
		return mergeTypeError("recovery", other)
	}
	rc.out.Affected += o.out.Affected
	rc.out.Recovered += o.out.Recovered
	rc.attempts += o.attempts
	return nil
}

func (rc *recoveryCollector) MarshalPartial() []byte {
	var e enc
	e.version(1)
	e.intv(rc.out.Affected)
	e.intv(rc.out.Recovered)
	e.intv(rc.attempts)
	return e.buf
}

func (rc *recoveryCollector) UnmarshalPartial(b []byte) error {
	d := dec{b: b}
	d.checkVersion("recovery", 1)
	rc.out.Affected = d.intv()
	rc.out.Recovered = d.intv()
	rc.attempts = d.intv()
	return d.err
}

func (rc *recoveryCollector) result() BlocklistRecovery {
	out := rc.out
	if out.Recovered > 0 {
		out.AvgAttempts = float64(rc.attempts) / float64(out.Recovered)
	}
	return out
}
