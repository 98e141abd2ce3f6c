package analysis

import (
	"sort"

	"repro/internal/dataset"
	"repro/internal/geo"
	"repro/internal/ndr"
)

// DomainStats is one Table-3 row.
type DomainStats struct {
	Domain string
	Emails int
	Hard   int
	Soft   int
}

// HardPct returns the hard-bounce percentage.
func (d DomainStats) HardPct() float64 { return pct(d.Hard, d.Emails) }

// SoftPct returns the soft-bounce percentage.
func (d DomainStats) SoftPct() float64 { return pct(d.Soft, d.Emails) }

// domainCollector aggregates Table 3 in one pass.
type domainCollector struct {
	agg map[string]*DomainStats
}

func newDomainCollector() *domainCollector {
	return &domainCollector{agg: map[string]*DomainStats{}}
}

func (dc *domainCollector) Add(_ *dataset.Record, c *ClassifiedRecord) {
	d := dc.agg[c.ToDomain]
	if d == nil {
		d = &DomainStats{Domain: c.ToDomain}
		dc.agg[c.ToDomain] = d
	}
	d.Emails++
	switch c.Degree {
	case dataset.HardBounced:
		d.Hard++
	case dataset.SoftBounced:
		d.Soft++
	}
}

func (dc *domainCollector) Merge(other PartialCollector) error {
	o, ok := other.(*domainCollector)
	if !ok {
		return mergeTypeError("domain", other)
	}
	for dom, s := range o.agg {
		d := dc.agg[dom]
		if d == nil {
			cp := *s
			dc.agg[dom] = &cp
			continue
		}
		d.Emails += s.Emails
		d.Hard += s.Hard
		d.Soft += s.Soft
	}
	return nil
}

func (dc *domainCollector) MarshalPartial() []byte {
	var e enc
	e.version(1)
	e.u64(uint64(len(dc.agg)))
	for _, dom := range sortedKeys(dc.agg) {
		d := dc.agg[dom]
		e.str(dom)
		e.intv(d.Emails)
		e.intv(d.Hard)
		e.intv(d.Soft)
	}
	return e.buf
}

func (dc *domainCollector) UnmarshalPartial(b []byte) error {
	d := dec{b: b}
	d.checkVersion("domain", 1)
	n := d.count()
	dc.agg = make(map[string]*DomainStats, n)
	for i := 0; i < n; i++ {
		dom := d.str()
		dc.agg[dom] = &DomainStats{
			Domain: dom, Emails: d.intv(), Hard: d.intv(), Soft: d.intv(),
		}
	}
	return d.err
}

func (dc *domainCollector) result(n int) []DomainStats {
	out := make([]DomainStats, 0, len(dc.agg))
	for _, d := range dc.agg {
		out = append(out, *d)
	}
	SortRanked(out,
		func(d DomainStats) float64 { return float64(d.Emails) },
		func(d DomainStats) string { return d.Domain })
	if n < len(out) {
		out = out[:n]
	}
	return out
}

// ASStats is one Table-4 row.
type ASStats struct {
	ASN    int
	Org    string
	Emails int
	Hard   int
	Soft   int
}

// HardPct returns the hard-bounce percentage.
func (s ASStats) HardPct() float64 { return pct(s.Hard, s.Emails) }

// SoftPct returns the soft-bounce percentage.
func (s ASStats) SoftPct() float64 { return pct(s.Soft, s.Emails) }

// asCollector aggregates Table 4 in one pass. geo may be nil, in which
// case Add is a no-op (the decode/merge side never calls Add).
type asCollector struct {
	geo *geo.DB
	agg map[int]*ASStats
}

func newASCollector(db *geo.DB) *asCollector {
	return &asCollector{geo: db, agg: map[int]*ASStats{}}
}

func (ac *asCollector) Add(rec *dataset.Record, c *ClassifiedRecord) {
	if ac.geo == nil {
		return
	}
	ip := lastNonEmpty(rec.ToIP)
	if ip == "" {
		return
	}
	_, asn, ok := ac.geo.Lookup(ip)
	if !ok {
		return
	}
	s := ac.agg[asn]
	if s == nil {
		s = &ASStats{ASN: asn, Org: ac.geo.ASOrg(asn)}
		ac.agg[asn] = s
	}
	s.Emails++
	switch c.Degree {
	case dataset.HardBounced:
		s.Hard++
	case dataset.SoftBounced:
		s.Soft++
	}
}

func (ac *asCollector) Merge(other PartialCollector) error {
	o, ok := other.(*asCollector)
	if !ok {
		return mergeTypeError("as", other)
	}
	for asn, s := range o.agg {
		t := ac.agg[asn]
		if t == nil {
			cp := *s
			ac.agg[asn] = &cp
			continue
		}
		t.Emails += s.Emails
		t.Hard += s.Hard
		t.Soft += s.Soft
	}
	return nil
}

func (ac *asCollector) MarshalPartial() []byte {
	var e enc
	e.version(1)
	e.u64(uint64(len(ac.agg)))
	for _, asn := range sortedIntKeys(ac.agg) {
		s := ac.agg[asn]
		e.intv(asn)
		e.str(s.Org)
		e.intv(s.Emails)
		e.intv(s.Hard)
		e.intv(s.Soft)
	}
	return e.buf
}

func (ac *asCollector) UnmarshalPartial(b []byte) error {
	d := dec{b: b}
	d.checkVersion("as", 1)
	n := d.count()
	ac.agg = make(map[int]*ASStats, n)
	for i := 0; i < n; i++ {
		asn := d.intv()
		ac.agg[asn] = &ASStats{
			ASN: asn, Org: d.str(), Emails: d.intv(), Hard: d.intv(), Soft: d.intv(),
		}
	}
	return d.err
}

func (ac *asCollector) result(n int) []ASStats {
	out := make([]ASStats, 0, len(ac.agg))
	for _, s := range ac.agg {
		out = append(out, *s)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Emails != out[j].Emails {
			return out[i].Emails > out[j].Emails
		}
		return out[i].ASN < out[j].ASN
	})
	if n < len(out) {
		out = out[:n]
	}
	return out
}

// CountryStats is one Table-5 row.
type CountryStats struct {
	Country  string
	Emails   int
	Hard     int
	Soft     int
	MajorCat ndr.Category // dominant bounce category
	MajorTyp ndr.Type     // dominant bounce type
	// MajorTypShare is the dominant type's share of the country's
	// bounced emails.
	MajorTypShare float64
}

// HardPct returns the hard-bounce percentage.
func (s CountryStats) HardPct() float64 { return pct(s.Hard, s.Emails) }

// SoftPct returns the soft-bounce percentage.
func (s CountryStats) SoftPct() float64 { return pct(s.Soft, s.Emails) }

// countryCollector aggregates Table 5 in one pass.
type countryCollector struct {
	geo  *geo.DB
	byCC map[string]*countryAgg
}

type countryAgg struct {
	CountryStats
	types map[ndr.Type]int
}

func newCountryCollector(db *geo.DB) *countryCollector {
	return &countryCollector{geo: db, byCC: map[string]*countryAgg{}}
}

func (cc *countryCollector) Add(rec *dataset.Record, c *ClassifiedRecord) {
	if cc.geo == nil {
		return
	}
	ip := lastNonEmpty(rec.ToIP)
	country := ""
	if ip != "" {
		country, _, _ = cc.geo.Lookup(ip)
	}
	if country == "" {
		return
	}
	s := cc.byCC[country]
	if s == nil {
		s = &countryAgg{CountryStats: CountryStats{Country: country}, types: map[ndr.Type]int{}}
		cc.byCC[country] = s
	}
	s.Emails++
	switch c.Degree {
	case dataset.HardBounced:
		s.Hard++
	case dataset.SoftBounced:
		s.Soft++
	}
	for _, t := range c.Types {
		s.types[t]++
	}
}

func (cc *countryCollector) Merge(other PartialCollector) error {
	o, ok := other.(*countryCollector)
	if !ok {
		return mergeTypeError("country", other)
	}
	for country, s := range o.byCC {
		t := cc.byCC[country]
		if t == nil {
			t = &countryAgg{CountryStats: CountryStats{Country: country}, types: map[ndr.Type]int{}}
			cc.byCC[country] = t
		}
		t.Emails += s.Emails
		t.Hard += s.Hard
		t.Soft += s.Soft
		for typ, n := range s.types {
			t.types[typ] += n
		}
	}
	return nil
}

func (cc *countryCollector) MarshalPartial() []byte {
	var e enc
	e.version(1)
	e.u64(uint64(len(cc.byCC)))
	for _, country := range sortedKeys(cc.byCC) {
		s := cc.byCC[country]
		e.str(country)
		e.intv(s.Emails)
		e.intv(s.Hard)
		e.intv(s.Soft)
		types := make(map[int]int, len(s.types))
		for t, n := range s.types {
			types[int(t)] = n
		}
		e.u64(uint64(len(types)))
		for _, t := range sortedIntKeys(types) {
			e.intv(t)
			e.intv(types[t])
		}
	}
	return e.buf
}

func (cc *countryCollector) UnmarshalPartial(b []byte) error {
	d := dec{b: b}
	d.checkVersion("country", 1)
	n := d.count()
	cc.byCC = make(map[string]*countryAgg, n)
	for i := 0; i < n; i++ {
		country := d.str()
		s := &countryAgg{CountryStats: CountryStats{Country: country}}
		s.Emails = d.intv()
		s.Hard = d.intv()
		s.Soft = d.intv()
		tn := d.count()
		s.types = make(map[ndr.Type]int, tn)
		for j := 0; j < tn; j++ {
			t := ndr.Type(d.intv())
			s.types[t] = d.intv()
		}
		cc.byCC[country] = s
	}
	return d.err
}

func (cc *countryCollector) result(minEmails int) []CountryStats {
	var out []CountryStats
	for _, s := range cc.byCC {
		if s.Emails < minEmails {
			continue
		}
		best, bestN := ndr.TNone, 0
		for _, t := range ndr.AllTypes {
			if s.types[t] > bestN {
				best, bestN = t, s.types[t]
			}
		}
		row := s.CountryStats
		row.MajorTyp = best
		row.MajorCat = best.Category()
		if b := s.Hard + s.Soft; b > 0 {
			row.MajorTypShare = float64(bestN) / float64(b)
		}
		out = append(out, row)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Country < out[j].Country })
	return out
}

// TopByHard / TopBySoft sort country stats for the two halves of
// Table 5.
func TopByHard(stats []CountryStats, n int) []CountryStats {
	out := append([]CountryStats(nil), stats...)
	sort.Slice(out, func(i, j int) bool { return out[i].HardPct() > out[j].HardPct() })
	if n < len(out) {
		out = out[:n]
	}
	return out
}

// TopBySoft sorts countries by soft-bounce percentage.
func TopBySoft(stats []CountryStats, n int) []CountryStats {
	out := append([]CountryStats(nil), stats...)
	sort.Slice(out, func(i, j int) bool { return out[i].SoftPct() > out[j].SoftPct() })
	if n < len(out) {
		out = out[:n]
	}
	return out
}

func lastNonEmpty(xs []string) string {
	for i := len(xs) - 1; i >= 0; i-- {
		if xs[i] != "" {
			return xs[i]
		}
	}
	return ""
}

func pct(num, den int) float64 {
	if den == 0 {
		return 0
	}
	return 100 * float64(num) / float64(den)
}
