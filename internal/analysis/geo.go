package analysis

import (
	"repro/internal/dataset"
	"repro/internal/geo"
)

// MTACountry is one Figure-4 data point: distinct receiver-MTA IPs
// observed per country.
type MTACountry struct {
	Country string
	MTAs    int
	Share   float64
}

// mtaCollector accumulates Figure 4's distinct receiver-MTA IPs with
// their geolocated country. The same IP always geolocates to the same
// country, so first-wins insertion and set-union merge agree.
type mtaCollector struct {
	geo  *geo.DB
	seen map[string]string // ip -> country
}

func newMTACollector(db *geo.DB) *mtaCollector {
	return &mtaCollector{geo: db, seen: map[string]string{}}
}

func (mc *mtaCollector) Add(rec *dataset.Record, _ *ClassifiedRecord) {
	if mc.geo == nil {
		return
	}
	for _, ip := range rec.ToIP {
		if ip == "" {
			continue
		}
		if _, ok := mc.seen[ip]; ok {
			continue
		}
		cc, _, ok := mc.geo.Lookup(ip)
		if !ok {
			cc = "??"
		}
		mc.seen[ip] = cc
	}
}

func (mc *mtaCollector) Merge(other PartialCollector) error {
	o, ok := other.(*mtaCollector)
	if !ok {
		return mergeTypeError("mta", other)
	}
	for ip, cc := range o.seen {
		if _, dup := mc.seen[ip]; !dup {
			mc.seen[ip] = cc
		}
	}
	return nil
}

func (mc *mtaCollector) MarshalPartial() []byte {
	var e enc
	e.version(1)
	e.u64(uint64(len(mc.seen)))
	for _, ip := range sortedKeys(mc.seen) {
		e.str(ip)
		e.str(mc.seen[ip])
	}
	return e.buf
}

func (mc *mtaCollector) UnmarshalPartial(b []byte) error {
	d := dec{b: b}
	d.checkVersion("mta", 1)
	n := d.count()
	mc.seen = make(map[string]string, n)
	for i := 0; i < n; i++ {
		ip := d.str()
		mc.seen[ip] = d.str()
	}
	return d.err
}

func (mc *mtaCollector) result() []MTACountry {
	counts := map[string]int{}
	for _, cc := range mc.seen {
		counts[cc]++
	}
	total := len(mc.seen)
	out := make([]MTACountry, 0, len(counts))
	for cc, n := range counts {
		share := 0.0
		if total > 0 {
			share = float64(n) / float64(total)
		}
		out = append(out, MTACountry{Country: cc, MTAs: n, Share: share})
	}
	SortRanked(out,
		func(m MTACountry) float64 { return float64(m.MTAs) },
		func(m MTACountry) string { return m.Country })
	return out
}
