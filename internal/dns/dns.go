// Package dns implements the simulated DNS substrate: authoritative
// zones whose records can change over virtual time (misconfiguration
// episodes), and a caching resolver with transient-failure injection.
// Every MX/A/TXT lookup the delivery engine performs goes through this
// package, so T1/T2 bounces (sender/receiver DNS failures) and T3
// bounces (bad SPF/DKIM/DMARC records) arise from genuine lookups rather
// than labels.
package dns

import (
	"sort"
	"strings"
	"sync"
	"time"
)

// RType is a DNS record type.
type RType uint8

// Record types the simulation uses.
const (
	TypeA RType = iota + 1
	TypeNS
	TypeMX
	TypeTXT
	TypeCNAME
)

// String returns the conventional mnemonic.
func (t RType) String() string {
	switch t {
	case TypeA:
		return "A"
	case TypeNS:
		return "NS"
	case TypeMX:
		return "MX"
	case TypeTXT:
		return "TXT"
	case TypeCNAME:
		return "CNAME"
	}
	return "TYPE?"
}

// RCode is a DNS response code. TIMEOUT is a synthetic code standing in
// for an unanswered query.
type RCode uint8

// Response codes.
const (
	NoError RCode = iota
	NXDomain
	ServFail
	Timeout
)

// String returns the conventional mnemonic.
func (c RCode) String() string {
	switch c {
	case NoError:
		return "NOERROR"
	case NXDomain:
		return "NXDOMAIN"
	case ServFail:
		return "SERVFAIL"
	case Timeout:
		return "TIMEOUT"
	}
	return "RCODE?"
}

// MX is a mail-exchanger record value.
type MX struct {
	Host string
	Pref int
}

// Record is one DNS resource record, optionally valid only inside a
// window of virtual time. A zero From/Until means unbounded. Windowed
// records are how the world model schedules misconfiguration episodes:
// e.g. a broken SPF TXT record valid for 12 days replaces the good one.
type Record struct {
	Name string
	Type RType
	TTL  time.Duration

	// Value fields; which one is populated depends on Type.
	A      string // TypeA
	MX     MX     // TypeMX
	TXT    string // TypeTXT
	Target string // TypeNS, TypeCNAME

	From  time.Time // inclusive; zero = since forever
	Until time.Time // exclusive; zero = until forever
}

// activeAt reports whether the record is valid at time t.
func (r *Record) activeAt(t time.Time) bool {
	if !r.From.IsZero() && t.Before(r.From) {
		return false
	}
	if !r.Until.IsZero() && !t.Before(r.Until) {
		return false
	}
	return true
}

// Outage marks a window during which queries for a name (all types, or a
// specific set) fail with the given code. MX-resolution misconfigurations
// (T2, "Error MX record for receiver domain") are modeled as outages.
type Outage struct {
	Name  string
	Types []RType // empty = all types
	Code  RCode
	From  time.Time
	Until time.Time
}

func (o *Outage) covers(name string, typ RType, t time.Time) bool {
	if o.Name != name {
		return false
	}
	if !o.From.IsZero() && t.Before(o.From) {
		return false
	}
	if !o.Until.IsZero() && !t.Before(o.Until) {
		return false
	}
	if len(o.Types) == 0 {
		return true
	}
	for _, ot := range o.Types {
		if ot == typ {
			return true
		}
	}
	return false
}

// Authority is the authoritative record store for the whole simulated
// Internet. It is safe for concurrent use.
type Authority struct {
	mu      sync.RWMutex
	records map[string][]*Record // key: lowercased fqdn
	outages map[string][]*Outage
	domains map[string]bool // apex domains that exist at all
}

// NewAuthority returns an empty authoritative store.
func NewAuthority() *Authority {
	return &Authority{
		records: make(map[string][]*Record),
		outages: make(map[string][]*Outage),
		domains: make(map[string]bool),
	}
}

// Add installs a record.
func (a *Authority) Add(r Record) {
	name := strings.ToLower(r.Name)
	r.Name = name
	if r.TTL == 0 {
		r.TTL = 5 * time.Minute
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	a.records[name] = append(a.records[name], &r)
	a.domains[apex(name)] = true
}

// AddOutage installs an outage window.
func (a *Authority) AddOutage(o Outage) {
	o.Name = strings.ToLower(o.Name)
	a.mu.Lock()
	defer a.mu.Unlock()
	a.outages[o.Name] = append(a.outages[o.Name], &o)
}

// apex reduces a fqdn to its registrable apex using a simple two-label
// heuristic with a small multi-label public-suffix set, which is enough
// for the synthetic namespace.
func apex(name string) string {
	labels := strings.Split(name, ".")
	if len(labels) <= 2 {
		return name
	}
	tld2 := labels[len(labels)-2] + "." + labels[len(labels)-1]
	switch tld2 {
	case "com.cn", "edu.cn", "org.cn", "net.cn", "co.uk", "ac.uk", "com.br", "co.jp":
		if len(labels) >= 3 {
			return labels[len(labels)-3] + "." + tld2
		}
	}
	return tld2
}

// Answer is the result of an authoritative query. Its records are the
// authority's own, shared by every answer that names them: read them,
// never write through them.
type Answer struct {
	Code    RCode
	Records []*Record
	TTL     time.Duration
}

// Query resolves name/typ at virtual time t against the authority.
// Semantics follow DNS: a name with no records at all under an existing
// apex yields NOERROR with no answers (NODATA); a name whose apex never
// existed yields NXDOMAIN; outages yield their configured code.
func (a *Authority) Query(name string, typ RType, t time.Time) Answer {
	name = strings.ToLower(name)
	a.mu.RLock()
	defer a.mu.RUnlock()
	for _, o := range a.outages[name] {
		if o.covers(name, typ, t) {
			return Answer{Code: o.Code}
		}
	}
	var out []*Record
	minTTL := time.Duration(0)
	for _, r := range a.records[name] {
		if r.Type == typ && r.activeAt(t) {
			out = append(out, r)
			if minTTL == 0 || r.TTL < minTTL {
				minTTL = r.TTL
			}
		}
	}
	if len(out) > 0 {
		if typ == TypeMX {
			sort.Slice(out, func(i, j int) bool { return out[i].MX.Pref < out[j].MX.Pref })
		}
		return Answer{Code: NoError, Records: out, TTL: minTTL}
	}
	// Any record of any type at this exact name, now or ever?
	if !a.domains[apex(name)] {
		return Answer{Code: NXDomain, TTL: 5 * time.Minute}
	}
	return Answer{Code: NoError, TTL: 5 * time.Minute} // NODATA
}
