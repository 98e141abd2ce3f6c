package geo

import (
	"fmt"
	"hash/fnv"
	"net/netip"
	"sync"

	"repro/internal/simrng"
)

// AS is an autonomous system hosting receiver MTAs. The registry is
// seeded with the paper's Table 4 (hosted-security vendors like
// Proofpoint and Cisco Ironport carry a large share of corporate MX).
type AS struct {
	Number int
	Org    string
	// HostWeight is the relative share of receiver-domain MX hosting the
	// AS carries among hosted/security providers.
	HostWeight float64
}

// HostedASes are the mail-hosting and security ASes from Table 4 that
// serve domains in many countries. Freemail ASes (Microsoft, Google,
// Apple, Amazon) are bound to their well-known domains by the world
// model; the security vendors are sampled for corporate domains that
// outsource MX.
var HostedASes = []AS{
	{8075, "Microsoft Corporation", 0},
	{15169, "Google LLC", 0},
	{16509, "Amazon.com, Inc.", 0},
	{52129, "Proofpoint, Inc.", 3.0},
	{22843, "Proofpoint, Inc.", 2.3},
	{26211, "Proofpoint, Inc.", 1.9},
	{3462, "Data Communication Business Group", 1.8},
	{714, "Apple Inc.", 0},
	{16417, "Cisco Systems Ironport Division", 1.1},
	{30238, "Cisco Systems Ironport Division", 1.05},
}

// DB is the geolocation and AS database for one simulated world. It
// allocates synthetic public IPv4 addresses deterministically and maps
// them back to (country, AS), standing in for the ip-api service.
type DB struct {
	mu sync.Mutex

	countries []Country
	byCode    map[string]int
	sampler   *simrng.Weighted

	blocks    map[string]*ipBlock // key: "CC/ASN"
	prefixOwn map[uint32]blockID  // /16 prefix -> owner
	nextBlock int

	asOrg map[int]string
}

type blockID struct {
	cc  string
	asn int
}

type ipBlock struct {
	prefixes []uint32 // allocated /16 prefixes (a<<8|b)
	nextHost int      // next host index within the newest prefix
}

// NewDB builds the database with the curated country table.
func NewDB() *DB {
	db := &DB{
		byCode:    make(map[string]int, len(countries)),
		blocks:    make(map[string]*ipBlock),
		prefixOwn: make(map[uint32]blockID),
		asOrg:     make(map[int]string, len(HostedASes)),
	}
	db.countries = append(db.countries, countries...)
	weights := make([]float64, len(db.countries))
	for i, c := range db.countries {
		db.byCode[c.Code] = i
		weights[i] = c.MTAWeight
	}
	db.sampler = simrng.NewWeighted(weights)
	for _, a := range HostedASes {
		db.asOrg[a.Number] = a.Org
	}
	return db
}

// Country returns the country with the given ISO code.
func (db *DB) Country(code string) (Country, bool) {
	i, ok := db.byCode[code]
	if !ok {
		return Country{}, false
	}
	return db.countries[i], true
}

// SampleCountry draws a receiver country according to the Figure-4 MTA
// distribution.
func (db *DB) SampleCountry(r *simrng.RNG) Country {
	return db.countries[db.sampler.Sample(r)]
}

// GenericASN returns the synthetic per-country access AS used for
// domains that host their own MX. Numbers are stable and outside the
// well-known registry above.
func GenericASN(countryCode string) int {
	h := fnv.New32a()
	h.Write([]byte("as:" + countryCode))
	return 60000 + int(h.Sum32()%4000)
}

// ASOrg returns the organization name for an AS number, synthesizing a
// name for generic per-country ASes.
func (db *DB) ASOrg(asn int) string {
	if org, ok := db.asOrg[asn]; ok {
		return org
	}
	return fmt.Sprintf("AS%d Regional ISP", asn)
}

// RegisterASOrg records an organization name for an AS number (used for
// generic country ASes so reports can show a stable label).
func (db *DB) RegisterASOrg(asn int, org string) {
	db.mu.Lock()
	defer db.mu.Unlock()
	if _, ok := db.asOrg[asn]; !ok {
		db.asOrg[asn] = org
	}
}

// firstOctets are the safe public-looking first octets used by the
// synthetic allocator (avoiding 0, 10, 127, 169, 172, 192, 198, 203,
// 224+ and other special ranges).
var firstOctets = func() []int {
	skip := map[int]bool{10: true, 100: true, 127: true, 169: true,
		172: true, 192: true, 198: true, 203: true}
	var v []int
	for o := 5; o <= 223; o++ {
		if !skip[o] {
			v = append(v, o)
		}
	}
	return v
}()

const hostsPerPrefix = 62500 // 250*250 usable hosts per /16

// AllocIP returns the next synthetic IPv4 address for an MTA located in
// the given country and AS. Addresses from the same (country, AS) pair
// share /16 prefixes so that reverse lookup is exact.
func (db *DB) AllocIP(countryCode string, asn int) string {
	db.mu.Lock()
	defer db.mu.Unlock()
	key := fmt.Sprintf("%s/%d", countryCode, asn)
	b := db.blocks[key]
	if b == nil {
		b = &ipBlock{}
		db.blocks[key] = b
	}
	if len(b.prefixes) == 0 || b.nextHost >= hostsPerPrefix {
		p := db.allocPrefixLocked()
		db.prefixOwn[p] = blockID{cc: countryCode, asn: asn}
		b.prefixes = append(b.prefixes, p)
		b.nextHost = 0
	}
	p := b.prefixes[len(b.prefixes)-1]
	h := b.nextHost
	b.nextHost++
	return fmt.Sprintf("%d.%d.%d.%d", p>>8, p&0xff, h/250, h%250+1)
}

func (db *DB) allocPrefixLocked() uint32 {
	id := db.nextBlock
	db.nextBlock++
	first := firstOctets[(id/250)%len(firstOctets)]
	second := id % 250
	return uint32(first)<<8 | uint32(second)
}

// Lookup maps a synthetic IP back to its country code and AS number.
// Unknown addresses, and strings that are not a dotted-quad IPv4
// address, return ok=false (the analysis treats them like ip-api lookup
// failures).
func (db *DB) Lookup(ip string) (countryCode string, asn int, ok bool) {
	addr, err := netip.ParseAddr(ip)
	if err != nil || !addr.Is4() {
		return "", 0, false
	}
	q := addr.As4()
	db.mu.Lock()
	defer db.mu.Unlock()
	own, ok := db.prefixOwn[uint32(q[0])<<8|uint32(q[1])]
	if !ok {
		return "", 0, false
	}
	return own.cc, own.asn, true
}

// pairTimeoutMult captures the proxy-pair anomalies Figure 8 highlights:
// deliveries from Hong Kong behave very differently for specific
// destinations (HK→Namibia 35.11% vs HK→Belize 0.34%).
var pairTimeoutMult = map[[2]string]float64{
	{"HK", "NA"}: 1.50, {"HK", "RW"}: 3.10, {"HK", "BZ"}: 0.015,
	{"HK", "NP"}: 0.035, {"HK", "SY"}: 0.13, {"HK", "KE"}: 0.70,
	{"HK", "KG"}: 0.90, {"HK", "LI"}: 1.0, {"HK", "GE"}: 0.40,
	{"HK", "MN"}: 0.08, {"HK", "ZA"}: 0.02, {"HK", "PR"}: 1.45,
	{"HK", "MA"}: 0.42, {"HK", "SV"}: 0.76, {"HK", "DO"}: 0.96,
	{"GB", "NA"}: 1.15, {"GB", "DO"}: 0.34, {"DE", "NA"}: 1.0,
	{"DE", "BZ"}: 0.02, {"DE", "MN"}: 0.30,
}

// pairLatencyMult captures the Appendix-C observation that the outgoing
// proxy's location shifts latency for a few countries dramatically
// (Hong Kong→Cambodia 8.93 s median vs ~79 s from elsewhere).
var pairLatencyMult = map[[2]string]float64{
	{"HK", "KH"}: 0.107,
	{"HK", "BN"}: 0.60,
	{"SG", "KH"}: 0.25,
	{"HK", "AO"}: 1.8,
	{"DE", "AO"}: 0.55,
	{"US", "BO"}: 0.50,
	{"HK", "BO"}: 1.9,
}

// TimeoutProb returns the probability that an SMTP session from a proxy
// in proxyCC to a receiver in rcvrCC times out (T14). The base rate is a
// property of the receiver country's infrastructure; the proxy location
// modulates it (Figure 8's rows differ per sender country).
func (db *DB) TimeoutProb(proxyCC, rcvrCC string) float64 {
	c, ok := db.Country(rcvrCC)
	if !ok {
		return 0.02
	}
	m := 1.0
	if v, ok := pairTimeoutMult[[2]string{proxyCC, rcvrCC}]; ok {
		m = v
	} else {
		m = hashJitter("to:"+proxyCC+rcvrCC, 0.80, 1.20)
	}
	p := c.TimeoutBase * m
	if p > 0.9 {
		p = 0.9
	}
	return p
}

// MedianLatencyMS returns the median session latency in milliseconds for
// deliveries from a proxy in proxyCC to a receiver in rcvrCC.
func (db *DB) MedianLatencyMS(proxyCC, rcvrCC string) float64 {
	c, ok := db.Country(rcvrCC)
	if !ok {
		return 15000
	}
	m := 1.0
	if v, ok := pairLatencyMult[[2]string{proxyCC, rcvrCC}]; ok {
		m = v
	} else {
		m = hashJitter("lat:"+proxyCC+rcvrCC, 0.85, 1.15)
	}
	return c.MedianLatencySec * 1000 * m
}

// hashJitter maps a key deterministically into [lo, hi].
func hashJitter(key string, lo, hi float64) float64 {
	h := fnv.New64a()
	h.Write([]byte(key))
	u := float64(h.Sum64()%1e6) / 1e6
	return lo + u*(hi-lo)
}
