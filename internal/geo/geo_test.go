package geo

import (
	"fmt"
	"math"
	"net/netip"
	"sort"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/simrng"
)

func TestProxyRegionsSumTo34(t *testing.T) {
	sum := 0
	for _, r := range ProxyRegions {
		sum += r.Proxies
	}
	if sum != 34 {
		t.Errorf("proxy MTAs sum to %d, paper says 34", sum)
	}
	if len(ProxyRegions) != 6 {
		t.Errorf("%d proxy regions, paper says 6", len(ProxyRegions))
	}
}

func TestCountryTableIntegrity(t *testing.T) {
	db := NewDB()
	seen := map[string]bool{}
	for _, c := range db.countries {
		if seen[c.Code] {
			t.Errorf("duplicate country code %s", c.Code)
		}
		seen[c.Code] = true
		if c.MTAWeight < 0 || c.MedianLatencySec <= 0 || c.TimeoutBase < 0 || c.TimeoutBase > 1 {
			t.Errorf("country %s has out-of-range parameters: %+v", c.Code, c)
		}
		if c.Continent == "" || c.Name == "" {
			t.Errorf("country %s missing name/continent", c.Code)
		}
	}
	// Every country named in the paper's tables/figures must exist.
	for _, code := range []string{
		"US", "DE", "CA", "GB", "HK", "SG", "IN", // Fig 4 + proxies
		"NA", "RW", "SV", "BZ", "DO", "NP", "SK", "SY", "KE", "PS",
		"EG", "LI", "KG", "NG", "MA", "CI", "GE", "PR", "MN", "ZA", // Fig 8
		"VE", "TJ", "QA", "RO", "NZ", "LV", "IR", "MM", // Table 5 hard
		"ME", "ZW", "MG", "BN", // Table 5 soft
		"KH", "TZ", "CL", "GL", "AO", // Fig 10 slowest
	} {
		if !seen[code] {
			t.Errorf("paper country %s missing from table", code)
		}
	}
}

func TestFigure4TopShares(t *testing.T) {
	db := NewDB()
	us, _ := db.Country("US")
	de, _ := db.Country("DE")
	ca, _ := db.Country("CA")
	if us.MTAWeight != 28.53 || de.MTAWeight != 10.59 || ca.MTAWeight != 5.42 {
		t.Errorf("Figure 4 anchor weights drifted: US=%v DE=%v CA=%v",
			us.MTAWeight, de.MTAWeight, ca.MTAWeight)
	}
	top := append([]Country(nil), db.countries...)
	sort.Slice(top, func(a, b int) bool { return top[a].MTAWeight > top[b].MTAWeight })
	if top[0].Code != "US" || top[1].Code != "DE" || top[2].Code != "CA" {
		t.Errorf("top-3 countries %v %v %v, want US DE CA", top[0].Code, top[1].Code, top[2].Code)
	}
}

func TestSampleCountryDistribution(t *testing.T) {
	db := NewDB()
	r := simrng.New(1)
	const n = 200000
	counts := map[string]int{}
	for i := 0; i < n; i++ {
		counts[db.SampleCountry(r).Code]++
	}
	var total float64
	for _, c := range db.countries {
		total += c.MTAWeight
	}
	usWant := 28.53 / total
	usGot := float64(counts["US"]) / n
	if math.Abs(usGot-usWant) > 0.01 {
		t.Errorf("US sample share %g want %g", usGot, usWant)
	}
}

func TestAllocAndLookupRoundTrip(t *testing.T) {
	db := NewDB()
	cases := []struct {
		cc  string
		asn int
	}{{"US", 8075}, {"DE", GenericASN("DE")}, {"NA", GenericASN("NA")}, {"US", 8075}}
	for _, c := range cases {
		ip := db.AllocIP(c.cc, c.asn)
		gotCC, gotASN, ok := db.Lookup(ip)
		if !ok || gotCC != c.cc || gotASN != c.asn {
			t.Errorf("Lookup(%s) = (%s,%d,%v), want (%s,%d,true)", ip, gotCC, gotASN, ok, c.cc, c.asn)
		}
	}
}

func TestAllocIPUnique(t *testing.T) {
	db := NewDB()
	seen := map[string]bool{}
	for i := 0; i < 100000; i++ {
		ip := db.AllocIP("US", 8075)
		if seen[ip] {
			t.Fatalf("duplicate IP %s at allocation %d", ip, i)
		}
		seen[ip] = true
	}
}

func TestAllocIPAvoidsReservedFirstOctets(t *testing.T) {
	db := NewDB()
	reserved := map[string]bool{"0": true, "10": true, "127": true,
		"169": true, "172": true, "192": true, "198": true,
		"203": true, "224": true, "255": true}
	for i := 0; i < 1000; i++ {
		ip := db.AllocIP("FR", GenericASN("FR")+i) // force many blocks
		first := ip[:strings.IndexByte(ip, '.')]
		if reserved[first] {
			t.Fatalf("allocated IP %s in reserved first octet", ip)
		}
	}
}

// TestLookupRejectsMalformed: a string that is not a dotted-quad IPv4
// address resolves to nothing, even where its first two numbers would
// name an allocated prefix — an octet past 255 carried into the next,
// trailing bytes, a fifth octet, a sign.
func TestLookupRejectsMalformed(t *testing.T) {
	db := NewDB()
	ip := db.AllocIP("DE", 3320)
	a, err := netip.ParseAddr(ip)
	if err != nil {
		t.Fatal(err)
	}
	q := a.As4()
	if q[0] == 0 {
		t.Fatalf("allocated %s: no lower first octet to carry from", ip)
	}
	for _, s := range []string{
		fmt.Sprintf("%d.%d.%d.%d", q[0]-1, 256+int(q[1]), q[2], q[3]),
		ip + "junk",
		ip + ".99",
		"+" + ip,
		" " + ip,
		fmt.Sprintf("%d.%d.%d.%d", q[0], q[1], q[2], 256+int(q[3])),
		fmt.Sprintf("%d.0%d.%d.%d", q[0], q[1], q[2], q[3]),
		"::ffff:" + ip,
	} {
		if cc, asn, ok := db.Lookup(s); ok {
			t.Errorf("Lookup(%q) = (%s,%d,true), want ok=false", s, cc, asn)
		}
	}
	if cc, asn, ok := db.Lookup(ip); !ok || cc != "DE" || asn != 3320 {
		t.Errorf("Lookup(%s) = (%s,%d,%v), want (DE,3320,true)", ip, cc, asn, ok)
	}
}

// FuzzLookup: Lookup resolves exactly the strings netip parses as an
// IPv4 address, and those as the address netip reads.
func FuzzLookup(f *testing.F) {
	db := NewDB()
	for _, cc := range []string{"DE", "US", "HK"} {
		ip := db.AllocIP(cc, GenericASN(cc))
		f.Add(ip)
		f.Add(ip + ".1")
		f.Add("+" + ip)
	}
	f.Add("4.256.0.1")
	f.Add("")
	f.Fuzz(func(t *testing.T, s string) {
		cc, asn, ok := db.Lookup(s)
		a, err := netip.ParseAddr(s)
		if err != nil || !a.Is4() {
			if ok {
				t.Fatalf("Lookup(%q) = (%s,%d,true) for what is not an IPv4 address", s, cc, asn)
			}
			return
		}
		wcc, wasn, wok := db.Lookup(a.String())
		if cc != wcc || asn != wasn || ok != wok {
			t.Fatalf("Lookup(%q) = (%s,%d,%v), Lookup(%s) = (%s,%d,%v)", s, cc, asn, ok, a, wcc, wasn, wok)
		}
	})
}

func TestLookupUnknown(t *testing.T) {
	db := NewDB()
	if _, _, ok := db.Lookup("9.9.9.9"); ok {
		t.Error("Lookup of never-allocated prefix should fail")
	}
	if _, _, ok := db.Lookup("not an ip"); ok {
		t.Error("Lookup of garbage should fail")
	}
}

func TestTimeoutProbAnchors(t *testing.T) {
	db := NewDB()
	// HK→NA is the paper's worst pair (35.11%); US→NA is 22.87%.
	hkNA := db.TimeoutProb("HK", "NA")
	usNA := db.TimeoutProb("US", "NA")
	if hkNA < 0.30 || hkNA > 0.40 {
		t.Errorf("HK→NA timeout prob %g, want ~0.35", hkNA)
	}
	if usNA < 0.18 || usNA > 0.29 {
		t.Errorf("US→NA timeout prob %g, want ~0.23", usNA)
	}
	// HK→BZ is nearly zero in Figure 8 (0.34%).
	if p := db.TimeoutProb("HK", "BZ"); p > 0.01 {
		t.Errorf("HK→BZ timeout prob %g, want <0.01", p)
	}
	// Good-infrastructure country stays low.
	if p := db.TimeoutProb("US", "DE"); p > 0.02 {
		t.Errorf("US→DE timeout prob %g, want ≈0.01", p)
	}
}

func TestTimeoutProbBounded(t *testing.T) {
	db := NewDB()
	f := func(pi, ci uint8) bool {
		proxy := ProxyRegions[int(pi)%len(ProxyRegions)].Code
		cc := db.countries[int(ci)%len(db.countries)].Code
		p := db.TimeoutProb(proxy, cc)
		return p >= 0 && p <= 0.9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestMedianLatencyAnchors(t *testing.T) {
	db := NewDB()
	// Singapore is the global minimum (5.96 s).
	sg := db.MedianLatencyMS("US", "SG")
	if sg < 4500 || sg > 7500 {
		t.Errorf("latency to SG %g ms, want ~5960", sg)
	}
	// Cambodia from HK is dramatically faster than from elsewhere.
	hkKH := db.MedianLatencyMS("HK", "KH")
	usKH := db.MedianLatencyMS("US", "KH")
	if hkKH >= usKH/4 {
		t.Errorf("HK→KH %g ms should be <<< US→KH %g ms", hkKH, usKH)
	}
	if usKH < 60000 {
		t.Errorf("US→KH %g ms, want ~80000", usKH)
	}
}

func TestASRegistry(t *testing.T) {
	db := NewDB()
	if org := db.ASOrg(8075); org != "Microsoft Corporation" {
		t.Errorf("ASOrg(8075)=%q", org)
	}
	if org := db.ASOrg(99999); !strings.Contains(org, "99999") {
		t.Errorf("generic ASOrg should embed the number, got %q", org)
	}
	db.RegisterASOrg(64999, "Test Net")
	if org := db.ASOrg(64999); org != "Test Net" {
		t.Errorf("RegisterASOrg not honored, got %q", org)
	}
	// Registering again must not overwrite.
	db.RegisterASOrg(64999, "Other")
	if org := db.ASOrg(64999); org != "Test Net" {
		t.Errorf("RegisterASOrg overwrote existing entry: %q", org)
	}
}

func TestGenericASNStable(t *testing.T) {
	if GenericASN("DE") != GenericASN("DE") {
		t.Error("GenericASN must be deterministic")
	}
	if GenericASN("DE") == GenericASN("FR") {
		t.Error("GenericASN collision between DE and FR")
	}
	if n := GenericASN("US"); n < 60000 || n >= 64000 {
		t.Errorf("GenericASN out of range: %d", n)
	}
}

func TestHashJitterRange(t *testing.T) {
	f := func(key string) bool {
		v := hashJitter(key, 0.8, 1.2)
		return v >= 0.8 && v <= 1.2
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
