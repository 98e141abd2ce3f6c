package dataset

import (
	"bytes"
	"encoding/json"
	"path/filepath"
	"strings"
	"testing"
	"testing/quick"
	"time"
)

func sampleRecord() Record {
	return Record{
		From:      "alice@a.com",
		To:        "bob@b.com",
		StartTime: time.Date(2022, 6, 14, 16, 30, 35, 0, time.UTC),
		EndTime:   time.Date(2022, 6, 14, 16, 45, 19, 0, time.UTC),
		FromIP:    []string{"5.0.0.1", "5.0.1.1"},
		ToIP:      []string{"20.0.0.1", "20.0.0.1"},
		DeliveryResult: []string{
			"550 Mail rejected",
			"250 OK",
		},
		DeliveryLatency: []int64{54854, 28320},
		EmailFlag:       "Spam",
	}
}

func TestJSONRoundTrip(t *testing.T) {
	r := sampleRecord()
	b, err := json.Marshal(r)
	if err != nil {
		t.Fatal(err)
	}
	// The wire format must match Figure 3's field names.
	for _, field := range []string{`"from"`, `"to"`, `"start_time"`, `"end_time"`,
		`"from_ip"`, `"to_ip"`, `"delivery_result"`, `"delivery_latency"`, `"email_flag"`} {
		if !bytes.Contains(b, []byte(field)) {
			t.Errorf("marshaled record missing %s: %s", field, b)
		}
	}
	if !bytes.Contains(b, []byte(`"2022-06-14 16:30:35"`)) {
		t.Errorf("start_time format wrong: %s", b)
	}
	var got Record
	if err := json.Unmarshal(b, &got); err != nil {
		t.Fatal(err)
	}
	if got.From != r.From || !got.StartTime.Equal(r.StartTime) ||
		len(got.DeliveryResult) != 2 || got.DeliveryLatency[0] != 54854 {
		t.Errorf("round trip mismatch: %+v", got)
	}
}

func TestUnmarshalBadTime(t *testing.T) {
	var r Record
	err := json.Unmarshal([]byte(`{"start_time":"bogus","end_time":"2022-06-14 00:00:00"}`), &r)
	if err == nil {
		t.Error("bad start_time should fail")
	}
}

func TestBounceDegree(t *testing.T) {
	cases := []struct {
		results []string
		want    Degree
	}{
		{[]string{"250 OK"}, NonBounced},
		{[]string{"450 4.7.1 Greylisted", "250 OK"}, SoftBounced},
		{[]string{"550 no user", "550 no user", "550 no user"}, HardBounced},
		{[]string{"450 retry", "421 timeout"}, HardBounced},
		{nil, HardBounced},
	}
	for _, c := range cases {
		r := Record{DeliveryResult: c.results}
		if got := r.BounceDegree(); got != c.want {
			t.Errorf("BounceDegree(%v) = %v want %v", c.results, got, c.want)
		}
	}
	if NonBounced.String() != "non-bounced" || HardBounced.String() != "hard-bounced" {
		t.Error("Degree.String mismatch")
	}
}

func TestNDRsExcludeSuccess(t *testing.T) {
	r := Record{DeliveryResult: []string{"450 retry", "250 OK"}}
	ndrs := r.NDRs()
	if len(ndrs) != 1 || !strings.HasPrefix(ndrs[0], "450") {
		t.Errorf("NDRs = %v", ndrs)
	}
}

func TestDomainHelpers(t *testing.T) {
	r := sampleRecord()
	if r.ToDomain() != "b.com" || r.FromDomain() != "a.com" {
		t.Errorf("domains: %q %q", r.ToDomain(), r.FromDomain())
	}
	bad := Record{To: "no-at-sign"}
	if bad.ToDomain() != "" {
		t.Errorf("malformed To should yield empty domain")
	}
	// domainOf's one backward scan against its definition: the
	// lower-cased part after the last '@'.
	for _, addr := range []string{
		"", "@", "a@", "@b.com", "a@b.com", "A@b.com", "a@B.com", "a@b.COM", "a@b@c.com", "a@B@c.com",
		"a@b@C.com", "NO-AT-SIGN", "no-at-SIGN", "a@b\xc3\x89.com", "\xc3\x89@b.com", "a@K.com", "a@\xff",
	} {
		want := ""
		if i := strings.LastIndexByte(addr, '@'); i >= 0 {
			want = strings.ToLower(addr[i+1:])
		}
		if got := domainOf(addr); got != want {
			t.Errorf("domainOf(%q) = %q, want %q", addr, got, want)
		}
	}
}

func TestAttemptsAndFinal(t *testing.T) {
	r := sampleRecord()
	if r.Attempts() != 2 || r.FinalResult() != "250 OK" || !r.Succeeded() {
		t.Errorf("attempt helpers: %d %q %v", r.Attempts(), r.FinalResult(), r.Succeeded())
	}
	empty := Record{}
	if empty.Attempts() != 0 || empty.FinalResult() != "" || empty.Succeeded() {
		t.Error("empty record helpers wrong")
	}
}

func TestFileRoundTrip(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "ds.jsonl")
	records := []Record{sampleRecord(), sampleRecord()}
	records[1].To = "carol@c.com"
	records[1].DeliveryResult = []string{"250 OK"}
	if err := WriteFile(path, records); err != nil {
		t.Fatal(err)
	}
	got, err := ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || got[1].To != "carol@c.com" {
		t.Errorf("file round trip: %+v", got)
	}
}

func TestReadAllSkipsBlankLines(t *testing.T) {
	r := sampleRecord()
	b, _ := json.Marshal(r)
	input := string(b) + "\n\n" + string(b) + "\n"
	got, err := ReadAll(strings.NewReader(input))
	if err != nil || len(got) != 2 {
		t.Errorf("ReadAll: %v, %d records", err, len(got))
	}
	if _, err := ReadAll(strings.NewReader("not json\n")); err == nil {
		t.Error("garbage line should error")
	}
}

func TestInEmailRank(t *testing.T) {
	mk := func(to string) Record { r := sampleRecord(); r.To = to; return r }
	records := []Record{
		mk("a@gmail.com"), mk("b@gmail.com"), mk("c@gmail.com"),
		mk("a@yahoo.com"), mk("b@yahoo.com"),
		mk("a@tiny.org"),
	}
	rank := InEmailRank(records)
	if len(rank) != 3 {
		t.Fatalf("rank entries: %d", len(rank))
	}
	if rank[0].Domain != "gmail.com" || rank[0].Emails != 3 {
		t.Errorf("rank[0] = %+v", rank[0])
	}
	if rank[2].Domain != "tiny.org" {
		t.Errorf("rank[2] = %+v", rank[2])
	}
}

func TestJSONRoundTripProperty(t *testing.T) {
	base := time.Date(2022, 6, 14, 0, 0, 0, 0, time.UTC)
	f := func(fromL, toL string, attempts uint8, latSeed int64, spam bool) bool {
		n := int(attempts%5) + 1
		r := Record{
			From:      sanitizeLocal(fromL) + "@a.com",
			To:        sanitizeLocal(toL) + "@b.com",
			StartTime: base.Add(time.Duration(latSeed%1000) * time.Hour),
			EmailFlag: "Normal",
		}
		if spam {
			r.EmailFlag = "Spam"
		}
		r.EndTime = r.StartTime.Add(time.Minute)
		for i := 0; i < n; i++ {
			r.FromIP = append(r.FromIP, "5.0.0.1")
			r.ToIP = append(r.ToIP, "20.0.0.1")
			r.DeliveryResult = append(r.DeliveryResult, "450 4.7.1 retry")
			r.DeliveryLatency = append(r.DeliveryLatency, (latSeed%100000+int64(i))&0x7fffffff)
		}
		b, err := json.Marshal(r)
		if err != nil {
			return false
		}
		var got Record
		if err := json.Unmarshal(b, &got); err != nil {
			return false
		}
		return got.From == r.From && got.To == r.To &&
			got.StartTime.Equal(r.StartTime) && got.EndTime.Equal(r.EndTime) &&
			len(got.DeliveryResult) == n && got.DeliveryLatency[0] == r.DeliveryLatency[0] &&
			got.EmailFlag == r.EmailFlag
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func sanitizeLocal(s string) string {
	out := make([]rune, 0, 8)
	for _, r := range s {
		if r >= 'a' && r <= 'z' || r >= '0' && r <= '9' {
			out = append(out, r)
		}
		if len(out) >= 8 {
			break
		}
	}
	if len(out) == 0 {
		return "u"
	}
	return string(out)
}
