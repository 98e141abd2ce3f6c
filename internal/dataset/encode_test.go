package dataset

import (
	"bytes"
	"encoding/json"
	"math"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/ndr"
)

// marshalReference is the definition AppendJSON is held to:
// encoding/json over the wire struct, as MarshalJSON was written before
// the encoder was.
func marshalReference(t testing.TB, r *Record) []byte {
	b, err := json.Marshal(jsonRecord{
		From:            r.From,
		To:              r.To,
		StartTime:       r.StartTime.UTC().Format(TimeLayout),
		EndTime:         r.EndTime.UTC().Format(TimeLayout),
		FromIP:          r.FromIP,
		ToIP:            r.ToIP,
		DeliveryResult:  r.DeliveryResult,
		DeliveryLatency: r.DeliveryLatency,
		EmailFlag:       r.EmailFlag,
	})
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// fuzzRecord builds a record from fuzzer scalars. shape picks, two bits
// a slice, nil / empty / one element / two elements, so null and [] are
// both reached for every array.
func fuzzRecord(from, to, flag, line, line2 string, shape uint8, lat, start, end int64) Record {
	strs := func(k uint8, a, b string) []string {
		switch shape >> k & 3 {
		case 0:
			return nil
		case 1:
			return []string{}
		case 2:
			return []string{a}
		}
		return []string{a, b}
	}
	var lats []int64
	switch shape >> 6 & 3 {
	case 1:
		lats = []int64{}
	case 2:
		lats = []int64{lat}
	case 3:
		lats = []int64{lat, -lat}
	}
	return Record{
		From: from, To: to, EmailFlag: flag,
		StartTime: time.Unix(start, 0).UTC(), EndTime: time.Unix(end, 0).UTC(),
		FromIP: strs(0, line2, from), ToIP: strs(2, to, line2), DeliveryResult: strs(4, line, line2),
		DeliveryLatency: lats,
	}
}

// FuzzAppendJSONMatchesMarshal pins the hand-written encoder to
// encoding/json byte for byte over arbitrary strings, nil and empty
// slices, any latency and any second of any year, and pins the decoder
// to it: what AppendJSON writes, Decode reads back as the same record,
// as far as JSON can carry it (invalid UTF-8 comes back as U+FFFD).
func FuzzAppendJSONMatchesMarshal(f *testing.F) {
	const (
		year0    = -62167219200 // 0000-01-01 00:00:00
		year9999 = 253402300799 // 9999-12-31 23:59:59
		y2022    = 1655224235
	)
	all := uint8(0xff)
	// The catalog's own renderings: every template, with an address in
	// angle brackets as receivers write it.
	p := ndr.Params{Addr: "<bob@b.example>", Local: "bob", Domain: "b.example", IP: "5.0.0.1",
		MX: "mx1.b.example", BL: "zen.spamhaus.org", Vendor: "p05sm12345", Sec: "300", Size: "10485760"}
	for i := range ndr.Catalog {
		f.Add("alice@a.example", "bob@b.example", "Normal", ndr.Catalog[i].Render(p), "250 2.0.0 OK", all, int64(120), int64(y2022), int64(y2022+60))
	}
	for _, s := range []string{
		`550 5.1.1 <bob@b.example>: Recipient address rejected: User unknown in "virtual" table`,
		`554 5.7.1 Service unavailable; Client host [5.0.0.1] blocked using a\b & c\\d`,
		"451 4.3.0 line\twith\ttabs\r\nand a break",
		"ctrl \x00\x01\x1f\x7f \b\f bytes",
		"sep \u2028 and \u2029 and \u2027 and \u202a",
		"bad utf8 \xff\xfe \xc3 \xe2\x80 tail\xe2",
		"452 böx füll 你好 \U0001F600",
		"<>&\"\\",
		"",
	} {
		f.Add(s, s, s, s, s, all, int64(0), int64(y2022), int64(y2022))
	}
	f.Add("a@x", "b@y", "Spam", "250 OK", "", uint8(0), int64(0), int64(year0), int64(year9999))
	f.Add("a@x", "b@y", "Spam", "250 OK", "", uint8(0x55), int64(math.MinInt64), int64(year0-1), int64(year9999+1))
	f.Add("a@x", "b@y", "Spam", "250 OK", "", uint8(0xaa), int64(math.MaxInt64), int64(y2022), int64(math.MaxInt32))
	f.Add("a@x", "b@y", "Spam", "250 OK", "", all, int64(-1), int64(-1), int64(1))
	// One line as long as the scanner admits, with an escape every so
	// often so the copy between escapes is exercised at size.
	f.Add("a@x", "b@y", "Normal", strings.Repeat("550 mailbox <full> & over quota; ", 1<<19), "", uint8(0x20), int64(1), int64(y2022), int64(y2022))

	f.Fuzz(func(t *testing.T, from, to, flag, line, line2 string, shape uint8, lat, start, end int64) {
		r := fuzzRecord(from, to, flag, line, line2, shape, lat, start, end)
		want := marshalReference(t, &r)
		got := r.AppendJSON(nil)
		if !bytes.Equal(got, want) {
			t.Fatalf("AppendJSON differs from encoding/json:\n got %q\nwant %q", clip(got), clip(want))
		}
		if viaMarshal, err := json.Marshal(r); err != nil || !bytes.Equal(viaMarshal, want) {
			t.Fatalf("json.Marshal(Record) = %q, %v; want %q", clip(viaMarshal), err, clip(want))
		}
		if appended := r.AppendJSON([]byte("prefix")); !bytes.Equal(appended[6:], want) || string(appended[:6]) != "prefix" {
			t.Fatal("AppendJSON does not append")
		}

		if y := r.StartTime.Year(); y < 0 || y > 9999 {
			return // five-digit and negative years are not TimeLayout's to read back
		}
		if y := r.EndTime.Year(); y < 0 || y > 9999 {
			return
		}
		var d Decoder
		var back Record
		if err := d.Decode(got, &back); err != nil {
			t.Fatalf("Decode(AppendJSON(r)): %v\n%q", err, clip(got))
		}
		// JSON carries no invalid UTF-8: each such byte is written as
		// \ufffd and read back as U+FFFD, which is also what a []rune
		// conversion makes of it.
		valid := func(s string) string { return string([]rune(s)) }
		want2 := fuzzRecord(valid(from), valid(to), valid(flag), valid(line), valid(line2), shape, lat, start, end)
		if !reflect.DeepEqual(back, want2) {
			t.Fatalf("round trip changed the record:\n got %+v\nwant %+v", back, want2)
		}
	})
}

// clip keeps a failure message readable when the input is the 16 MB
// seed.
func clip(b []byte) []byte {
	if len(b) > 2048 {
		return b[:2048]
	}
	return b
}

// TestAppendJSONAllocatesNothing is the encoder's budget: into a buffer
// that is large enough it allocates nothing, whatever the record needs
// escaped. FS.Append encodes every record of every batch this way.
func TestAppendJSONAllocatesNothing(t *testing.T) {
	recs := []Record{
		sampleRecord(),
		fuzzRecord("a@x", "b@y", "Normal", `550 5.1.1 <bob@b.example>: "unknown" & gone`, "bad \xff sep \u2028\ttab", 0xff, math.MinInt64, 0, 0),
		{},
	}
	buf := make([]byte, 0, 4096)
	for i := range recs {
		r := &recs[i]
		if n := testing.AllocsPerRun(100, func() { buf = r.AppendJSON(buf[:0]) }); n != 0 {
			t.Errorf("record %d: AppendJSON into a sized buffer costs %v allocations, want 0", i, n)
		}
		if want := marshalReference(t, r); !bytes.Equal(buf, want) {
			t.Errorf("record %d: got %q, want %q", i, buf, want)
		}
	}
}
