package analysis

import (
	"bytes"
	"reflect"
	"testing"
	"time"

	"repro/internal/dataset"
)

// TestStateRoundTripMidStream: checkpoint an Incremental mid-stream,
// restore it, feed both the same remainder, and every analysis surface
// must match, each other and the batch reference — the property crash
// recovery rests on.
func TestStateRoundTripMidStream(t *testing.T) {
	records := testCorpus()
	half := len(records) / 2

	live := NewIncremental(DefaultPipelineConfig())
	for i := 0; i < half; i++ {
		live.Add(&records[i])
	}
	st := live.CaptureState()
	if st.Records() != half {
		t.Fatalf("capture covers %d records, want %d", st.Records(), half)
	}
	blob, err := st.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	restored, err := RestoreIncremental(blob)
	if err != nil {
		t.Fatal(err)
	}
	if restored.Len() != half {
		t.Fatalf("restored holds %d records, want %d", restored.Len(), half)
	}

	for i := half; i < len(records); i++ {
		live.Add(&records[i])
		restored.Add(&records[i])
	}
	a := live.Snapshot(nil)
	b := restored.Snapshot(nil)
	matchBatch(t, "live", a, records, nil)
	if !reflect.DeepEqual(a.Classified, b.Classified) {
		t.Fatal("classifications diverge after restore")
	}
	if !sameResults(a, b) {
		t.Fatal("tables and figures diverge after restore")
	}
	if !reflect.DeepEqual(a.InEmailRank(), b.InEmailRank()) {
		t.Fatal("popularity rank diverges after restore")
	}
	if got, want := b.Pipeline.NumTemplates(), a.Pipeline.NumTemplates(); got != want {
		t.Fatalf("restored mined %d templates, live %d", got, want)
	}
}

// TestStateMarshalDeterministic: equal states marshal to equal bytes
// (map iteration order must not leak), and a restored state re-marshals
// to the exact same blob.
func TestStateMarshalDeterministic(t *testing.T) {
	records := testCorpus()
	inc := NewIncremental(DefaultPipelineConfig())
	for i := range records {
		inc.Add(&records[i])
	}
	a, err := inc.CaptureState().MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	b, err := inc.CaptureState().MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) {
		t.Fatal("repeated capture marshals differently")
	}
	restored, err := RestoreIncremental(a)
	if err != nil {
		t.Fatal(err)
	}
	c, err := restored.CaptureState().MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, c) {
		t.Fatal("restore + re-capture marshals differently")
	}
}

// TestStateRecordFidelity: nil-versus-empty attempt slices and time
// instants survive the round trip — the same distinction the JSON wire
// form preserves.
func TestStateRecordFidelity(t *testing.T) {
	start := time.Date(2023, 4, 1, 10, 30, 0, 0, time.UTC)
	recs := []dataset.Record{
		{From: "a@s.com", To: "b@r.com", StartTime: start, EndTime: start.Add(time.Minute),
			FromIP: []string{"1.1.1.1"}, ToIP: []string{""}, DeliveryResult: []string{"250 OK"},
			DeliveryLatency: []int64{42}, EmailFlag: "Normal"},
		{From: "x@s.com", To: "y@r.com", StartTime: start, EndTime: start,
			FromIP: []string{}, ToIP: nil, DeliveryResult: []string{}, DeliveryLatency: []int64{}, EmailFlag: "Spam"},
		{From: "", To: "", StartTime: start, EndTime: start},
	}
	inc := NewIncremental(DefaultPipelineConfig())
	for i := range recs {
		inc.Add(&recs[i])
	}
	blob, err := inc.CaptureState().MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	restored, err := RestoreIncremental(blob)
	if err != nil {
		t.Fatal(err)
	}
	view := restored.Snapshot(nil).Records
	for i := range recs {
		if !reflect.DeepEqual(*view.At(i), recs[i]) {
			t.Fatalf("record %d differs:\n got %#v\nwant %#v", i, *view.At(i), recs[i])
		}
	}
}

// TestStateHostileInput: truncated blobs error instead of panicking.
func TestStateHostileInput(t *testing.T) {
	records := testCorpus()[:50]
	inc := NewIncremental(DefaultPipelineConfig())
	for i := range records {
		inc.Add(&records[i])
	}
	blob, err := inc.CaptureState().MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	for cut := 0; cut < len(blob); cut += 97 {
		if _, err := RestoreIncremental(blob[:cut]); err == nil {
			t.Fatalf("truncation at %d accepted", cut)
		}
	}
	if _, err := RestoreIncremental(append(append([]byte(nil), blob...), 0)); err == nil {
		t.Fatal("trailing garbage accepted")
	}
}
