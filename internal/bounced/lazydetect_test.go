package bounced

import (
	"bytes"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"

	"repro"
)

// TestPartialSkipsDetect: the entity detections are computed by the
// first request that renders them and by no other. A shard's round-1
// /v1/partial and a ?section=overview,fig5 report — run concurrently
// over one cached study — leave them unresolved; table2 resolves them;
// and every answer is byte-identical to batch.
func TestPartialSkipsDetect(t *testing.T) {
	batch := bounce.Run(bounce.Options{Scale: bounce.ScaleTiny})
	s, err := New(Config{Env: bounce.NewEnvironment(batch.World)})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Abort()
	if _, err := s.IngestBatch(batch.Records.Flatten()); err != nil {
		t.Fatal(err)
	}
	get := func(target string) []byte {
		rec := httptest.NewRecorder()
		s.Handler().ServeHTTP(rec, httptest.NewRequest("GET", target, nil))
		if rec.Code != http.StatusOK {
			t.Errorf("GET %s: status %d: %s", target, rec.Code, rec.Body)
		}
		return rec.Body.Bytes()
	}
	report := func(sections ...bounce.Section) []byte {
		var buf bytes.Buffer
		if err := batch.WriteReport(&buf, sections); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}

	var partial, light []byte
	var wg sync.WaitGroup
	wg.Add(2)
	go func() { defer wg.Done(); partial = get("/v1/partial") }()
	go func() { defer wg.Done(); light = get("/v1/report?section=overview,fig5") }()
	wg.Wait()
	st := s.study()
	if st.Detections != nil {
		t.Fatal("a partial and an overview,fig5 report resolved the detections")
	}
	if !bytes.Equal(partial, batch.Analysis.BouncedPartials().Marshal()) {
		t.Fatal("/v1/partial diverges from the batch study's round-1 partial aggregate")
	}
	if !bytes.Equal(light, report(bounce.SecOverview, bounce.SecFig5)) {
		t.Fatal("overview,fig5 diverges from batch")
	}

	heavy := get("/v1/report?section=table2")
	if s.study() != st || st.Detections == nil {
		t.Fatal("table2 did not resolve the cached study's detections")
	}
	if !bytes.Equal(heavy, report(bounce.SecTable2)) {
		t.Fatal("table2 diverges from batch")
	}
}
