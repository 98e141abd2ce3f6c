package bounced

import (
	"bytes"
	"net/http"
	"time"

	"repro"
)

// study returns a Study over every record consumed so far, first
// waiting for the store to catch up with everything ingestion has
// already admitted. Snapshots are cached: while no new record has
// been consumed, the previous study is reused. The snapshot pipeline
// also becomes the live classifier for subsequent ingest metrics.
func (s *Server) study() *bounce.Study {
	s.waitConsumed(s.accepted.Load())
	s.snapMu.Lock()
	defer s.snapMu.Unlock()
	n := s.consumed.Load()
	if s.snapStudy != nil && s.snapAt == n {
		return s.snapStudy
	}
	t0 := time.Now()
	a := s.incState().Snapshot(s.cfg.Env)
	s.snapMs = float64(time.Since(t0).Nanoseconds()) / 1e6
	// The study resolves its detections on first use, so /v1/partial,
	// POST /v1/snapshot and ?section=overview never pay for them.
	st := &bounce.Study{Records: a.Records, Analysis: a}
	s.snapStudy, s.snapAt = st, n
	s.snapTaken.Add(1)
	s.liveMu.Lock()
	s.livePipe = a.Pipeline
	s.liveMu.Unlock()
	return st
}

// handleReport serves the batch report over the records ingested so
// far: the bytes are identical to `bounceanalyze -in <file>` over a
// file holding the same records (the differential test's invariant).
func (s *Server) handleReport(w http.ResponseWriter, r *http.Request) {
	sections := bounce.ParseSections(r.URL.Query().Get("section"), bounce.AllSections)
	// A misspelt name is refused before a snapshot is taken for it.
	if err := bounce.CheckSections(sections, bounce.AllSections); err != nil {
		httpError(w, http.StatusBadRequest, 0, 0, err.Error())
		return
	}
	st := s.study()
	var buf bytes.Buffer
	if err := st.WriteReport(&buf, sections); err != nil {
		httpError(w, http.StatusBadRequest, 0, 0, err.Error())
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	w.Write(buf.Bytes())
}

// WriteFinalReport drains nothing (call Drain first) and writes the
// final snapshot report — the shutdown flush.
func (s *Server) WriteFinalReport(w interface{ Write([]byte) (int, error) }, sections []bounce.Section) error {
	if len(sections) == 0 {
		sections = bounce.AllSections
	}
	return s.study().WriteReport(w, sections)
}

// handleSnapshot forces a fresh analysis snapshot and reports its
// shape — the explicit warm-up hook a client uses to arm the live
// classifier, or to wait until everything accepted has been folded.
func (s *Server) handleSnapshot(w http.ResponseWriter, r *http.Request) {
	taken := s.snapTaken.Load()
	t0 := time.Now()
	st := s.study()
	elapsedMs := float64(time.Since(t0).Nanoseconds()) / 1e6
	labeled, coverage := st.Analysis.Pipeline.ManualLabelStats()
	writeJSON(w, http.StatusOK, map[string]any{
		"records":        st.Records.Len(),
		"templates":      st.Analysis.Pipeline.NumTemplates(),
		"labeled":        labeled,
		"label_coverage": coverage,
		"elapsed_ms":     elapsedMs,
		"cached":         s.snapTaken.Load() == taken,
	})
}
