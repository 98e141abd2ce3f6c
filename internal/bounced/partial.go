package bounced

import (
	"fmt"
	"io"
	"net/http"
	"strconv"
)

// headerPartialRecords reports how many records a partial snapshot
// covers — the coordinator surfaces it on /v1/stats — and, on a round-2
// request, names the round-1 snapshot the request continues.
const headerPartialRecords = "X-Partial-Records"

// handlePartial serves round 1 of the coordinator's fan-in: the node's
// versioned partial aggregate (the study's BouncedPartials, PartialSet
// wire format) over everything consumed so far — the set the node's own
// reports render from, so a snapshot that serves both folds once. The
// same drain barrier /v1/report uses applies: the snapshot covers every
// record whose ingest request already returned. The study it used is
// pinned for round 2, and its bytes are cached, so repeated coordinator
// polls while no new record arrived are free.
func (s *Server) handlePartial(w http.ResponseWriter, r *http.Request) {
	st := s.study()
	s.partialMu.Lock()
	if s.partialFor != st {
		s.partialBytes = st.BouncedPartials().Marshal()
		s.partialFor = st
	}
	b := s.partialBytes
	s.partialMu.Unlock()
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Header().Set(headerPartialRecords, strconv.Itoa(st.Records.Len()))
	w.Write(b)
}

// handleScopedPartial serves round 2: the body is the scope the
// coordinator merged from every shard's round 1, the header names the
// round-1 snapshot, and the answer (analysis.ScopedPartials) is folded
// from the study round 1 pinned — never from records that landed
// between the rounds. A later round 1 over a newer study replaces the
// pin, and the request is a 409: the coordinator gathers once more.
func (s *Server) handleScopedPartial(w http.ResponseWriter, r *http.Request) {
	n, err := strconv.Atoi(r.Header.Get(headerPartialRecords))
	if err != nil || n < 0 {
		httpError(w, http.StatusBadRequest, 0, 0, fmt.Sprintf("round 2 needs %s: the record count round 1 answered", headerPartialRecords))
		return
	}
	scope, err := io.ReadAll(r.Body)
	if err != nil {
		httpError(w, http.StatusBadRequest, 0, 0, err.Error())
		return
	}
	s.partialMu.Lock()
	st := s.partialFor
	s.partialMu.Unlock()
	if st == nil || st.Records.Len() != n {
		pinned := -1
		if st != nil {
			pinned = st.Records.Len()
		}
		httpError(w, http.StatusConflict, 0, 0, fmt.Sprintf("round 1 over %d records is no longer pinned (pinned: %d)", n, pinned))
		return
	}
	ps, err := st.Analysis.ScopedPartials(scope)
	if err != nil {
		httpError(w, http.StatusBadRequest, 0, 0, err.Error())
		return
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Header().Set(headerPartialRecords, strconv.Itoa(n))
	w.Write(ps.Marshal())
}
