package bounced

import (
	"net/http"
	"strconv"
)

// headerPartialRecords reports how many records a partial snapshot
// covers — the coordinator surfaces it on /v1/stats.
const headerPartialRecords = "X-Partial-Records"

// handlePartial serves the node's versioned partial-aggregate snapshot
// (analysis.PartialSet wire format) over everything consumed so far.
// The same drain barrier /v1/report uses applies: the snapshot covers
// every record whose ingest request already returned. Bytes are cached
// per study, so repeated coordinator polls while no new record arrived
// are free.
func (s *Server) handlePartial(w http.ResponseWriter, r *http.Request) {
	st := s.study()
	s.partialMu.Lock()
	if s.partialFor != st {
		s.partialBytes = st.Partials().Marshal()
		s.partialFor = st
	}
	b := s.partialBytes
	s.partialMu.Unlock()
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Header().Set(headerPartialRecords, strconv.Itoa(st.Records.Len()))
	w.Write(b)
}
