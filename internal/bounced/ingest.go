package bounced

import (
	"bufio"
	"compress/gzip"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"os"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/analysis"
	"repro/internal/dataset"
	"repro/internal/faultinject"
)

// Batch headers for the idempotent ingest mode. X-Batch-Id switches a
// request to all-or-nothing semantics; X-Batch-Records declares the
// batch's record count so shed and reject accounting stays exact even
// when the body is never decoded.
const (
	headerBatchID      = "X-Batch-Id"
	headerBatchRecords = "X-Batch-Records"
	headerRetryAfterMs = "X-Retry-After-Ms"
)

// ingestResponse is the JSON body of every /v1/records reply.
type ingestResponse struct {
	Accepted     int     `json:"accepted"`
	Line         int     `json:"line,omitempty"`
	Error        string  `json:"error,omitempty"`
	Deduped      bool    `json:"deduped,omitempty"`
	RetryAfterMs float64 `json:"retry_after_ms,omitempty"`
}

// handleRecords ingests one NDJSON batch. Bodies may be
// gzip-compressed, signalled by Content-Encoding: gzip or sniffed from
// the magic bytes.
//
// Two admission modes share the endpoint:
//
//   - Streamed (no X-Batch-Id): records are committed as they decode,
//     under blocking backpressure. A malformed line yields a 400 naming
//     its 1-based line number, with every preceding valid line already
//     accepted — and synced and replicated like a 200's.
//
//   - Idempotent batch (X-Batch-Id set): the whole body is decoded
//     first, then admitted atomically — all records or none. A full
//     queue sheds the batch with 429 + Retry-After instead of
//     blocking; a replayed ID inside the dedup window is acknowledged
//     without re-ingesting, so client retries are safe.
//
// With a configured ReadTimeout, a request that cannot deliver its
// body in time (slow-loris) is cut off at the read deadline.
func (s *Server) handleRecords(w http.ResponseWriter, r *http.Request) {
	if s.closed.Load() {
		httpError(w, http.StatusServiceUnavailable, 0, 0, "shutting down")
		return
	}
	if s.standby.Load() {
		// The router never routes here; a client that does (or hits the
		// promotion window) gets a retryable refusal.
		w.Header().Set("Retry-After", "1")
		httpError(w, http.StatusServiceUnavailable, 0, 0, errStandbyIngest.Error())
		return
	}
	if s.cfg.ReadTimeout > 0 {
		// Best-effort: ResponseController reaches the connection under
		// the standard http.Server; httptest/recorder stacks without
		// deadline support just proceed unbounded.
		http.NewResponseController(w).SetReadDeadline(time.Now().Add(s.cfg.ReadTimeout))
	}

	batchID := r.Header.Get(headerBatchID)
	declared := -1
	if v := r.Header.Get(headerBatchRecords); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n < 0 {
			httpError(w, http.StatusBadRequest, 0, 0, "bad "+headerBatchRecords+" header")
			return
		}
		declared = n
	}
	if batchID != "" {
		if n, ok := s.dedup.lookup(batchID); ok {
			s.replyDeduped(w, n)
			return
		}
		if declared > s.cfg.QueueDepth {
			// Refused on the header alone: the count sizes the buffer the
			// body is held in, and it is the client's to lie about.
			s.countRejected(declared, 0)
			httpError(w, http.StatusRequestEntityTooLarge, 0, 0, s.oversizeMsg(declared))
			return
		}
	}

	var plan faultinject.Plan
	if s.faults.Spec().Active() {
		plan = s.faults.NextPlan()
	}

	// ingestBody returns only once nothing reads the body any more, so
	// its buffers go back for the next request as this one leaves.
	body := bodyReaders.Get().(*bufio.Reader)
	body.Reset(plan.WrapRaw(r.Body))
	defer func() {
		body.Reset(nil)
		bodyReaders.Put(body)
	}()
	var reader io.Reader
	switch enc := strings.ToLower(r.Header.Get("Content-Encoding")); enc {
	case "", "identity":
		// Sniff anyway: a client may post a .jsonl.gz byte-for-byte
		// (curl --data-binary @corpus.jsonl.gz).
		dr, err := dataset.NewDecodingReader(body)
		if err != nil {
			s.countRejected(declared, 0)
			httpError(w, http.StatusBadRequest, 0, 0, err.Error())
			return
		}
		reader = dr
	case "gzip":
		zr, err := gunzipper(body)
		if err != nil {
			s.countRejected(declared, 0)
			httpError(w, http.StatusBadRequest, 0, 0, "bad gzip body: "+err.Error())
			return
		}
		defer func() {
			zr.Close()
			gzipReaders.Put(zr)
		}()
		reader = zr
	default:
		s.countRejected(declared, 0)
		httpError(w, http.StatusUnsupportedMediaType, 0, 0, "unsupported Content-Encoding "+enc)
		return
	}
	s.ingestBody(w, plan.WrapDecoded(reader), batchID, declared)
}

// What a request sets up before it has decoded a record is sized for a
// corpus — 64 KiB of body buffer, an inflater's 40-odd KiB of window
// and tables, a record slice for the whole batch — and a body is a few
// hundred records, so all three are kept between requests.
var (
	bodyReaders = sync.Pool{New: func() any { return bufio.NewReaderSize(nil, 1<<16) }}
	gzipReaders sync.Pool // of *gzip.Reader
	recordBufs  sync.Pool // of *[]dataset.Record, every element zero
)

// gunzipper returns a gzip reader over r, a pooled one when there is
// one; the caller Puts it back when done. An error is r's header's.
func gunzipper(r io.Reader) (*gzip.Reader, error) {
	zr, _ := gzipReaders.Get().(*gzip.Reader)
	if zr == nil {
		return gzip.NewReader(r)
	}
	if err := zr.Reset(r); err != nil {
		gzipReaders.Put(zr)
		return nil, err
	}
	return zr, nil
}

// maxPooledRecords keeps a once-in-a-while huge unit's slice out of the
// pool.
const maxPooledRecords = 8192

// getRecords returns an empty record slice with room for n.
func getRecords(n int) []dataset.Record {
	if p, _ := recordBufs.Get().(*[]dataset.Record); p != nil && cap(*p) >= n {
		return *p
	}
	return make([]dataset.Record, 0, n)
}

// putRecords gives recs up once nothing reads it any more — after
// commit, which copies into the queue. The records are zeroed first, so
// a pooled slice pins no request's strings.
func putRecords(recs []dataset.Record) {
	if cap(recs) > maxPooledRecords {
		return
	}
	clear(recs)
	recs = recs[:0]
	recordBufs.Put(&recs)
}

// replyDeduped acknowledges a replay of a batch already committed with
// the original accepted count, ingesting nothing. The semi-sync gate
// still applies — the usual reason for a replay is a retry after an ack
// timed out waiting for a standby, and acking it before the standby
// catches up would reopen the loss window.
func (s *Server) replyDeduped(w http.ResponseWriter, n int) {
	if status, msg := s.gateAck(w, s.walIndex.Load(), false); status != 0 {
		httpError(w, status, 0, 0, msg)
		return
	}
	s.deduped.Add(uint64(n))
	s.dedupBatches.Add(1)
	writeJSON(w, http.StatusOK, ingestResponse{Accepted: n, Deduped: true})
}

// ingestBody decodes one request body and commits it, in every mode and
// role. Decode fans out across workers while this goroutine takes the
// in-order chunks, so the prefix before a bad line is exactly what a
// serial scan would have seen. A streamed body commits each chunk's
// owned prefix as it decodes, blocking on backpressure, and a mid-body
// fault keeps what was accepted. Under an X-Batch-Id the whole body is
// held back — never more of it than the queue bound, past which it is a
// 413 — and then admitted all or nothing; a full queue sheds it with
// 429 rather than blocking. A record another shard owns is a bad
// line like a malformed one: the 400 names it (BatchLines keeps the
// number exact inside a chunk), and under an ID nothing was admitted,
// so the client can re-partition and resend the same ID.
func (s *Server) ingestBody(w http.ResponseWriter, reader io.Reader, batchID string, declared int) {
	pr := dataset.NewParallelReader(reader, 0)
	defer pr.Close()
	streamed := batchID == ""
	var held []dataset.Record
	if !streamed {
		held = getRecords(max(declared, 0))
		defer func() { putRecords(held) }()
	}
	status, line, msg := http.StatusOK, 0, ""
	accepted, decoded := 0, 0
	for status == http.StatusOK {
		batch, ok := pr.NextBatch()
		if !ok {
			if err := pr.Err(); err != nil {
				status, line, msg = classifyIngestErr(err)
			}
			break
		}
		own := 0
		for own < len(batch) && s.owns(&batch[own]) {
			own++
		}
		decoded += own
		if streamed {
			n, err := s.IngestBatch(batch[:own])
			accepted += n
			if err != nil {
				status, line, msg = http.StatusServiceUnavailable, pr.Line(), err.Error()
				break
			}
		} else {
			held = append(held, batch[:own]...)
			if len(held) > s.cfg.QueueDepth {
				break // a 413 below; the rest of the body is not decoded
			}
		}
		if own < len(batch) {
			decoded++
			status, line, msg = http.StatusBadRequest, pr.BatchLines()[own], s.notOwnedMsg(&batch[own])
		}
	}
	end := s.walIndex.Load()
	switch {
	case status == http.StatusServiceUnavailable:
		// IngestBatch was interrupted; the reply says how far it got.
	case status != http.StatusOK:
		// A bad line costs a stream that line, a batch under an ID all
		// of itself.
		s.badLines.Add(1)
		if streamed {
			s.rejected.Add(1)
		} else {
			s.countRejected(declared, decoded)
		}
	case streamed:
		// Every chunk is committed already.
	case len(held) > s.cfg.QueueDepth:
		// Larger than the queue can ever hold: admission would shed it
		// forever, so refuse it outright instead of sending the client
		// into a retry loop.
		s.countRejected(declared, len(held))
		status, msg = http.StatusRequestEntityTooLarge, s.oversizeMsg(len(held))
	case declared >= 0 && declared != len(held):
		s.countRejected(declared, len(held))
		status, msg = http.StatusBadRequest,
			fmt.Sprintf("%s declares %d records, body has %d", headerBatchRecords, declared, len(held))
	case !s.tryAdmit(len(held)):
		s.shed(w, len(held))
		return
	default:
		var err error
		var dup duplicateBatch
		accepted, end, err = s.commit(batchID, len(held), held, nil)
		switch {
		case errors.As(err, &dup):
			// The same ID overlapped this request and committed first.
			s.replyDeduped(w, int(dup))
			return
		case errors.Is(err, ErrIngestClosed):
			status, msg = http.StatusServiceUnavailable, err.Error()
		case err != nil:
			status, msg = http.StatusInternalServerError, err.Error()
		}
	}
	s.finishIngest(w, status, line, accepted, end, msg)
}

// gateAck holds a reply that reports committed records until the
// journal has made them as safe as the node promises: the group-commit
// fsync when sync is set (which is also what shows the records to
// standby long-polls), then the semi-sync wait for standbys to confirm
// they applied through end. It returns the status and message to fail
// the request with, 0 to let the reply go; a memory-only node has
// nothing to wait for. When the semi-sync wait times out the records
// are in the local log but the client must not count them delivered:
// under an X-Batch-Id the retry it now owes dedups and waits here
// again; a streamed body is not idempotent, so use batch IDs when
// semi-sync replication is on.
func (s *Server) gateAck(w http.ResponseWriter, end uint64, sync bool) (int, string) {
	if s.j == nil {
		return 0, ""
	}
	if sync {
		if err := s.j.sync(end); err != nil {
			return http.StatusInternalServerError, err.Error()
		}
	}
	if err := s.j.waitReplicated(end); err != nil {
		w.Header().Set("Retry-After", "1")
		return http.StatusServiceUnavailable, err.Error()
	}
	return 0, ""
}

// finishIngest is the way out of every request that may have committed
// records: whatever status it carries, a reply reporting accepted > 0
// leaves only through gateAck.
func (s *Server) finishIngest(w http.ResponseWriter, status, line, accepted int, end uint64, msg string) {
	if status == http.StatusOK || accepted > 0 {
		if st, m := s.gateAck(w, end, true); st != 0 {
			status, line, msg = st, 0, m
		}
	}
	if status != http.StatusOK {
		httpError(w, status, line, accepted, msg)
		return
	}
	s.batches.Add(1)
	s.shedStreak.Store(0)
	writeJSON(w, http.StatusOK, ingestResponse{Accepted: accepted})
}

// shed refuses an X-Batch-Id batch the queue has no room for with 429
// and a Retry-After hint.
func (s *Server) shed(w http.ResponseWriter, n int) {
	s.shedRecords.Add(uint64(n))
	s.shedBatches.Add(1)
	hint := s.retryAfter()
	// One rounding for both header and body so clients comparing the
	// two never see them disagree.
	ms := math.Round(float64(hint.Nanoseconds())/1e5) / 10
	w.Header().Set("Retry-After", strconv.Itoa(int(math.Ceil(hint.Seconds()))))
	w.Header().Set(headerRetryAfterMs, strconv.FormatFloat(ms, 'f', 1, 64))
	writeJSON(w, http.StatusTooManyRequests, ingestResponse{
		Error: "queue full, batch shed; retry with the same " + headerBatchID, RetryAfterMs: ms,
	})
}

// oversizeMsg refuses an X-Batch-Id batch of n records, declared or
// decoded so far, that no amount of retrying could get admitted.
func (s *Server) oversizeMsg(n int) string {
	return fmt.Sprintf("batch of %d records exceeds queue capacity %d; split it", n, s.cfg.QueueDepth)
}

// notOwnedMsg names the shard a misrouted record belongs to.
func (s *Server) notOwnedMsg(rec *dataset.Record) string {
	return fmt.Sprintf("record owned by shard %d, this node is shard %d/%d",
		analysis.OwnerOf(rec, s.cfg.ShardCount), s.cfg.ShardIndex, s.cfg.ShardCount)
}

// countRejected adds a refused batch to the rejected-records counter:
// the declared size when the client sent one, otherwise however many
// records were decoded before the refusal.
func (s *Server) countRejected(declared, decoded int) {
	n := decoded
	if declared > n {
		n = declared
	}
	if n > 0 {
		s.rejected.Add(uint64(n))
	}
}

// classifyIngestErr maps a decode-pipeline error to an HTTP status,
// the 1-based line to report, and a message. A read deadline expiring
// mid-body (slow-loris cut off) is a 408; everything else is a
// line-numbered 400.
func classifyIngestErr(err error) (status, line int, msg string) {
	status = http.StatusBadRequest
	if errors.Is(err, os.ErrDeadlineExceeded) {
		status = http.StatusRequestTimeout
	}
	var le *dataset.LineError
	if errors.As(err, &le) {
		line = le.Line
		if le.After {
			// Mid-body read failures (truncated gzip, dropped
			// connection) still report how far ingestion got.
			line++
		}
		return status, line, le.Err.Error()
	}
	return status, 0, err.Error()
}

func httpError(w http.ResponseWriter, status, line, accepted int, msg string) {
	writeJSON(w, status, ingestResponse{Accepted: accepted, Line: line, Error: msg})
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}
