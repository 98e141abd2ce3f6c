package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptrace"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// newConn returns one keep-alive HTTP connection: a client whose
// transport may open a single connection per host, so "two connections"
// means two. Close it with CloseIdleConnections.
func newConn() *http.Client {
	return &http.Client{Transport: &http.Transport{
		MaxConnsPerHost:     1,
		MaxIdleConnsPerHost: 1,
		DisableCompression:  true,
	}}
}

// loadgen is the client side shared by every workload: it counts each
// HTTP request it issues as one operation, anything but a 2xx as a
// failure, and records spans when tracing is on.
type loadgen struct {
	tr        *tracer
	attempted atomic.Int64
	failed    atomic.Int64

	mu        sync.Mutex
	httpWrite sample // ms, request start → request written (traced runs)
	httpWait  sample // ms, request written → first response byte
}

// ingestReply is the part of a /v1/records response the benchmark reads.
type ingestReply struct {
	Accepted int    `json:"accepted"`
	Deduped  bool   `json:"deduped"`
	Error    string `json:"error"`
}

const maxRetries = 20

// do issues one request as one operation under a root span named op,
// with httptrace child spans when tracing. It returns the status, the
// body and the moment the response was complete.
func (lg *loadgen) do(ctx context.Context, cn *http.Client, op, attr string, req *http.Request) (int, []byte, http.Header, time.Time, error) {
	lg.attempted.Add(1)
	root := lg.tr.root(op, attr)
	start := time.Now()
	// The transport calls the hooks from its own goroutines; offsets
	// from start travel back through atomics.
	var wrote, first atomic.Int64
	if root != nil {
		ctx = httptrace.WithClientTrace(ctx, &httptrace.ClientTrace{
			WroteRequest:         func(httptrace.WroteRequestInfo) { wrote.Store(int64(time.Since(start))) },
			GotFirstResponseByte: func() { first.Store(int64(time.Since(start))) },
		})
	}
	resp, err := cn.Do(req.WithContext(ctx))
	if err != nil {
		lg.failed.Add(1)
		root.end()
		return 0, nil, nil, time.Time{}, err
	}
	b, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	end := time.Now()
	if w, f := time.Duration(wrote.Load()), time.Duration(first.Load()); root != nil && w > 0 && f >= w {
		root.child("http.write", start, start.Add(w))
		root.child("http.wait", start.Add(w), start.Add(f))
		root.child("http.read", start.Add(f), end)
		lg.mu.Lock()
		lg.httpWrite = append(lg.httpWrite, ms(w))
		lg.httpWait = append(lg.httpWait, ms(f-w))
		lg.mu.Unlock()
	}
	root.end()
	if err != nil {
		lg.failed.Add(1)
		return 0, nil, nil, time.Time{}, err
	}
	if resp.StatusCode < 200 || resp.StatusCode > 299 {
		lg.failed.Add(1)
	}
	return resp.StatusCode, b, resp.Header, end, nil
}

// post sends one body to base/v1/records until it is acked. A 429 shed
// or a 503 (semi-sync ack timeout) is a failed operation; the client
// waits out Retry-After and sends the same X-Batch-Id again as a new
// operation. Any other status aborts the workload. The returned time is
// when the 200 arrived.
func (lg *loadgen) post(ctx context.Context, cn *http.Client, base string, b *body) (ingestReply, time.Time, error) {
	for try := 0; ; try++ {
		req, err := http.NewRequest(http.MethodPost, base+"/v1/records", bytes.NewReader(b.data))
		if err != nil {
			return ingestReply{}, time.Time{}, err
		}
		req.Header.Set("Content-Type", "application/x-ndjson")
		if b.gz {
			req.Header.Set("Content-Encoding", "gzip")
		}
		if b.id != "" {
			req.Header.Set("X-Batch-Id", b.id)
			req.Header.Set("X-Batch-Records", strconv.Itoa(b.records))
		}
		status, raw, hdr, at, err := lg.do(ctx, cn, "op.post", b.id, req)
		if err != nil {
			return ingestReply{}, time.Time{}, fmt.Errorf("POST %s: %w", b.id, err)
		}
		var rep ingestReply
		if err := json.Unmarshal(raw, &rep); err != nil {
			return rep, at, fmt.Errorf("POST %s: status %d, unreadable reply %q", b.id, status, raw)
		}
		if status == http.StatusOK {
			if rep.Accepted != b.records {
				return rep, at, fmt.Errorf("POST %s: acked %d of %d records", b.id, rep.Accepted, b.records)
			}
			return rep, at, nil
		}
		retryable := b.id != "" && (status == http.StatusTooManyRequests || status == http.StatusServiceUnavailable)
		if !retryable || try >= maxRetries {
			return rep, at, fmt.Errorf("POST %s: status %d: %s", b.id, status, rep.Error)
		}
		wait := 50 * time.Millisecond
		if v, err := strconv.ParseFloat(hdr.Get("X-Retry-After-Ms"), 64); err == nil {
			wait = time.Duration(v * float64(time.Millisecond))
		} else if v, err := strconv.Atoi(hdr.Get("Retry-After")); err == nil {
			wait = time.Duration(v) * time.Second
		}
		select {
		case <-time.After(wait):
		case <-ctx.Done():
			return rep, at, context.Cause(ctx)
		}
	}
}

// request issues method base+path without a body as one operation and
// returns the response body and how long the request took.
func (lg *loadgen) request(ctx context.Context, cn *http.Client, op, method, base, path string) ([]byte, time.Duration, error) {
	req, err := http.NewRequest(method, base+path, nil)
	if err != nil {
		return nil, 0, err
	}
	start := time.Now()
	status, b, _, at, err := lg.do(ctx, cn, op, path, req)
	if err != nil {
		return nil, 0, fmt.Errorf("%s %s: %w", method, path, err)
	}
	if status != http.StatusOK {
		return nil, 0, fmt.Errorf("%s %s%s: status %d: %s", method, base, path, status, bytes.TrimSpace(b))
	}
	return b, at.Sub(start), nil
}

// nodeStats is the part of a node's /v1/stats the benchmark reads.
type nodeStats struct {
	Accepted       uint64  `json:"accepted"`
	Consumed       uint64  `json:"consumed"`
	ShedBatches    uint64  `json:"shed_batches"`
	Snapshots      uint64  `json:"snapshots"`
	SnapshotsWarm  uint64  `json:"snapshots_warm"`
	SnapshotsCold  uint64  `json:"snapshots_cold"`
	SnapshotMsCold float64 `json:"snapshot_ms_cold"`
	SnapshotMsWarm float64 `json:"snapshot_ms_warm"`
	Classify       struct {
		Count uint64  `json:"count"`
		P50NS float64 `json:"p50_ns"`
		P99NS float64 `json:"p99_ns"`
	} `json:"classify_latency"`
	Durability *struct {
		WALBytes        int64  `json:"wal_bytes"`
		AppendedRecords uint64 `json:"appended_records"`
		Recovery        struct {
			CheckpointRecords uint64 `json:"checkpoint_records"`
			Replayed          uint64 `json:"replayed"`
		} `json:"recovery"`
		Fsync struct {
			Count uint64  `json:"count"`
			P50NS float64 `json:"p50_ns"`
			P99NS float64 `json:"p99_ns"`
		} `json:"fsync_latency"`
	} `json:"durability"`
	Replication *struct {
		Role           string            `json:"role"`
		NextIndex      uint64            `json:"next_index"`
		Standbys       []json.RawMessage `json:"standbys"`
		MaxLagRecords  uint64            `json:"max_lag_records"`
		AckWaits       uint64            `json:"ack_waits"`
		AckTimeouts    uint64            `json:"ack_timeouts"`
		AppliedRecords uint64            `json:"applied_records"`
	} `json:"replication"`
}

// held is how many records the node's analysis state covers: what it
// consumed since boot plus what boot-time recovery restored (the
// consumed counter starts at 0 in every process).
func (st *nodeStats) held() uint64 {
	n := st.Consumed
	if d := st.Durability; d != nil {
		n += d.Recovery.CheckpointRecords + d.Recovery.Replayed
	}
	return n
}

// fetchStats scrapes /v1/stats. Scrapes are bookkeeping, not load, so
// they do not count as operations and use their own connection.
func fetchStats(ctx context.Context, base string) (nodeStats, error) {
	var st nodeStats
	err := scrapeJSON(ctx, base+"/v1/stats", &st)
	return st, err
}

var scrapeClient = &http.Client{Timeout: 30 * time.Second}

func scrapeJSON(ctx context.Context, url string, out any) error {
	b, err := scrape(ctx, url)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(b, out); err != nil {
		return fmt.Errorf("GET %s: %w", url, err)
	}
	return nil
}

func scrape(ctx context.Context, url string) ([]byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return nil, err
	}
	resp, err := scrapeClient.Do(req)
	if err != nil {
		if ctx.Err() != nil {
			return nil, context.Cause(ctx)
		}
		return nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s: status %d: %s", url, resp.StatusCode, bytes.TrimSpace(b))
	}
	return b, nil
}

// waitConsumed polls until the nodes at bases together hold want
// records — the end of a timed ingest window.
func waitConsumed(ctx context.Context, want uint64, bases ...string) error {
	deadline := time.Now().Add(60 * time.Second)
	for {
		var got uint64
		for _, b := range bases {
			st, err := fetchStats(ctx, b)
			if err != nil {
				return err
			}
			got += st.held()
		}
		if got == want {
			return nil
		}
		if got > want {
			return fmt.Errorf("nodes hold %d records, only %d were acked", got, want)
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("nodes hold %d of %d acked records after 60s", got, want)
		}
		select {
		case <-time.After(time.Millisecond):
		case <-ctx.Done():
			return context.Cause(ctx)
		}
	}
}

// closedLoop sends each connection's bodies in order, the next only
// after the previous was acked, and returns every ack latency in ms.
// queues[i] is sent on its own connection to bases[i].
func (lg *loadgen) closedLoop(ctx context.Context, bases []string, queues [][]body) (sample, error) {
	var (
		wg   sync.WaitGroup
		mu   sync.Mutex
		acks sample
		errs = make([]error, len(queues))
	)
	for i := range queues {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			cn := newConn()
			defer cn.CloseIdleConnections()
			local := make(sample, 0, len(queues[i]))
			for k := range queues[i] {
				sent := time.Now()
				_, at, err := lg.post(ctx, cn, bases[i], &queues[i][k])
				if err != nil {
					errs[i] = err
					break
				}
				local = append(local, ms(at.Sub(sent)))
			}
			mu.Lock()
			acks = append(acks, local...)
			mu.Unlock()
		}(i)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return acks, err
		}
	}
	return acks, nil
}

// schedule is an open loop's timetable: request i is due at
// start + i·every whatever happened to the requests before it.
type schedule struct {
	start time.Time
	every time.Duration
}

func (s schedule) due(i int) time.Time { return s.start.Add(time.Duration(i) * s.every) }

// account times one open-loop request from when it was due, which
// charges it the wait a stall imposed on it, and says how late the
// generator itself sent it.
func account(due, sent, acked time.Time) (latencyMs, lateMs float64) {
	return ms(acked.Sub(due)), ms(max(0, sent.Sub(due)))
}

// openLoop sends bodies on one connection on sched's timetable and
// returns each request's latency and lateness in ms.
func (lg *loadgen) openLoop(ctx context.Context, cn *http.Client, base string, bs []body, sched schedule) (acks, late sample, err error) {
	for i := range bs {
		due := sched.due(i)
		if d := time.Until(due); d > 0 {
			select {
			case <-time.After(d):
			case <-ctx.Done():
				return acks, late, context.Cause(ctx)
			}
		}
		sent := time.Now()
		_, at, err := lg.post(ctx, cn, base, &bs[i])
		if err != nil {
			return acks, late, err
		}
		a, l := account(due, sent, at)
		acks, late = append(acks, a), append(late, l)
	}
	return acks, late, nil
}
