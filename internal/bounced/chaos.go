package bounced

import (
	"bufio"
	"bytes"
	"compress/gzip"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"strconv"
	"time"

	"repro/internal/analysis"
	"repro/internal/dataset"
	"repro/internal/faultinject"
)

// ChaosConfig drives a hostile replay: the corpus is sent as
// idempotent batches (X-Batch-Id) while a client-side fault schedule
// deliberately damages sends — torn bodies, truncated gzip, slow-loris
// trickles, duplicate replays — and every refusal is retried until the
// batch lands. A chaos run against a healthy (or fault-injecting)
// server must converge on exactly the clean run's final state.
type ChaosConfig struct {
	// URL is the service base, e.g. http://localhost:8425. Ignored when
	// ShardURLs is set.
	URL string
	// ShardURLs, when non-empty, runs the replay against a sharded
	// deployment: each record routes to the shard that owns its
	// substream (analysis.OwnerOf over len(ShardURLs) shards), so every
	// entry must be shard i's ingest address — the shard node itself or
	// its replica-set router. Batches stay sequential across the whole
	// stream, which preserves per-substream ingestion order because a
	// substream lives entirely inside one shard. ChaosVerify balances
	// the run over the sum of these targets' counters.
	ShardURLs []string
	// Path is the JSONL (optionally gzipped) record file to replay.
	Path string
	// BatchSize is records per POST (default 200).
	BatchSize int
	// Seed namespaces the batch IDs so reruns against a shared server
	// do not collide with a previous run's dedup window.
	Seed uint64
	// Faults is the client-side fault schedule. Nil or inactive runs a
	// plain sequential idempotent replay.
	Faults *faultinject.Spec
	// MaxRetries bounds attempts per batch (default 50). 429 sheds
	// honor the server's Retry-After hint between attempts.
	MaxRetries int
	// Gzip compresses clean request bodies.
	Gzip bool
	// Rate caps the replay at records per second; 0 means as fast as
	// acceptance allows. The kill -9 drill uses it to hold the stream
	// open long enough to crash the server mid-flight.
	Rate float64
	// Progress, when set, receives one line per ~50 batches.
	Progress io.Writer
}

// ChaosResult summarizes a chaos replay. Presented is the total record
// count across every HTTP send (damaged, shed, duplicated, and clean):
// the targets' accepted+shed+rejected+deduped counters must sum to
// exactly this, or records were lost or double-counted (ChaosVerify).
type ChaosResult struct {
	Records     int               `json:"records"`
	Batches     int               `json:"batches"`
	Presented   int               `json:"presented"`
	Retries     int               `json:"retries"`
	Shed        int               `json:"shed_429"`
	Faulted     int               `json:"faulted_sends"`
	Duplicates  int               `json:"duplicate_sends"`
	Deduped     int               `json:"deduped_acks"`
	Seconds     float64           `json:"seconds"`
	FaultCounts map[string]uint64 `json:"fault_counts,omitempty"`
}

// Chaos replays cfg.Path against cfg.URL (or, record by owning shard,
// cfg.ShardURLs) under the fault schedule. It is the one HTTP replay
// client: bounced loadgen, the kill drills and the chaos soak all call
// it, and under a nil or inactive schedule it is a plain idempotent
// replay. Batches are sent sequentially — batch k+1 only after k is
// accepted — because the server's report depends on ingestion order;
// the price is throughput, the prize is a byte-identical final report.
func Chaos(cfg ChaosConfig) (*ChaosResult, error) {
	if cfg.BatchSize <= 0 {
		cfg.BatchSize = 200
	}
	if cfg.MaxRetries <= 0 {
		cfg.MaxRetries = 50
	}
	f, err := os.Open(cfg.Path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	// Replay raw lines (decoded if gzipped) rather than parsed records:
	// the server is the component under test, including its decoding.
	rd, err := dataset.NewDecodingReader(f)
	if err != nil {
		return nil, err
	}

	// One batch stream per target, each with its own ID namespace, still
	// one batch in flight at a time overall.
	urls := cfg.ShardURLs
	if len(urls) == 0 {
		urls = []string{cfg.URL}
	}
	inj := faultinject.New(cfg.Faults)
	client := &http.Client{Timeout: 2 * time.Minute}
	res := &ChaosResult{}
	idxs := make([]int, len(urls))
	start := time.Now()
	err = scanRecordLines(rd, cfg.BatchSize, cfg.Rate, len(urls), func(shard int, body []byte, count int) error {
		idxs[shard]++
		id := fmt.Sprintf("chaos-%d-%d", cfg.Seed, idxs[shard])
		if len(cfg.ShardURLs) > 0 {
			id = fmt.Sprintf("chaos-%d-s%d-%d", cfg.Seed, shard, idxs[shard])
		}
		err := sendChaosBatch(client, cfg, urls[shard], inj.NextPlan(), res, id, body, count)
		if cfg.Progress != nil && err == nil && res.Batches%50 == 0 {
			fmt.Fprintf(cfg.Progress, "chaos: %d records in %d batches to %d target(s) (%d retries, %d shed)\n",
				res.Records, res.Batches, len(urls), res.Retries, res.Shed)
		}
		return err
	})
	if err != nil {
		return nil, err
	}
	res.Seconds = time.Since(start).Seconds()
	res.FaultCounts = inj.Counts()
	return res, nil
}

// scanRecordLines streams the (decoded) file, groups non-empty lines
// into NDJSON batch bodies of batchSize records, paces emission to rate
// records per second over the whole stream (0 = unpaced), and stops at
// emit's first error. With shards > 1 every line is decoded just enough
// to find its owning shard and each shard accumulates its own batch,
// flushed when it fills; the final short batches flush in shard order
// at EOF.
func scanRecordLines(r io.Reader, batchSize int, rate float64, shards int, emit func(shard int, body []byte, count int) error) error {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<24)
	bufs := make([]bytes.Buffer, shards)
	counts := make([]int, shards)
	start := time.Now()
	total := 0
	flush := func(shard int) error {
		if counts[shard] == 0 {
			return nil
		}
		if rate > 0 {
			due := start.Add(time.Duration(float64(total) / rate * float64(time.Second)))
			time.Sleep(time.Until(due))
		}
		body := bytes.Clone(bufs[shard].Bytes())
		count := counts[shard]
		bufs[shard].Reset()
		counts[shard] = 0
		return emit(shard, body, count)
	}
	var dec dataset.Decoder
	var rec dataset.Record
	for sc.Scan() {
		b := sc.Bytes()
		if len(b) == 0 {
			continue
		}
		total++
		shard := 0
		if shards > 1 {
			if err := dec.Decode(b, &rec); err != nil {
				return fmt.Errorf("chaos: record %d: %v", total, err)
			}
			shard = analysis.OwnerOf(&rec, shards)
		}
		bufs[shard].Write(b)
		bufs[shard].WriteByte('\n')
		counts[shard]++
		if counts[shard] >= batchSize {
			if err := flush(shard); err != nil {
				return err
			}
		}
	}
	for s := range bufs {
		if err := flush(s); err != nil {
			return err
		}
	}
	return sc.Err()
}

// sendChaosBatch delivers one batch to acceptance: an optional doomed
// damaged send first, then clean sends retried through 429 sheds and
// fault-injected refusals, then an optional duplicate replay that must
// be acknowledged from the dedup window.
func sendChaosBatch(client *http.Client, cfg ChaosConfig, url string, plan faultinject.Plan, res *ChaosResult, id string, body []byte, count int) error {
	// The damaged send is expected to be refused whole: the batch ID
	// stays unregistered and the ID-carrying retry below lands the real
	// records. A 2xx here would mean the server admitted a mangled body.
	if status, reply, err := sendDamaged(client, cfg, url, plan, res, id, body, count); err != nil {
		return err
	} else if status == http.StatusOK {
		return fmt.Errorf("chaos: damaged send of %s was accepted: %+v", id, reply)
	}

	attempt := 0
	for {
		attempt++
		slow := time.Duration(0)
		if plan.Loris && attempt == 1 && cfg.Faults != nil {
			// First real send trickles; retries are full speed so a
			// server read deadline cannot starve the batch forever.
			slow = cfg.Faults.LorisPause
			plan.Fired(faultinject.KindLoris)
			res.Faulted++
		}
		status, reply, retryMs, err := postChaos(client, url, id, count, cleanBody(cfg, body), cfg.Gzip, slow)
		if err != nil {
			if attempt > cfg.MaxRetries {
				return fmt.Errorf("chaos: batch %s: %w", id, err)
			}
			res.Retries++
			// A transport error usually means the server is gone (the
			// kill -9 drill restarts it); pace the reconnect attempts so
			// the retry budget survives the restart window.
			time.Sleep(20 * time.Millisecond)
			continue
		}
		res.Presented += count
		switch status {
		case http.StatusOK:
			if reply.Deduped {
				// A previous attempt was admitted but its response lost;
				// the ack still covers exactly these records.
				res.Deduped++
			}
			res.Records += count
			res.Batches++
		case http.StatusTooManyRequests:
			res.Shed++
			if attempt > cfg.MaxRetries {
				return fmt.Errorf("chaos: batch %s still shed after %d attempts", id, attempt)
			}
			res.Retries++
			wait := time.Duration(retryMs * float64(time.Millisecond))
			if wait <= 0 {
				wait = 25 * time.Millisecond
			}
			time.Sleep(wait)
			continue
		default:
			// A server-injected fault (torn stream, read deadline) refused
			// the whole batch; the ID is still unregistered, so retry.
			if attempt > cfg.MaxRetries {
				return fmt.Errorf("chaos: batch %s refused after %d attempts: %d %s", id, attempt, status, reply.Error)
			}
			res.Retries++
			continue
		}
		break
	}

	if plan.Dup {
		// Replay the accepted batch verbatim — the crash-retry a real
		// client issues after losing an ack. Anything but a dedup
		// acknowledgement means the server double-ingested.
		plan.Fired(faultinject.KindDup)
		res.Duplicates++
		status, reply, _, err := postChaos(client, url, id, count, cleanBody(cfg, body), cfg.Gzip, 0)
		if err != nil {
			return fmt.Errorf("chaos: dup replay of %s: %w", id, err)
		}
		res.Presented += count
		if status != http.StatusOK || !reply.Deduped || reply.Accepted != count {
			return fmt.Errorf("chaos: dup replay of %s not deduped: %d %+v", id, status, reply)
		}
		res.Deduped++
	}
	return nil
}

// sendDamaged issues the plan's deliberately broken send, if any:
// a torn body cut mid-record or a truncated gzip stream. Returns the
// refusal status (0 when the plan injects no damage here).
func sendDamaged(client *http.Client, cfg ChaosConfig, url string, plan faultinject.Plan, res *ChaosResult, id string, body []byte, count int) (int, ingestResponse, error) {
	switch {
	case plan.TruncGzip:
		var zbuf bytes.Buffer
		zw := gzip.NewWriter(&zbuf)
		zw.Write(body)
		zw.Close()
		cut := plan.TornAfter % zbuf.Len()
		if cut < 1 {
			cut = 1
		}
		plan.Fired(faultinject.KindTruncGz)
		res.Faulted++
		status, reply, _, err := postChaos(client, url, id, count, zbuf.Bytes()[:cut], true, 0)
		if err == nil {
			res.Presented += count
		}
		return status, reply, err
	case plan.Torn && len(body) > 1:
		cut := plan.TornAfter % (len(body) - 1)
		if cut < 1 {
			cut = 1
		}
		plan.Fired(faultinject.KindTorn)
		res.Faulted++
		status, reply, _, err := postChaos(client, url, id, count, body[:cut], false, 0)
		if err == nil {
			res.Presented += count
		}
		return status, reply, err
	}
	return 0, ingestResponse{}, nil
}

// cleanBody returns the send-ready clean payload (gzipped if enabled).
func cleanBody(cfg ChaosConfig, body []byte) []byte {
	if !cfg.Gzip {
		return body
	}
	var zbuf bytes.Buffer
	zw := gzip.NewWriter(&zbuf)
	zw.Write(body)
	zw.Close()
	return zbuf.Bytes()
}

// postChaos posts one payload under the batch ID, always declaring the
// true record count so the server's shed/reject accounting is exact
// even for bodies it never decodes. slow > 0 trickles the body in
// small pauses — the slow-loris shape.
func postChaos(client *http.Client, url string, id string, count int, payload []byte, gzipped bool, slow time.Duration) (int, ingestResponse, float64, error) {
	var rd io.Reader = bytes.NewReader(payload)
	if slow > 0 {
		pr, pw := io.Pipe()
		go func() {
			defer pw.Close()
			for off := 0; off < len(payload); off += 256 {
				end := off + 256
				if end > len(payload) {
					end = len(payload)
				}
				if _, err := pw.Write(payload[off:end]); err != nil {
					return
				}
				time.Sleep(slow)
			}
		}()
		rd = pr
	}
	req, err := http.NewRequest(http.MethodPost, url+"/v1/records", rd)
	if err != nil {
		return 0, ingestResponse{}, 0, err
	}
	req.Header.Set("Content-Type", "application/x-ndjson")
	req.Header.Set(headerBatchID, id)
	req.Header.Set(headerBatchRecords, strconv.Itoa(count))
	if gzipped {
		req.Header.Set("Content-Encoding", "gzip")
	}
	resp, err := client.Do(req)
	if err != nil {
		return 0, ingestResponse{}, 0, err
	}
	defer resp.Body.Close()
	var reply ingestResponse
	json.NewDecoder(resp.Body).Decode(&reply)
	retryMs := reply.RetryAfterMs
	if v := resp.Header.Get(headerRetryAfterMs); retryMs == 0 && v != "" {
		retryMs, _ = strconv.ParseFloat(v, 64)
	}
	// Every send presents its declared records once, whatever the
	// verdict — the client half of the zero-loss balance.
	return resp.StatusCode, reply, retryMs, nil
}

// ChaosVerify checks the zero-loss balance of a replay against
// cfg's targets (ShardURLs, else URL), each of which started from an
// empty store: summed over the targets' /v1/stats, the server acked
// exactly res.Records and classified every record res.Presented counts
// exactly once as accepted, shed, rejected or deduped; and on each
// target the store consumed every record it accepted (POST /v1/snapshot
// folds everything accepted before it answers). It is the one place
// the balance is computed: a test that presents records by hand passes
// a ChaosResult holding what it presented and what was acked.
func ChaosVerify(cfg ChaosConfig, res *ChaosResult) error {
	urls := cfg.ShardURLs
	if len(urls) == 0 {
		urls = []string{cfg.URL}
	}
	var sum struct{ accepted, shed, rejected, deduped uint64 }
	for _, url := range urls {
		var st struct {
			Accepted        uint64 `json:"accepted"`
			RecordsShed     uint64 `json:"records_shed"`
			RecordsRejected uint64 `json:"records_rejected"`
			RecordsDeduped  uint64 `json:"records_deduped"`
		}
		if err := chaosJSON(http.MethodGet, url+"/v1/stats", &st); err != nil {
			return err
		}
		var snap struct {
			Records uint64 `json:"records"`
		}
		if err := chaosJSON(http.MethodPost, url+"/v1/snapshot", &snap); err != nil {
			return err
		}
		if snap.Records != st.Accepted {
			return fmt.Errorf("chaos verify: %s accepted %d records but its store holds %d", url, st.Accepted, snap.Records)
		}
		sum.accepted += st.Accepted
		sum.shed += st.RecordsShed
		sum.rejected += st.RecordsRejected
		sum.deduped += st.RecordsDeduped
	}
	if sum.accepted != uint64(res.Records) {
		return fmt.Errorf("chaos verify: server accepted %d records, client was acked %d", sum.accepted, res.Records)
	}
	balance := sum.accepted + sum.shed + sum.rejected + sum.deduped
	if balance != uint64(res.Presented) {
		return fmt.Errorf("chaos verify: accepted %d + shed %d + rejected %d + deduped %d = %d, client presented %d",
			sum.accepted, sum.shed, sum.rejected, sum.deduped, balance, res.Presented)
	}
	return nil
}

// chaosJSON sends an empty method request to url and decodes its 200
// reply into v.
func chaosJSON(method, url string, v any) error {
	req, err := http.NewRequest(method, url, nil)
	if err != nil {
		return err
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("chaos verify: %s %s: status %d", method, url, resp.StatusCode)
	}
	return json.NewDecoder(resp.Body).Decode(v)
}
