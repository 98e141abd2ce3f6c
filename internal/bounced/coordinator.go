package bounced

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro"
	"repro/internal/analysis"
	"repro/internal/replication"
)

// CoordinatorConfig assembles a Coordinator.
type CoordinatorConfig struct {
	// ShardURLs are the shards' base URLs (e.g. "http://10.0.0.1:8080").
	// Each entry may be a plain shard node or a -role=router front door
	// for that shard's replica set — the coordinator probes which one it
	// is on every fan-in. Their order is the merge order — any order
	// yields the same report bytes, but keeping it fixed makes the
	// fan-in fully deterministic.
	ShardURLs []string
	// Env supplies the external services report sections consult (same
	// contract as Config.Env).
	Env *analysis.Environment
	// Client overrides the HTTP client used for shard fan-in.
	Client *http.Client
}

// Coordinator is the thin fan-in tier of a sharded bounced deployment:
// it holds no records and no classifier state. Every report request
// gathers each shard's partial aggregate in two rounds on /v1/partial
// (what the bounced records name, then what every record adds to it),
// merges them, and renders through the same section dispatcher a
// single node uses — so the report bytes are identical to one node
// having ingested the full stream (for the partial-renderable
// sections).
//
// When a shard URL fronts a replica set (a -role=router instance), the
// coordinator follows the router's elected highest-epoch primary for
// the partial fetch, and retries one re-probe before failing the
// gather — enough to ride through a promotion that completed between
// the probe and the fetch.
type Coordinator struct {
	cfg    CoordinatorConfig
	client *http.Client

	fanins    atomic.Uint64 // successful full fan-ins
	faninErrs atomic.Uint64 // fan-ins failed by an unreachable/invalid shard
	reports   atomic.Uint64 // reports rendered
	reprobes  atomic.Uint64 // second-chance re-probes after a failed shard fetch

	mu          sync.Mutex
	lastMergeMs float64
	lastRecords int
	lastShards  []shardInfo // topology view from the last successful gather
	startedAt   time.Time
}

// NewCoordinator wires a coordinator over the given shards.
func NewCoordinator(cfg CoordinatorConfig) (*Coordinator, error) {
	if len(cfg.ShardURLs) == 0 {
		return nil, fmt.Errorf("bounced: coordinator needs at least one shard URL")
	}
	// Normalize into a private copy: the caller's slice stays untouched.
	urls := make([]string, len(cfg.ShardURLs))
	for i, u := range cfg.ShardURLs {
		urls[i] = strings.TrimRight(u, "/")
	}
	cfg.ShardURLs = urls
	client := cfg.Client
	if client == nil {
		client = &http.Client{Timeout: 30 * time.Second}
	}
	return &Coordinator{cfg: cfg, client: client, startedAt: time.Now()}, nil
}

// Handler returns the coordinator's HTTP routes.
func (c *Coordinator) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /v1/report", c.handleReport)
	mux.HandleFunc("/v1/stats", c.handleStats)
	mux.HandleFunc("/metrics", c.handleMetrics)
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, _ *http.Request) {
		w.Write([]byte("ok\n"))
	})
	return mux
}

// shardInfo is one shard's contribution to a fan-in.
type shardInfo struct {
	URL        string `json:"url"`
	Routed     bool   `json:"routed,omitempty"`  // URL is a replica-set router
	Primary    string `json:"primary,omitempty"` // elected node the partial came from
	Epoch      uint64 `json:"epoch,omitempty"`
	LagRecords uint64 `json:"lag_records,omitempty"` // worst standby lag behind the primary
	Records    int    `json:"records"`
	Bytes      int    `json:"snapshot_bytes"`
}

// resolveShard decides where a shard's partial snapshot lives. A
// replica-set router answers /v1/router/status: follow its elected
// primary and record epoch plus the worst standby lag. A plain node
// 404s there; its own /v1/repl/status, which every bounced node
// serves, gives the epoch, and the partial comes from the node itself.
func (c *Coordinator) resolveShard(ctx context.Context, base string) (target string, info shardInfo, err error) {
	info = shardInfo{URL: base}
	var rs replication.RouterStatus
	ok, err := c.getJSON(ctx, base+replication.PathRouterStatus, &rs)
	if err != nil {
		return "", info, err
	}
	if ok {
		if rs.Primary == "" {
			return "", info, fmt.Errorf("router has no elected primary")
		}
		info.Routed = true
		info.Primary = rs.Primary
		info.Epoch = rs.PrimaryEpoch
		var primaryNext uint64
		for _, p := range rs.Peers {
			if p.URL == rs.Primary {
				primaryNext = p.NextIndex
			}
		}
		for _, p := range rs.Peers {
			if p.Role == "standby" && p.Error == "" && primaryNext > p.NextIndex {
				if lag := primaryNext - p.NextIndex; lag > info.LagRecords {
					info.LagRecords = lag
				}
			}
		}
		return rs.Primary, info, nil
	}
	var ns replication.NodeStatus
	if ok, err = c.getJSON(ctx, base+replication.PathStatus, &ns); err != nil {
		return "", info, err
	} else if !ok {
		return "", info, fmt.Errorf("neither a router nor a bounced node: %s and %s are both 404", replication.PathRouterStatus, replication.PathStatus)
	}
	info.Epoch = ns.Epoch
	return base, info, nil
}

// getJSON fetches and decodes url into out. A 404 reports (false, nil)
// so callers can treat "endpoint not there" as a topology signal;
// transport errors and other statuses are hard errors.
func (c *Coordinator) getJSON(ctx context.Context, url string, out any) (bool, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return false, err
	}
	resp, err := c.client.Do(req)
	if err != nil {
		return false, err
	}
	defer resp.Body.Close()
	if resp.StatusCode == http.StatusNotFound {
		io.Copy(io.Discard, resp.Body)
		return false, nil
	}
	if resp.StatusCode != http.StatusOK {
		return false, fmt.Errorf("%s: status %s", url, resp.Status)
	}
	return true, json.NewDecoder(resp.Body).Decode(out)
}

// errSnapshotMoved is a round-2 409: a later round 1 replaced the
// study the shard pinned for this gather's round 2.
var errSnapshotMoved = errors.New("round-1 snapshot no longer pinned")

// shardFetch is one shard's side of a gather: where its rounds go, the
// record count round 1 pinned, and the latest round's bytes.
type shardFetch struct {
	target  string
	info    shardInfo
	records int
	blob    []byte
	bytes   int // both rounds
}

// fetchPartial runs one round against f.target: round 1 (scope nil)
// GETs the node's partial, round 2 POSTs the scope and names the record
// count round 1 answered.
func (c *Coordinator) fetchPartial(ctx context.Context, f *shardFetch, scope []byte) error {
	method, body := http.MethodGet, io.Reader(nil)
	if scope != nil {
		method, body = http.MethodPost, bytes.NewReader(scope)
	}
	req, err := http.NewRequestWithContext(ctx, method, strings.TrimRight(f.target, "/")+"/v1/partial", body)
	if err != nil {
		return err
	}
	if scope != nil {
		req.Header.Set(headerPartialRecords, strconv.Itoa(f.records))
	}
	resp, err := c.client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode == http.StatusConflict {
		io.Copy(io.Discard, resp.Body)
		return errSnapshotMoved
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("status %s", resp.Status)
	}
	if scope == nil {
		if f.records, err = strconv.Atoi(resp.Header.Get(headerPartialRecords)); err != nil {
			return fmt.Errorf("round 1 without a valid %s: %v", headerPartialRecords, err)
		}
	}
	if f.blob, err = io.ReadAll(resp.Body); err != nil {
		return err
	}
	f.bytes += len(f.blob)
	return nil
}

// fetchShard runs one round against one shard. Round 1 resolves the
// shard first; round 2 goes to the node round 1 was answered by. On
// any failure but a moved snapshot it re-probes once: a primary that
// died between the probe and the fetch has usually been replaced by
// the router's next sweep, so a single second look rides through the
// election instead of failing the whole gather. (The new primary pins
// nothing, so a round 2 it is asked is a 409, and gather runs again.)
func (c *Coordinator) fetchShard(ctx context.Context, base string, f *shardFetch, scope []byte) error {
	var err error
	if scope == nil {
		f.target, f.info, err = c.resolveShard(ctx, base)
	}
	if err == nil {
		if err = c.fetchPartial(ctx, f, scope); err == nil || errors.Is(err, errSnapshotMoved) {
			return err
		}
		err = fmt.Errorf("partial from %s: %v", f.target, err)
	}
	if ctx.Err() != nil {
		return err
	}
	c.reprobes.Add(1)
	var err2 error
	if f.target, f.info, err2 = c.resolveShard(ctx, base); err2 != nil {
		return fmt.Errorf("%v (re-probe: %v)", err, err2)
	}
	if err2 = c.fetchPartial(ctx, f, scope); errors.Is(err2, errSnapshotMoved) {
		return err2
	} else if err2 != nil {
		return fmt.Errorf("%v (re-probe partial from %s: %v)", err, f.target, err2)
	}
	return nil
}

// round runs one round against every shard concurrently.
func (c *Coordinator) round(ctx context.Context, fs []shardFetch, scope []byte) error {
	errs := make([]error, len(fs))
	var wg sync.WaitGroup
	for i, base := range c.cfg.ShardURLs {
		wg.Add(1)
		go func(i int, base string) {
			defer wg.Done()
			errs[i] = c.fetchShard(ctx, base, &fs[i], scope)
		}(i, base)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			return fmt.Errorf("shard %d (%s): %w", i, c.cfg.ShardURLs[i], err)
		}
	}
	return nil
}

// merge decodes one round's sets and merges them in ShardURLs order.
func (c *Coordinator) merge(fs []shardFetch) (*analysis.PartialSet, error) {
	var merged *analysis.PartialSet
	for i := range fs {
		ps, err := analysis.UnmarshalPartialSet(fs[i].blob, c.cfg.Env)
		if err == nil && merged != nil {
			err = merged.Merge(ps)
		}
		if err != nil {
			return nil, fmt.Errorf("shard %d (%s): %v", i, c.cfg.ShardURLs[i], err)
		}
		if merged == nil {
			merged = ps
		}
	}
	return merged, nil
}

// gatherOnce is the two-round fan-in. Round 1 fetches every shard's
// cheap collectors and what its bounced records name; their merge is
// the scope. Round 2 sends it back, and each shard answers with only
// what its records add to it, from the study its round 1 pinned. The
// returned milliseconds are the decoding and merging of both rounds.
func (c *Coordinator) gatherOnce(ctx context.Context) (*analysis.PartialSet, []shardInfo, float64, error) {
	fs := make([]shardFetch, len(c.cfg.ShardURLs))
	if err := c.round(ctx, fs, nil); err != nil {
		return nil, nil, 0, err
	}
	t0 := time.Now()
	merged, err := c.merge(fs)
	if err != nil {
		return nil, nil, 0, err
	}
	scope, err := merged.MarshalScope()
	if err != nil {
		return nil, nil, 0, err
	}
	elapsed := time.Since(t0)
	if err := c.round(ctx, fs, scope); err != nil {
		return nil, nil, 0, err
	}
	t1 := time.Now()
	scoped, err := c.merge(fs)
	if err == nil {
		err = merged.Complete(scoped)
	}
	if err != nil {
		return nil, nil, 0, err
	}
	elapsed += time.Since(t1)
	infos := make([]shardInfo, len(fs))
	for i := range fs {
		infos[i] = fs[i].info
		infos[i].Records, infos[i].Bytes = fs[i].records, fs[i].bytes
	}
	return merged, infos, float64(elapsed.Nanoseconds()) / 1e6, nil
}

// gather fans in every shard (concurrently, in two rounds) and merges
// in ShardURLs order. Any unreachable or undecodable shard fails the
// whole fan-in: a silently partial report would be worse than no
// report. A shard whose pin moved between the rounds costs one more
// gather, and then the 503. ctx is the inbound request's context, so a
// client that disconnects cancels the fan-in instead of leaving it
// running against the shard tier.
func (c *Coordinator) gather(ctx context.Context) (*analysis.PartialSet, []shardInfo, error) {
	merged, infos, ms, err := c.gatherOnce(ctx)
	if errors.Is(err, errSnapshotMoved) && ctx.Err() == nil {
		merged, infos, ms, err = c.gatherOnce(ctx)
	}
	if err != nil {
		c.faninErrs.Add(1)
		return nil, nil, err
	}
	c.mu.Lock()
	c.lastMergeMs = ms
	c.lastRecords = merged.Total
	c.lastShards = append([]shardInfo(nil), infos...)
	c.mu.Unlock()
	c.fanins.Add(1)
	return merged, infos, nil
}

// handleReport renders the merged report. Bytes are identical to a
// single node serving the same sections over the union of the shards'
// records; "all" means every partial-renderable section (squat and
// advice need the raw corpus, which no coordinator holds).
func (c *Coordinator) handleReport(w http.ResponseWriter, r *http.Request) {
	sections := bounce.ParseSections(r.URL.Query().Get("section"), bounce.PartialSections)
	// A misspelt (or corpus-only) name is refused before the shards are
	// asked for anything.
	if err := bounce.CheckSections(sections, bounce.PartialSections); err != nil {
		httpError(w, http.StatusBadRequest, 0, 0, err.Error())
		return
	}
	merged, _, err := c.gather(r.Context())
	if err != nil {
		httpError(w, http.StatusServiceUnavailable, 0, 0, err.Error())
		return
	}
	var buf strings.Builder
	st := bounce.NewPartialStudy(merged)
	if err := st.WriteReport(&buf, sections); err != nil {
		httpError(w, http.StatusBadRequest, 0, 0, err.Error())
		return
	}
	c.reports.Add(1)
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	w.Write([]byte(buf.String()))
}

// handleStats fans in fresh shard snapshots, then serves the scrape as
// JSON: the records and topology, with each shard's replication epoch
// and worst standby lag, as this request's gather saw them. merge_ms is
// the latest completed gather's.
func (c *Coordinator) handleStats(w http.ResponseWriter, r *http.Request) {
	merged, infos, err := c.gather(r.Context())
	if err != nil {
		httpError(w, http.StatusServiceUnavailable, 0, 0, err.Error())
		return
	}
	ms, _, _ := c.last()
	serveScrape(w, false, func(s *scrape) { c.scrape(s, ms, merged.Total, infos) })
}

// handleMetrics serves the scrape as Prometheus text. It does not fan
// in: metrics reflect the last gather, so a scrape never hammers the
// shard tier.
func (c *Coordinator) handleMetrics(w http.ResponseWriter, r *http.Request) {
	ms, records, shards := c.last()
	serveScrape(w, true, func(s *scrape) { c.scrape(s, ms, records, shards) })
}

// last returns what the latest completed gather saw.
func (c *Coordinator) last() (mergeMs float64, records int, shards []shardInfo) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.lastMergeMs, c.lastRecords, c.lastShards
}

// scrape walks everything a coordinator exports, once, given one
// gather's merge time, record count and topology.
func (c *Coordinator) scrape(w *scrape, ms float64, records int, shards []shardInfo) {
	w.value("uptime_seconds", time.Since(c.startedAt).Seconds())
	w.gauge("coordinator_shards", "Configured shard nodes.", "", len(c.cfg.ShardURLs))
	w.value("shards", shards)
	w.gauge("coordinator_records", "Records covered by the last merged snapshot.", "records", records)
	w.gauge("coordinator_merge_ms", "Milliseconds the last partial merge took.", "merge_ms", ms)
	w.counter("coordinator_fanins_total", "Successful shard fan-ins.", "fanins", c.fanins.Load())
	w.counter("coordinator_fanin_errors_total", "Fan-ins failed by an unreachable or invalid shard.", "fanin_errors", c.faninErrs.Load())
	w.counter("coordinator_reprobes_total", "Second-chance shard re-probes after a failed fetch.", "reprobes", c.reprobes.Load())
	w.counter("coordinator_reports_total", "Merged reports rendered.", "reports", c.reports.Load())
	epochs, lags := make([]labelled, len(shards)), make([]labelled, len(shards))
	for i, s := range shards {
		epochs[i], lags[i] = labelled{s.URL, s.Epoch}, labelled{s.URL, s.LagRecords}
	}
	w.labelledFamily("coordinator_shard_epoch", "Replication epoch of the shard's elected primary at the last gather.", "gauge", "", "shard", false, epochs)
	w.labelledFamily("coordinator_shard_lag_records", "Worst standby lag (records) behind the shard's primary at the last gather.", "gauge", "", "shard", false, lags)
}
