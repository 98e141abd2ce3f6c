package bounced_test

import (
	"bytes"
	"cmp"
	"compress/gzip"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"testing"
	"time"

	"repro/internal/analysis"
	"repro/internal/bounced"
	"repro/internal/dataset"
	"repro/internal/replication"
	"repro/internal/store"
)

// engine is what a row's nodes journal to.
type engine int

const (
	noEngine  engine = iota // memory-only nodes: no journal
	memEngine               // store.NewMem
	fsEngine                // store.Open on a t.TempDir()
)

// row names an in-process topology the way scripts/drill names its
// scenarios, and builds nothing it does not name.
type row struct {
	// shards is 0 for one set; n > 0 is n sets, shard i of n each,
	// behind a coordinator.
	shards int
	// standby gives each set a standby its primary semi-sync replicates
	// to, over a real sync loop.
	standby bool
	// router fronts each set with a router that elects its primary.
	router bool
	store  engine
	// segmentBytes is the FS engine's segment size (0: the default).
	segmentBytes int64
	// failover promotes a standby after this much primary silence
	// (0: only promote does).
	failover time.Duration
	// cfg is every node's Config. The builder sets the shard
	// coordinates, Standby and Store; a standby row also sets the
	// primary's ReplAck and a deeper queue.
	cfg bounced.Config
}

// node is one bounced.Server serving on a loopback listener.
type node struct {
	t       *testing.T
	cfg     bounced.Config
	srv     *bounced.Server
	ts      *httptest.Server
	url     string
	eng     store.Engine
	dir     string // the FS engine's directory
	seg     int64  // the FS engine's segment size
	stopped bool   // drained or killed: teardown leaves it alone
}

// set is one shard's replica set. Its ingest URL is the router's when
// there is one, else the primary's.
type set struct {
	primary, standby *node
	sync             *replication.Standby
	router           *replication.Router
	url              string
}

// cluster is a booted row. Teardown is the test's: t.Cleanup stops
// everything in reverse start order and waits for every sync loop and
// router goroutine.
type cluster struct {
	t     *testing.T
	row   row
	sets  []*set
	coord string // the coordinator's URL when shards > 0
}

// boot builds r and returns it running.
func boot(t *testing.T, r row) *cluster {
	t.Helper()
	c := &cluster{t: t, row: r}
	for i := range max(r.shards, 1) {
		cfg := r.cfg
		if r.shards > 0 {
			cfg.ShardIndex, cfg.ShardCount = i, r.shards
		}
		if r.standby {
			cfg.ReplAck = 1
			cfg.ReplAckTimeout = cmp.Or(cfg.ReplAckTimeout, 10*time.Second)
			cfg.QueueDepth = cmp.Or(cfg.QueueDepth, 8192)
		}
		s := &set{primary: c.start(cfg)}
		s.url = s.primary.url
		if r.standby {
			c.attach(s, fmt.Sprintf("shard%d-standby", i))
		}
		if r.router {
			peers := []string{s.primary.url}
			if s.standby != nil {
				peers = append(peers, s.standby.url)
			}
			rt, err := replication.NewRouter(replication.RouterConfig{
				Peers: peers, ProbeInterval: 20 * time.Millisecond, Logf: func(string, ...any) {},
			})
			if err != nil {
				t.Fatal(err)
			}
			s.router = rt
			c.run(func(ctx context.Context) { rt.Run(ctx) })
			s.url = serve(t, rt.Handler())
			waitFor(t, 5*time.Second, fmt.Sprintf("shard %d router election", i), func() bool {
				return rt.Primary() == s.primary.url
			})
		}
		c.sets = append(c.sets, s)
	}
	if r.shards > 0 {
		urls := make([]string, len(c.sets))
		for i, s := range c.sets {
			urls[i] = s.url
		}
		c.coord = coordinator(t, r.cfg.Env, urls...)
	}
	return c
}

// single boots a one-node row and returns the node.
func single(t *testing.T, r row) *node {
	t.Helper()
	return boot(t, r).sets[0].primary
}

// start boots one node on the row's engine.
func (c *cluster) start(cfg bounced.Config) *node {
	c.t.Helper()
	n := &node{t: c.t, cfg: cfg}
	switch c.row.store {
	case memEngine:
		n.eng = store.NewMem()
	case fsEngine:
		n.dir, n.seg = c.t.TempDir(), c.row.segmentBytes
		n.eng = n.openFS()
	}
	n.boot()
	c.t.Cleanup(func() {
		if !n.stopped {
			n.ts.Close()
			n.srv.Abort()
		}
	})
	return n
}

func (n *node) openFS() *store.FS {
	eng, err := store.Open(store.FSOptions{Dir: n.dir, SegmentBytes: n.seg, Logf: n.t.Logf})
	if err != nil {
		n.t.Fatal(err)
	}
	return eng
}

func (n *node) boot() {
	n.t.Helper()
	cfg := n.cfg
	if n.eng != nil {
		cfg.Store = n.eng
	}
	srv, err := bounced.New(cfg)
	if err != nil {
		n.t.Fatal(err)
	}
	n.srv, n.ts, n.stopped = srv, httptest.NewServer(srv.Handler()), false
	n.url = n.ts.URL
}

// attach starts a standby for s and the sync loop that feeds it from
// s's primary.
func (c *cluster) attach(s *set, id string) {
	c.t.Helper()
	cfg := c.row.cfg
	cfg.ShardIndex, cfg.ShardCount = s.primary.cfg.ShardIndex, s.primary.cfg.ShardCount
	cfg.Standby, cfg.ReplAck, cfg.ReplAckTimeout = true, 0, 0
	cfg.QueueDepth = cmp.Or(cfg.QueueDepth, 8192)
	if c.row.store == noEngine {
		c.t.Fatal("a standby needs a store")
	}
	s.standby = c.start(cfg)
	sl, err := replication.NewStandby(replication.StandbyConfig{
		PrimaryURL: s.primary.url, ID: id, PollWait: 100 * time.Millisecond,
		RetryInterval: 20 * time.Millisecond, FailoverTimeout: c.row.failover,
		Logf: func(string, ...any) {},
	}, s.standby.srv)
	if err != nil {
		c.t.Fatal(err)
	}
	s.sync = sl
	s.standby.srv.SetSync(sl)
	c.run(func(ctx context.Context) { sl.Run(ctx) })
}

// run starts a loop that teardown cancels and waits for.
func (c *cluster) run(loop func(context.Context)) {
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() {
		defer close(done)
		loop(ctx)
	}()
	c.t.Cleanup(func() {
		cancel()
		<-done
	})
}

// kill is the in-process SIGKILL: the listener and every connection on
// it close, then the node aborts with its queue tail unfolded.
func (n *node) kill() {
	n.ts.CloseClientConnections()
	n.ts.Close()
	n.srv.Abort()
	n.stopped = true
}

// drain closes the listener and drains the node, the graceful stop; it
// returns what the node consumed.
func (n *node) drain() uint64 {
	n.ts.Close()
	n.stopped = true
	return n.srv.Drain()
}

// restart boots a stopped node again on the same directory, at a new
// URL.
func (n *node) restart() {
	n.t.Helper()
	if !n.stopped || n.dir == "" {
		n.t.Fatal("restart needs a stopped node on an FS engine")
	}
	n.eng = n.openFS()
	n.boot()
}

// promote sends POST /v1/promote to s's standby and, when a router
// fronts s, waits for it to elect the standby.
func (s *set) promote(t *testing.T) {
	t.Helper()
	if resp := do(t, http.MethodPost, s.standby.url+replication.PathPromote); resp.StatusCode != http.StatusOK {
		t.Fatalf("promote: status %d", resp.StatusCode)
	}
	if s.router != nil {
		waitFor(t, 5*time.Second, "router re-election", func() bool { return s.router.Primary() == s.standby.url })
	}
}

// coordinator starts a coordinator over urls and returns its URL.
func coordinator(t *testing.T, env *analysis.Environment, urls ...string) string {
	t.Helper()
	coord, err := bounced.NewCoordinator(bounced.CoordinatorConfig{ShardURLs: urls, Env: env})
	if err != nil {
		t.Fatal(err)
	}
	return serve(t, coord.Handler())
}

// serve puts h on a loopback listener until the test ends.
func serve(t *testing.T, h http.Handler) string {
	ts := httptest.NewServer(h)
	t.Cleanup(ts.Close)
	return ts.URL
}

// split divides records among n shards by substream owner, in corpus
// order.
func split(records []dataset.Record, n int) [][]dataset.Record {
	parts := make([][]dataset.Record, n)
	for i := range records {
		own := analysis.OwnerOf(&records[i], n)
		parts[own] = append(parts[own], records[i])
	}
	return parts
}

// batch is one POST /v1/records. Its body is recs as NDJSON, else raw,
// else stream.
type batch struct {
	id       string // X-Batch-Id; empty streams the body
	declared int    // X-Batch-Records, when positive
	gzip     bool   // compress the body and declare Content-Encoding
	recs     []dataset.Record
	raw      []byte
	stream   io.Reader
	client   *http.Client // nil: http.DefaultClient
}

type ingestReply struct {
	Accepted     int     `json:"accepted"`
	Line         int     `json:"line"`
	Error        string  `json:"error"`
	Deduped      bool    `json:"deduped"`
	RetryAfterMs float64 `json:"retry_after_ms"`
	status       int
	header       http.Header
}

// send posts b to url's /v1/records and decodes the reply.
func send(t *testing.T, url string, b batch) ingestReply {
	t.Helper()
	ir, err := try(url, b)
	if err != nil {
		t.Fatal(err)
	}
	return ir
}

// try is send for goroutines other than the test's own.
func try(url string, b batch) (ir ingestReply, err error) {
	body := b.stream
	if b.recs != nil || b.stream == nil {
		raw := b.raw
		if b.recs != nil {
			if raw, err = encode(b.recs); err != nil {
				return ir, err
			}
		}
		if b.gzip {
			raw = gzipped(raw)
		}
		body = bytes.NewReader(raw)
	}
	req, err := http.NewRequest(http.MethodPost, url+"/v1/records", body)
	if err != nil {
		return ir, err
	}
	if b.id != "" {
		req.Header.Set("X-Batch-Id", b.id)
	}
	if b.declared > 0 {
		req.Header.Set("X-Batch-Records", strconv.Itoa(b.declared))
	}
	if b.gzip {
		req.Header.Set("Content-Encoding", "gzip")
	}
	client := b.client
	if client == nil {
		client = http.DefaultClient
	}
	resp, err := client.Do(req)
	if err != nil {
		return ir, err
	}
	defer resp.Body.Close()
	ir.status, ir.header = resp.StatusCode, resp.Header
	return ir, json.NewDecoder(resp.Body).Decode(&ir)
}

// get fetches url, fails the test unless it answers want, and returns
// the body, decoded as JSON into v when v is not nil.
func get(t *testing.T, url string, want int, v any) []byte {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != want {
		t.Fatalf("GET %s: status %d, want %d: %.300s", url, resp.StatusCode, want, b)
	}
	if v != nil {
		if err := json.Unmarshal(b, v); err != nil {
			t.Fatalf("GET %s: %v: %.300s", url, err, b)
		}
	}
	return b
}

// do sends an empty method request to url and returns the response,
// its body closed.
func do(t *testing.T, method, url string) *http.Response {
	t.Helper()
	req, err := http.NewRequest(method, url, nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	return resp
}

const reportAll = "/v1/report?section=all"

func encode(records []dataset.Record) ([]byte, error) {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	for i := range records {
		if err := enc.Encode(&records[i]); err != nil {
			return nil, err
		}
	}
	return buf.Bytes(), nil
}

func encodeNDJSON(t *testing.T, records []dataset.Record) []byte {
	t.Helper()
	b, err := encode(records)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func gzipped(b []byte) []byte {
	var buf bytes.Buffer
	zw := gzip.NewWriter(&buf)
	zw.Write(b)
	zw.Close()
	return buf.Bytes()
}

func waitFor(t *testing.T, d time.Duration, what string, ok func() bool) {
	t.Helper()
	deadline := time.Now().Add(d)
	for time.Now().Before(deadline) {
		if ok() {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

func waitConsumed(t *testing.T, srv *bounced.Server, n int) {
	t.Helper()
	waitFor(t, 10*time.Second, fmt.Sprintf("consumption of %d records", n), func() bool {
		return srv.Consumed() == uint64(n)
	})
}
