package replication

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Router is the thin ingest front door for a replica set: it probes
// every peer's /v1/repl/status, remembers which one is primary, and
// forwards client requests there verbatim. Clients keep talking to one
// address across a failover; during the promotion window they see
// retryable 502/503s, which the idempotent X-Batch-Id protocol turns
// into exactly-once delivery.
//
// Split-brain is settled by epoch: promotion bumps the epoch (persisted
// in the promoted node's checkpoint), so when a zombie old primary
// reappears next to the promoted standby, the router prefers the
// highest epoch and the zombie never receives another batch.
type Router struct {
	cfg    RouterConfig
	logf   func(string, ...any)
	fwd    *http.Client // forwarding: no global timeout (reports can stream)
	probeC *http.Client

	mu           sync.Mutex
	primary      string
	primaryEpoch uint64
	peerStatus   map[string]*PeerStatus
	nudge        chan struct{}

	forwards    atomic.Uint64
	forwardErrs atomic.Uint64
	noPrimary   atomic.Uint64
	failovers   atomic.Uint64
	probes      atomic.Uint64
}

// probeTimeout bounds one status probe.
const probeTimeout = 500 * time.Millisecond

// RouterConfig configures a Router.
type RouterConfig struct {
	// Peers are the replica set's base URLs.
	Peers []string
	// ProbeInterval paces the health sweep (default 250ms).
	ProbeInterval time.Duration
	// Logf receives probe/failover events; default log.Printf.
	Logf func(format string, args ...any)
}

// PeerStatus is one probed peer in /v1/router/status.
type PeerStatus struct {
	URL       string  `json:"url"`
	Role      string  `json:"role,omitempty"`
	Epoch     uint64  `json:"epoch,omitempty"`
	NextIndex uint64  `json:"next_index,omitempty"`
	Error     string  `json:"error,omitempty"`
	AgoSecs   float64 `json:"probed_ago_seconds"`
	probedAt  time.Time
}

// RouterStatus is the /v1/router/status body.
type RouterStatus struct {
	Primary      string        `json:"primary"`
	PrimaryEpoch uint64        `json:"primary_epoch"`
	Peers        []*PeerStatus `json:"peers"`
	Forwards     uint64        `json:"forwards"`
	ForwardErrs  uint64        `json:"forward_errors"`
	NoPrimary    uint64        `json:"no_primary_rejects"`
	Failovers    uint64        `json:"failovers"`
	Probes       uint64        `json:"probe_sweeps"`
}

// NewRouter builds a router over the peer set; call Run to start the
// probe loop.
func NewRouter(cfg RouterConfig) (*Router, error) {
	if len(cfg.Peers) == 0 {
		return nil, errors.New("replication: router needs peers")
	}
	// Normalize into a private copy: the caller's slice stays untouched.
	peers := make([]string, len(cfg.Peers))
	for i, p := range cfg.Peers {
		peers[i] = strings.TrimRight(p, "/")
	}
	cfg.Peers = peers
	if cfg.ProbeInterval <= 0 {
		cfg.ProbeInterval = 250 * time.Millisecond
	}
	r := &Router{
		cfg:        cfg,
		logf:       cfg.Logf,
		fwd:        &http.Client{},
		probeC:     &http.Client{Timeout: probeTimeout},
		peerStatus: map[string]*PeerStatus{},
		nudge:      make(chan struct{}, 1),
	}
	if r.logf == nil {
		r.logf = log.Printf
	}
	return r, nil
}

// Run sweeps the peer set until ctx ends. The first sweep completes
// before Run starts waiting, so a freshly-started router routes as soon
// as any peer answers.
func (r *Router) Run(ctx interface{ Done() <-chan struct{} }) {
	r.sweep()
	tick := time.NewTicker(r.cfg.ProbeInterval)
	defer tick.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-tick.C:
		case <-r.nudge:
		}
		r.sweep()
	}
}

// kick requests an immediate sweep (a forward just failed).
func (r *Router) kick() {
	select {
	case r.nudge <- struct{}{}:
	default:
	}
}

// sweep probes every peer concurrently and re-elects the forward
// target: the primary-role peer with the highest epoch.
func (r *Router) sweep() {
	r.probes.Add(1)
	type probe struct {
		url string
		st  NodeStatus
		err error
	}
	results := make([]probe, len(r.cfg.Peers))
	var wg sync.WaitGroup
	for i, peer := range r.cfg.Peers {
		wg.Add(1)
		go func(i int, peer string) {
			defer wg.Done()
			results[i] = probe{url: peer}
			resp, err := r.probeC.Get(peer + PathStatus)
			if err != nil {
				results[i].err = err
				return
			}
			defer resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				results[i].err = fmt.Errorf("status %s", resp.Status)
				return
			}
			results[i].err = json.NewDecoder(resp.Body).Decode(&results[i].st)
		}(i, peer)
	}
	wg.Wait()

	now := time.Now()
	best, bestEpoch := "", uint64(0)
	r.mu.Lock()
	for _, p := range results {
		ps := &PeerStatus{URL: p.url, probedAt: now}
		if p.err != nil {
			ps.Error = p.err.Error()
		} else {
			ps.Role, ps.Epoch, ps.NextIndex = p.st.Role, p.st.Epoch, p.st.NextIndex
			if p.st.Role == "primary" && p.st.Epoch >= bestEpoch {
				// Highest epoch wins; ties keep peer-list order stable
				// because >= only replaces on a strictly later peer when
				// its epoch is at least as new. A zombie pre-failover
				// primary always has a lower epoch and loses.
				if p.st.Epoch > bestEpoch || best == "" {
					best, bestEpoch = p.url, p.st.Epoch
				}
			}
		}
		r.peerStatus[p.url] = ps
	}
	prev := r.primary
	if best != "" {
		r.primary, r.primaryEpoch = best, bestEpoch
	} else if prev != "" {
		if ps := r.peerStatus[prev]; ps == nil || ps.Error != "" || ps.Role != "primary" {
			// The previous primary is gone — or answered the probe but no
			// longer claims the primary role (demoted after rejoining
			// post-failover) — and nothing has been elected yet: drop it
			// so forwards fail fast as 503s instead of hanging on a dead
			// socket or bouncing off a standby's write refusal.
			r.primary = ""
		}
	}
	if r.primary != prev {
		if prev != "" && r.primary != "" {
			r.failovers.Add(1)
		}
		r.logf("router: primary %q -> %q (epoch %d)", prev, r.primary, r.primaryEpoch)
	}
	r.mu.Unlock()
}

// Primary returns the current forward target ("" when none).
func (r *Router) Primary() string {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.primary
}

// Handler serves the router's own status plus the forwarding fallback.
func (r *Router) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, _ *http.Request) {
		w.Write([]byte("ok\n"))
	})
	mux.HandleFunc(PathRouterStatus, r.handleStatus)
	mux.HandleFunc("/", r.forward)
	return mux
}

func (r *Router) handleStatus(w http.ResponseWriter, _ *http.Request) {
	now := time.Now()
	r.mu.Lock()
	st := RouterStatus{
		Primary:      r.primary,
		PrimaryEpoch: r.primaryEpoch,
		Forwards:     r.forwards.Load(),
		ForwardErrs:  r.forwardErrs.Load(),
		NoPrimary:    r.noPrimary.Load(),
		Failovers:    r.failovers.Load(),
		Probes:       r.probes.Load(),
	}
	for _, peer := range r.cfg.Peers {
		if ps := r.peerStatus[peer]; ps != nil {
			cp := *ps
			cp.AgoSecs = now.Sub(ps.probedAt).Seconds()
			st.Peers = append(st.Peers, &cp)
		}
	}
	r.mu.Unlock()
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(st)
}

// forward proxies one request to the current primary, streaming the
// body through. One attempt only: a failure comes back as a retryable
// 502/503 and the idempotent client protocol carries the retry — the
// router never buffers-and-replays a batch itself, so it can never
// double-send one.
func (r *Router) forward(w http.ResponseWriter, req *http.Request) {
	primary := r.Primary()
	if primary == "" {
		r.noPrimary.Add(1)
		r.kick()
		w.Header().Set("Retry-After", "1")
		httpJSONError(w, http.StatusServiceUnavailable, "no primary in the replica set")
		return
	}
	out, err := http.NewRequestWithContext(req.Context(), req.Method, primary+req.URL.RequestURI(), req.Body)
	if err != nil {
		httpJSONError(w, http.StatusBadGateway, err.Error())
		return
	}
	out.Header = req.Header.Clone()
	stripHopByHop(out.Header)
	out.ContentLength = req.ContentLength
	resp, err := r.fwd.Do(out)
	if err != nil {
		r.forwardErrs.Add(1)
		r.kick()
		w.Header().Set("Retry-After", "1")
		httpJSONError(w, http.StatusBadGateway, fmt.Sprintf("forwarding to %s: %v", primary, err))
		return
	}
	defer resp.Body.Close()
	r.forwards.Add(1)
	stripHopByHop(resp.Header)
	hdr := w.Header()
	for k, vs := range resp.Header {
		hdr[k] = vs
	}
	w.WriteHeader(resp.StatusCode)
	io.Copy(w, resp.Body)
}

// hopByHopHeaders are the connection-scoped headers RFC 9110 §7.6.1
// forbids an intermediary from forwarding.
var hopByHopHeaders = []string{
	"Connection",
	"Keep-Alive",
	"Proxy-Connection",
	"Te",
	"Trailer",
	"Transfer-Encoding",
	"Upgrade",
}

// stripHopByHop removes the hop-by-hop header set plus every header the
// Connection header names: those belong to the connection the message
// arrived on and must not be relayed to the next hop. Used on both the
// outbound request and the relayed response.
func stripHopByHop(h http.Header) {
	for _, v := range h.Values("Connection") {
		for _, tok := range strings.Split(v, ",") {
			if tok = strings.TrimSpace(tok); tok != "" {
				h.Del(tok)
			}
		}
	}
	for _, k := range hopByHopHeaders {
		h.Del(k)
	}
}

func httpJSONError(w http.ResponseWriter, status int, msg string) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(map[string]string{"error": msg})
}
