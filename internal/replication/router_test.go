package replication

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"
)

// TestStripHopByHop covers the full RFC 9110 §7.6.1 set plus headers
// nominated by the Connection header.
func TestStripHopByHop(t *testing.T) {
	cases := []struct {
		name   string
		in     http.Header
		gone   []string
		stayed map[string]string
	}{
		{
			name: "fixed set",
			in: http.Header{
				"Connection":        {"close"},
				"Keep-Alive":        {"timeout=5"},
				"Proxy-Connection":  {"keep-alive"},
				"Te":                {"trailers"},
				"Trailer":           {"X-T"},
				"Transfer-Encoding": {"chunked"},
				"Upgrade":           {"websocket"},
				"Content-Type":      {"application/x-ndjson"},
				"X-Batch-Id":        {"b-1"},
			},
			gone: []string{"Connection", "Keep-Alive", "Proxy-Connection",
				"Te", "Trailer", "Transfer-Encoding", "Upgrade"},
			stayed: map[string]string{
				"Content-Type": "application/x-ndjson",
				"X-Batch-Id":   "b-1",
			},
		},
		{
			name: "connection-nominated tokens",
			in: http.Header{
				"Connection": {"x-hop, x-other", "x-more"},
				"X-Hop":      {"1"},
				"X-Other":    {"2"},
				"X-More":     {"3"},
				"X-Keep":     {"4"},
			},
			gone:   []string{"Connection", "X-Hop", "X-Other", "X-More"},
			stayed: map[string]string{"X-Keep": "4"},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			stripHopByHop(tc.in)
			for _, k := range tc.gone {
				if v, ok := tc.in[http.CanonicalHeaderKey(k)]; ok {
					t.Errorf("%s survived: %v", k, v)
				}
			}
			for k, want := range tc.stayed {
				if got := tc.in.Get(k); got != want {
					t.Errorf("%s = %q, want %q", k, got, want)
				}
			}
		})
	}
}

// TestRouterForwardStripsHopByHop drives both directions through a live
// router: hop-by-hop request headers (including one nominated by the
// Connection header) must not reach the backend, and the backend's
// hop-by-hop response headers must not reach the client. The client
// speaks raw HTTP/1.1 so Go's client machinery cannot sanitize the
// request before the router sees it.
func TestRouterForwardStripsHopByHop(t *testing.T) {
	var mu sync.Mutex
	var seen http.Header
	mux := http.NewServeMux()
	mux.HandleFunc(PathStatus, func(w http.ResponseWriter, _ *http.Request) {
		json.NewEncoder(w).Encode(NodeStatus{Role: "primary", Epoch: 1, NextIndex: 1})
	})
	mux.HandleFunc("/v1/records", func(w http.ResponseWriter, r *http.Request) {
		mu.Lock()
		seen = r.Header.Clone()
		mu.Unlock()
		h := w.Header()
		h.Set("X-Backend", "yes")
		h.Set("Connection", "x-resp-hop")
		h.Set("X-Resp-Hop", "1")
		h.Set("Keep-Alive", "timeout=5")
		h.Set("Proxy-Connection", "keep-alive")
		h.Set("Upgrade", "h2c")
		io.Copy(io.Discard, r.Body)
		w.Write([]byte("ok"))
	})
	backend := httptest.NewServer(mux)
	defer backend.Close()

	r, err := NewRouter(RouterConfig{Peers: []string{backend.URL}, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	r.sweep()
	if r.Primary() != backend.URL {
		t.Fatalf("primary = %q", r.Primary())
	}
	front := httptest.NewServer(r.Handler())
	defer front.Close()

	conn, err := net.Dial("tcp", strings.TrimPrefix(front.URL, "http://"))
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	conn.SetDeadline(time.Now().Add(10 * time.Second))
	fmt.Fprintf(conn, "POST /v1/records HTTP/1.1\r\n"+
		"Host: router\r\n"+
		"Content-Length: 3\r\n"+
		"Connection: x-hop\r\n"+
		"X-Hop: 1\r\n"+
		"Keep-Alive: timeout=5\r\n"+
		"Proxy-Connection: keep-alive\r\n"+
		"Te: trailers\r\n"+
		"Upgrade: h2c\r\n"+
		"X-End-To-End: yes\r\n"+
		"\r\nabc")
	resp, err := http.ReadResponse(bufio.NewReader(conn), nil)
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != 200 || string(body) != "ok" {
		t.Fatalf("forward = %d %q", resp.StatusCode, body)
	}

	mu.Lock()
	got := seen
	mu.Unlock()
	if got == nil {
		t.Fatal("backend never saw the request")
	}
	for _, k := range []string{"Connection", "X-Hop", "Keep-Alive", "Proxy-Connection", "Te", "Upgrade"} {
		if v, ok := got[http.CanonicalHeaderKey(k)]; ok {
			t.Errorf("hop-by-hop request header %s leaked to the backend: %v", k, v)
		}
	}
	if got.Get("X-End-To-End") != "yes" {
		t.Errorf("end-to-end request header lost; backend saw %v", got)
	}

	if resp.Header.Get("X-Backend") != "yes" {
		t.Errorf("end-to-end response header lost; client saw %v", resp.Header)
	}
	for _, k := range []string{"X-Resp-Hop", "Keep-Alive", "Proxy-Connection", "Upgrade"} {
		if v, ok := resp.Header[http.CanonicalHeaderKey(k)]; ok {
			t.Errorf("hop-by-hop response header %s leaked to the client: %v", k, v)
		}
	}
}

// mutableNode is a router probe target whose role/epoch can change
// mid-test — a node living through demotion and promotion. It echoes a
// /v1/records body's length under its epoch, so a test can tell which
// peer a forward reached. It closes when the test ends.
type mutableNode struct {
	*httptest.Server
	mu    sync.Mutex
	role  string
	epoch uint64
}

func newMutableNode(t *testing.T, role string, epoch uint64) *mutableNode {
	t.Helper()
	n := &mutableNode{role: role, epoch: epoch}
	mux := http.NewServeMux()
	mux.HandleFunc(PathStatus, func(w http.ResponseWriter, _ *http.Request) {
		n.mu.Lock()
		st := NodeStatus{Role: n.role, Epoch: n.epoch, NextIndex: 1}
		n.mu.Unlock()
		json.NewEncoder(w).Encode(st)
	})
	mux.HandleFunc("/v1/records", func(w http.ResponseWriter, r *http.Request) {
		body, _ := io.ReadAll(r.Body)
		n.mu.Lock()
		epoch := n.epoch
		n.mu.Unlock()
		w.Header().Set("X-Node-Epoch", strconv.FormatUint(epoch, 10))
		fmt.Fprintf(w, `{"echo":%d}`, len(body))
	})
	n.Server = httptest.NewServer(mux)
	t.Cleanup(n.Close)
	return n
}

func (n *mutableNode) set(role string, epoch uint64) {
	n.mu.Lock()
	n.role, n.epoch = role, epoch
	n.mu.Unlock()
}

// TestRouterDropsDemotedPrimary: a previous primary that answers probes
// but no longer claims the primary role (it rejoined post-failover as a
// standby) must lose the election even while no replacement is visible —
// otherwise every batch bounces off its write refusal instead of
// getting a retryable 503.
func TestRouterDropsDemotedPrimary(t *testing.T) {
	a := newMutableNode(t, "primary", 1)
	b := newMutableNode(t, "standby", 1)

	r, err := NewRouter(RouterConfig{Peers: []string{a.URL, b.URL}, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	r.sweep()
	if r.Primary() != a.URL {
		t.Fatalf("primary = %q, want %q", r.Primary(), a.URL)
	}

	// A demotes but stays healthy; nothing else is primary yet.
	a.set("standby", 1)
	r.sweep()
	if got := r.Primary(); got != "" {
		t.Fatalf("demoted peer still elected: %q", got)
	}

	// B promotes at a bumped epoch; the next sweep follows it.
	b.set("primary", 2)
	r.sweep()
	if r.Primary() != b.URL {
		t.Fatalf("primary = %q, want promoted %q", r.Primary(), b.URL)
	}
}

// TestNewRouterDoesNotMutateCallerPeers: URL normalization must work on
// a private copy, not write through the caller's slice.
func TestNewRouterDoesNotMutateCallerPeers(t *testing.T) {
	peers := []string{"http://a:1/", "http://b:2///"}
	want := append([]string(nil), peers...)
	if _, err := NewRouter(RouterConfig{Peers: peers, Logf: t.Logf}); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(peers, want) {
		t.Fatalf("caller slice mutated: %v, want %v", peers, want)
	}
}
