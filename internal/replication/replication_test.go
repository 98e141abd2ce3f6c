package replication

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"sync"
	"testing"
	"time"

	"repro/internal/store"
)

func TestWireRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	tw, err := NewTailWriter(&buf, 7)
	if err != nil {
		t.Fatal(err)
	}
	if err := tw.Unit(7, "batch-a", [][]byte{[]byte(`{"a":1}`), []byte(`{"a":2}`)}); err != nil {
		t.Fatal(err)
	}
	if err := tw.Unit(9, "", [][]byte{[]byte(`{"b":1}`)}); err != nil {
		t.Fatal(err)
	}
	if err := tw.End(10, 3); err != nil {
		t.Fatal(err)
	}

	tr, err := NewTailReader(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if tr.From != 7 {
		t.Fatalf("From = %d", tr.From)
	}
	u1, end, err := tr.Next()
	if err != nil || end != nil || u1.ID != "batch-a" || u1.Start != 7 || len(u1.Payloads) != 2 {
		t.Fatalf("unit 1 = %+v, %+v, %v", u1, end, err)
	}
	if string(u1.Payloads[1]) != `{"a":2}` {
		t.Fatalf("payload = %q", u1.Payloads[1])
	}
	u2, _, err := tr.Next()
	if err != nil || u2.ID != "" || u2.Start != 9 {
		t.Fatalf("unit 2 = %+v, %v", u2, err)
	}
	_, end, err = tr.Next()
	if err != nil || end == nil || end.LogEnd != 10 || end.Epoch != 3 {
		t.Fatalf("end = %+v, %v", end, err)
	}
	if _, _, err := tr.Next(); err != io.EOF {
		t.Fatalf("after end: %v", err)
	}
}

func TestWireTornAndCorrupt(t *testing.T) {
	var buf bytes.Buffer
	tw, _ := NewTailWriter(&buf, 0)
	tw.Unit(0, "b", [][]byte{[]byte(`{"x":1}`)})
	tw.End(1, 1)
	full := buf.Bytes()

	// Every truncation point before the end frame must surface as a torn
	// stream, never as silently-missing data.
	for cut := 13; cut < len(full)-1; cut += 3 {
		tr, err := NewTailReader(bytes.NewReader(full[:cut]))
		if err != nil {
			continue // header itself cut
		}
		sawEnd := false
		for {
			_, end, err := tr.Next()
			if err != nil {
				if !errors.Is(err, ErrTornStream) {
					t.Fatalf("cut %d: %v", cut, err)
				}
				break
			}
			if end != nil {
				sawEnd = true
				break
			}
		}
		if sawEnd {
			t.Fatalf("cut %d still produced an end frame", cut)
		}
	}

	// A flipped payload byte must fail the frame checksum.
	flipped := append([]byte(nil), full...)
	flipped[len(flipped)-20] ^= 0xff
	tr, err := NewTailReader(bytes.NewReader(flipped))
	if err == nil {
		for {
			_, _, err = tr.Next()
			if err != nil {
				break
			}
		}
	}
	if err == nil {
		t.Fatal("corrupt stream fully parsed")
	}
}

func TestTrackerWaits(t *testing.T) {
	tr := NewTracker(10)
	if got := tr.WaitNext(10, 20*time.Millisecond); got != 10 {
		t.Fatalf("timeout WaitNext = %d", got)
	}
	go func() {
		time.Sleep(10 * time.Millisecond)
		tr.Advance(15)
	}()
	if got := tr.WaitNext(10, 2*time.Second); got != 15 {
		t.Fatalf("WaitNext = %d", got)
	}

	// Semi-sync: no standbys → quorum unreachable.
	if tr.WaitApplied(15, 1, 20*time.Millisecond) {
		t.Fatal("quorum reached with no standbys")
	}
	go func() {
		time.Sleep(10 * time.Millisecond)
		tr.Observe("s1", 15)
	}()
	if !tr.WaitApplied(15, 1, 2*time.Second) {
		t.Fatal("quorum not reached after observe")
	}
	// Lag accounting.
	tr.Advance(20)
	infos, lag := tr.Snapshot()
	if len(infos) != 1 || infos[0].ID != "s1" || infos[0].Applied != 15 || lag != 5 {
		t.Fatalf("snapshot = %+v lag %d", infos, lag)
	}
}

// fakeApplier is an in-memory Applier recording everything.
type fakeApplier struct {
	mu       sync.Mutex
	applied  uint64
	units    []string
	resets   []uint64
	promoted bool
	epoch    uint64
}

func (a *fakeApplier) AppliedIndex() uint64 {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.applied
}

func (a *fakeApplier) ApplyBatch(u *Unit) error {
	a.mu.Lock()
	defer a.mu.Unlock()
	end := u.Start + uint64(len(u.Payloads))
	if end <= a.applied {
		return nil
	}
	if u.Start > a.applied {
		return fmt.Errorf("gap: applied %d, unit starts %d", a.applied, u.Start)
	}
	a.units = append(a.units, fmt.Sprintf("%s@%d+%d", u.ID, u.Start, len(u.Payloads)))
	a.applied = end
	return nil
}

func (a *fakeApplier) ResetTo(cp *store.Checkpoint) error {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.resets = append(a.resets, cp.Records)
	a.applied = cp.Records
	return nil
}

func (a *fakeApplier) Promote(epoch uint64, reason string) bool {
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.promoted {
		return false
	}
	a.promoted, a.epoch = true, epoch
	return true
}

// fakePrimary serves a scripted WAL over the replication protocol.
type fakePrimary struct {
	mu     sync.Mutex
	units  []Unit // ascending, gapless
	next   uint64
	epoch  uint64
	floor  uint64 // indexes below this are pruned (410)
	cp     *store.Checkpoint
	polls  int
	closed bool
}

func (p *fakePrimary) handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc(PathWAL, func(w http.ResponseWriter, r *http.Request) {
		from, _ := strconv.ParseUint(r.URL.Query().Get("from"), 10, 64)
		p.mu.Lock()
		defer p.mu.Unlock()
		p.polls++
		if from < p.floor {
			w.WriteHeader(http.StatusGone)
			return
		}
		if from > p.next {
			w.WriteHeader(http.StatusConflict)
			return
		}
		tw, err := NewTailWriter(w, from)
		if err != nil {
			return
		}
		for i := range p.units {
			u := &p.units[i]
			if u.Start+uint64(len(u.Payloads)) <= from {
				continue
			}
			tw.Unit(u.Start, u.ID, u.Payloads)
		}
		tw.End(p.next, p.epoch)
	})
	mux.HandleFunc(PathCheckpoint, func(w http.ResponseWriter, r *http.Request) {
		p.mu.Lock()
		defer p.mu.Unlock()
		w.Write(store.EncodeCheckpoint(p.cp))
	})
	return mux
}

func (p *fakePrimary) add(id string, n int) {
	p.mu.Lock()
	defer p.mu.Unlock()
	payloads := make([][]byte, n)
	for i := range payloads {
		payloads[i] = []byte(fmt.Sprintf(`{"i":%d}`, p.next+uint64(i)))
	}
	p.units = append(p.units, Unit{Start: p.next, ID: id, Payloads: payloads})
	p.next += uint64(n)
}

func TestStandbySyncAndResync(t *testing.T) {
	p := &fakePrimary{epoch: 1}
	p.add("b1", 3)
	p.add("", 1)
	srv := httptest.NewServer(p.handler())
	defer srv.Close()

	app := &fakeApplier{}
	st, err := NewStandby(StandbyConfig{
		PrimaryURL: srv.URL, ID: "s1",
		PollWait: 50 * time.Millisecond, RetryInterval: 10 * time.Millisecond,
		Logf: t.Logf,
	}, app)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	done := make(chan struct{})
	go func() { st.Run(ctx); close(done) }()

	waitFor := func(what string, cond func() bool) {
		t.Helper()
		deadline := time.Now().Add(5 * time.Second)
		for !cond() {
			if time.Now().After(deadline) {
				t.Fatalf("timeout waiting for %s", what)
			}
			time.Sleep(5 * time.Millisecond)
		}
	}
	waitFor("initial units", func() bool { return app.AppliedIndex() == 4 })

	// Incremental growth arrives without resync.
	p.add("b2", 2)
	waitFor("incremental unit", func() bool { return app.AppliedIndex() == 6 })
	app.mu.Lock()
	units := append([]string(nil), app.units...)
	app.mu.Unlock()
	if len(units) != 3 || units[0] != "b1@0+3" || units[2] != "b2@4+2" {
		t.Fatalf("units = %v", units)
	}

	// Prune past the standby's offset: next poll 410s, the standby
	// fetches the checkpoint and continues from it.
	p.mu.Lock()
	p.cp = &store.Checkpoint{Records: 20, Sections: map[string][]byte{"s": []byte("x")}}
	p.floor, p.next = 20, 20
	p.units = nil
	p.mu.Unlock()
	p.add("b3", 2)
	waitFor("resync", func() bool { return app.AppliedIndex() == 22 })
	app.mu.Lock()
	resets := append([]uint64(nil), app.resets...)
	app.mu.Unlock()
	if len(resets) != 1 || resets[0] != 20 {
		t.Fatalf("resets = %v", resets)
	}
	if st.Status().Resyncs != 1 {
		t.Fatalf("status = %+v", st.Status())
	}

	// Manual promotion ends the loop and bumps the epoch past the
	// primary's.
	if !st.Promote("operator") {
		t.Fatal("promote refused")
	}
	if st.Promote("again") {
		t.Fatal("second promote won")
	}
	<-done
	if !app.promoted || app.epoch != 2 {
		t.Fatalf("applier promoted=%v epoch=%d", app.promoted, app.epoch)
	}
}

func TestStandbyAutoFailover(t *testing.T) {
	p := &fakePrimary{epoch: 4}
	p.add("b1", 2)
	srv := httptest.NewServer(p.handler())

	app := &fakeApplier{}
	st, err := NewStandby(StandbyConfig{
		PrimaryURL: srv.URL, ID: "s1",
		PollWait: 20 * time.Millisecond, RetryInterval: 10 * time.Millisecond,
		FailoverTimeout: 150 * time.Millisecond,
		Logf:            t.Logf,
	}, app)
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() { st.Run(context.Background()); close(done) }()
	deadline := time.Now().Add(5 * time.Second)
	for app.AppliedIndex() != 2 {
		if time.Now().After(deadline) {
			t.Fatal("standby never caught up")
		}
		time.Sleep(5 * time.Millisecond)
	}
	// Kill the primary; silence must promote within the timeout.
	srv.Close()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("auto-failover never fired")
	}
	if !app.promoted || app.epoch != 5 {
		t.Fatalf("promoted=%v epoch=%d (want epoch primary+1)", app.promoted, app.epoch)
	}
	// No acked data lost: everything the primary streamed is applied.
	if app.AppliedIndex() != 2 {
		t.Fatalf("applied = %d", app.AppliedIndex())
	}
}

func TestRouterElectionAndForward(t *testing.T) {
	primary := newMutableNode(t, "primary", 1)
	standby := newMutableNode(t, "standby", 1)

	r, err := NewRouter(RouterConfig{
		Peers:         []string{standby.URL, primary.URL},
		ProbeInterval: 20 * time.Millisecond,
		Logf:          t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go r.Run(ctx)
	deadline := time.Now().Add(5 * time.Second)
	for r.Primary() != primary.URL {
		if time.Now().After(deadline) {
			t.Fatalf("router never found the primary (got %q)", r.Primary())
		}
		time.Sleep(5 * time.Millisecond)
	}

	// Forwarding carries the body through and returns the node's reply.
	front := httptest.NewServer(r.Handler())
	defer front.Close()
	resp, err := http.Post(front.URL+"/v1/records", "application/x-ndjson", bytes.NewReader(make([]byte, 42)))
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != 200 || string(body) != `{"echo":42}` {
		t.Fatalf("forward = %d %q", resp.StatusCode, body)
	}

	// Kill the primary: forwards turn into retryable errors, and once a
	// higher-epoch primary appears the router switches to it.
	primary.Close()
	deadline = time.Now().Add(5 * time.Second)
	for {
		resp, err := http.Post(front.URL+"/v1/records", "text/plain", bytes.NewReader(nil))
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode == http.StatusBadGateway || resp.StatusCode == http.StatusServiceUnavailable {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("dead primary still forwarding")
		}
		time.Sleep(5 * time.Millisecond)
	}

	promoted := newMutableNode(t, "primary", 2)
	r2, err := NewRouter(RouterConfig{
		Peers:         []string{standby.URL, promoted.URL},
		ProbeInterval: 20 * time.Millisecond,
		Logf:          t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	go r2.Run(ctx)
	deadline = time.Now().Add(5 * time.Second)
	for r2.Primary() != promoted.URL {
		if time.Now().After(deadline) {
			t.Fatal("router never adopted the promoted standby")
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestRouterPrefersHighestEpoch: a zombie old primary next to the
// promoted standby must lose the election.
func TestRouterPrefersHighestEpoch(t *testing.T) {
	zombie := newMutableNode(t, "primary", 1)
	promoted := newMutableNode(t, "primary", 2)

	r, err := NewRouter(RouterConfig{
		Peers: []string{zombie.URL, promoted.URL},
		Logf:  t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	r.sweep()
	if r.Primary() != promoted.URL {
		t.Fatalf("router picked %q, want the epoch-2 node", r.Primary())
	}
	// Same answer regardless of peer order.
	r2, _ := NewRouter(RouterConfig{Peers: []string{promoted.URL, zombie.URL}, Logf: t.Logf})
	r2.sweep()
	if r2.Primary() != promoted.URL {
		t.Fatalf("order-flipped router picked %q", r2.Primary())
	}
}
