package bounced

import (
	"bytes"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"repro/internal/dataset"
	"repro/internal/store"
)

// parkedSyncEngine lets its first Sync do its work and then holds the
// return until release closes: the window between an fsync letting go
// of the engine and its caller getting to look at anything.
type parkedSyncEngine struct {
	store.Engine
	once             sync.Once
	entered, release chan struct{}
}

func (e *parkedSyncEngine) Sync() error {
	err := e.Engine.Sync()
	e.once.Do(func() {
		close(e.entered)
		<-e.release
	})
	return err
}

func syncTestRecords(lo, hi int) []dataset.Record {
	at := time.Date(2022, 6, 14, 8, 0, 0, 0, time.UTC)
	recs := make([]dataset.Record, 0, hi-lo)
	for i := lo; i < hi; i++ {
		recs = append(recs, dataset.Record{
			From: fmt.Sprintf("u%d@a.example", i), To: fmt.Sprintf("v%d@b.example", i),
			StartTime: at, EndTime: at.Add(time.Second),
			FromIP: []string{"5.0.0.1"}, ToIP: []string{"20.0.0.9"},
			DeliveryResult: []string{"250 2.0.0 OK"}, DeliveryLatency: []int64{120},
			EmailFlag: "Normal",
		})
	}
	return recs
}

// TestCommitSyncAdvancesTrackerToOwnEnd: the tracker's log end is a
// promise to standbys that an fsync has covered everything below it. A
// second producer's commit that appends while the first request's
// fsync is on its way back has had no fsync yet, so the first request
// may announce only the end it committed itself — not wherever the log
// had got to by the time it looked.
func TestCommitSyncAdvancesTrackerToOwnEnd(t *testing.T) {
	eng := &parkedSyncEngine{Engine: store.NewMem(), entered: make(chan struct{}), release: make(chan struct{})}
	srv, err := New(Config{Store: eng})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Abort()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	const first, second = 5, 3
	var body bytes.Buffer
	w := dataset.NewWriter(&body)
	for _, r := range syncTestRecords(0, first) {
		w.Write(&r)
	}
	w.Flush()
	replied := make(chan error, 1)
	go func() {
		req, _ := http.NewRequest(http.MethodPost, ts.URL+"/v1/records", &body)
		req.Header.Set(headerBatchID, "first")
		resp, err := http.DefaultClient.Do(req)
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				err = fmt.Errorf("status %s", resp.Status)
			}
		}
		replied <- err
	}()
	<-eng.entered // the first batch is appended and synced; its handler has not returned from Sync

	if n, err := srv.IngestBatch(syncTestRecords(first, first+second)); err != nil || n != second {
		t.Fatalf("second producer: %d, %v", n, err)
	}
	if got := srv.walIndex.Load(); got != first+second {
		t.Fatalf("log end %d after both appends, want %d", got, first+second)
	}
	close(eng.release)
	if err := <-replied; err != nil {
		t.Fatal(err)
	}
	if got := srv.j.tracker.WaitNext(0, 0); got != first {
		t.Fatalf("tracker announces log end %d after the first request's sync; that request committed through %d and nothing has synced the rest", got, first)
	}
}
