package cluster

import (
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"hputune/internal/server"
	"hputune/internal/store"
)

// fakeFetch scripts the replication reads so follower edge cases run
// without a network or a live primary.
type fakeFetch struct {
	mu      sync.Mutex
	stateFn func() (*store.State, error)
	walFn   func(from uint64) ([]byte, error)
}

func (f *fakeFetch) State(ctx context.Context) (*store.State, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.stateFn()
}

func (f *fakeFetch) WAL(ctx context.Context, from uint64) ([]byte, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.walFn(from)
}

func shipFrames(t *testing.T, recs ...store.Record) []byte {
	t.Helper()
	raw, err := store.EncodeFrames(recs)
	if err != nil {
		t.Fatal(err)
	}
	return raw
}

func archiveRec(seq uint64, id string) store.Record {
	return store.Record{Seq: seq, Type: store.TypeArchive, Data: json.RawMessage(`{"id":"` + id + `"}`)}
}

func TestFollowerResyncsOnCompaction(t *testing.T) {
	t.Parallel()
	// Seed at seq 5; the first tail fetch finds the primary compacted
	// past the cursor, the re-seeded snapshot sits at seq 8, and the
	// retried fetch ships 9 and 10.
	seedSeq := uint64(5)
	fetch := &fakeFetch{}
	fetch.stateFn = func() (*store.State, error) {
		st := store.NewState()
		st.LastSeq = seedSeq
		return st, nil
	}
	fetch.walFn = func(from uint64) ([]byte, error) {
		if from == 5 {
			seedSeq = 8 // the next State call serves the newer snapshot
			return nil, store.ErrCompacted
		}
		if from != 8 {
			t.Errorf("retry fetched from %d, want 8", from)
		}
		return shipFrames(t, archiveRec(9, "a"), archiveRec(10, "b")), nil
	}

	f := NewFollower("p", t.TempDir(), fetch, FollowerOptions{NoSync: true})
	if err := f.Poll(context.Background()); err != nil {
		t.Fatalf("Poll across a compaction: %v", err)
	}
	st := f.Stats()
	if st.Node != "p" || st.LastSeq != 10 || st.Shipped != 2 || st.Resyncs != 1 || st.Promoted {
		t.Fatalf("stats after resync = %+v, want lastSeq 10, shipped 2, resyncs 1", st)
	}
}

func TestFollowerRejectsGappedShipment(t *testing.T) {
	t.Parallel()
	fetch := &fakeFetch{
		stateFn: func() (*store.State, error) { return store.NewState(), nil },
		// Cursor is 0, so a run starting at seq 2 skips a record.
		walFn: func(from uint64) ([]byte, error) { return shipFrames(t, archiveRec(2, "a")), nil },
	}
	f := NewFollower("p", t.TempDir(), fetch, FollowerOptions{NoSync: true})
	err := f.Poll(context.Background())
	var ship *ShipError
	if !errors.As(err, &ship) {
		t.Fatalf("Poll on a gapped shipment = %v, want *ShipError", err)
	}
	if st := f.Stats(); st.LastSeq != 0 || st.Shipped != 0 {
		t.Fatalf("cursor advanced past a gap: %+v", st)
	}
}

func TestFollowerPromoteGuards(t *testing.T) {
	t.Parallel()
	fetch := &fakeFetch{
		stateFn: func() (*store.State, error) { return store.NewState(), nil },
		walFn:   func(from uint64) ([]byte, error) { return nil, nil },
	}
	f := NewFollower("p", t.TempDir(), fetch, FollowerOptions{NoSync: true, Store: store.Options{NoSync: true}})

	// Promoting before the first successful sync has nothing to open.
	if _, _, err := f.Promote(server.Config{Node: "p"}); err == nil {
		t.Fatal("Promote before any sync must fail")
	}

	if err := f.Poll(context.Background()); err != nil {
		t.Fatal(err)
	}
	st, _, err := f.Promote(server.Config{Node: "p"})
	if err != nil {
		t.Fatalf("Promote after sync: %v", err)
	}
	defer st.Close()

	// The replica is live now; shipping behind its back is refused.
	if err := f.Poll(context.Background()); !errors.Is(err, ErrPromoted) {
		t.Fatalf("Poll after Promote = %v, want ErrPromoted", err)
	}
	if _, _, err := f.Promote(server.Config{Node: "p"}); !errors.Is(err, ErrPromoted) {
		t.Fatalf("second Promote = %v, want ErrPromoted", err)
	}
	if fs := f.Stats(); !fs.Promoted {
		t.Fatalf("stats after promotion = %+v, want Promoted", fs)
	}
}

func TestFollowerRunShipsInBackground(t *testing.T) {
	t.Parallel()
	var served bool
	fetch := &fakeFetch{
		stateFn: func() (*store.State, error) { return store.NewState(), nil },
	}
	fetch.walFn = func(from uint64) ([]byte, error) {
		if served {
			return nil, nil
		}
		served = true
		return shipFrames(t, archiveRec(1, "a")), nil
	}
	f := NewFollower("p", t.TempDir(), fetch, FollowerOptions{NoSync: true})

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	done := make(chan struct{})
	go func() {
		defer close(done)
		f.Run(ctx, time.Millisecond)
	}()

	deadline := time.After(5 * time.Second)
	for f.Stats().Shipped < 1 {
		select {
		case <-deadline:
			t.Fatal("Run loop never shipped the pending record")
		case <-time.After(time.Millisecond):
		}
	}
	cancel()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("Run loop did not stop on context cancel")
	}
}

func TestHTTPFetchErrorPaths(t *testing.T) {
	t.Parallel()
	longBody := strings.Repeat("x", 500)
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch r.URL.Path {
		case "/v1/replication/state":
			switch r.URL.Query().Get("mode") {
			case "garbage":
				w.Write([]byte("{not json"))
			case "empty":
				w.Write([]byte("{}"))
			default:
				http.Error(w, longBody, http.StatusInternalServerError)
			}
		case "/v1/replication/wal":
			http.Error(w, "boom", http.StatusInternalServerError)
		}
	}))
	defer ts.Close()
	ctx := context.Background()

	h := &HTTPFetch{Base: ts.URL}
	_, err := h.State(ctx)
	if err == nil || !strings.Contains(err.Error(), "status 500") {
		t.Fatalf("State on a 500 = %v, want status error", err)
	}
	// clip bounds the embedded body so one bad reply cannot flood logs.
	if len(err.Error()) > 300 {
		t.Fatalf("error message not clipped: %d bytes", len(err.Error()))
	}

	if _, err := h.WAL(ctx, 0); err == nil {
		t.Fatal("WAL on a 500 must fail")
	}

	// Undecodable and stateless replies are rejected, not silently
	// seeded from.
	gts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Write([]byte("{not json"))
	}))
	defer gts.Close()
	if _, err := (&HTTPFetch{Base: gts.URL}).State(ctx); err == nil {
		t.Fatal("State on garbage JSON must fail")
	}
	ets := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Write([]byte("{}"))
	}))
	defer ets.Close()
	if _, err := (&HTTPFetch{Base: ets.URL}).State(ctx); err == nil {
		t.Fatal("State with a missing state document must fail")
	}

	// A dead endpoint surfaces the transport error.
	dead := httptest.NewServer(http.NotFoundHandler())
	dead.Close()
	if _, err := (&HTTPFetch{Base: dead.URL}).State(ctx); err == nil {
		t.Fatal("State against a dead endpoint must fail")
	}
}
