package cluster

import (
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"
)

// healthzServer serves only /v1/healthz, the surface CheckHealth probes.
func healthzServer(t *testing.T) *httptest.Server {
	t.Helper()
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/v1/healthz" {
			http.NotFound(w, r)
			return
		}
		w.WriteHeader(http.StatusOK)
	}))
	t.Cleanup(ts.Close)
	return ts
}

// promoteRecorder is a promote callback that counts calls and hands out
// a fixed replacement URL (or error).
type promoteRecorder struct {
	mu    sync.Mutex
	calls []string
	url   string
	err   error
}

func (p *promoteRecorder) promote(name string) (string, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.calls = append(p.calls, name)
	return p.url, p.err
}

func (p *promoteRecorder) count() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return len(p.calls)
}

func TestWatchdogPromotesAfterThreshold(t *testing.T) {
	t.Parallel()
	live := healthzServer(t)
	dying := healthzServer(t)
	replica := healthzServer(t)

	cl := New(Config{})
	if err := cl.AddNode("n0", live.URL); err != nil {
		t.Fatal(err)
	}
	if err := cl.AddNode("n1", dying.URL); err != nil {
		t.Fatal(err)
	}

	rec := &promoteRecorder{url: replica.URL}
	var events []string
	wd := NewWatchdog(cl, nil, 2, rec.promote, func(format string, args ...any) {
		events = append(events, fmt.Sprintf(format, args...))
	})
	ctx := context.Background()

	// All healthy: no strikes, no promotion.
	wd.Tick(ctx)
	if got := rec.count(); got != 0 {
		t.Fatalf("promote called %d times on a healthy cluster", got)
	}

	dying.Close()

	// Strike one: below threshold, but the node must leave the healthy
	// pool immediately.
	wd.Tick(ctx)
	if got := rec.count(); got != 0 {
		t.Fatalf("promoted after 1 strike with threshold 2 (%d calls)", got)
	}
	if h := cl.Healthy(); len(h) != 1 || h[0] != "n0" {
		t.Fatalf("healthy pool after first strike = %v, want [n0]", h)
	}

	// Strike two: promotion fires and the node repoints at the replica.
	wd.Tick(ctx)
	if got := rec.count(); got != 1 {
		t.Fatalf("promote called %d times at threshold, want 1", got)
	}
	var n1 NodeStatus
	for _, n := range cl.Nodes() {
		if n.Name == "n1" {
			n1 = n
		}
	}
	if !n1.Promoted || !n1.Healthy || n1.URL != replica.URL {
		t.Fatalf("n1 after promotion = %+v, want promoted+healthy at %s", n1, replica.URL)
	}
	if len(events) == 0 {
		t.Fatal("no events emitted for a promotion")
	}

	// The replica answers probes, so later ticks stay quiet.
	wd.Tick(ctx)
	if got := rec.count(); got != 1 {
		t.Fatalf("promote re-fired on a healthy promoted node (%d calls)", got)
	}
}

func TestWatchdogNeverPromotesTwice(t *testing.T) {
	t.Parallel()
	dying := healthzServer(t)
	cl := New(Config{})
	if err := cl.AddNode("n0", dying.URL); err != nil {
		t.Fatal(err)
	}

	// The "replacement" is itself dead, so the node keeps failing probes
	// after the repoint — the Promoted flag alone must stop a second
	// promotion.
	dead := httptest.NewServer(http.NotFoundHandler())
	dead.Close()
	rec := &promoteRecorder{url: dead.URL}
	wd := NewWatchdog(cl, nil, 1, rec.promote, nil)
	ctx := context.Background()

	dying.Close()
	for i := 0; i < 4; i++ {
		wd.Tick(ctx)
	}
	if got := rec.count(); got != 1 {
		t.Fatalf("promote called %d times for one node, want exactly 1", got)
	}
}

func TestWatchdogRetriesFailedPromotion(t *testing.T) {
	t.Parallel()
	dying := healthzServer(t)
	cl := New(Config{})
	if err := cl.AddNode("n0", dying.URL); err != nil {
		t.Fatal(err)
	}

	rec := &promoteRecorder{err: fmt.Errorf("replica not ready")}
	var events []string
	wd := NewWatchdog(cl, nil, 1, rec.promote, func(format string, args ...any) {
		events = append(events, fmt.Sprintf(format, args...))
	})
	ctx := context.Background()

	dying.Close()
	wd.Tick(ctx)
	wd.Tick(ctx)
	// A failed promotion leaves the node unpromoted and retries next tick.
	if got := rec.count(); got != 2 {
		t.Fatalf("promote retried %d times, want 2", got)
	}
	for _, n := range cl.Nodes() {
		if n.Promoted {
			t.Fatalf("node marked promoted despite promote errors: %+v", n)
		}
	}
	found := false
	for _, e := range events {
		if e == "promote n0: replica not ready" {
			found = true
		}
	}
	if !found {
		t.Fatalf("promotion failure not surfaced in events: %q", events)
	}
}

func TestWatchdogRepointFailureSurfaces(t *testing.T) {
	t.Parallel()
	dying := healthzServer(t)
	cl := New(Config{})
	if err := cl.AddNode("n0", dying.URL); err != nil {
		t.Fatal(err)
	}

	// The promote callback removes the node before returning, so the
	// repoint hits an unknown member — the error must surface as an
	// event, not a panic or silent success.
	var events []string
	wd := NewWatchdog(cl, nil, 1, func(name string) (string, error) {
		cl.mu.Lock()
		delete(cl.nodes, name)
		cl.mu.Unlock()
		return "http://127.0.0.1:1", nil
	}, func(format string, args ...any) {
		events = append(events, fmt.Sprintf(format, args...))
	})

	dying.Close()
	wd.Tick(context.Background())
	found := false
	for _, e := range events {
		if e == `promote n0: cluster: repoint unknown node "n0"` {
			found = true
		}
	}
	if !found {
		t.Fatalf("repoint failure not surfaced in events: %q", events)
	}
}

func TestWatchdogZeroThresholdOnlyFlagsHealth(t *testing.T) {
	t.Parallel()
	dying := healthzServer(t)
	cl := New(Config{})
	if err := cl.AddNode("n0", dying.URL); err != nil {
		t.Fatal(err)
	}
	rec := &promoteRecorder{url: "http://unused"}
	wd := NewWatchdog(cl, nil, 0, rec.promote, nil)
	ctx := context.Background()

	dying.Close()
	for i := 0; i < 3; i++ {
		wd.Tick(ctx)
	}
	if got := rec.count(); got != 0 {
		t.Fatalf("threshold 0 promoted anyway (%d calls)", got)
	}
	if h := cl.Healthy(); len(h) != 0 {
		t.Fatalf("dead node still in healthy pool: %v", h)
	}
}

func TestWatchdogRunLoop(t *testing.T) {
	t.Parallel()
	dying := healthzServer(t)
	replica := healthzServer(t)
	cl := New(Config{})
	if err := cl.AddNode("n0", dying.URL); err != nil {
		t.Fatal(err)
	}

	promoted := make(chan string, 1)
	wd := NewWatchdog(cl, nil, 1, func(name string) (string, error) {
		select {
		case promoted <- name:
		default:
		}
		return replica.URL, nil
	}, nil)

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	done := make(chan struct{})
	go func() {
		defer close(done)
		wd.Run(ctx, time.Millisecond)
	}()

	dying.Close()
	select {
	case name := <-promoted:
		if name != "n0" {
			t.Fatalf("promoted %q, want n0", name)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Run loop never promoted the dead node")
	}
	cancel()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("Run loop did not stop on context cancel")
	}
}

func TestClusterMembershipEdges(t *testing.T) {
	t.Parallel()
	cl := New(Config{})
	if err := cl.Repoint("ghost", "http://x"); err == nil {
		t.Fatal("Repoint on an unknown node must fail")
	}
	if url, ok := cl.NodeURL("ghost"); ok || url != "" {
		t.Fatalf("NodeURL on an unknown node = (%q, %v), want (\"\", false)", url, ok)
	}
	// SetHealthy on an unknown name is a no-op, not a panic.
	cl.SetHealthy("ghost", false)
	if err := cl.AddNode("n0", "http://a"); err != nil {
		t.Fatal(err)
	}
	// Re-adding updates the URL without disturbing the ring.
	if err := cl.AddNode("n0", "http://b"); err != nil {
		t.Fatal(err)
	}
	if url, _ := cl.NodeURL("n0"); url != "http://b" {
		t.Fatalf("re-add left URL %q, want http://b", url)
	}
	if owner := cl.Place("anything"); owner != "n0" {
		t.Fatalf("single-node cluster placed key on %q", owner)
	}
}

func TestShipErrorMessage(t *testing.T) {
	t.Parallel()
	err := &ShipError{Offset: 42, Want: 7, Got: 9}
	want := "cluster: shipped WAL breaks contiguity at byte 42: got seq 9, want 7"
	if err.Error() != want {
		t.Fatalf("ShipError.Error() = %q, want %q", err.Error(), want)
	}
}
