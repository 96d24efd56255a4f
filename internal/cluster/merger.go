package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sync"
	"time"

	"hputune/internal/inference"
	"hputune/internal/server"
)

// Merger closes the cluster's fit divergence: ingest partitions by
// client, so each node's aggregates cover only its own slice of the
// trace stream, and a fit computed per node would price "fitted" solves
// differently depending on ring placement. Each Tick the merger pulls
// every node's partition (the additive sufficient statistics, not the
// fits — sums commute, least-squares fits do not), merges them in
// sorted node order, fits the union once, and pushes the merged model
// to every node through the standard guarded publish path. The merge is
// all-or-nothing: if any partition is unreachable the tick aborts
// rather than publish a fit over a partial union — the next tick (after
// the watchdog promoted the dead node's replica) retries with every
// partition present again.
type Merger struct {
	cl      *Cluster
	client  *http.Client
	onEvent func(format string, args ...any)

	mu        sync.Mutex
	versions  map[string]uint64
	merges    uint64
	skipped   uint64
	pushes    uint64
	pushFails uint64
}

// NewMerger builds a merger over cl. client nil means a 10s-timeout
// default; onEvent may be nil.
func NewMerger(cl *Cluster, client *http.Client, onEvent func(string, ...any)) *Merger {
	if client == nil {
		client = &http.Client{Timeout: 10 * time.Second}
	}
	return &Merger{cl: cl, client: client, onEvent: onEvent, versions: make(map[string]uint64)}
}

func (m *Merger) event(format string, args ...any) {
	if m.onEvent != nil {
		m.onEvent(format, args...)
	}
}

// fetchAggregates pulls and validates one node's partition.
func (m *Merger) fetchAggregates(ctx context.Context, url string) (server.ReplicationAggregatesResponse, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url+"/v1/replication/aggregates", nil)
	if err != nil {
		return server.ReplicationAggregatesResponse{}, err
	}
	resp, err := m.client.Do(req)
	if err != nil {
		return server.ReplicationAggregatesResponse{}, err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(io.LimitReader(resp.Body, maxFetchBody))
	if err != nil {
		return server.ReplicationAggregatesResponse{}, err
	}
	if resp.StatusCode != http.StatusOK {
		return server.ReplicationAggregatesResponse{}, fmt.Errorf("status %d: %s", resp.StatusCode, clip(raw))
	}
	return DecodeAggregates(raw)
}

// pushFit publishes the merged fit to one node.
func (m *Merger) pushFit(ctx context.Context, url string, body []byte) (server.MergedFitResponse, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url+"/v1/replication/fit", bytes.NewReader(body))
	if err != nil {
		return server.MergedFitResponse{}, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := m.client.Do(req)
	if err != nil {
		return server.MergedFitResponse{}, err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(io.LimitReader(resp.Body, maxFetchBody))
	if err != nil {
		return server.MergedFitResponse{}, err
	}
	if resp.StatusCode != http.StatusOK {
		return server.MergedFitResponse{}, fmt.Errorf("status %d: %s", resp.StatusCode, clip(raw))
	}
	var doc server.MergedFitResponse
	if err := json.Unmarshal(raw, &doc); err != nil {
		return server.MergedFitResponse{}, fmt.Errorf("decode merged-fit reply: %w", err)
	}
	return doc, nil
}

// Tick runs one exchange round: pull every partition, merge, fit, push.
// It returns the first pull error (the tick aborted before any push) or
// nil; push failures are counted and retried implicitly by later ticks,
// since the merged fit is recomputed from scratch each time.
func (m *Merger) Tick(ctx context.Context) error {
	nodes := m.cl.Nodes() // sorted by name — merge order must be deterministic
	if len(nodes) == 0 {
		return nil
	}
	docs := make([]server.ReplicationAggregatesResponse, len(nodes))
	for i, n := range nodes {
		doc, err := m.fetchAggregates(ctx, n.URL)
		if err != nil {
			// A partial union is worse than a stale fit: a fit over N-1
			// partitions is a model the single-process reference never saw.
			m.mu.Lock()
			m.skipped++
			m.mu.Unlock()
			return fmt.Errorf("cluster: aggregates of %s: %w", n.Name, err)
		}
		docs[i] = doc
	}
	sources := make(map[string]uint64, len(nodes))
	m.mu.Lock()
	for i, n := range nodes {
		if prev, ok := m.versions[n.Name]; ok && docs[i].Version < prev {
			// Legal after a failover: a promoted replica lags by whatever
			// the dead primary acknowledged but never shipped. Worth a log
			// line — anywhere else it means a node lost durable state.
			m.event("cluster: node %s aggregates went back from version %d to %d (replica promotion?)", n.Name, prev, docs[i].Version)
		}
		m.versions[n.Name] = docs[i].Version
		sources[n.Name] = docs[i].Version
	}
	m.mu.Unlock()
	// Merge in the (sorted) node order: float addition is not
	// associative, so a fixed order is what makes repeated merges of the
	// same partitions bit-identical.
	var merged inference.Belief
	for i, n := range nodes {
		if err := merged.Merge(docs[i].Aggs); err != nil {
			m.mu.Lock()
			m.skipped++
			m.mu.Unlock()
			return fmt.Errorf("cluster: merge aggregates of %s: %w", n.Name, err)
		}
	}
	// A fit the guard refuses is still pushed: each node runs the same
	// guard and reports the refusal, which the push loop logs.
	cand, _ := merged.Fit()
	if cand.Prices == 0 {
		// Fewer than two distinct prices across the whole cluster: nothing
		// to publish yet, not a failure.
		m.mu.Lock()
		m.skipped++
		m.mu.Unlock()
		return nil
	}
	body, err := json.Marshal(server.MergedFitRequest{Fit: cand, Sources: sources})
	if err != nil {
		return fmt.Errorf("cluster: encode merged fit: %w", err)
	}
	for _, n := range nodes {
		reply, err := m.pushFit(ctx, n.URL, body)
		m.mu.Lock()
		if err != nil {
			m.pushFails++
			m.mu.Unlock()
			m.event("cluster: push merged fit to %s: %v", n.Name, err)
			continue
		}
		m.pushes++
		m.mu.Unlock()
		if !reply.Published {
			m.event("cluster: node %s kept its previous fit: %s", n.Name, reply.FitPending)
		}
	}
	m.mu.Lock()
	m.merges++
	m.mu.Unlock()
	return nil
}

// Run ticks on a fixed interval until ctx is canceled. Tick errors are
// transient by design (a node may be mid-failover); they are counted in
// Stats and the loop keeps going. Aborts are logged on transition only —
// the first failing tick and the recovery — not per tick: an outage
// lasting the whole failover window would otherwise flood the log at
// the exchange interval.
func (m *Merger) Run(ctx context.Context, interval time.Duration) {
	t := time.NewTicker(interval)
	defer t.Stop()
	var lastErr string
	for {
		select {
		case <-ctx.Done():
			return
		case <-t.C:
			err := m.Tick(ctx)
			if ctx.Err() != nil {
				// Shutdown, not an outage: a tick canceled mid-flight fails
				// with a context error that would log as a spurious abort.
				return
			}
			switch {
			case err != nil && err.Error() != lastErr:
				lastErr = err.Error()
				m.event("cluster: fit exchange aborted: %v (retrying every tick)", err)
			case err == nil && lastErr != "":
				lastErr = ""
				m.event("cluster: fit exchange recovered")
			}
		}
	}
}

// MergerStats is a point-in-time copy of the merger's counters.
type MergerStats struct {
	// Merges counts completed exchange rounds (fit pushed to the nodes).
	Merges uint64 `json:"merges"`
	// Skipped counts aborted rounds: a partition was unreachable or the
	// union had fewer than two priced levels.
	Skipped uint64 `json:"skipped"`
	// Pushes counts per-node fit deliveries; PushFailures the misses
	// (recovered implicitly — every round recomputes from scratch).
	Pushes       uint64 `json:"pushes"`
	PushFailures uint64 `json:"pushFailures"`
	// Versions is the last aggregate version consumed per node.
	Versions map[string]uint64 `json:"versions,omitempty"`
}

// Stats snapshots the merger.
func (m *Merger) Stats() MergerStats {
	m.mu.Lock()
	defer m.mu.Unlock()
	versions := make(map[string]uint64, len(m.versions))
	for k, v := range m.versions {
		versions[k] = v
	}
	return MergerStats{Merges: m.merges, Skipped: m.skipped, Pushes: m.pushes, PushFailures: m.pushFails, Versions: versions}
}
