package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"time"

	"hputune/internal/cluster"
	"hputune/internal/server"
	"hputune/internal/store"
)

// nodeConfig sizes every benchmark node. The permit pool is wider than
// the two request goroutines plus the router's and merger's calls, so
// admission never refuses the benchmark's own load.
func nodeConfig(name string) server.Config {
	return server.Config{Node: name, MaxInFlight: 8}
}

// node is one durable in-process htuned: a real state dir with fsync
// on, served over a loopback listener.
type node struct {
	name string
	dir  string
	st   *store.Store
	srv  *server.Server
	ts   *httptest.Server
}

func openNode(name, dir string) (*node, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	st, err := store.Open(dir, store.Options{})
	if err != nil {
		return nil, fmt.Errorf("open %s: %w", name, err)
	}
	srv, err := server.Recover(nodeConfig(name), st)
	if err != nil {
		st.Close()
		return nil, fmt.Errorf("recover %s: %w", name, err)
	}
	return &node{name: name, dir: dir, st: st, srv: srv, ts: httptest.NewServer(srv.Handler())}, nil
}

// close stops the listener, suspends campaigns and closes the store.
func (n *node) close() {
	n.ts.Close()
	n.srv.Close()
	_ = n.st.Close() // the state dir is re-opened or removed next; nothing to flush
}

// clusterRig is three durable nodes behind a router, with one follower
// per node and a merger. The benchmark drives Poll and Tick itself.
type clusterRig struct {
	nodes  []*node
	fols   []*cluster.Follower
	cl     *cluster.Cluster
	merger *cluster.Merger
	router *httptest.Server
}

func openCluster(dir string) (*clusterRig, error) {
	r := &clusterRig{cl: cluster.New(cluster.Config{})}
	for i := 1; i <= 3; i++ {
		name := fmt.Sprintf("n%d", i)
		n, err := openNode(name, filepath.Join(dir, name))
		if err != nil {
			r.close()
			return nil, err
		}
		r.nodes = append(r.nodes, n)
		if err := r.cl.AddNode(name, n.ts.URL); err != nil {
			r.close()
			return nil, err
		}
		r.fols = append(r.fols, cluster.NewFollower(name, filepath.Join(dir, "replica-"+name),
			&cluster.HTTPFetch{Base: n.ts.URL}, cluster.FollowerOptions{}))
	}
	r.merger = cluster.NewMerger(r.cl, nil, nil)
	r.router = httptest.NewServer(cluster.NewRouter(r.cl, nil).Handler())
	return r, nil
}

func (r *clusterRig) node(name string) *node {
	for _, n := range r.nodes {
		if n.name == name {
			return n
		}
	}
	return nil
}

func (r *clusterRig) close() {
	if r.router != nil {
		r.router.Close()
	}
	for _, n := range r.nodes {
		n.close()
	}
}

// pollAll ships every node's WAL tail to its follower, recording the
// replica lag (records behind the primary) seen before each poll.
func (r *clusterRig) pollAll(ctx context.Context, tr *tracer, polls *samples, lagMax *uint64) error {
	for i, f := range r.fols {
		// Lag counts from the follower's first sync; before it the replica
		// is empty by construction.
		if replica := f.Stats().LastSeq; replica > 0 {
			*lagMax = max(*lagMax, r.nodes[i].st.Metrics().LastSeq-replica)
		}
		id := tr.begin("cluster.follower_poll", 0)
		t0 := time.Now()
		err := f.Poll(ctx)
		tr.end(id)
		polls.addDur(time.Since(t0))
		if err != nil {
			return fmt.Errorf("follower %s: %w", r.nodes[i].name, err)
		}
	}
	return nil
}

// newHTTPClient returns the benchmark's only client: at most two connections
// per host, matching the two request goroutines.
func newHTTPClient() *http.Client {
	return &http.Client{
		Timeout: 60 * time.Second,
		Transport: &http.Transport{
			MaxConnsPerHost:     2,
			MaxIdleConnsPerHost: 2,
		},
	}
}

// post sends one request and returns the status and the whole body.
func post(c *http.Client, url string, body []byte, clientID string) (int, []byte, error) {
	req, err := http.NewRequest(http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	if clientID != "" {
		req.Header.Set(server.DefaultClientHeader, clientID)
	}
	resp, err := c.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	return resp.StatusCode, raw, err
}
