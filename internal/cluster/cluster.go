// Package cluster shards the htuned serving layer across nodes: a
// consistent-hash ring places campaigns and ingest streams, a thin HTTP
// router (Router) scatters fleet starts and proxies the /v1 envelope
// API unchanged, and per-node WAL shipping (Follower) keeps a
// byte-identical replica of each node's state directory so a killed
// node's campaigns resume on the follower exactly where the durable
// prefix left off. The fault-injection drill suite in this package is
// the correctness proof: it kills nodes mid-fleet and asserts the
// promoted replica finishes with results byte-identical to an
// uninterrupted single-process run.
package cluster

import (
	"context"
	"fmt"
	"net/http"
	"sort"
	"sync"
)

// Config tunes a Cluster. The zero value is usable.
type Config struct {
	// Vnodes is the per-node vnode count; <= 0 means DefaultVnodes.
	Vnodes int
}

// node is one member's routing state.
type node struct {
	url      string
	healthy  bool
	promoted bool
}

// Cluster is the router's membership view: the placement ring plus each
// node's URL and health. Placement ignores health — an unhealthy node
// keeps its keyspace so its campaigns stay addressed to it, and
// failover repoints the node's URL at the promoted replica instead of
// reshuffling ownership.
type Cluster struct {
	mu    sync.RWMutex
	ring  *Ring
	nodes map[string]*node
}

// New builds an empty cluster.
func New(cfg Config) *Cluster {
	return &Cluster{ring: NewRing(cfg.Vnodes), nodes: make(map[string]*node)}
}

// validNodeName rejects names that would break the cluster-wide
// campaign id scheme "<node>-c<n>", which is parsed by cutting at the
// first '-'.
func validNodeName(name string) bool {
	if name == "" {
		return false
	}
	for i := 0; i < len(name); i++ {
		c := name[i]
		if !('a' <= c && c <= 'z' || 'A' <= c && c <= 'Z' || '0' <= c && c <= '9' || c == '_') {
			return false
		}
	}
	return true
}

// AddNode registers a member. Names are [a-zA-Z0-9_]+ — in particular
// no '-', reserved as the id separator. Re-adding a known node updates
// its URL without moving the ring.
func (c *Cluster) AddNode(name, url string) error {
	if !validNodeName(name) {
		return fmt.Errorf("cluster: node name %q must match [a-zA-Z0-9_]+ ('-' separates node from campaign id)", name)
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if n, ok := c.nodes[name]; ok {
		n.url = url
		return nil
	}
	c.nodes[name] = &node{url: url, healthy: true}
	c.ring.Add(name)
	return nil
}

// Repoint redirects a node's traffic to a replacement URL — the
// promoted follower — and marks it healthy again. The ring is
// untouched: the node's campaigns keep their ids and placement.
func (c *Cluster) Repoint(name, url string) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	n, ok := c.nodes[name]
	if !ok {
		return fmt.Errorf("cluster: repoint unknown node %q", name)
	}
	n.url = url
	n.healthy = true
	n.promoted = true
	return nil
}

// SetHealthy flips a node's health flag (used by the router's health
// monitor); unknown names are ignored.
func (c *Cluster) SetHealthy(name string, healthy bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if n, ok := c.nodes[name]; ok {
		n.healthy = healthy
	}
}

// NodeURL resolves a member's current URL.
func (c *Cluster) NodeURL(name string) (string, bool) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	n, ok := c.nodes[name]
	if !ok {
		return "", false
	}
	return n.url, true
}

// Place returns the owner of key, or "" on an empty cluster.
func (c *Cluster) Place(key string) string {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.ring.Lookup(key)
}

// NodeStatus is one member's view in Nodes().
type NodeStatus struct {
	Name     string `json:"name"`
	URL      string `json:"url"`
	Healthy  bool   `json:"healthy"`
	Promoted bool   `json:"promoted"`
}

// Nodes lists the members, sorted by name.
func (c *Cluster) Nodes() []NodeStatus {
	c.mu.RLock()
	defer c.mu.RUnlock()
	out := make([]NodeStatus, 0, len(c.nodes))
	for name, n := range c.nodes {
		out = append(out, NodeStatus{Name: name, URL: n.url, Healthy: n.healthy, Promoted: n.promoted})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// Healthy lists the currently healthy members, sorted by name — the
// round-robin pool for stateless work.
func (c *Cluster) Healthy() []string {
	c.mu.RLock()
	defer c.mu.RUnlock()
	var out []string
	for name, n := range c.nodes {
		if n.healthy {
			out = append(out, name)
		}
	}
	sort.Strings(out)
	return out
}

// CheckHealth probes every member's /v1/healthz once and updates the
// health flags. It returns the names that failed the probe.
func (c *Cluster) CheckHealth(ctx context.Context, client *http.Client) []string {
	if client == nil {
		client = http.DefaultClient
	}
	var failed []string
	for _, n := range c.Nodes() {
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, n.URL+"/v1/healthz", nil)
		ok := false
		if err == nil {
			if resp, err := client.Do(req); err == nil {
				resp.Body.Close()
				ok = resp.StatusCode == http.StatusOK
			}
		}
		c.SetHealthy(n.Name, ok)
		if !ok {
			failed = append(failed, n.Name)
		}
	}
	return failed
}
