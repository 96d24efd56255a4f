package cluster

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"sync"
	"testing"
	"time"

	"hputune/internal/campaign"
	"hputune/internal/server"
	"hputune/internal/spec"
	"hputune/internal/store"
)

// The drill suite is the tentpole's correctness proof: an in-process
// multi-node cluster runs real campaign fleets through the router while
// deterministic fault injection (the store's WrapWAL hook, in the style
// of the server package's crash-recovery suite) tears a victim node's
// WAL at a randomized byte boundary. The victim is killed, its
// WAL-shipping follower is promoted through the standard recovery path,
// and every campaign in the cluster must finish with a result
// byte-identical to an uninterrupted single-process campaign.RunFleet
// of the same specs.

// drillNode is one in-process cluster member plus its follower.
type drillNode struct {
	name string
	dir  string
	st   *store.Store
	srv  *server.Server
	ts   *httptest.Server
	fol  *Follower
}

// newDrillNode boots a store-backed node and a follower replicating it.
func newDrillNode(t *testing.T, name string, wrap func(io.Writer) io.Writer) *drillNode {
	t.Helper()
	dir := t.TempDir()
	st, err := store.Open(dir, store.Options{NoSync: true, WrapWAL: wrap})
	if err != nil {
		t.Fatalf("Open(%s): %v", name, err)
	}
	t.Cleanup(func() { st.Close() })
	srv, err := server.Recover(server.Config{Node: name}, st)
	if err != nil {
		t.Fatalf("Recover(%s): %v", name, err)
	}
	t.Cleanup(srv.Close)
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	fol := NewFollower(name, t.TempDir(), &HTTPFetch{Base: ts.URL},
		FollowerOptions{NoSync: true, Store: store.Options{NoSync: true}})
	return &drillNode{name: name, dir: dir, st: st, srv: srv, ts: ts, fol: fol}
}

// drillCluster wires n nodes under one router; wraps[name] injects a
// WAL fault into that node's store.
func drillCluster(t *testing.T, names []string, wraps map[string]func(io.Writer) io.Writer) (*Cluster, *httptest.Server, map[string]*drillNode) {
	t.Helper()
	cl := New(Config{})
	nodes := make(map[string]*drillNode, len(names))
	for _, name := range names {
		n := newDrillNode(t, name, wraps[name])
		nodes[name] = n
		if err := cl.AddNode(name, n.ts.URL); err != nil {
			t.Fatal(err)
		}
	}
	rt := NewRouter(cl, nil)
	rts := httptest.NewServer(rt.Handler())
	t.Cleanup(rts.Close)
	return cl, rts, nodes
}

// referenceResults runs the spec document uninterrupted in one process.
func referenceResults(t *testing.T, doc string) []campaign.Result {
	t.Helper()
	cfgs, err := spec.ParseCampaigns([]byte(doc), spec.BuildOpts{})
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	ref, err := campaign.RunFleet(context.Background(), nil, cfgs, 0)
	if err != nil {
		t.Fatalf("reference fleet: %v", err)
	}
	return ref
}

// startClusterFleet posts the document through the router.
func startClusterFleet(t *testing.T, routerURL, doc string) []string {
	t.Helper()
	resp, raw := postDoc(t, routerURL+"/v1/campaigns", doc)
	if resp.StatusCode != 202 {
		t.Fatalf("start fleet: status %d: %s", resp.StatusCode, raw)
	}
	var started server.CampaignStartResponse
	if err := json.Unmarshal(raw, &started); err != nil {
		t.Fatal(err)
	}
	return started.IDs
}

// routerResult fetches one campaign through the router.
func routerResult(t *testing.T, routerURL, id string) (campaign.Result, int) {
	t.Helper()
	resp, err := http.Get(routerURL + "/v1/campaigns/" + id)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != 200 {
		return campaign.Result{}, resp.StatusCode
	}
	var got server.CampaignGetResponse
	if err := json.Unmarshal(raw, &got); err != nil {
		t.Fatalf("unmarshal %s: %v: %s", id, err, raw)
	}
	return got.Result, 200
}

func resultJSON(t *testing.T, res campaign.Result) string {
	t.Helper()
	raw, err := json.Marshal(res)
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	return string(raw)
}

// waitAllTerminal polls the router until every id reports a terminal
// status, returning the final results in id order.
func waitAllTerminal(t *testing.T, routerURL string, ids []string) []campaign.Result {
	t.Helper()
	deadline := time.Now().Add(90 * time.Second)
	out := make([]campaign.Result, len(ids))
	for i, id := range ids {
		for {
			res, status := routerResult(t, routerURL, id)
			if status == 200 && res.Status.Terminal() {
				out[i] = res
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("campaign %s never settled (last status %d, %v)", id, status, res.Status)
			}
			time.Sleep(10 * time.Millisecond)
		}
	}
	return out
}

// waitFor polls cond until true or the timeout fails the test.
func waitFor(t *testing.T, timeout time.Duration, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// pollFollower runs fol.Poll in a tight background loop until stop is
// closed; transient errors are expected while the primary is dying.
func pollFollower(fol *Follower) (stop func()) {
	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		ctx := context.Background()
		for {
			select {
			case <-done:
				return
			default:
				_ = fol.Poll(ctx)
				time.Sleep(2 * time.Millisecond)
			}
		}
	}()
	return func() { close(done); wg.Wait() }
}

// paperFleetDoc is the acceptance drill's workload: the paper preset's
// 8-campaign fleet.
const paperFleetDoc = `{"fleet": {"preset": "paper", "seed": 17}}`

// drillNames is the 3-node acceptance layout.
var drillNames = []string{"n0", "n1", "n2"}

// fleetOwners maps each started id's node prefix.
func fleetOwners(t *testing.T, ids []string) map[string][]string {
	t.Helper()
	owners := make(map[string][]string)
	for _, id := range ids {
		node, _, ok := splitID(id)
		if !ok {
			t.Fatalf("id %q has no node prefix", id)
		}
		owners[node] = append(owners[node], id)
	}
	return owners
}

// TestClusterFleetMatchesReference is the no-fault baseline: the paper
// fleet scattered across three nodes completes with every result
// byte-identical to the single-process reference, and the ring spreads
// the eight campaigns across more than one node.
func TestClusterFleetMatchesReference(t *testing.T) {
	ref := referenceResults(t, paperFleetDoc)
	_, rts, _ := drillCluster(t, drillNames, nil)
	ids := startClusterFleet(t, rts.URL, paperFleetDoc)
	if len(ids) != len(ref) {
		t.Fatalf("started %d campaigns, reference has %d", len(ids), len(ref))
	}
	if owners := fleetOwners(t, ids); len(owners) < 2 {
		t.Fatalf("fleet landed on %d node(s): %v", len(owners), owners)
	}
	got := waitAllTerminal(t, rts.URL, ids)
	for i := range ref {
		if g, w := resultJSON(t, got[i]), resultJSON(t, ref[i]); g != w {
			t.Fatalf("campaign %s diverged from reference\n got  %s\n want %s", ids[i], g, w)
		}
	}
}

// crowdFleetDoc is the crowd-DB query fleet: tournament top-k,
// sequential-discovery group-by, a deadline-SLO campaign and a
// retainer-pool campaign.
const crowdFleetDoc = `{"fleet": {"preset": "crowd", "seed": 9}}`

// TestClusterCrowdFleetMatchesReference extends the no-fault baseline
// to the crowd-query executor family: all four crowd regimes scattered
// across three nodes run the closed loop to terminal statuses with
// every result byte-identical to the single-process reference.
func TestClusterCrowdFleetMatchesReference(t *testing.T) {
	ref := referenceResults(t, crowdFleetDoc)
	_, rts, _ := drillCluster(t, drillNames, nil)
	ids := startClusterFleet(t, rts.URL, crowdFleetDoc)
	if len(ids) != len(ref) {
		t.Fatalf("started %d campaigns, reference has %d", len(ids), len(ref))
	}
	got := waitAllTerminal(t, rts.URL, ids)
	for i := range ref {
		if got[i].Status == campaign.StatusFailed {
			t.Fatalf("campaign %s failed: %s", ids[i], got[i].Reason)
		}
		if g, w := resultJSON(t, got[i]), resultJSON(t, ref[i]); g != w {
			t.Fatalf("campaign %s diverged from reference\n got  %s\n want %s", ids[i], g, w)
		}
	}
}

// truncatingWriter tears the WAL after a byte budget — the injected
// crash, identical in spirit to the server package's crash suite.
type truncatingWriter struct {
	w      io.Writer
	budget int
}

var errCrashed = errors.New("injected crash: WAL torn mid-append")

func (tw *truncatingWriter) Write(p []byte) (int, error) {
	if tw.budget <= 0 {
		return 0, errCrashed
	}
	if len(p) > tw.budget {
		n, _ := tw.w.Write(p[:tw.budget])
		tw.budget = 0
		return n, errCrashed
	}
	tw.budget -= len(p)
	return tw.w.Write(p)
}

// TestCheckHealthStrikesNodeWithFailedWAL: a node whose disk has gone
// away refuses the write it cannot journal, and its healthz reports the
// lost durability, so CheckHealth marks it unhealthy and the watchdog
// can promote its replica.
func TestCheckHealthStrikesNodeWithFailedWAL(t *testing.T) {
	cl, _, nodes := drillCluster(t, []string{"n0", "n1"}, map[string]func(io.Writer) io.Writer{
		"n1": func(w io.Writer) io.Writer { return &truncatingWriter{w: w} },
	})
	ingest := `{"TaskID": "t1", "Rep": 1, "Price": 1, "PostedAt": 0, "Accepted": 0.5, "Done": 1, "WorkerID": 1, "Correct": true}`
	want := map[string]int{"n0": http.StatusOK, "n1": http.StatusServiceUnavailable}
	for _, n := range nodes {
		if resp, raw := postDoc(t, n.ts.URL+"/v1/ingest", ingest); resp.StatusCode != want[n.name] {
			t.Fatalf("ingest on %s: status %d, want %d: %s", n.name, resp.StatusCode, want[n.name], raw)
		}
	}
	if nodes["n1"].st.Err() == nil {
		t.Fatal("n1's WAL never failed")
	}
	if failed := cl.CheckHealth(context.Background(), nil); len(failed) != 1 || failed[0] != "n1" {
		t.Fatalf("CheckHealth failed %v, want [n1]", failed)
	}
	if got := cl.Healthy(); len(got) != 1 || got[0] != "n0" {
		t.Fatalf("healthy members %v, want [n0]", got)
	}
}

// delayingWriter dawdles before each write so concurrent campaign
// appends coalesce into real group-commit batches; composed under the
// truncatingWriter it produces the kill-during-batched-flush drill.
type delayingWriter struct {
	w     io.Writer
	delay time.Duration
}

func (dw *delayingWriter) Write(p []byte) (int, error) {
	time.Sleep(dw.delay)
	return dw.w.Write(p)
}

// probeVictim runs the fleet once with no faults and returns, for the
// node owning the most campaigns, its name and final WAL size — the
// budget space for the crash boundary.
func probeVictim(t *testing.T, names []string, doc string) (string, int) {
	t.Helper()
	_, rts, nodes := drillCluster(t, names, nil)
	ids := startClusterFleet(t, rts.URL, doc)
	waitAllTerminal(t, rts.URL, ids)
	victim, most := "", 0
	for node, owned := range fleetOwners(t, ids) {
		if len(owned) > most {
			victim, most = node, len(owned)
		}
	}
	raw, err := os.ReadFile(store.WALPath(nodes[victim].dir))
	if err != nil {
		t.Fatalf("read probe WAL: %v", err)
	}
	if len(raw) < 1000 {
		t.Fatalf("probe WAL only %d bytes; fleet too small for meaningful crash points", len(raw))
	}
	return victim, len(raw)
}

// killNode ends a node's process: one final follower poll drains the
// acknowledged tail (replication is asynchronous; the drill closes the
// window exactly the way cmd/htrouter's failover does), then the HTTP
// listener goes away.
func killNode(t *testing.T, n *drillNode) {
	t.Helper()
	if err := n.fol.Poll(context.Background()); err != nil {
		// The final poll may race the dying store; the follower keeps
		// whatever was acknowledged, which is the guarantee under test.
		t.Logf("final poll of %s: %v", n.name, err)
	}
	n.srv.Close()
	n.ts.Close()
}

// TestClusterDrillKillNodeMidFleet is the ISSUE's acceptance drill: a
// 3-node cluster runs the 8-campaign paper fleet, the busiest node's
// WAL is torn mid-fleet at a randomized boundary, the node is killed,
// and its follower is promoted. Every campaign — including the ones
// resumed from the replica — must finish byte-identical to the
// uninterrupted single-process reference, served through the router.
func TestClusterDrillKillNodeMidFleet(t *testing.T) {
	ref := referenceResults(t, paperFleetDoc)
	victim, walSize := probeVictim(t, drillNames, paperFleetDoc)
	rng := rand.New(rand.NewSource(20260807))
	// Land the tear in the middle half of the victim's WAL: past the
	// fleet record, before the last campaigns settle.
	budget := walSize/4 + rng.Intn(walSize/2)

	cl, rts, nodes := drillCluster(t, drillNames, map[string]func(io.Writer) io.Writer{
		victim: func(w io.Writer) io.Writer { return &truncatingWriter{w: w, budget: budget} },
	})
	v := nodes[victim]
	stopPolling := pollFollower(v.fol)
	ids := startClusterFleet(t, rts.URL, paperFleetDoc)
	waitFor(t, 60*time.Second, "victim WAL tear", func() bool { return v.st.Err() != nil })
	stopPolling()
	killNode(t, v)

	st2, srv2, err := v.fol.Promote(server.Config{Node: victim})
	if err != nil {
		t.Fatalf("promote: %v", err)
	}
	defer st2.Close()
	state, err := st2.State()
	if err != nil {
		t.Fatalf("replica state: %v", err)
	}
	nonTerminal := 0
	for _, cs := range state.Campaigns {
		if !cs.Checkpoint.Status.Terminal() {
			nonTerminal++
		}
	}
	if nonTerminal == 0 {
		t.Fatalf("tear at byte %d of %d left no campaign mid-flight; the drill proved nothing", budget, walSize)
	}
	ts2 := httptest.NewServer(srv2.Handler())
	defer ts2.Close()
	if err := cl.Repoint(victim, ts2.URL); err != nil {
		t.Fatalf("repoint: %v", err)
	}

	got := waitAllTerminal(t, rts.URL, ids)
	for i := range ref {
		if g, w := resultJSON(t, got[i]), resultJSON(t, ref[i]); g != w {
			t.Fatalf("campaign %s after node kill + promotion diverged from reference\n got  %s\n want %s", ids[i], g, w)
		}
	}
	t.Logf("tear at byte %d/%d on %s; %d campaigns resumed on the promoted replica", budget, walSize, victim, nonTerminal)
}

// verifyDrill checks every campaign of one document against its
// reference after a victim kill + promotion. A campaign owned by the
// victim that is absent from the replica state never durably existed —
// its fleet append was torn before acknowledgement — so the router's
// 404 is the correct recovered answer for it; every other campaign
// must settle byte-identical to the reference.
func verifyDrill(t *testing.T, routerURL string, ids []string, ref []campaign.Result, victim string, state *store.State) {
	t.Helper()
	deadline := time.Now().Add(90 * time.Second)
	for i, id := range ids {
		node, rest, ok := splitID(id)
		if !ok {
			t.Fatalf("id %q has no node prefix", id)
		}
		if node == victim {
			if _, durable := state.Campaigns[rest]; !durable {
				if _, status := routerResult(t, routerURL, id); status != 404 {
					t.Fatalf("campaign %s was never acknowledged by the victim yet the promoted replica serves status %d", id, status)
				}
				continue
			}
		}
		for {
			res, status := routerResult(t, routerURL, id)
			if status == 200 && res.Status.Terminal() {
				if g, w := resultJSON(t, res), resultJSON(t, ref[i]); g != w {
					t.Fatalf("campaign %s diverged after node loss\n got  %s\n want %s", id, g, w)
				}
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("campaign %s never settled (last status %d, %v)", id, status, res.Status)
			}
			time.Sleep(10 * time.Millisecond)
		}
	}
}

// drillDoc is the randomized drill's smaller fleet: two drifting
// campaigns (epsilon 0 + drift means no early convergence) that keep a
// few hundred WAL bytes flowing per round.
const drillDoc = `{"campaigns":[
  {"name":"da1","roundBudget":300,"budget":1800,"rounds":6,"epsilon":0,"seed":101,
   "prior":{"kind":"linear","k":1,"b":1},
   "drift":{"kind":"rate","factor":0.9},
   "groups":[{"name":"g","tasks":30,"reps":3,"procRate":2,"true":{"kind":"linear","k":2,"b":0.5}}]},
  {"name":"da2","roundBudget":280,"budget":1680,"rounds":6,"epsilon":0,"seed":202,
   "prior":{"kind":"linear","k":1,"b":1},
   "drift":{"kind":"shock","factor":0.7,"round":3},
   "groups":[{"name":"g","tasks":28,"reps":2,"procRate":2,"true":{"kind":"linear","k":1.8,"b":0.6}}]}
]}`

// drillDocB rides along in the rebalance trials: a fleet started while
// a new node is joining the ring.
const drillDocB = `{"campaigns":[
  {"name":"db1","roundBudget":250,"budget":1500,"rounds":5,"epsilon":0,"seed":303,
   "prior":{"kind":"linear","k":1,"b":1},
   "drift":{"kind":"rate","factor":0.93},
   "groups":[{"name":"g","tasks":25,"reps":2,"procRate":2,"true":{"kind":"linear","k":2.1,"b":0.4}}]}
]}`

// victimFor returns the node a document's first campaign places on.
func victimFor(t *testing.T, cl *Cluster, doc string) string {
	t.Helper()
	subs, err := scatter([]byte(doc))
	if err != nil {
		t.Fatal(err)
	}
	return cl.Place(subs[0].key)
}

// TestClusterDrillRandomizedNodeLoss runs >= 12 randomized node-loss
// trials on a 2-node cluster: every trial tears the WAL of the node
// owning the first campaign at a random byte boundary — plain tears
// (mid-round), tears under a delaying writer (mid-batched-flush), and
// tears while a third node joins and takes new traffic (rebalance) —
// kills the victim, promotes its follower, and requires every campaign
// to finish byte-identical to the uninterrupted reference.
func TestClusterDrillRandomizedNodeLoss(t *testing.T) {
	if testing.Short() {
		t.Skip("runs 12 node-loss drills over full fleets")
	}
	refA := referenceResults(t, drillDoc)
	refB := referenceResults(t, drillDocB)
	baseNames := []string{"n0", "n1"}
	victim, walSize := probeVictim(t, baseNames, drillDoc)

	rng := rand.New(rand.NewSource(77))
	const trials = 12
	resumed := 0
	for trial := 0; trial < trials; trial++ {
		variant := trial % 3
		budget := 64 + rng.Intn(walSize-128)
		t.Run(fmt.Sprintf("trial-%02d-variant-%d-at-%d", trial, variant, budget), func(t *testing.T) {
			wrap := func(w io.Writer) io.Writer { return &truncatingWriter{w: w, budget: budget} }
			if variant == 1 {
				// Slow WAL: concurrent appends pile into shared batches,
				// so the tear lands inside a multi-record group commit.
				wrap = func(w io.Writer) io.Writer {
					return &truncatingWriter{w: &delayingWriter{w: w, delay: time.Millisecond}, budget: budget}
				}
			}
			cl, rts, nodes := drillCluster(t, baseNames, map[string]func(io.Writer) io.Writer{victim: wrap})
			if got := victimFor(t, cl, drillDoc); got != victim {
				t.Fatalf("placement moved: first campaign on %s, probe said %s", got, victim)
			}
			v := nodes[victim]
			stopPolling := pollFollower(v.fol)
			ids := startClusterFleet(t, rts.URL, drillDoc)

			var extraIDs []string
			if variant == 2 {
				// Rebalance under traffic: a third node joins the ring
				// mid-run and the next fleet lands with it as a candidate.
				n2 := newDrillNode(t, "n2", nil)
				if err := cl.AddNode("n2", n2.ts.URL); err != nil {
					t.Fatal(err)
				}
				extraIDs = startClusterFleet(t, rts.URL, drillDocB)
			}

			waitFor(t, 60*time.Second, "victim WAL tear", func() bool { return v.st.Err() != nil })
			stopPolling()
			killNode(t, v)

			st2, srv2, err := v.fol.Promote(server.Config{Node: victim})
			if err != nil {
				t.Fatalf("promote: %v", err)
			}
			defer st2.Close()
			// The replica never runs ahead of what the victim
			// acknowledged.
			if replicaSeq, victimSeq := st2.Metrics().LastSeq, v.st.Metrics().LastSeq; replicaSeq > victimSeq {
				t.Fatalf("replica at seq %d, victim acknowledged only %d", replicaSeq, victimSeq)
			}
			state, err := st2.State()
			if err != nil {
				t.Fatalf("replica state: %v", err)
			}
			for _, cs := range state.Campaigns {
				if !cs.Checkpoint.Status.Terminal() {
					resumed++
				}
			}
			ts2 := httptest.NewServer(srv2.Handler())
			defer ts2.Close()
			if err := cl.Repoint(victim, ts2.URL); err != nil {
				t.Fatalf("repoint: %v", err)
			}

			verifyDrill(t, rts.URL, ids, refA, victim, state)
			if len(extraIDs) > 0 {
				verifyDrill(t, rts.URL, extraIDs, refB, victim, state)
			}
		})
	}
	if resumed == 0 {
		t.Fatalf("no trial left a campaign mid-flight across %d tears of a %d-byte WAL; the suite proved nothing", trials, walSize)
	}
	t.Logf("%d campaigns resumed on promoted replicas across %d trials", resumed, trials)
}
