package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"maps"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync/atomic"
	"syscall"
	"testing"
	"time"

	"hputune/internal/campaign"
	"hputune/internal/inference"
	"hputune/internal/spec"
	"hputune/internal/store"
)

// crashFleetDoc is the suite's fleet: three campaigns whose drift keeps
// the fit moving (epsilon 0 + drift means no early convergence), so
// every run has plenty of rounds to crash between, plus one that
// exhausts its budget mid-way.
const crashFleetDoc = `{"campaigns":[
  {"name":"alpha","roundBudget":1000,"budget":8000,"rounds":8,"epsilon":0,"seed":7,
   "prior":{"kind":"linear","k":1,"b":1},
   "drift":{"kind":"rate","factor":0.92},
   "groups":[{"name":"g3","tasks":50,"reps":3,"procRate":2,"true":{"kind":"linear","k":2,"b":0.5}},
             {"name":"g5","tasks":50,"reps":5,"procRate":2,"true":{"kind":"linear","k":2,"b":0.5}}]},
  {"name":"beta","roundBudget":900,"budget":7200,"rounds":8,"epsilon":0,"seed":21,
   "prior":{"kind":"linear","k":1,"b":1},
   "drift":{"kind":"shock","factor":0.7,"round":3},
   "groups":[{"name":"g2","tasks":60,"reps":2,"procRate":2,"true":{"kind":"linear","k":1.8,"b":0.6}},
             {"name":"g4","tasks":45,"reps":4,"procRate":3,"true":{"kind":"linear","k":1.8,"b":0.6}}]},
  {"name":"gamma","roundBudget":800,"budget":2000,"rounds":8,"epsilon":0,"seed":33,
   "prior":{"kind":"linear","k":1,"b":1},
   "groups":[{"name":"g3","tasks":40,"reps":3,"procRate":2,"true":{"kind":"linear","k":2.2,"b":0.4}}]}
]}`

// crowdCrashFleetDoc is the crowd-DB flavor of the suite: the four
// crowd presets (top-k, group-by, deadline SLO, retainer pool), whose
// recovery path must rebuild the crowd executors from the verbatim spec
// and resume byte-identically.
const crowdCrashFleetDoc = `{"fleet":{"preset":"crowd","seed":5}}`

// referenceFleet runs the crash fleet uninterrupted, in-process.
func referenceFleet(t *testing.T) []campaign.Result {
	t.Helper()
	return referenceFleetDoc(t, crashFleetDoc)
}

// referenceFleetDoc runs any fleet doc uninterrupted, in-process.
func referenceFleetDoc(t *testing.T, doc string) []campaign.Result {
	t.Helper()
	cfgs, err := spec.ParseCampaigns([]byte(doc), spec.BuildOpts{})
	if err != nil {
		t.Fatalf("parse fleet: %v", err)
	}
	ref, err := campaign.RunFleet(context.Background(), nil, cfgs, 0)
	if err != nil {
		t.Fatalf("reference fleet: %v", err)
	}
	return ref
}

// recoverTestServer builds a store-backed server over dir.
func recoverTestServer(t *testing.T, dir string, opts store.Options) (*store.Store, *Server, *httptest.Server) {
	t.Helper()
	opts.NoSync = true
	st, err := store.Open(dir, opts)
	if err != nil {
		t.Fatalf("Open(%s): %v", dir, err)
	}
	t.Cleanup(func() { st.Close() })
	s, err := Recover(Config{}, st)
	if err != nil {
		t.Fatalf("Recover: %v", err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return st, s, ts
}

// startFleetAndWait posts the fleet and blocks until every campaign in
// the manager settles.
func startFleetAndWait(t *testing.T, s *Server, ts *httptest.Server, doc string) []string {
	t.Helper()
	resp, raw := postJSON(t, ts.URL+"/v1/campaigns", doc)
	if resp.StatusCode != 202 {
		t.Fatalf("start fleet: status %d: %s", resp.StatusCode, raw)
	}
	var started CampaignStartResponse
	if err := json.Unmarshal(raw, &started); err != nil {
		t.Fatalf("unmarshal: %v", err)
	}
	waitAllSettled(t, s)
	return started.IDs
}

// waitAllSettled blocks until every tracked campaign's Done channel
// closes.
func waitAllSettled(t *testing.T, s *Server) {
	t.Helper()
	deadline := time.After(60 * time.Second)
	for _, sum := range s.Campaigns().List() {
		done, ok := s.Campaigns().Done(sum.ID)
		if !ok {
			continue
		}
		select {
		case <-done:
		case <-deadline:
			t.Fatalf("campaign %s never settled", sum.ID)
		}
	}
}

// getResult fetches one campaign's full result over HTTP.
func getResult(t *testing.T, ts *httptest.Server, id string) campaign.Result {
	t.Helper()
	resp, err := http.Get(ts.URL + "/v1/campaigns/" + id)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != 200 {
		t.Fatalf("get %s: status %d: %s", id, resp.StatusCode, raw)
	}
	var got struct {
		ID string `json:"id"`
		campaign.Result
	}
	if err := json.Unmarshal(raw, &got); err != nil {
		t.Fatalf("unmarshal: %v", err)
	}
	return got.Result
}

func resultJSON(t *testing.T, res campaign.Result) string {
	t.Helper()
	raw, err := json.Marshal(res)
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	return string(raw)
}

// truncatingWriter tears the WAL after a byte budget — the crash.
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

// dyingDiskWriter delegates until broken is set, then fails every write
// with EIO, as a disk that has gone away does. grace, when set, lets
// that many more writes through after the break first.
type dyingDiskWriter struct {
	w      io.Writer
	broken *atomic.Bool
	grace  *atomic.Int64
}

func (dw *dyingDiskWriter) Write(p []byte) (int, error) {
	if dw.broken.Load() && (dw.grace == nil || dw.grace.Add(-1) < 0) {
		return 0, syscall.EIO
	}
	return dw.w.Write(p)
}

// TestFitWritesRefusedOnceWALFails pins journal-before-publish on the
// fit writers: once the WAL fails, /v1/ingest and /v1/replication/fit
// answer 503 durability_lost instead of acknowledging from memory, the
// served fit and record count stay what the WAL holds, and a crash
// recovery of the directory serves exactly the same belief and fit. The
// grace row breaks the disk between an ingest batch's record and its
// fit's: the batch is durable and counted, the fit is not published.
func TestFitWritesRefusedOnceWALFails(t *testing.T) {
	for _, tc := range []struct {
		name  string
		path  string
		body  string
		grace int64
		// journaled is how many of the refused request's records the
		// WAL still took.
		journaled uint64
	}{
		{name: "ingest", path: "/v1/ingest", body: ingestBody(t, []int{3, 6}, 20)},
		{name: "ingest-fit", path: "/v1/ingest", body: ingestBody(t, []int{3, 6}, 20), grace: 1, journaled: 40},
		{name: "merged-fit", path: "/v1/replication/fit",
			body: `{"fit":{"slope":0.25,"intercept":0.5,"r2":0.99,"se":0.01,"n":8,"prices":4},"sources":{"n0":7}}`},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			var broken atomic.Bool
			var grace atomic.Int64
			st, s, ts := recoverTestServer(t, dir, store.Options{
				WrapWAL: func(w io.Writer) io.Writer { return &dyingDiskWriter{w: w, broken: &broken, grace: &grace} },
			})
			if resp, raw := postJSON(t, ts.URL+"/v1/ingest", ingestBody(t, []int{1, 2, 4}, 20)); resp.StatusCode != 200 {
				t.Fatalf("first ingest: status %d: %s", resp.StatusCode, raw)
			}
			fitBefore, ok := s.Fit()
			if !ok {
				t.Fatal("no fit after the first ingest")
			}
			grace.Store(tc.grace)
			broken.Store(true)

			resp, raw := postJSON(t, ts.URL+tc.path, tc.body)
			var env ErrorEnvelope
			if resp.StatusCode != http.StatusServiceUnavailable || json.Unmarshal(raw, &env) != nil || env.Error.Code != CodeDurabilityLost {
				t.Fatalf("%s after the WAL failed: status %d: %s; want 503 %s", tc.path, resp.StatusCode, raw, CodeDurabilityLost)
			}
			if fit, ok := s.Fit(); !ok || fit != fitBefore {
				t.Fatalf("fit %+v after a refused write, want %+v", fit, fitBefore)
			}
			var m MetricsSnapshot
			mresp, err := http.Get(ts.URL + "/v1/metrics")
			if err != nil {
				t.Fatal(err)
			}
			err = json.NewDecoder(mresp.Body).Decode(&m)
			mresp.Body.Close()
			if err != nil {
				t.Fatal(err)
			}
			if want := 60 + tc.journaled; m.Serve.IngestedRecords != want {
				t.Fatalf("serve.ingestedRecords %d after a refused write, want %d", m.Serve.IngestedRecords, want)
			}
			hresp, err := http.Get(ts.URL + "/v1/healthz")
			if err != nil {
				t.Fatal(err)
			}
			hresp.Body.Close()
			if hresp.StatusCode == http.StatusOK {
				t.Fatal("healthz answers 200 on a node whose WAL failed")
			}

			ts.Close()
			st.Close()
			st2, err := store.Open(dir, store.Options{NoSync: true})
			if err != nil {
				t.Fatalf("reopen: %v", err)
			}
			defer st2.Close()
			s2, err := Recover(Config{}, st2)
			if err != nil {
				t.Fatalf("Recover: %v", err)
			}
			if fit, ok := s2.Fit(); !ok || fit != fitBefore {
				t.Fatalf("recovered fit %+v, want the served %+v", fit, fitBefore)
			}
			if got, want := s2.records.Load(), 60+tc.journaled; got != want {
				t.Fatalf("recovered %d records, want the served %d", got, want)
			}
			aggs := func(s *Server) map[int]inference.PriceAggregate {
				s.ingestMu.Lock()
				defer s.ingestMu.Unlock()
				return maps.Clone(s.belief)
			}
			if got, want := aggs(s2), aggs(s); !reflect.DeepEqual(got, want) {
				t.Fatalf("recovered aggregates %v, want the served %v", got, want)
			}
		})
	}
}

// TestHealthzReportsDurabilityLost pins the health contract the cluster
// watchdog relies on: a store-backed node answers 200 while it can
// journal and 503 durability_lost once its WAL has sticky-failed, while
// its reads keep serving.
func TestHealthzReportsDurabilityLost(t *testing.T) {
	for _, tc := range []struct {
		name     string
		diskDies bool
		want     int
	}{
		{"journaling", false, http.StatusOK},
		{"wal-failed", true, http.StatusServiceUnavailable},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var broken atomic.Bool
			st, _, ts := recoverTestServer(t, t.TempDir(), store.Options{
				WrapWAL: func(w io.Writer) io.Writer { return &dyingDiskWriter{w: w, broken: &broken} },
			})
			if resp, raw := postJSON(t, ts.URL+"/v1/ingest", ingestBody(t, []int{1, 2, 4}, 20)); resp.StatusCode != 200 {
				t.Fatalf("first ingest: status %d: %s", resp.StatusCode, raw)
			}
			if tc.diskDies {
				broken.Store(true)
				// The ingest's journal append trips the sticky failure.
				postJSON(t, ts.URL+"/v1/ingest", ingestBody(t, []int{3, 6}, 20))
				if st.Err() == nil {
					t.Fatal("WAL never failed")
				}
			}
			resp, err := http.Get(ts.URL + "/v1/healthz")
			if err != nil {
				t.Fatal(err)
			}
			raw, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			if resp.StatusCode != tc.want {
				t.Fatalf("healthz status %d, want %d: %s", resp.StatusCode, tc.want, raw)
			}
			if tc.diskDies {
				var env ErrorEnvelope
				if err := json.Unmarshal(raw, &env); err != nil || env.Error.Code != CodeDurabilityLost {
					t.Fatalf("healthz body %s (%v), want code %s", raw, err, CodeDurabilityLost)
				}
				if !strings.Contains(env.Error.Message, syscall.EIO.Error()) {
					t.Errorf("healthz message %q does not carry the WAL error", env.Error.Message)
				}
			}
			// Reads keep serving whatever the disk does.
			if resp, raw := postJSON(t, ts.URL+"/v1/solve", specJSON(1)); resp.StatusCode != 200 {
				t.Errorf("solve after healthz: status %d: %s", resp.StatusCode, raw)
			}
			if stats := getStats(t, ts.URL); stats.Serve.IngestedRecords == 0 {
				t.Error("stats lost the acknowledged ingests")
			}
		})
	}
}

// TestCrashRecoveryResumesByteIdentical is the crash-recovery suite:
// the fleet runs against a store whose WAL is torn at a randomized byte
// boundary (often mid-append — the torn final record every crash can
// leave), the "process" is discarded, and a fresh server recovers the
// directory. Every campaign the WAL knew about must finish with a
// result byte-identical to the uninterrupted reference run: the
// recovered rounds replayed from the WAL and the rounds the resumed
// process re-executes must line up exactly.
func TestCrashRecoveryResumesByteIdentical(t *testing.T) {
	trials := 5
	if testing.Short() {
		trials = 2
	}
	runCrashRecoveryDrill(t, crashFleetDoc, referenceFleet(t), 1337, trials)
}

// TestCrowdCrashRecoveryResumesByteIdentical runs the same randomized
// kill-mid-fleet drill over the crowd-DB fleet: a WAL torn mid-campaign
// plus recovery must rebuild the crowd-query executors (synthesized
// datasets, derived groups, the retainer pool's decorrelated assignment
// stream) purely from the journaled verbatim spec and land on the
// uninterrupted fleet's bytes.
func TestCrowdCrashRecoveryResumesByteIdentical(t *testing.T) {
	trials := 3
	if testing.Short() {
		trials = 1
	}
	runCrashRecoveryDrill(t, crowdCrashFleetDoc, referenceFleetDoc(t, crowdCrashFleetDoc), 4242, trials)
}

// runCrashRecoveryDrill tears the WAL at randomized byte boundaries
// while doc's fleet runs, discards the "process", recovers the torn
// directory into a fresh server and requires every campaign the WAL
// knew about to finish byte-identical to ref.
func runCrashRecoveryDrill(t *testing.T, doc string, ref []campaign.Result, rngSeed int64, trials int) {
	// Probe pass: full run with no fault, to size the WAL and to pin
	// that a store-backed server matches the reference exactly.
	probeDir := t.TempDir()
	_, probeSrv, probeTS := recoverTestServer(t, probeDir, store.Options{})
	probeIDs := startFleetAndWait(t, probeSrv, probeTS, doc)
	for i, id := range probeIDs {
		if got, want := resultJSON(t, getResult(t, probeTS, id)), resultJSON(t, ref[i]); got != want {
			t.Fatalf("store-backed run diverged from reference at %s\n got  %s\n want %s", id, got, want)
		}
	}
	walRaw, err := os.ReadFile(filepath.Join(probeDir, "wal.log"))
	if err != nil {
		t.Fatalf("read probe WAL: %v", err)
	}
	walSize := len(walRaw)
	if walSize < 1000 {
		t.Fatalf("probe WAL only %d bytes; fleet too small for meaningful crash points", walSize)
	}

	rng := rand.New(rand.NewSource(rngSeed))
	resumed := 0
	for trial := 0; trial < trials; trial++ {
		// Random crash boundary across the whole WAL, skewed away from
		// the trivial endpoints; byte granularity lands many of these
		// mid-frame.
		budget := 64 + rng.Intn(walSize-64)
		t.Run(fmt.Sprintf("crash-at-%d", budget), func(t *testing.T) {
			dir := t.TempDir()
			st1, srv1, ts1 := recoverTestServer(t, dir, store.Options{
				WrapWAL: func(w io.Writer) io.Writer { return &truncatingWriter{w: w, budget: budget} },
			})
			startFleetAndWait(t, srv1, ts1, doc)
			if st1.Err() == nil {
				t.Fatalf("WAL budget %d never tripped (full WAL is %d)", budget, walSize)
			}
			ts1.Close() // the crashed process is gone

			// Recover the torn directory into a fresh server; resumed
			// campaigns run to completion on their own.
			st2, err := store.Open(dir, store.Options{NoSync: true})
			if err != nil {
				t.Fatalf("reopen torn dir: %v", err)
			}
			defer st2.Close()
			state, err := st2.State()
			if err != nil {
				t.Fatalf("State: %v", err)
			}
			for _, cs := range state.Campaigns {
				if !cs.Checkpoint.Status.Terminal() {
					resumed++
				}
			}
			srv2, err := Recover(Config{}, st2)
			if err != nil {
				t.Fatalf("Recover: %v", err)
			}
			ts2 := httptest.NewServer(srv2.Handler())
			defer ts2.Close()
			waitAllSettled(t, srv2)
			for i := range ref {
				id := fmt.Sprintf("c%d", i+1)
				if _, known := state.Campaigns[id]; !known {
					// The crash predated this campaign's fleet record; it
					// never durably existed. The fleet record is a single
					// atomic append, so either all ids survive or none.
					if len(state.Campaigns) != 0 {
						t.Fatalf("fleet record half-survived: %d of %d campaigns", len(state.Campaigns), len(ref))
					}
					continue
				}
				if got, want := resultJSON(t, getResult(t, ts2, id)), resultJSON(t, ref[i]); got != want {
					t.Fatalf("campaign %s after crash+recovery diverged from the uninterrupted run\n got  %s\n want %s", id, got, want)
				}
			}
		})
	}
	if resumed == 0 {
		t.Fatalf("no trial crashed mid-campaign (%d trials over a %d-byte WAL); the suite proved nothing", trials, walSize)
	}
}

// delayingWriter dawdles before delegating each write, so the three
// campaigns' concurrent journal appends pile into shared group-commit
// batches instead of each flushing alone.
type delayingWriter struct {
	w     io.Writer
	delay time.Duration
}

func (dw *delayingWriter) Write(p []byte) (int, error) {
	time.Sleep(dw.delay)
	return dw.w.Write(p)
}

// TestCrashRecoveryGroupCommitBatched reruns the crash-recovery
// property with group commit doing real batching: a slow WAL forces the
// fleet's concurrent round appends into multi-record batches, and the
// byte budget then tears one of those batches mid-frame — the crash
// between a batched write and its commit. Recovery must still resume
// every surviving campaign byte-identical to the uninterrupted run; a
// batch recovering with a gap would fail the reopen itself.
func TestCrashRecoveryGroupCommitBatched(t *testing.T) {
	if testing.Short() {
		t.Skip("runs crash trials over full fleets")
	}
	ref := referenceFleet(t)
	rng := rand.New(rand.NewSource(4242))
	for trial := 0; trial < 2; trial++ {
		budget := 800 + rng.Intn(6000)
		t.Run(fmt.Sprintf("crash-at-%d", budget), func(t *testing.T) {
			dir := t.TempDir()
			st1, srv1, ts1 := recoverTestServer(t, dir, store.Options{
				WrapWAL: func(w io.Writer) io.Writer {
					return &truncatingWriter{w: &delayingWriter{w: w, delay: 2 * time.Millisecond}, budget: budget}
				},
			})
			startFleetAndWait(t, srv1, ts1, crashFleetDoc)
			if st1.Err() == nil {
				t.Skipf("WAL budget %d never tripped", budget)
			}
			ts1.Close()

			st2, err := store.Open(dir, store.Options{NoSync: true})
			if err != nil {
				t.Fatalf("reopen after batched crash: %v", err)
			}
			defer st2.Close()
			state, err := st2.State()
			if err != nil {
				t.Fatalf("State: %v", err)
			}
			srv2, err := Recover(Config{}, st2)
			if err != nil {
				t.Fatalf("Recover: %v", err)
			}
			ts2 := httptest.NewServer(srv2.Handler())
			defer ts2.Close()
			waitAllSettled(t, srv2)
			for i := range ref {
				id := fmt.Sprintf("c%d", i+1)
				if _, known := state.Campaigns[id]; !known {
					if len(state.Campaigns) != 0 {
						t.Fatalf("fleet record half-survived: %d of %d campaigns", len(state.Campaigns), len(ref))
					}
					continue
				}
				if got, want := resultJSON(t, getResult(t, ts2, id)), resultJSON(t, ref[i]); got != want {
					t.Fatalf("campaign %s after batched crash+recovery diverged\n got  %s\n want %s", id, got, want)
				}
			}
		})
	}
}

// TestGracefulRestartResumes pins the SIGTERM path: shutting a
// store-backed server down mid-fleet suspends (not cancels) running
// campaigns, drain-then-snapshot compacts the WAL, and the next process
// resumes them to results byte-identical to the uninterrupted run.
func TestGracefulRestartResumes(t *testing.T) {
	ref := referenceFleet(t)
	dir := t.TempDir()
	st1, err := store.Open(dir, store.Options{NoSync: true})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	srv1, err := Recover(Config{}, st1)
	if err != nil {
		t.Fatalf("Recover: %v", err)
	}
	ts1 := httptest.NewServer(srv1.Handler())
	resp, raw := postJSON(t, ts1.URL+"/v1/campaigns", crashFleetDoc)
	if resp.StatusCode != 202 {
		t.Fatalf("start fleet: status %d: %s", resp.StatusCode, raw)
	}
	// Let some rounds land, then shut down mid-flight the way serve()
	// does: Close (suspend), then drain-then-snapshot.
	waitForRounds(t, st1, 2)
	srv1.Close()
	suspendedAny := false
	for _, sum := range srv1.Campaigns().List() {
		if sum.Status == campaign.StatusSuspended {
			suspendedAny = true
		}
	}
	if err := st1.Compact(); err != nil {
		t.Fatalf("Compact: %v", err)
	}
	if err := st1.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	ts1.Close()
	if !suspendedAny {
		t.Skip("fleet finished before the shutdown landed; nothing was suspended (timing)")
	}

	// The compacted directory must recover purely from the snapshot.
	if fi, err := os.Stat(filepath.Join(dir, "wal.log")); err != nil || fi.Size() != 0 {
		t.Fatalf("WAL not empty after drain-then-snapshot: %v %d", err, fi.Size())
	}
	st2, err := store.Open(dir, store.Options{NoSync: true})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer st2.Close()
	srv2, err := Recover(Config{}, st2)
	if err != nil {
		t.Fatalf("Recover: %v", err)
	}
	ts2 := httptest.NewServer(srv2.Handler())
	defer ts2.Close()
	waitAllSettled(t, srv2)
	for i := range ref {
		id := fmt.Sprintf("c%d", i+1)
		if got, want := resultJSON(t, getResult(t, ts2, id)), resultJSON(t, ref[i]); got != want {
			t.Fatalf("campaign %s after graceful restart diverged\n got  %s\n want %s", id, got, want)
		}
	}
	// Lifetime counters survived the restart and the resumed campaigns
	// finished exactly once each.
	stats := srv2.Campaigns().Stats()
	if stats.Started != uint64(len(ref)) || stats.Finished != uint64(len(ref)) {
		t.Fatalf("counters after restart: %+v, want started=finished=%d", stats, len(ref))
	}
}

// waitForRounds blocks until the store has journaled at least n round
// records.
func waitForRounds(t *testing.T, st *store.Store, n int) {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		state, err := st.State()
		if err != nil {
			t.Fatalf("State: %v", err)
		}
		rounds := 0
		for _, cs := range state.Campaigns {
			rounds += len(cs.Rounds)
		}
		if rounds >= n {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("store never saw %d rounds", n)
}

// TestRecoverIngestAndFit pins the ingest leg of recovery: aggregates,
// the lifetime record counter and the published fit survive a crash,
// and a "fitted"-model solve on the recovered server answers exactly
// like the original.
func TestRecoverIngestAndFit(t *testing.T) {
	dir := t.TempDir()
	_, _, ts1 := recoverTestServer(t, dir, store.Options{})
	resp, raw := postJSON(t, ts1.URL+"/v1/ingest", ingestBody(t, []int{1, 2, 4, 8}, 50))
	if resp.StatusCode != 200 {
		t.Fatalf("ingest: status %d: %s", resp.StatusCode, raw)
	}
	// A second batch moves the fit — recovery must keep the latest.
	resp, raw = postJSON(t, ts1.URL+"/v1/ingest", ingestBody(t, []int{3, 6}, 30))
	if resp.StatusCode != 200 {
		t.Fatalf("ingest 2: status %d: %s", resp.StatusCode, raw)
	}
	fittedSpec := `{"budget":300,"groups":[{"name":"a","tasks":5,"reps":2,"procRate":2.0,"model":{"kind":"fitted"}}]}`
	resp, wantSolve := postJSON(t, ts1.URL+"/v1/solve", fittedSpec)
	if resp.StatusCode != 200 {
		t.Fatalf("fitted solve: status %d: %s", resp.StatusCode, wantSolve)
	}
	wantStats := getStats(t, ts1.URL)
	ts1.Close()

	// Crash-reopen: no compact, no graceful anything.
	st2, err := store.Open(dir, store.Options{NoSync: true})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer st2.Close()
	srv2, err := Recover(Config{}, st2)
	if err != nil {
		t.Fatalf("Recover: %v", err)
	}
	ts2 := httptest.NewServer(srv2.Handler())
	defer ts2.Close()
	gotStats := getStats(t, ts2.URL)
	if gotStats.Serve.IngestedRecords != wantStats.Serve.IngestedRecords {
		t.Fatalf("ingested records %d after recovery, want %d", gotStats.Serve.IngestedRecords, wantStats.Serve.IngestedRecords)
	}
	gf, wf := gotStats.Fit, wantStats.Fit
	if gf == nil || wf == nil || *gf != *wf {
		t.Fatalf("fit after recovery %+v, want %+v", gf, wf)
	}
	resp, gotSolve := postJSON(t, ts2.URL+"/v1/solve", fittedSpec)
	if resp.StatusCode != 200 {
		t.Fatalf("fitted solve after recovery: status %d: %s", resp.StatusCode, gotSolve)
	}
	if string(gotSolve) != string(wantSolve) {
		t.Fatalf("fitted solve after recovery diverged\n got  %s\n want %s", gotSolve, wantSolve)
	}
}

// TestRecoverRefusesMismatchedState guards the failure mode where a
// state directory and the parsed fleet disagree (say, a hand-edited
// snapshot): recovery must fail loudly, not resume garbage.
func TestRecoverRefusesMismatchedState(t *testing.T) {
	dir := t.TempDir()
	st, err := store.Open(dir, store.Options{NoSync: true})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	// A fleet record whose spec has one campaign but claims two ids.
	doc := `{"campaign":{"name":"x","roundBudget":100,"rounds":2,"seed":1,
	  "prior":{"kind":"linear","k":1,"b":1},
	  "groups":[{"name":"g","tasks":10,"reps":2,"procRate":2,"true":{"kind":"linear","k":2,"b":0.5}}]}}`
	if err := st.AppendFleet([]byte(doc), []string{"c1", "c2"}, nil); err != nil {
		t.Fatalf("AppendFleet: %v", err)
	}
	st.Close()
	st2, err := store.Open(dir, store.Options{NoSync: true})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer st2.Close()
	if _, err := Recover(Config{}, st2); err == nil {
		t.Fatal("Recover accepted a fleet whose ids outnumber its configs")
	}
}
