package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"hputune/internal/engine"
	"hputune/internal/htuning"
	"hputune/internal/inference"
	"hputune/internal/market"
	"hputune/internal/spec"
	"hputune/internal/trace"
	"hputune/internal/traffic"
)

// specJSON builds a single-instance spec document whose shape varies
// with variant, so concurrent clients exercise distinct cache keys.
func specJSON(variant int) string {
	budget := 200 + 40*(variant%7)
	tasks := 3 + variant%4
	reps := 1 + variant%3
	k := 1 + variant%3
	return fmt.Sprintf(`{
	  "budget": %d,
	  "groups": [
	    {"name": "a", "tasks": %d, "reps": %d, "procRate": 2.0,
	     "model": {"kind": "linear", "k": %d, "b": 1}},
	    {"name": "b", "tasks": 4, "reps": 2, "procRate": 2.0,
	     "model": {"kind": "linear", "k": 2, "b": 1}}
	  ]
	}`, budget, tasks, reps, k)
}

// directSolve is the in-process reference the HTTP path must match.
func directSolve(t *testing.T, doc string) htuning.RepetitionResult {
	t.Helper()
	problems, _, err := spec.Parse([]byte(doc), spec.BuildOpts{})
	if err != nil {
		t.Fatal(err)
	}
	results, err := engine.SolveBatch(htuning.NewEstimator(), problems, engine.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return results[0]
}

func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, ts
}

func postJSON(t *testing.T, url, body string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, raw
}

func getStats(t *testing.T, base string) StatsResponse {
	t.Helper()
	resp, err := http.Get(base + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st StatsResponse
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	return st
}

func TestSolveMatchesDirectBatch(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	doc := specJSON(0)
	want := directSolve(t, doc)
	resp, raw := postJSON(t, ts.URL+"/v1/solve", doc)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, raw)
	}
	var got SolveResponse
	if err := json.Unmarshal(raw, &got); err != nil {
		t.Fatal(err)
	}
	if got.Batch || len(got.Results) != 1 {
		t.Fatalf("unexpected shape: %+v", got)
	}
	res := got.Results[0]
	if fmt.Sprint(res.Prices) != fmt.Sprint(want.Prices) {
		t.Errorf("HTTP prices %v != direct SolveBatch prices %v", res.Prices, want.Prices)
	}
	if res.Objective != want.Objective || res.Spent != want.Spent {
		t.Errorf("HTTP result (%v, %d) != direct (%v, %d)", res.Objective, res.Spent, want.Objective, want.Spent)
	}
}

func TestSolveBatchSpec(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	doc := fmt.Sprintf(`{"problems": [%s, %s]}`,
		strings.TrimSpace(specJSON(1)), strings.TrimSpace(specJSON(2)))
	resp, raw := postJSON(t, ts.URL+"/v1/solve", doc)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, raw)
	}
	var got SolveResponse
	if err := json.Unmarshal(raw, &got); err != nil {
		t.Fatal(err)
	}
	if !got.Batch || len(got.Results) != 2 {
		t.Fatalf("unexpected shape: %+v", got)
	}
	for i, doc := range []string{specJSON(1), specJSON(2)} {
		want := directSolve(t, doc)
		if fmt.Sprint(got.Results[i].Prices) != fmt.Sprint(want.Prices) {
			t.Errorf("problem %d: HTTP prices %v != direct %v", i, got.Results[i].Prices, want.Prices)
		}
	}
}

func TestSolveHeterogeneous(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	doc := `{
	  "budget": 300,
	  "groups": [
	    {"name": "a", "tasks": 4, "reps": 2, "procRate": 2.0,
	     "model": {"kind": "linear", "k": 1, "b": 1}},
	    {"name": "b", "tasks": 3, "reps": 3, "procRate": 5.0,
	     "model": {"kind": "linear", "k": 2, "b": 1}}
	  ]
	}`
	problems, _, err := spec.Parse([]byte(doc), spec.BuildOpts{})
	if err != nil {
		t.Fatal(err)
	}
	wantRes, err := engine.SolveHeterogeneousBatch(htuning.NewEstimator(), problems, engine.Options{})
	if err != nil {
		t.Fatal(err)
	}
	want := wantRes[0]
	resp, raw := postJSON(t, ts.URL+"/v1/solve-heterogeneous", doc)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, raw)
	}
	var got HeterogeneousResponse
	if err := json.Unmarshal(raw, &got); err != nil {
		t.Fatal(err)
	}
	res := got.Results[0]
	if fmt.Sprint(res.Prices) != fmt.Sprint(want.Prices) {
		t.Errorf("HTTP prices %v != direct %v", res.Prices, want.Prices)
	}
	if res.Closeness != want.Closeness || res.O1 != want.O1 || res.O2 != want.O2 {
		t.Errorf("HTTP diagnostics (%v, %v, %v) != direct (%v, %v, %v)",
			res.O1, res.O2, res.Closeness, want.O1, want.O2, want.Closeness)
	}
}

func TestSimulateDeterministicOverHTTP(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	body := `{
	  "budget": 120,
	  "groups": [
	    {"name": "a", "tasks": 3, "reps": 2, "procRate": 2.0,
	     "model": {"kind": "linear", "k": 1, "b": 1}}
	  ],
	  "prices": [20],
	  "trials": 500,
	  "seed": 42
	}`
	resp1, raw1 := postJSON(t, ts.URL+"/v1/simulate", body)
	if resp1.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp1.StatusCode, raw1)
	}
	_, raw2 := postJSON(t, ts.URL+"/v1/simulate", body)
	if !bytes.Equal(raw1, raw2) {
		t.Errorf("same simulate request, different replies: %s vs %s", raw1, raw2)
	}
	var got SimulateResponse
	if err := json.Unmarshal(raw1, &got); err != nil {
		t.Fatal(err)
	}
	if got.Batch || len(got.Latencies) != 1 || !(got.Latencies[0] > 0) {
		t.Fatalf("unexpected simulate reply: %+v", got)
	}
	// And identical to the in-process engine path.
	problems, _, err := spec.Parse([]byte(`{"budget":120,"groups":[{"name":"a","tasks":3,"reps":2,"procRate":2.0,"model":{"kind":"linear","k":1,"b":1}}]}`), spec.BuildOpts{})
	if err != nil {
		t.Fatal(err)
	}
	alloc, err := htuning.NewUniformAllocation(problems[0], []int{20})
	if err != nil {
		t.Fatal(err)
	}
	want, err := engine.SimulateBatch([]engine.SimulateItem{{Problem: problems[0], Allocation: alloc}},
		htuning.PhaseBoth, 500, 42, engine.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if got.Latencies[0] != want[0] {
		t.Errorf("HTTP latency %v != engine latency %v", got.Latencies[0], want[0])
	}
}

// ingestBody builds a JSONL trace whose MLE at price c is exactly
// rate(c) = 2c+1: n records per price, each with on-hold 1/rate.
func ingestBody(t *testing.T, prices []int, perPrice int) string {
	t.Helper()
	var recs []market.RepRecord
	for _, c := range prices {
		rate := 2*float64(c) + 1
		for i := 0; i < perPrice; i++ {
			recs = append(recs, market.RepRecord{
				TaskID:   fmt.Sprintf("t%d-%d", c, i),
				Rep:      1,
				Price:    c,
				PostedAt: 0,
				Accepted: 1 / rate,
				Done:     1/rate + 0.5,
				WorkerID: i,
				Correct:  true,
			})
		}
	}
	var buf bytes.Buffer
	if err := trace.WriteJSONL(&buf, recs); err != nil {
		t.Fatal(err)
	}
	return buf.String()
}

func TestIngestRetunesFittedModel(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	fittedSpec := `{
	  "budget": 200,
	  "groups": [
	    {"name": "a", "tasks": 4, "reps": 2, "procRate": 2.0,
	     "model": {"kind": "fitted"}}
	  ]
	}`
	// Before any ingest the fitted model must be rejected.
	resp, raw := postJSON(t, ts.URL+"/v1/solve", fittedSpec)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("fitted solve before ingest: status %d: %s", resp.StatusCode, raw)
	}

	resp, raw = postJSON(t, ts.URL+"/v1/ingest", ingestBody(t, []int{1, 2, 4, 8}, 50))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("ingest status %d: %s", resp.StatusCode, raw)
	}
	var ing IngestResponse
	if err := json.Unmarshal(raw, &ing); err != nil {
		t.Fatal(err)
	}
	if ing.Records != 200 || ing.Fit == nil {
		t.Fatalf("unexpected ingest reply: %s", raw)
	}
	if diff := ing.Fit.Slope - 2; diff > 1e-9 || diff < -1e-9 {
		t.Errorf("fit slope %v, want ~2", ing.Fit.Slope)
	}

	// A fitted solve now works and matches a direct solve under the
	// exact same linear model the server fitted.
	resp, raw = postJSON(t, ts.URL+"/v1/solve", fittedSpec)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("fitted solve after ingest: status %d: %s", resp.StatusCode, raw)
	}
	var got SolveResponse
	if err := json.Unmarshal(raw, &got); err != nil {
		t.Fatal(err)
	}
	model, ok := s.Fit()
	if !ok {
		t.Fatal("server reports no fit after ingest")
	}
	p := htuning.Problem{
		Budget: 200,
		Groups: []htuning.Group{{
			Type:  &htuning.TaskType{Name: "a", Accept: model, ProcRate: 2.0},
			Tasks: 4, Reps: 2,
		}},
	}
	want, err := engine.SolveBatch(htuning.NewEstimator(), []htuning.Problem{p}, engine.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(got.Results[0].Prices) != fmt.Sprint(want[0].Prices) {
		t.Errorf("fitted HTTP prices %v != direct prices %v", got.Results[0].Prices, want[0].Prices)
	}

	// A second ingest at new prices swaps the fit atomically.
	resp, raw = postJSON(t, ts.URL+"/v1/ingest", ingestBody(t, []int{3, 5}, 30))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("second ingest status %d: %s", resp.StatusCode, raw)
	}
	st := getStats(t, ts.URL)
	if st.Serve.Ingests != 2 || st.Serve.IngestedRecords != 260 {
		t.Errorf("ingest counters = %+v, want 2 ingests / 260 records", st.Serve)
	}
	if st.Fit == nil || st.Fit.Prices != 6 {
		t.Errorf("stats fit = %+v, want 6 price levels", st.Fit)
	}
}

// TestIngestRejectsDecreasingFit pins the rate-model contract: a trace
// where higher pay looked slower must not publish a decreasing fit, and
// the previous valid fit must stay live.
func TestIngestRejectsDecreasingFit(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	// Valid increasing fit first (rate(c) = 2c+1).
	resp, raw := postJSON(t, ts.URL+"/v1/ingest", ingestBody(t, []int{1, 2}, 20))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("first ingest status %d: %s", resp.StatusCode, raw)
	}
	before, ok := s.Fit()
	if !ok {
		t.Fatal("no fit after valid ingest")
	}
	// Now swamp it with records where price 20 looks much slower than
	// everything seen so far: on-hold 100 per record at price 20 drags
	// the least-squares slope negative.
	var recs []market.RepRecord
	for i := 0; i < 400; i++ {
		recs = append(recs, market.RepRecord{
			TaskID: fmt.Sprintf("slow%d", i), Rep: 1, Price: 20,
			PostedAt: 0, Accepted: 100, Done: 101, WorkerID: i,
		})
	}
	var buf bytes.Buffer
	if err := trace.WriteJSONL(&buf, recs); err != nil {
		t.Fatal(err)
	}
	resp, raw = postJSON(t, ts.URL+"/v1/ingest", buf.String())
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("second ingest status %d: %s", resp.StatusCode, raw)
	}
	var ing IngestResponse
	if err := json.Unmarshal(raw, &ing); err != nil {
		t.Fatal(err)
	}
	if ing.Fit != nil || ing.FitPending == "" {
		t.Fatalf("decreasing fit was published: %s", raw)
	}
	after, ok := s.Fit()
	if !ok || after != before {
		t.Errorf("previous fit not retained: %+v vs %+v", after, before)
	}
}

// TestIngestPriceLevelCap pins the bounded-memory contract: a hostile
// upload spraying distinct price levels is rejected wholesale once the
// tracked-level cap would be exceeded.
func TestIngestPriceLevelCap(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	var sb strings.Builder
	for c := 1; c <= 5000; c++ {
		fmt.Fprintf(&sb, `{"task_id":"t%d","rep":1,"price":%d,"posted_at":0,"accepted":0.5,"done":1,"worker_id":1,"correct":true}`+"\n", c, c)
	}
	resp, raw := postJSON(t, ts.URL+"/v1/ingest", sb.String())
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status %d, want 400: %.200s", resp.StatusCode, raw)
	}
	if st := getStats(t, ts.URL); st.Serve.IngestedRecords != 0 {
		t.Errorf("rejected over-cap ingest committed %d records", st.Serve.IngestedRecords)
	}
}

// TestIngestRejectionCommitsNothing pins the all-or-nothing contract: a
// body whose tail record is invalid must not fold its valid head into
// the aggregates (retries would double-count).
func TestIngestRejectionCommitsNothing(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	good := strings.TrimSuffix(ingestBody(t, []int{1, 2}, 5), "\n")
	bad := good + "\n" + `{"task_id":"x","rep":1,"price":3,"posted_at":5,"accepted":1,"done":6,"worker_id":1,"correct":true}`
	resp, raw := postJSON(t, ts.URL+"/v1/ingest", bad)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status %d, want 400: %s", resp.StatusCode, raw)
	}
	st := getStats(t, ts.URL)
	if st.Serve.IngestedRecords != 0 || st.Fit != nil {
		t.Errorf("rejected ingest left state behind: %+v, fit %+v", st.Serve, st.Fit)
	}
}

func TestIngestCSV(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	var recs []market.RepRecord
	for _, c := range []int{2, 6} {
		for i := 0; i < 10; i++ {
			recs = append(recs, market.RepRecord{
				TaskID: fmt.Sprintf("t%d", i), Rep: 1, Price: c,
				PostedAt: 0, Accepted: 0.25, Done: 0.5, WorkerID: i,
			})
		}
	}
	var buf bytes.Buffer
	if err := trace.WriteCSV(&buf, recs); err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts.URL+"/v1/ingest", "text/csv", &buf)
	if err != nil {
		t.Fatal(err)
	}
	raw, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("CSV ingest status %d: %s", resp.StatusCode, raw)
	}
	var ing IngestResponse
	if err := json.Unmarshal(raw, &ing); err != nil {
		t.Fatal(err)
	}
	if ing.Records != 20 || ing.Fit == nil {
		t.Errorf("unexpected CSV ingest reply: %s", raw)
	}
}

// TestIngestRecordFilter pins the one record filter shared by campaign
// folds and ingest: price >= 1 and a finite, non-negative on-hold time.
// Belief.Observe drops a bad record with a reason; /v1/ingest refuses a
// batch holding it with 400 and that same reason, folding nothing.
func TestIngestRecordFilter(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	valid := market.RepRecord{TaskID: "ok", Rep: 1, Price: 2, PostedAt: 1, Accepted: 1.5, Done: 2, WorkerID: 1}
	for _, tc := range []struct {
		name    string
		price   int
		onHold  float64
		refusal string
	}{
		{"valid", 3, 0.25, ""},
		{"price-zero", 0, 0.5, "price 0 below 1 unit (model domain is c >= 1)"},
		{"negative-hold", 2, -1, "on-hold duration -1 is not a finite non-negative number"},
		{"nan-hold", 2, math.NaN(), "on-hold duration NaN is not a finite non-negative number"},
		{"inf-hold", 2, math.Inf(1), "on-hold duration +Inf is not a finite non-negative number"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			rec := market.RepRecord{TaskID: tc.name, Rep: 1, Price: tc.price, PostedAt: 1, Accepted: 1 + tc.onHold, Done: 3, WorkerID: 2}
			var b inference.Belief
			err := b.Observe(rec)
			if tc.refusal == "" {
				if err != nil || b[tc.price] != (inference.PriceAggregate{N: 1, Total: tc.onHold}) {
					t.Fatalf("Observe(valid): err %v, aggregates %v", err, b)
				}
			} else if err == nil || err.Error() != tc.refusal || b != nil {
				t.Fatalf("Observe: err %v, aggregates %v; want refusal %q and nothing folded", err, b, tc.refusal)
			}

			before := s.records.Load()
			var buf bytes.Buffer
			if err := trace.WriteCSV(&buf, []market.RepRecord{valid, rec}); err != nil {
				t.Fatal(err)
			}
			resp, err := http.Post(ts.URL+"/v1/ingest", "text/csv", &buf)
			if err != nil {
				t.Fatal(err)
			}
			raw, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			if tc.refusal == "" {
				if resp.StatusCode != http.StatusOK || s.records.Load() != before+2 {
					t.Fatalf("valid batch: status %d: %s", resp.StatusCode, raw)
				}
				return
			}
			var env ErrorEnvelope
			if resp.StatusCode != http.StatusBadRequest || json.Unmarshal(raw, &env) != nil ||
				env.Error.Message != fmt.Sprintf("record %q rep 1: %s", tc.name, tc.refusal) {
				t.Fatalf("status %d: %s; want 400 with reason %q", resp.StatusCode, raw, tc.refusal)
			}
			if s.records.Load() != before {
				t.Fatal("a refused batch was counted")
			}
		})
	}
	s.ingestMu.Lock()
	defer s.ingestMu.Unlock()
	if got := s.belief; len(got) != 2 || got[2].N != 1 || got[3].N != 1 {
		t.Fatalf("belief %v, want only the valid batch's two records", got)
	}
}

func TestOverloadReturns503(t *testing.T) {
	s, ts := newTestServer(t, Config{MaxInFlight: 1})
	// Hold the only permit so the next request is turned away.
	if !s.gate.TryAcquire(traffic.Bulk) {
		t.Fatal("could not take the only permit")
	}
	defer s.gate.Release(traffic.Bulk)
	resp, raw := postJSON(t, ts.URL+"/v1/solve", specJSON(0))
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("status %d, want 503: %s", resp.StatusCode, raw)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("503 without Retry-After")
	}
	st := getStats(t, ts.URL)
	if st.Serve.Rejected == 0 {
		t.Error("rejection not counted in stats")
	}
}

func TestIngestOverloadReturns503(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	var held int
	for s.ingestGate.TryAcquire() {
		held++
	}
	defer func() {
		for ; held > 0; held-- {
			s.ingestGate.Release()
		}
	}()
	resp, raw := postJSON(t, ts.URL+"/v1/ingest", ingestBody(t, []int{1, 2}, 2))
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("status %d, want 503: %s", resp.StatusCode, raw)
	}
	if st := getStats(t, ts.URL); st.Serve.IngestRejected == 0 {
		t.Error("ingest rejection not counted in stats")
	}
}

func TestBadRequests(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	cases := []struct {
		name, path, body string
	}{
		{"bad json", "/v1/solve", `{"budget": `},
		{"no groups", "/v1/solve", `{"budget": 100}`},
		{"mixed shapes", "/v1/solve", `{"budget": 1, "groups": [{"name":"a","tasks":1,"reps":1,"procRate":1,"model":{"kind":"log"}}], "problems": [{}]}`},
		{"nested batch", "/v1/solve", `{"problems": [{"problems": [{}]}]}`},
		{"unknown model", "/v1/solve", `{"budget": 10, "groups": [{"name":"a","tasks":1,"reps":1,"procRate":1,"model":{"kind":"nope"}}]}`},
		{"budget too small", "/v1/solve", `{"budget": 1, "groups": [{"name":"a","tasks":5,"reps":5,"procRate":1,"model":{"kind":"log"}}]}`},
		{"unknown sim phase", "/v1/simulate", `{"budget":120,"groups":[{"name":"a","tasks":3,"reps":2,"procRate":2,"model":{"kind":"log"}}],"prices":[20],"phase":"nope"}`},
		{"sim trailing data", "/v1/simulate", `{"budget":120,"groups":[{"name":"a","tasks":3,"reps":2,"procRate":2,"model":{"kind":"log"}}],"prices":[20]} {"budget":9}`},
		{"solve trailing data", "/v1/solve", `{"budget":120,"groups":[{"name":"a","tasks":3,"reps":2,"procRate":2,"model":{"kind":"log"}}]} {"budget":9}`},
		{"sim trials too big", "/v1/simulate", `{"budget":120,"groups":[{"name":"a","tasks":3,"reps":2,"procRate":2,"model":{"kind":"log"}}],"prices":[20],"trials":999999999}`},
		{"sim mixed shapes", "/v1/simulate", `{"budget":120,"groups":[{"name":"a","tasks":3,"reps":2,"procRate":2,"model":{"kind":"log"}}],"prices":[20],"problems":[{"budget":1}]}`},
		{"empty ingest", "/v1/ingest", ""},
		{"garbage ingest", "/v1/ingest", "{not json lines"},
		{"ingest price below 1", "/v1/ingest", `{"task_id":"a","rep":1,"price":0,"posted_at":0,"accepted":1,"done":2,"worker_id":1,"correct":true}`},
		{"ingest infinite duration", "/v1/ingest", `{"task_id":"a","rep":1,"price":2,"posted_at":-1.7e308,"accepted":1.7e308,"done":1.7e308,"worker_id":1,"correct":true}`},
		{"ingest overflowing total", "/v1/ingest", `{"task_id":"a","rep":1,"price":2,"posted_at":0,"accepted":1e308,"done":1e308,"worker_id":1,"correct":true}` + "\n" + `{"task_id":"b","rep":1,"price":2,"posted_at":0,"accepted":1e308,"done":1e308,"worker_id":2,"correct":true}`},
		// Each instance dimension is in bounds, but budget × groups
		// explodes the greedy step count — must be a fast 400.
		{"solve work above limit", "/v1/solve", func() string {
			groups := make([]string, 100)
			for i := range groups {
				groups[i] = fmt.Sprintf(`{"name":"g%d","tasks":1,"reps":1,"procRate":1,"model":{"kind":"log"}}`, i)
			}
			return `{"budget":16777216,"groups":[` + strings.Join(groups, ",") + `]}`
		}()},
		{"solve budget above limit", "/v1/solve", `{"budget": 99999999, "groups": [{"name":"a","tasks":1,"reps":1,"procRate":1,"model":{"kind":"log"}}]}`},
		// Many max-budget instances must trip the request-wide budget
		// cap even though each instance is individually legal.
		{"solve batch budget above limit", "/v1/solve", func() string {
			inst := `{"budget":16777216,"groups":[{"name":"a","tasks":1,"reps":1,"procRate":1,"model":{"kind":"log"}}]}`
			insts := make([]string, 5)
			for i := range insts {
				insts[i] = inst
			}
			return `{"problems":[` + strings.Join(insts, ",") + `]}`
		}()},
		// A few hundred bytes asking for a multi-terabyte allocation:
		// must be a fast 400, not an OOM (the request would hang or
		// kill the process if the allocation were ever materialized).
		{"sim tasks above limit", "/v1/simulate", `{"budget":2000000000,"groups":[{"name":"a","tasks":2000000000,"reps":1,"procRate":1,"model":{"kind":"log"}}],"prices":[1]}`},
		{"sim work above limit", "/v1/simulate", `{"budget":4000000,"groups":[{"name":"a","tasks":1000000,"reps":4,"procRate":1,"model":{"kind":"log"}}],"prices":[1],"trials":10000000}`},
		// Many near-limit instances at trials:1 pass the work cap but
		// must hit the request-wide repetition (memory) cap before any
		// allocation is materialized.
		{"sim request reps above limit", "/v1/simulate", func() string {
			inst := `{"budget":4000000,"groups":[{"name":"a","tasks":4000000,"reps":1,"procRate":1,"model":{"kind":"log"}}],"prices":[1]}`
			return `{"trials":1,"problems":[` + inst + `,` + inst + `]}`
		}()},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			resp, raw := postJSON(t, ts.URL+tc.path, tc.body)
			if resp.StatusCode != http.StatusBadRequest {
				t.Errorf("status %d, want 400: %s", resp.StatusCode, raw)
			}
			var eb ErrorEnvelope
			if err := json.Unmarshal(raw, &eb); err != nil || eb.Error.Code == "" || eb.Error.Message == "" {
				t.Errorf("error body not a JSON error envelope: %s", raw)
			}
		})
	}
	// Method mismatches.
	resp, err := http.Get(ts.URL + "/v1/solve")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET /v1/solve status %d, want 405", resp.StatusCode)
	}
}

func TestHealthz(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp, err := http.Get(ts.URL + "/v1/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("healthz status %d", resp.StatusCode)
	}
}

// TestConcurrentClientsRaceFree is the acceptance test: >= 32 concurrent
// clients mixing solves, simulates, ingests and stats against a server
// whose estimator cache is deliberately tiny. Every HTTP solve must
// match the in-process SolveBatch result bit for bit, the cache must
// stay within its bound, and -race must stay silent while ingest
// re-tunes the fit mid-solve.
func TestConcurrentClientsRaceFree(t *testing.T) {
	const clients = 32
	const perClient = 4
	const cacheEntries = 256

	// Precompute the expected result for every spec variant.
	variants := make([]string, 8)
	want := make([]htuning.RepetitionResult, len(variants))
	for i := range variants {
		variants[i] = specJSON(i)
		want[i] = directSolve(t, variants[i])
	}

	// BulkShare 1 keeps every solve admitted at this concurrency (the
	// gate still reserves one priority permit); starvation behaviour is
	// covered by TestBulkFloodDoesNotStarveCampaigns.
	_, ts := newTestServer(t, Config{MaxInFlight: clients + 4, CacheEntries: cacheEntries,
		Traffic: TrafficConfig{BulkShare: 1}})
	client := ts.Client()

	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for r := 0; r < perClient; r++ {
				switch {
				case c%4 == 3 && r%2 == 1:
					// Ingest while others solve: re-tunes the fit and
					// hammers the aggregates under the estimator load.
					resp, err := client.Post(ts.URL+"/v1/ingest", "application/x-ndjson",
						strings.NewReader(ingestBody(t, []int{1 + c%3, 4 + r}, 5)))
					if err != nil {
						t.Error(err)
						return
					}
					io.Copy(io.Discard, resp.Body)
					resp.Body.Close()
					if resp.StatusCode != http.StatusOK {
						t.Errorf("client %d ingest status %d", c, resp.StatusCode)
					}
				default:
					v := (c + r) % len(variants)
					resp, err := client.Post(ts.URL+"/v1/solve", "application/json",
						strings.NewReader(variants[v]))
					if err != nil {
						t.Error(err)
						return
					}
					raw, err := io.ReadAll(resp.Body)
					resp.Body.Close()
					if err != nil {
						t.Error(err)
						return
					}
					if resp.StatusCode != http.StatusOK {
						t.Errorf("client %d solve status %d: %s", c, resp.StatusCode, raw)
						return
					}
					var got SolveResponse
					if err := json.Unmarshal(raw, &got); err != nil {
						t.Error(err)
						return
					}
					if fmt.Sprint(got.Results[0].Prices) != fmt.Sprint(want[v].Prices) {
						t.Errorf("client %d variant %d: HTTP prices %v != direct %v",
							c, v, got.Results[0].Prices, want[v].Prices)
					}
					if got.Results[0].Objective != want[v].Objective {
						t.Errorf("client %d variant %d: objective %v != %v",
							c, v, got.Results[0].Objective, want[v].Objective)
					}
				}
			}
		}(c)
	}
	wg.Wait()

	st := getStats(t, ts.URL)
	if st.Cache.Entries > st.Cache.Capacity {
		t.Errorf("cache entries %d exceed capacity %d", st.Cache.Entries, st.Cache.Capacity)
	}
	if st.Cache.Capacity > cacheEntries {
		t.Errorf("cache capacity %d above configured %d", st.Cache.Capacity, cacheEntries)
	}
	if st.Cache.Evictions == 0 {
		t.Error("no evictions under concurrent load on a tiny cache")
	}
	if st.Serve.Solves == 0 || st.Serve.Ingests == 0 {
		t.Errorf("counters did not move: %+v", st.Serve)
	}
	if st.Serve.InFlight != 0 {
		t.Errorf("in-flight %d at rest, want 0", st.Serve.InFlight)
	}
}

func TestGracefulShutdown(t *testing.T) {
	s, err := New(Config{})
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- s.Serve(ctx, ln) }()
	url := "http://" + ln.Addr().String()
	resp, err := http.Get(url + "/v1/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	cancel()
	if err := <-done; err != nil {
		t.Errorf("graceful shutdown returned %v", err)
	}
	if _, err := http.Get(url + "/v1/healthz"); err == nil {
		t.Error("server still reachable after shutdown")
	}
}

func TestNegativeCacheEntriesFallsBackToDefault(t *testing.T) {
	s, err := New(Config{CacheEntries: -1})
	if err != nil {
		t.Fatalf("negative CacheEntries should fall back to default, got %v", err)
	}
	if got := s.Estimator().CacheStats().Capacity; got != 65536 {
		t.Errorf("fallback capacity = %d, want the 65536 default", got)
	}
}
