package inference_test

import (
	"math"
	"math/rand"
	"strings"
	"testing"

	"hputune/internal/inference"
	"hputune/internal/workload"
)

// guardCase is one row of the rate-model guard table: a fitted line
// checked by GuardFit, or — when aggs is set — a belief whose own Fit
// runs the guard.
type guardCase struct {
	name    string
	fit     inference.Candidate
	aggs    inference.Belief
	publish bool
	// pending is a substring the refusal reason must carry.
	pending string
}

// runGuardCase checks one row: a publishable fit has no pending reason,
// a refused one names why.
func runGuardCase(t *testing.T, tc guardCase) {
	t.Helper()
	t.Run(tc.name, func(t *testing.T) {
		pending := inference.GuardFit(tc.fit)
		if tc.aggs != nil {
			_, pending = tc.aggs.Fit()
		}
		if tc.publish {
			if pending != "" {
				t.Fatalf("publishable fit refused: %s", pending)
			}
			return
		}
		if !strings.Contains(pending, tc.pending) {
			t.Fatalf("pending %q, want it to contain %q", pending, tc.pending)
		}
	})
}

// TestGuardFit pins the one rate-model contract every publisher shares:
// slope >= 0 and a positive rate at price 1.
func TestGuardFit(t *testing.T) {
	const contract = "violates the rate-model contract (need slope >= 0 and a positive rate at price 1); keeping the previous fit"
	for _, tc := range []guardCase{
		{name: "negative-slope", fit: inference.Candidate{Slope: -0.5, Intercept: 4, N: 2},
			pending: "fit y = -0.5*x + 4 (R²=0.0000, n=2) " + contract},
		{name: "flat-zero-rate", fit: inference.Candidate{Slope: 0, Intercept: 0, N: 2}, pending: contract},
		{name: "non-positive-rate-at-1", fit: inference.Candidate{Slope: 1.5, Intercept: -2.5, N: 2}, pending: contract},
		{name: "flat-positive-rate", fit: inference.Candidate{Slope: 0, Intercept: 0.75, N: 2}, publish: true},
		{name: "single-price-level", aggs: inference.Belief{3: {N: 10, Total: 5}},
			pending: "need observations at >= 2 distinct prices, got 1"},
		// Rates 0.5 at price 2 and 2 at price 3 extrapolate to rate -1 at
		// price 1: the belief's own fit is refused with the same message.
		{name: "belief-extrapolates-negative", aggs: inference.Belief{2: {N: 1, Total: 2}, 3: {N: 4, Total: 2}},
			pending: contract},
	} {
		runGuardCase(t, tc)
	}
}

// TestBeliefMergeMatchesConcatenation is the identity the server's
// ingest batches and the cluster merger stand on: a dyadic trace split
// into k partitions, each folded on its own and merged in partition
// order, gives aggregates and a fit bit-identical to one belief that
// observed the concatenated trace record by record.
func TestBeliefMergeMatchesConcatenation(t *testing.T) {
	prices := []int{2, 3, 5, 8}
	recs := workload.DyadicTrace("alpha", prices, 9)
	recs = append(recs, workload.DyadicTrace("bravo", prices, 7)...)
	var whole inference.Belief
	for _, rec := range recs {
		if err := whole.Observe(rec); err != nil {
			t.Fatal(err)
		}
	}
	wantFit, wantPending := whole.Fit()
	if wantPending != "" {
		t.Fatalf("reference fit pending: %s", wantPending)
	}
	rng := rand.New(rand.NewSource(26))
	for k := 1; k <= 6; k++ {
		for trial := 0; trial < 4; trial++ {
			parts := make([]inference.Belief, k)
			for _, rec := range recs {
				if err := parts[rng.Intn(k)].Observe(rec); err != nil {
					t.Fatal(err)
				}
			}
			var merged inference.Belief
			for i := range parts {
				if err := merged.Merge(parts[i]); err != nil {
					t.Fatal(err)
				}
			}
			want, got := whole, merged
			if len(got) != len(want) {
				t.Fatalf("k=%d: %d price levels, want %d", k, len(got), len(want))
			}
			for price, w := range want {
				g := got[price]
				if g.N != w.N || math.Float64bits(g.Total) != math.Float64bits(w.Total) {
					t.Fatalf("k=%d price %d: merged %+v, concatenated %+v", k, price, g, w)
				}
			}
			gotFit, pending := merged.Fit()
			if pending != "" || gotFit.Prices != wantFit.Prices || gotFit.N != wantFit.N {
				t.Fatalf("k=%d: fit %+v (pending %q), want %+v", k, gotFit, pending, wantFit)
			}
			for _, pair := range [][2]float64{
				{gotFit.Slope, wantFit.Slope},
				{gotFit.Intercept, wantFit.Intercept},
				{gotFit.R2, wantFit.R2},
				{gotFit.SE, wantFit.SE},
			} {
				if math.Float64bits(pair[0]) != math.Float64bits(pair[1]) {
					t.Fatalf("k=%d: fit %+v, want bit-identical %+v", k, gotFit, wantFit)
				}
			}
		}
	}
}

// TestBeliefMergeIsAllOrNothing: a delta set with one refused entry
// changes no aggregate, so a rejected batch can be retried without
// double-counting.
func TestBeliefMergeIsAllOrNothing(t *testing.T) {
	var b inference.Belief
	if err := b.Merge(inference.Belief{2: {N: 1, Total: math.MaxFloat64}}); err != nil {
		t.Fatal(err)
	}
	for _, deltas := range []inference.Belief{
		{0: {N: 1, Total: 1}, 3: {N: 1, Total: 1}},
		{3: {N: -1, Total: 1}},
		{3: {N: 1, Total: math.Inf(1)}},
		{2: {N: 1, Total: math.MaxFloat64}, 3: {N: 1, Total: 1}},
	} {
		if err := b.Merge(deltas); err == nil {
			t.Fatalf("merge of %v accepted", deltas)
		}
		if len(b) != 1 || b[2] != (inference.PriceAggregate{N: 1, Total: math.MaxFloat64}) {
			t.Fatalf("refused merge of %v changed the belief: %v", deltas, b)
		}
	}
}
