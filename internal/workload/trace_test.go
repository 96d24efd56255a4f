package workload

import (
	"math"
	"reflect"
	"testing"

	"hputune/internal/inference"
)

// TestDyadicTraceIsDeterministicPerClient pins the generator contract:
// the same client always gets the same records, different clients get
// different ones (the per-client phase), and every on-hold duration is
// a positive multiple of 1/4.
func TestDyadicTraceIsDeterministicPerClient(t *testing.T) {
	prices := []int{2, 4, 6}
	a1 := DyadicTrace("alpha", prices, 5)
	a2 := DyadicTrace("alpha", prices, 5)
	if !reflect.DeepEqual(a1, a2) {
		t.Fatal("same client, same arguments, different trace")
	}
	if len(a1) != len(prices)*5 {
		t.Fatalf("%d records, want %d", len(a1), len(prices)*5)
	}
	// The phase takes only four values, so any two specific clients may
	// collide; across several clients at least two sequences must differ.
	distinct := map[float64]bool{}
	for _, c := range []string{"alpha", "bravo", "charlie", "delta", "echo"} {
		distinct[DyadicTrace(c, prices, 5)[0].OnHold()] = true
	}
	if len(distinct) < 2 {
		t.Fatal("five clients produced one duration sequence; the phase does nothing")
	}
	for _, r := range a1 {
		d := r.OnHold()
		if !(d > 0) || d != math.Trunc(d*4)/4 {
			t.Fatalf("record %s: on-hold %v is not a positive multiple of 1/4", r.TaskID, d)
		}
	}
}

// TestDyadicTracePartitionOrderInvariance is the property the cluster
// parity suite stands on: because every duration is dyadic, folding the
// concatenated trace into aggregates record by record and merging
// per-client partition maps in a different order produce bit-identical
// totals, hence a bit-identical fit.
func TestDyadicTracePartitionOrderInvariance(t *testing.T) {
	prices := []int{2, 4, 6, 8}
	clients := []string{"alpha", "bravo", "charlie", "delta"}

	// Single-process order: all records, client after client.
	whole := make(map[int]inference.PriceAggregate)
	for _, c := range clients {
		for _, r := range DyadicTrace(c, prices, 7) {
			agg := whole[r.Price]
			agg.Add(1, r.OnHold())
			whole[r.Price] = agg
		}
	}

	// Partitioned order: per-client maps merged back to front.
	parts := make([]map[int]inference.PriceAggregate, len(clients))
	for i, c := range clients {
		parts[i] = make(map[int]inference.PriceAggregate)
		for _, r := range DyadicTrace(c, prices, 7) {
			agg := parts[i][r.Price]
			agg.Add(1, r.OnHold())
			parts[i][r.Price] = agg
		}
	}
	var merged inference.Belief
	for i := len(parts) - 1; i >= 0; i-- {
		if err := merged.Merge(parts[i]); err != nil {
			t.Fatal(err)
		}
	}

	for price, w := range whole {
		g := merged[price]
		if g.N != w.N || math.Float64bits(g.Total) != math.Float64bits(w.Total) {
			t.Fatalf("price %d: merged %+v != sequential %+v", price, g, w)
		}
	}
	wf, err := inference.FitAggregates(whole)
	if err != nil {
		t.Fatalf("fit whole: %v", err)
	}
	mf, err := inference.FitAggregates(merged)
	if err != nil {
		t.Fatalf("fit merged: %v", err)
	}
	if math.Float64bits(wf.Fit.Slope) != math.Float64bits(mf.Fit.Slope) ||
		math.Float64bits(wf.Fit.Intercept) != math.Float64bits(mf.Fit.Intercept) {
		t.Fatalf("fits diverge: %+v vs %+v", wf.Fit, mf.Fit)
	}
	// The generated rates must rise with price: a published-fit guard
	// (slope >= 0, positive rate at price 1) has to accept this fit.
	if !(wf.Fit.Slope >= 0) || !(wf.Fit.Slope*1+wf.Fit.Intercept > 0) {
		t.Fatalf("fit %+v violates the rate-model contract the guard enforces", wf.Fit)
	}
}
