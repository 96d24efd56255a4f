package main

import (
	"math/rand"
	"testing"
	"time"
)

func TestQuantileEmpty(t *testing.T) {
	var s samples
	for _, q := range []float64{0, 0.5, 0.99, 1} {
		if got := s.q(q); got != 0 {
			t.Errorf("empty q(%v) = %v, want 0", q, got)
		}
	}
}

func TestQuantileMonotoneInQ(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	for trial := 0; trial < 50; trial++ {
		var s samples
		n := 1 + r.Intn(500)
		for i := 0; i < n; i++ {
			s.add(r.ExpFloat64())
		}
		prev := s.q(0)
		for q := 0.01; q <= 1.0001; q += 0.01 {
			got := s.q(q)
			if got < prev {
				t.Fatalf("n=%d: q(%.2f)=%v below the previous quantile %v", n, q, got, prev)
			}
			prev = got
		}
	}
}

func TestQuantileNearestRank(t *testing.T) {
	var s samples
	for i := 100; i >= 1; i-- {
		s.add(float64(i))
	}
	cases := map[float64]float64{0: 1, 0.5: 50, 0.95: 95, 0.99: 99, 1: 100}
	for q, want := range cases {
		if got := s.q(q); got != want {
			t.Errorf("q(%v) = %v, want %v", q, got, want)
		}
	}
	s.add(0.5)
	if got := s.q(0); got != 0.5 {
		t.Errorf("q(0) after add = %v, want 0.5 (re-sort on add)", got)
	}
}

func TestSpanCoverage(t *testing.T) {
	tr := newTracer(true)
	root := tr.begin("round", 0)
	a := tr.begin("a", root)
	tr.end(a)
	b := tr.begin("b", root)
	tr.end(b)
	tr.end(root)
	cov := tr.coverage("round")
	if len(cov) != 1 || cov[0] <= 0 || cov[0] > 1 {
		t.Fatalf("coverage = %v, want one share in (0, 1]", cov)
	}
	// The overhead share is taken over the traced time alone, so a long
	// untraced stretch since the tracer started must not dilute it.
	tr.t0 = tr.t0.Add(-time.Hour)
	if got := tr.overhead(); got < 1e-6 {
		t.Fatalf("overhead = %v over a sub-millisecond traced span, want a visible share", got)
	}
	off := newTracer(false)
	if id := off.begin("x", 0); id != 0 {
		t.Fatalf("disabled tracer returned span id %d", id)
	}
	if len(off.durations("x").v) != 0 {
		t.Fatal("disabled tracer recorded a span")
	}
}
