package main

import (
	"math"
	"sort"
	"time"
)

// samples is a raw sample set. Percentiles are read from the samples
// themselves (nearest rank on a sorted copy), never from bucketed
// histograms, so a p99 is one of the measured values.
type samples struct {
	v      []float64
	sorted bool
}

func (s *samples) add(x float64) {
	s.v = append(s.v, x)
	s.sorted = false
}

// addDur records a duration in milliseconds.
func (s *samples) addDur(d time.Duration) { s.add(ms(d)) }

func (s *samples) n() int { return len(s.v) }

// q returns the q-quantile (0 <= q <= 1) by the nearest-rank rule: the
// smallest sample with at least q of the samples at or below it. It is
// 0 on an empty set and non-decreasing in q.
func (s *samples) q(q float64) float64 {
	if len(s.v) == 0 {
		return 0
	}
	if !s.sorted {
		sort.Float64s(s.v)
		s.sorted = true
	}
	rank := int(math.Ceil(q*float64(len(s.v)))) - 1
	if rank < 0 {
		rank = 0
	}
	if rank >= len(s.v) {
		rank = len(s.v) - 1
	}
	return s.v[rank]
}

// median returns the median of xs by the same nearest-rank rule.
func median(xs []float64) float64 {
	s := samples{v: append([]float64(nil), xs...)}
	return s.q(0.5)
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
