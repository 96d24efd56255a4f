package main

import (
	"sync"
	"time"
)

// span is one timed call from the benchmark into a layer. Parent is the
// id of the span that caused it (0 for a root); spans of one replayed
// round share the round span as their ancestor.
type span struct {
	name       string
	parent     int
	start, end time.Duration
}

// tracer keeps spans in memory for the traced run. A disabled tracer
// records nothing, so the untraced run pays one branch per boundary.
type tracer struct {
	on    bool
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer(on bool) *tracer { return &tracer{on: on, t0: time.Now()} }

// begin opens a span and returns its id (0 when tracing is off).
func (t *tracer) begin(name string, parent int) int {
	if !t.on {
		return 0
	}
	now := time.Since(t.t0)
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{name: name, parent: parent, start: now})
	return len(t.spans)
}

// end closes span id.
func (t *tracer) end(id int) {
	if id == 0 {
		return
	}
	now := time.Since(t.t0)
	t.mu.Lock()
	t.spans[id-1].end = now
	t.mu.Unlock()
}

// durations returns the durations, in ms, of every span named name.
func (t *tracer) durations(name string) *samples {
	t.mu.Lock()
	defer t.mu.Unlock()
	var s samples
	for _, sp := range t.spans {
		if sp.name == name {
			s.addDur(sp.end - sp.start)
		}
	}
	return &s
}

// coverage returns, for every span named name, the share of its wall
// time its direct children cover.
func (t *tracer) coverage(name string) []float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	child := make(map[int]time.Duration)
	for _, sp := range t.spans {
		if sp.parent != 0 {
			child[sp.parent] += sp.end - sp.start
		}
	}
	var out []float64
	for i, sp := range t.spans {
		if sp.name != name {
			continue
		}
		wall := sp.end - sp.start
		if wall <= 0 {
			out = append(out, 1)
			continue
		}
		out = append(out, float64(child[i+1])/float64(wall))
	}
	return out
}

// overhead returns the share of the traced wall time, the summed
// durations of the root spans, that recording the spans cost.
func (t *tracer) overhead() float64 {
	cost := spanCost()
	t.mu.Lock()
	defer t.mu.Unlock()
	var traced time.Duration
	for _, sp := range t.spans {
		if sp.parent == 0 {
			traced += sp.end - sp.start
		}
	}
	if traced <= 0 {
		return 0
	}
	return float64(len(t.spans)) * float64(cost) / float64(traced)
}

// spanCost measures what recording one span costs, on a scratch tracer.
func spanCost() time.Duration {
	const n = 20000
	t := newTracer(true)
	t.spans = make([]span, 0, n)
	start := time.Now()
	for i := 0; i < n; i++ {
		t.end(t.begin("x", 0))
	}
	return time.Since(start) / n
}
