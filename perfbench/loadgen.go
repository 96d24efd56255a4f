package main

import (
	"context"
	"sort"
	"sync"
	"time"
)

// event is one scheduled request of an open loop. Kind and idx select
// the request; due is its offset from the start of the loop.
type event struct {
	due  time.Duration
	kind string
	idx  int
}

// outcome is one sent request. Times are offsets from the loop start;
// latency is measured from due, so a stall also charges the requests
// that queued behind it.
type outcome struct {
	ev      event
	sent    time.Duration
	done    time.Duration
	status  int
	body    []byte
	err     error
	checked bool // the reply can be checked against a direct solve
	fit     *fitSnap
}

func (o *outcome) latency() time.Duration { return o.done - o.ev.due }
func (o *outcome) service() time.Duration { return o.done - o.sent }

// schedule returns evenly spaced due times at rate per second over
// [from, to).
func schedule(kind string, rate float64, from, to time.Duration, idx func(i int) int) []event {
	if rate <= 0 {
		return nil
	}
	step := time.Duration(float64(time.Second) / rate)
	var evs []event
	for i, t := 0, from; t < to; i, t = i+1, t+step {
		evs = append(evs, event{due: t, kind: kind, idx: idx(i)})
	}
	return evs
}

// openLoop sends events on their schedule through a fixed set of worker
// goroutines. A due event waits only for a free worker, never for the
// reply to an earlier request; how late the generator hands events over
// is added to late in ms. The loop starts at offset from of the
// schedule, so the slices of one phase's schedule, run between other
// phases, share one timeline. do runs on a worker and fills the outcome;
// base is the time offset 0 of that timeline.
func openLoop(ctx context.Context, evs []event, from time.Duration, workers int, late *samples, do func(base time.Time, o *outcome)) []outcome {
	sort.SliceStable(evs, func(i, j int) bool { return evs[i].due < evs[j].due })
	outs := make([]outcome, len(evs))
	work := make(chan int)
	var wg sync.WaitGroup
	base := time.Now().Add(-from)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range work {
				do(base, &outs[i])
			}
		}()
	}
	sent := 0
dispatch:
	for i, ev := range evs {
		if wait := time.Until(base.Add(ev.due)); wait > 0 {
			select {
			case <-ctx.Done():
				break dispatch
			case <-time.After(wait):
			}
		}
		outs[i].ev = ev
		select {
		case <-ctx.Done():
			break dispatch
		case work <- i:
		}
		late.addDur(time.Since(base) - ev.due)
		sent = i + 1
	}
	close(work)
	wg.Wait()
	return outs[:sent]
}
