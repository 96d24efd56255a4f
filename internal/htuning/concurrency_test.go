package htuning

import (
	"sync"
	"testing"
)

// TestEstimatorConcurrentMatchesSerial hammers one shared Estimator from
// many goroutines over an overlapping query mix and asserts every value
// is bit-for-bit the value a fresh serial estimator computes. Run under
// -race this also exercises the sharded cache for data races.
func TestEstimatorConcurrentMatchesSerial(t *testing.T) {
	groups := []Group{
		{Type: linType("a", 1, 1, 2), Tasks: 10, Reps: 3},
		{Type: linType("b", 2, 1, 3), Tasks: 5, Reps: 2},
		{Type: linType("c", 0.5, 2, 1.5), Tasks: 20, Reps: 4},
	}
	const maxPrice = 12

	// Serial reference, one estimator, one goroutine.
	serial := NewEstimator()
	type key struct{ g, price, kind int }
	want := make(map[key]float64)
	for gi, g := range groups {
		for price := 1; price <= maxPrice; price++ {
			v1, err := serial.GroupPhase1Mean(g, price)
			if err != nil {
				t.Fatal(err)
			}
			want[key{gi, price, 1}] = v1
			vt, err := serial.GroupTotalMean(g, price)
			if err != nil {
				t.Fatal(err)
			}
			want[key{gi, price, 2}] = vt
		}
		v2, err := serial.GroupPhase2Mean(g)
		if err != nil {
			t.Fatal(err)
		}
		want[key{gi, 0, 3}] = v2
	}

	// 16 goroutines share one estimator; every goroutine queries every
	// key so cache writes and reads collide constantly.
	shared := NewEstimator()
	const goroutines = 16
	var wg sync.WaitGroup
	errCh := make(chan error, goroutines)
	mismatch := make(chan string, goroutines)
	for w := 0; w < goroutines; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			// Stagger start order so goroutines race on different keys.
			for off := 0; off < len(groups)*maxPrice; off++ {
				i := (off + w) % (len(groups) * maxPrice)
				gi, price := i/maxPrice, 1+i%maxPrice
				g := groups[gi]
				v1, err := shared.GroupPhase1Mean(g, price)
				if err != nil {
					errCh <- err
					return
				}
				if v1 != want[key{gi, price, 1}] {
					mismatch <- "phase1"
					return
				}
				vt, err := shared.GroupTotalMean(g, price)
				if err != nil {
					errCh <- err
					return
				}
				if vt != want[key{gi, price, 2}] {
					mismatch <- "total"
					return
				}
				v2, err := shared.GroupPhase2Mean(g)
				if err != nil {
					errCh <- err
					return
				}
				if v2 != want[key{gi, 0, 3}] {
					mismatch <- "phase2"
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errCh)
	close(mismatch)
	for err := range errCh {
		t.Fatal(err)
	}
	for m := range mismatch {
		t.Fatalf("concurrent %s value diverged from serial reference", m)
	}
}

// TestZeroValueEstimatorConcurrent checks the zero value (no NewEstimator
// call) is also safe to share.
func TestZeroValueEstimatorConcurrent(t *testing.T) {
	var est Estimator
	g := Group{Type: linType("z", 1, 1, 2), Tasks: 4, Reps: 2}
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for price := 1; price <= 6; price++ {
				if _, err := est.GroupPhase1Mean(g, price); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
}

// TestSolversSharingOneEstimator runs RA and HA concurrently against one
// estimator on the same problem; under -race this exercises the real
// solver access pattern.
func TestSolversSharingOneEstimator(t *testing.T) {
	typA := linType("a", 1, 1, 2)
	typB := linType("b", 2, 1, 4)
	p := Problem{
		Groups: []Group{
			{Type: typA, Tasks: 6, Reps: 2},
			{Type: typB, Tasks: 4, Reps: 3},
		},
		Budget: 200,
	}
	est := NewEstimator()
	raRef, err := SolveRepetition(NewEstimator(), p)
	if err != nil {
		t.Fatal(err)
	}
	haRef, err := SolveHeterogeneous(NewEstimator(), p)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			ra, err := SolveRepetition(est, p)
			if err != nil {
				t.Error(err)
				return
			}
			for i := range ra.Prices {
				if ra.Prices[i] != raRef.Prices[i] {
					t.Errorf("RA prices diverged: %v vs %v", ra.Prices, raRef.Prices)
					return
				}
			}
			ha, err := SolveHeterogeneous(est, p)
			if err != nil {
				t.Error(err)
				return
			}
			for i := range ha.Prices {
				if ha.Prices[i] != haRef.Prices[i] {
					t.Errorf("HA prices diverged: %v vs %v", ha.Prices, haRef.Prices)
					return
				}
			}
		}()
	}
	wg.Wait()
}

// TestSimulateJobLatencyParallelDeterministic asserts the trial-sharded
// Monte Carlo is a pure function of (instance, trials, seed): any worker
// count gives the identical float64, and repeated runs reproduce it.
func TestSimulateJobLatencyParallelDeterministic(t *testing.T) {
	typ := linType("t", 1, 1, 2.5)
	p := Problem{
		Groups: []Group{
			{Type: typ, Tasks: 4, Reps: 2},
			{Type: typ, Tasks: 3, Reps: 4},
		},
		Budget: 1000,
	}
	a, err := NewUniformAllocation(p, []int{2, 3})
	if err != nil {
		t.Fatal(err)
	}
	const trials = 5000
	const seed = 42
	base, err := SimulateJobLatencyParallel(p, a, PhaseBoth, trials, seed, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{2, 4, 8, 0} {
		got, err := SimulateJobLatencyParallel(p, a, PhaseBoth, trials, seed, workers)
		if err != nil {
			t.Fatal(err)
		}
		if got != base {
			t.Errorf("workers=%d: %v differs from workers=1 result %v", workers, got, base)
		}
	}
	again, err := SimulateJobLatencyParallel(p, a, PhaseBoth, trials, seed, 4)
	if err != nil {
		t.Fatal(err)
	}
	if again != base {
		t.Errorf("repeat run diverged: %v vs %v", again, base)
	}
	other, err := SimulateJobLatencyParallel(p, a, PhaseBoth, trials, seed+1, 4)
	if err != nil {
		t.Fatal(err)
	}
	if other == base {
		t.Error("different seed produced the identical estimate")
	}
	// The sharded estimate must agree statistically with the analytic
	// integral, like the single-stream simulator does.
	est := NewEstimator()
	analytic, err := est.JobExpectedLatency(p.Groups, []int{2, 3}, PhaseBoth)
	if err != nil {
		t.Fatal(err)
	}
	if !almostEqual(base, analytic, 0.05) {
		t.Errorf("sharded MC %v far from analytic %v", base, analytic)
	}
}

// TestSimulateParallelErrors covers the argument validation of the
// parallel simulators.
func TestSimulateParallelErrors(t *testing.T) {
	typ := linType("t", 1, 1, 2)
	p := Problem{Groups: []Group{{Type: typ, Tasks: 2, Reps: 2}}, Budget: 8}
	a, _ := NewUniformAllocation(p, []int{2})
	if _, err := SimulateJobLatencyParallel(p, a, PhaseBoth, 0, 1, 2); err == nil {
		t.Error("zero trials accepted")
	}
	if _, err := SimulateJobLatencyParallel(p, Allocation{}, PhaseBoth, 10, 1, 2); err == nil {
		t.Error("empty allocation accepted")
	}
}

// TestSimShards checks the shard partition covers exactly the trial
// count with the fixed shard layout the determinism contract relies on.
func TestSimShards(t *testing.T) {
	for _, trials := range []int{1, 5, 31, 32, 33, 1000, 1001} {
		shards := simShards(trials)
		total := 0
		for _, s := range shards {
			if s < 1 {
				t.Fatalf("trials=%d: empty shard in %v", trials, shards)
			}
			total += s
		}
		if total != trials {
			t.Fatalf("trials=%d: shards sum to %d", trials, total)
		}
		if trials >= simShardCount && len(shards) != simShardCount {
			t.Fatalf("trials=%d: %d shards, want %d", trials, len(shards), simShardCount)
		}
	}
}
