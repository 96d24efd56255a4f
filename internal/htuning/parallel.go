package htuning

import (
	"fmt"

	"hputune/internal/conc"
	"hputune/internal/numeric"
	"hputune/internal/randx"
)

// simShardCount is the fixed number of RNG shards a parallel Monte-Carlo
// run is split into. It is a constant — NOT derived from GOMAXPROCS or a
// workers argument — so the shard boundaries, the per-shard randx
// streams, and therefore the final sample mean are bit-for-bit identical
// no matter how many workers execute the shards or in what order they
// finish.
const simShardCount = 32

// simShards returns the per-shard trial counts for a total of trials:
// simShardCount shards (fewer when trials is smaller), with the
// remainder spread one trial at a time over the leading shards.
func simShards(trials int) []int {
	n := simShardCount
	if trials < n {
		n = trials
	}
	shards := make([]int, n)
	base, rem := trials/n, trials%n
	for i := range shards {
		shards[i] = base
		if i < rem {
			shards[i]++
		}
	}
	return shards
}

// shardStreams forks one deterministic randx stream per shard from the
// base seed. Streams are drawn sequentially from a single parent
// generator, so shard i's stream depends only on (seed, i).
func shardStreams(seed uint64, n int) []*randx.Rand {
	parent := randx.New(seed)
	streams := make([]*randx.Rand, n)
	for i := range streams {
		streams[i] = parent.Split()
	}
	return streams
}

// parallelWorkers resolves a workers argument: <= 0 means GOMAXPROCS.
func parallelWorkers(workers int) int { return conc.Workers(workers) }

// parallelEach runs fn(i) for every i in [0, n) on the shared bounded
// worker pool and returns the lowest-index error. Determinism is the
// caller's concern — fn must write only to its own index's slot.
func parallelEach(n, workers int, fn func(i int) error) error {
	if i, err := conc.Each(n, workers, fn); err != nil {
		return fmt.Errorf("task %d: %w", i, err)
	}
	return nil
}

// SimulateJobLatencyParallel estimates E[max over all tasks of the full
// latency] by Monte Carlo like SimulateJobLatency, but splits the trials
// into simShardCount deterministic randx streams executed by a bounded
// worker pool. The result depends only on (p, a, phase, trials, seed) —
// bit-for-bit identical for any workers value, including 1 — so parallel
// runs stay reproducible. workers <= 0 uses GOMAXPROCS.
func SimulateJobLatencyParallel(p Problem, a Allocation, phase Phase, trials int, seed uint64, workers int) (float64, error) {
	if err := p.Validate(); err != nil {
		return 0, err
	}
	if err := a.Validate(p); err != nil {
		return 0, err
	}
	if trials < 1 {
		return 0, fmt.Errorf("htuning: trials must be >= 1, got %d", trials)
	}
	shards := simShards(trials)
	streams := shardStreams(seed, len(shards))
	sums := make([]float64, len(shards))
	err := parallelEach(len(shards), parallelWorkers(workers), func(i int) error {
		sums[i] = simulateAllocTrials(p, a, phase, shards[i], streams[i])
		return nil
	})
	if err != nil {
		return 0, err
	}
	total := numeric.NewKahan()
	for _, s := range sums {
		total.Add(s)
	}
	return total.Sum() / float64(trials), nil
}
