package market

import (
	"fmt"

	"hputune/internal/conc"
	"hputune/internal/randx"
)

// A single Sim is event-ordered and single-goroutine by design; the
// parallel unit of the marketplace is the *replication* — independent
// rounds with derived seeds, the paper's way of averaging over market
// randomness. This file fans rounds across a bounded worker pool while
// keeping every round's seed, and therefore every aggregate, a pure
// function of the configuration.

// roundSeed derives round i's RNG seed from the base seed, so
// replications are decorrelated and depend only on (seed, round) —
// never on scheduling.
func roundSeed(seed uint64, round int) uint64 {
	return randx.Mix64(seed + (uint64(round)+1)*0x9e3779b97f4a7c15)
}

// eachRound runs fn(round) for every round on the shared bounded worker
// pool and returns the lowest-round error.
func eachRound(rounds, workers int, fn func(round int) error) error {
	if i, err := conc.Each(rounds, conc.Workers(workers), fn); err != nil {
		return fmt.Errorf("market: round %d: %w", i, err)
	}
	return nil
}

// simBuffers recycles Sim backing storage across replication rounds.
// Each round owns one *Buffers from Get to Put, and nothing a round
// computes escapes its Sim (only the makespan scalar does), so the
// Buffers ownership contract holds trivially.
var simBuffers = conc.NewPool(func() *Buffers { return &Buffers{} })

// ReplicatedMakespans runs rounds independent simulations of the same
// task batch — round i uses cfg with its seed replaced by
// roundSeed(cfg.Seed, i) — across a bounded worker pool, and returns
// each round's makespan in round order. The slice is a pure function of
// (cfg, specs, rounds), independent of workers: the deterministic batch
// evaluation primitive for experiments and the engine's SimulateBatch.
func ReplicatedMakespans(cfg Config, specs []TaskSpec, rounds, workers int) ([]float64, error) {
	if rounds < 1 {
		return nil, fmt.Errorf("market: rounds must be >= 1, got %d", rounds)
	}
	if len(specs) == 0 {
		return nil, fmt.Errorf("market: no task specs")
	}
	spans := make([]float64, rounds)
	err := eachRound(rounds, workers, func(i int) error {
		rcfg := cfg
		rcfg.Seed = roundSeed(cfg.Seed, i)
		buf := simBuffers.Get()
		defer simBuffers.Put(buf)
		sim, err := NewWithBuffers(rcfg, buf)
		if err != nil {
			return err
		}
		if err := sim.PostAll(specs); err != nil {
			return err
		}
		if _, err := sim.Run(); err != nil {
			return err
		}
		spans[i] = sim.Makespan()
		return nil
	})
	if err != nil {
		return nil, err
	}
	return spans, nil
}
