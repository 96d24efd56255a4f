// Package experiments regenerates every table and figure of the paper's
// evaluation (Sec 5) on the simulated substrate:
//
//	motivation — Table 1 and the two motivation examples of Sec 1
//	fig2-homo  — Fig 2 (a)–(f), Scenario I, EA vs biased allocations
//	fig2-repe  — Fig 2 (g)–(l), Scenario II, RA vs task-even/rep-even
//	fig2-heter — Fig 2 (m)–(r), Scenario III, HA vs task-even/rep-even
//	fig3       — worker arrival moments (Poisson linearity)
//	fig4       — reward vs latency, λ̂ estimates, linearity support
//	fig5a/b    — difficulty vs phase-1 / phase-2 latency
//	fig5c      — OPT vs equal-payment heuristic on the tuned job
//	linearity  — probe sweep + least squares fit of λo(c)
//
// Each experiment returns plottable series plus free-form notes recording
// the quantities EXPERIMENTS.md compares against the paper.
package experiments

import (
	"fmt"

	"hputune/internal/textplot"
)

// Config tunes experiment fidelity. The zero value is usable; Normalize
// fills defaults.
type Config struct {
	// Seed drives all randomness; equal seeds give identical results.
	Seed uint64
	// Trials is the Monte-Carlo sample count per evaluated point.
	Trials int
	// Rounds is the number of marketplace replications averaged per point.
	Rounds int
	// Fast trims sweeps (fewer budgets/models) for tests and smoke runs.
	Fast bool
}

// Normalize fills zero fields with defaults.
func (c Config) Normalize() Config {
	if c.Seed == 0 {
		c.Seed = 20170419 // ICDE 2017 conference date; any constant works
	}
	if c.Trials == 0 {
		c.Trials = 2000
		if c.Fast {
			c.Trials = 200
		}
	}
	if c.Rounds == 0 {
		c.Rounds = 24
		if c.Fast {
			c.Rounds = 4
		}
	}
	return c
}

// Result is one experiment's output.
type Result struct {
	Figures []textplot.Figure
	Notes   []string
}

// Runner executes one registered experiment.
type Runner func(cfg Config) (Result, error)

// registryEntry pairs a runner with its description.
type registryEntry struct {
	name string
	desc string
	run  Runner
}

var registry []registryEntry

func register(name, desc string, run Runner) {
	registry = append(registry, registryEntry{name: name, desc: desc, run: run})
}

// Names lists registered experiments in registration (paper) order.
func Names() []string {
	out := make([]string, len(registry))
	for i, e := range registry {
		out[i] = e.name
	}
	return out
}

// Describe returns the one-line description of an experiment.
func Describe(name string) (string, error) {
	for _, e := range registry {
		if e.name == name {
			return e.desc, nil
		}
	}
	return "", fmt.Errorf("experiments: unknown experiment %q (have %v)", name, Names())
}

// Run executes one experiment by name.
func Run(name string, cfg Config) (Result, error) {
	for _, e := range registry {
		if e.name == name {
			return e.run(cfg.Normalize())
		}
	}
	return Result{}, fmt.Errorf("experiments: unknown experiment %q (have %v)", name, Names())
}
