package market

import (
	"testing"

	"hputune/internal/pricing"
)

func parallelTestSpecs() (*TaskClass, []TaskSpec) {
	class := &TaskClass{
		Name:     "par",
		Accept:   pricing.Linear{K: 1, B: 1},
		ProcRate: 2,
		Accuracy: 1,
	}
	specs := make([]TaskSpec, 20)
	for i := range specs {
		specs[i] = TaskSpec{ID: "t", Class: class, RepPrices: []int{2, 2}}
	}
	return class, specs
}

func TestReplicatedMakespansDeterministic(t *testing.T) {
	_, specs := parallelTestSpecs()
	cfg := Config{Seed: 11}
	base, err := ReplicatedMakespans(cfg, specs, 12, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{4, 0} {
		got, err := ReplicatedMakespans(cfg, specs, 12, workers)
		if err != nil {
			t.Fatal(err)
		}
		for i := range base {
			if got[i] != base[i] {
				t.Fatalf("workers=%d round %d: %v differs from %v", workers, i, got[i], base[i])
			}
		}
	}
	// Rounds must be decorrelated, not copies of one run.
	same := 0
	for i := 1; i < len(base); i++ {
		if base[i] == base[0] {
			same++
		}
	}
	if same == len(base)-1 {
		t.Error("all rounds produced the identical makespan")
	}
}

func TestReplicatedMakespansErrors(t *testing.T) {
	_, specs := parallelTestSpecs()
	if _, err := ReplicatedMakespans(Config{}, specs, 0, 1); err == nil {
		t.Error("zero rounds accepted")
	}
	if _, err := ReplicatedMakespans(Config{}, nil, 3, 1); err == nil {
		t.Error("empty specs accepted")
	}
}
