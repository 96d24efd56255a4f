package crowddb

import (
	"fmt"
	"sort"

	"hputune/internal/market"
)

// PricePolicy decides the per-repetition payments of one atomic voting
// task — the hook through which the H-Tuning allocators drive the
// database's crowd spending. The returned slice must have t.Reps entries,
// each >= 1.
type PricePolicy func(t VoteTask) []int

// UniformPrice pays every repetition of every task the same price.
func UniformPrice(price int) PricePolicy {
	return func(t VoteTask) []int {
		prices := make([]int, t.Reps)
		for i := range prices {
			prices[i] = price
		}
		return prices
	}
}

// PriceByDifficulty pays per difficulty bucket, every repetition equally.
func PriceByDifficulty(prices map[Difficulty]int) PricePolicy {
	return func(t VoteTask) []int {
		price, ok := prices[t.Diff]
		if !ok {
			price = 1
		}
		out := make([]int, t.Reps)
		for i := range out {
			out[i] = price
		}
		return out
	}
}

// Decision is the aggregated outcome of one voting task.
type Decision struct {
	Task     VoteTask
	Outcome  bool // majority vote
	YesVotes int  // votes agreeing with the statement (A>B / A>threshold)
	Votes    int
}

// Correct reports whether the majority matched the ground truth.
func (d Decision) Correct() bool { return d.Outcome == d.Task.Truth }

// PhaseOutcome is a completed plan execution.
type PhaseOutcome struct {
	Decisions []Decision
	Makespan  float64 // completion time of the phase's last task
	Paid      int     // budget units spent
	// Records holds every repetition's completion trace in acceptance
	// order — the (price, on-hold) observations a tuner folds back into
	// its price→rate fit.
	Records []market.RepRecord
}

// Accuracy returns the fraction of decisions matching ground truth.
func (o PhaseOutcome) Accuracy() float64 {
	if len(o.Decisions) == 0 {
		return 0
	}
	correct := 0
	for _, d := range o.Decisions {
		if d.Correct() {
			correct++
		}
	}
	return float64(correct) / float64(len(o.Decisions))
}

// Executor runs voting plans on a simulated marketplace.
type Executor struct {
	// Classes maps difficulty buckets to marketplace task classes.
	Classes *ClassSet
	// Config configures each phase's marketplace run; the Seed advances
	// per phase so sequential phases see fresh randomness.
	Config market.Config
}

// RunPlan executes one parallel phase under the price policy and
// aggregates each task's votes by majority (ties resolve to false,
// the conservative "not greater" reading).
func (e *Executor) RunPlan(plan Plan, policy PricePolicy) (PhaseOutcome, error) {
	if e.Classes == nil {
		return PhaseOutcome{}, fmt.Errorf("crowddb: executor has no class set")
	}
	if policy == nil {
		return PhaseOutcome{}, fmt.Errorf("crowddb: nil price policy")
	}
	if len(plan.Tasks) == 0 {
		return PhaseOutcome{}, fmt.Errorf("crowddb: plan %q has no tasks", plan.Label)
	}
	sim, err := market.New(e.Config)
	if err != nil {
		return PhaseOutcome{}, err
	}
	for i, t := range plan.Tasks {
		class, err := e.Classes.Class(t.Diff)
		if err != nil {
			return PhaseOutcome{}, err
		}
		prices := policy(t)
		if len(prices) != t.Reps {
			return PhaseOutcome{}, fmt.Errorf("crowddb: policy returned %d prices for %d repetitions of task %d", len(prices), t.Reps, i)
		}
		spec := market.TaskSpec{
			ID:        fmt.Sprintf("%s/%d", plan.Label, i),
			Class:     class,
			RepPrices: prices,
			Meta:      i, // index back into plan.Tasks
		}
		if err := sim.Post(spec); err != nil {
			return PhaseOutcome{}, err
		}
	}
	results, err := sim.Run()
	if err != nil {
		return PhaseOutcome{}, err
	}
	out := PhaseOutcome{Makespan: sim.Makespan(), Records: sim.AppendRecords(nil)}
	for _, res := range results {
		if len(res.Reps) == 0 {
			continue
		}
		idx, ok := res.Reps[0].Meta.(int)
		if !ok || idx < 0 || idx >= len(plan.Tasks) {
			return PhaseOutcome{}, fmt.Errorf("crowddb: corrupted task meta %v", res.Reps[0].Meta)
		}
		t := plan.Tasks[idx]
		yes := 0
		for _, rep := range res.Reps {
			out.Paid += rep.Price
			// A correct worker casts the true vote; an incorrect one flips it.
			vote := t.Truth == rep.Correct
			if vote {
				yes++
			}
		}
		out.Decisions = append(out.Decisions, Decision{
			Task:     t,
			Outcome:  yes*2 > len(res.Reps),
			YesVotes: yes,
			Votes:    len(res.Reps),
		})
	}
	return out, nil
}

// RunSort executes the pairwise sorting query: plan all pairs, vote, and
// rank items by Copeland score (pairwise wins). Returns the crowd ranking
// (descending) and the phase outcome.
func (e *Executor) RunSort(items Dataset, baseReps int, policy PricePolicy) ([]string, PhaseOutcome, error) {
	plan, err := PlanSortPairs(items, baseReps)
	if err != nil {
		return nil, PhaseOutcome{}, err
	}
	out, err := e.RunPlan(plan, policy)
	if err != nil {
		return nil, PhaseOutcome{}, err
	}
	wins := make(map[string]int, len(items))
	for _, it := range items {
		wins[it.ID] = 0
	}
	for _, d := range out.Decisions {
		if d.Outcome {
			wins[d.Task.A]++
		} else {
			wins[d.Task.B]++
		}
	}
	ranking := items.IDs()
	sort.SliceStable(ranking, func(i, j int) bool {
		if wins[ranking[i]] != wins[ranking[j]] {
			return wins[ranking[i]] > wins[ranking[j]]
		}
		return ranking[i] < ranking[j]
	})
	return ranking, out, nil
}

// RunFilter executes the threshold filter query and returns the ids the
// crowd judged above the threshold.
func (e *Executor) RunFilter(items Dataset, threshold float64, reps int, policy PricePolicy) ([]string, PhaseOutcome, error) {
	plan, err := PlanFilter(items, threshold, reps)
	if err != nil {
		return nil, PhaseOutcome{}, err
	}
	out, err := e.RunPlan(plan, policy)
	if err != nil {
		return nil, PhaseOutcome{}, err
	}
	var keep []string
	for _, d := range out.Decisions {
		if d.Outcome {
			keep = append(keep, d.Task.A)
		}
	}
	sort.Strings(keep)
	return keep, out, nil
}
