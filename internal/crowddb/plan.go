package crowddb

import (
	"fmt"
	"math"

	"hputune/internal/market"
	"hputune/internal/pricing"
)

// VoteKind is the semantic of one atomic voting task.
type VoteKind int

const (
	// VoteCompare asks "is A greater than B?" (pairwise sorting vote).
	VoteCompare VoteKind = iota
	// VoteThreshold asks "is A above the threshold?" (filtering vote).
	VoteThreshold
	// VoteSame asks "are A and B of the same type?" (group-by vote).
	VoteSame
)

// Difficulty buckets atomic tasks the way the paper's Sec 5.2 experiment
// does (4, 6 or 8 internal votes): harder tasks are accepted more slowly
// at equal price and take longer to process.
type Difficulty int

const (
	Easy Difficulty = iota
	Medium
	Hard
)

// String implements fmt.Stringer.
func (d Difficulty) String() string {
	switch d {
	case Easy:
		return "easy"
	case Medium:
		return "medium"
	case Hard:
		return "hard"
	}
	return fmt.Sprintf("Difficulty(%d)", int(d))
}

// VoteTask is one atomic voting task the planner emits: Reps workers will
// each cast one vote; the majority decides.
type VoteTask struct {
	Kind  VoteKind
	A, B  string // item ids; B empty for VoteThreshold
	Truth bool   // ground truth of the vote (A > B, or A > threshold)
	Diff  Difficulty
	Reps  int
}

// Plan is one parallel phase of atomic voting tasks. Phases of a
// multi-phase job (e.g. tournament rounds) run sequentially.
type Plan struct {
	Label string
	Tasks []VoteTask
}

// ClassSet carries the marketplace behaviour of each difficulty bucket.
// Rates follow the paper's Fig 5 observations: more internal votes ⇒
// lower acceptance rate and lower processing rate.
type ClassSet struct {
	classes map[Difficulty]*market.TaskClass
}

// DefaultClassSet builds difficulty classes over a base acceptance model,
// damping acceptance by 1.0/0.8/0.6 and processing by 1.0/0.7/0.5 for
// easy/medium/hard, with accuracies 0.95/0.85/0.75.
func DefaultClassSet(base pricing.RateModel, baseProcRate float64) (*ClassSet, error) {
	if base == nil {
		return nil, fmt.Errorf("crowddb: nil base rate model")
	}
	if !(baseProcRate > 0) {
		return nil, fmt.Errorf("crowddb: non-positive base processing rate %v", baseProcRate)
	}
	mk := func(d Difficulty, damp, procDamp, acc float64) *market.TaskClass {
		return &market.TaskClass{
			Name:     "vote-" + d.String(),
			Accept:   pricing.Scaled{Base: base, Factor: damp},
			ProcRate: baseProcRate * procDamp,
			Accuracy: acc,
		}
	}
	return &ClassSet{classes: map[Difficulty]*market.TaskClass{
		Easy:   mk(Easy, 1.0, 1.0, 0.95),
		Medium: mk(Medium, 0.8, 0.7, 0.85),
		Hard:   mk(Hard, 0.6, 0.5, 0.75),
	}}, nil
}

// Class returns the marketplace class of a difficulty bucket.
func (cs *ClassSet) Class(d Difficulty) (*market.TaskClass, error) {
	c, ok := cs.classes[d]
	if !ok {
		return nil, fmt.Errorf("crowddb: no class for difficulty %v", d)
	}
	return c, nil
}

// compareDifficulty buckets a pairwise comparison by relative value gap:
// close values are hard to compare, distant ones easy — the cognitive-load
// model behind the paper's difficulty knob.
func compareDifficulty(a, b Item) Difficulty {
	span := math.Abs(a.Value-b.Value) / (1 + math.Max(math.Abs(a.Value), math.Abs(b.Value)))
	switch {
	case span >= 0.25:
		return Easy
	case span >= 0.08:
		return Medium
	default:
		return Hard
	}
}

// PlanSortPairs emits one comparison task per unordered item pair (the
// paper's pairwise "sorting vote" decomposition), assigning repetitions by
// difficulty: baseReps for easy, +2 for medium, +4 for hard — the
// "next votes" idea of giving contentious pairs more votes.
func PlanSortPairs(items Dataset, baseReps int) (Plan, error) {
	if len(items) < 2 {
		return Plan{}, fmt.Errorf("crowddb: sorting needs at least 2 items, got %d", len(items))
	}
	if baseReps < 1 {
		return Plan{}, fmt.Errorf("crowddb: baseReps must be >= 1, got %d", baseReps)
	}
	var plan Plan
	plan.Label = "sort-pairs"
	for i := 0; i < len(items); i++ {
		for j := i + 1; j < len(items); j++ {
			d := compareDifficulty(items[i], items[j])
			reps := baseReps
			switch d {
			case Medium:
				reps += 2
			case Hard:
				reps += 4
			}
			plan.Tasks = append(plan.Tasks, VoteTask{
				Kind:  VoteCompare,
				A:     items[i].ID,
				B:     items[j].ID,
				Truth: items[i].Value > items[j].Value,
				Diff:  d,
				Reps:  reps,
			})
		}
	}
	return plan, nil
}

// PlanFilter emits one threshold vote per item (the paper's filtering /
// image-dot experiment): "does this item exceed threshold?".
func PlanFilter(items Dataset, threshold float64, reps int) (Plan, error) {
	if len(items) == 0 {
		return Plan{}, fmt.Errorf("crowddb: filtering needs items")
	}
	if reps < 1 {
		return Plan{}, fmt.Errorf("crowddb: reps must be >= 1, got %d", reps)
	}
	var plan Plan
	plan.Label = "filter"
	for _, it := range items {
		// Items near the threshold are hard to judge.
		gap := math.Abs(it.Value-threshold) / (1 + math.Abs(threshold))
		d := Hard
		if gap >= 0.25 {
			d = Easy
		} else if gap >= 0.08 {
			d = Medium
		}
		plan.Tasks = append(plan.Tasks, VoteTask{
			Kind:  VoteThreshold,
			A:     it.ID,
			Truth: it.Value > threshold,
			Diff:  d,
			Reps:  reps,
		})
	}
	return plan, nil
}

// TotalReps returns the number of worker votes the plan requests.
func (p Plan) TotalReps() int {
	total := 0
	for _, t := range p.Tasks {
		total += t.Reps
	}
	return total
}
