// Package crowddb is the crowd-powered database substrate motivating the
// paper's tuning problem: query operators (sort, filter) that a
// planner decomposes into atomic pairwise/yes-no voting tasks executed by
// crowd workers on a marketplace (package market), with majority-vote
// aggregation.
//
// It reproduces the applications behind both motivation examples of the
// paper (pairwise sorting votes and threshold filtering votes) and the
// image-filter experiment of Sec 5.2 (estimate the number of dots in an
// image, filter by a threshold), including the paper's difficulty knob:
// harder tasks are accepted more slowly and processed more slowly.
package crowddb

import (
	"fmt"
	"sort"

	"hputune/internal/randx"
)

// Item is a database item with a latent numeric value the crowd estimates
// (e.g. the true number of dots in an image) and an optional latent
// category (e.g. the depicted object) used by the group-by operator.
type Item struct {
	ID    string
	Value float64
	Class string // latent category; empty outside group-by workloads
}

// Dataset is an ordered collection of items.
type Dataset []Item

// DotImages synthesizes n "images" with uniformly random dot counts in
// [lo, hi] — the workload of the paper's AMT experiment.
func DotImages(n int, lo, hi int, r *randx.Rand) (Dataset, error) {
	if n < 1 {
		return nil, fmt.Errorf("crowddb: need at least one item, got %d", n)
	}
	if lo > hi {
		return nil, fmt.Errorf("crowddb: invalid dot range [%d, %d]", lo, hi)
	}
	if r == nil {
		return nil, fmt.Errorf("crowddb: nil random source")
	}
	ds := make(Dataset, n)
	for i := range ds {
		ds[i] = Item{
			ID:    fmt.Sprintf("img-%03d", i),
			Value: float64(lo + r.Intn(hi-lo+1)),
		}
	}
	return ds, nil
}

// ByValue returns the dataset's items sorted by descending latent value —
// the ground-truth ranking used by quality metrics.
func (d Dataset) ByValue() Dataset {
	out := append(Dataset(nil), d...)
	sort.SliceStable(out, func(i, j int) bool { return out[i].Value > out[j].Value })
	return out
}

// IDs returns the item identifiers in dataset order.
func (d Dataset) IDs() []string {
	ids := make([]string, len(d))
	for i, it := range d {
		ids[i] = it.ID
	}
	return ids
}

// KendallTau returns the normalized Kendall tau distance between two
// rankings of the same id set: 0 for identical order, 1 for reversed.
func KendallTau(a, b []string) (float64, error) {
	if len(a) != len(b) {
		return 0, fmt.Errorf("crowddb: rankings of different lengths %d and %d", len(a), len(b))
	}
	n := len(a)
	if n < 2 {
		return 0, nil
	}
	pos := make(map[string]int, n)
	for i, id := range b {
		pos[id] = i
	}
	for _, id := range a {
		if _, ok := pos[id]; !ok {
			return 0, fmt.Errorf("crowddb: id %q missing from second ranking", id)
		}
	}
	discordant := 0
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if pos[a[i]] > pos[a[j]] {
				discordant++
			}
		}
	}
	return float64(discordant) / float64(n*(n-1)/2), nil
}

// FilterQuality reports precision and recall of a predicted id set against
// the ground-truth set.
func FilterQuality(predicted, truth []string) (precision, recall float64) {
	truthSet := make(map[string]bool, len(truth))
	for _, id := range truth {
		truthSet[id] = true
	}
	hit := 0
	for _, id := range predicted {
		if truthSet[id] {
			hit++
		}
	}
	if len(predicted) > 0 {
		precision = float64(hit) / float64(len(predicted))
	}
	if len(truth) > 0 {
		recall = float64(hit) / float64(len(truth))
	}
	return precision, recall
}

// CategorizedItems synthesizes n items spread over the given categories
// round-robin, with uniformly random values in [lo, hi] — the workload of
// the group-by operator (items of one category share a latent type the
// crowd can recognize).
func CategorizedItems(n int, classes []string, lo, hi int, r *randx.Rand) (Dataset, error) {
	if n < 1 {
		return nil, fmt.Errorf("crowddb: need at least one item, got %d", n)
	}
	if len(classes) == 0 {
		return nil, fmt.Errorf("crowddb: need at least one category")
	}
	if lo > hi {
		return nil, fmt.Errorf("crowddb: invalid value range [%d, %d]", lo, hi)
	}
	if r == nil {
		return nil, fmt.Errorf("crowddb: nil random source")
	}
	ds := make(Dataset, n)
	for i := range ds {
		ds[i] = Item{
			ID:    fmt.Sprintf("item-%03d", i),
			Value: float64(lo + r.Intn(hi-lo+1)),
			Class: classes[i%len(classes)],
		}
	}
	return ds, nil
}

// RandIndex returns the Rand index of a predicted clustering against the
// items' latent classes: the fraction of item pairs on which the
// clustering and the ground truth agree (both together or both apart).
// 1.0 is a perfect recovery.
func RandIndex(clusters [][]string, items Dataset) (float64, error) {
	truth := make(map[string]string, len(items))
	for _, it := range items {
		truth[it.ID] = it.Class
	}
	cluster := make(map[string]int)
	for ci, members := range clusters {
		for _, id := range members {
			if _, ok := truth[id]; !ok {
				return 0, fmt.Errorf("crowddb: clustered id %q not in dataset", id)
			}
			if _, dup := cluster[id]; dup {
				return 0, fmt.Errorf("crowddb: id %q appears in two clusters", id)
			}
			cluster[id] = ci
		}
	}
	if len(cluster) != len(items) {
		return 0, fmt.Errorf("crowddb: clustering covers %d of %d items", len(cluster), len(items))
	}
	if len(items) < 2 {
		return 1, nil
	}
	agree, pairs := 0, 0
	for i := 0; i < len(items); i++ {
		for j := i + 1; j < len(items); j++ {
			pairs++
			sameTruth := items[i].Class == items[j].Class
			samePred := cluster[items[i].ID] == cluster[items[j].ID]
			if sameTruth == samePred {
				agree++
			}
		}
	}
	return float64(agree) / float64(pairs), nil
}
