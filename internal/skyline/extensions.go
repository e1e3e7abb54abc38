package skyline

import (
	"sort"

	"skysql/internal/types"
)

// This file implements the "future work" algorithm families the paper
// lists in §7: a sorting-based algorithm (SFS, Sort-Filter-Skyline
// [Chomicki et al. 2003]) and the partition-based Divide-and-Conquer
// algorithm from the original skyline paper. They are wired into the
// ablation benchmarks so that the modular algorithm-selection design of
// §5.5 can be demonstrated end to end.

// entropyScore computes a monotone scoring function over the MIN/MAX
// dimensions: smaller score = more likely to dominate. Sorting by the score
// guarantees no tuple can be dominated by a later tuple, which removes the
// window-eviction branch from BNL.
func entropyScore(dims types.Row, dirs []Dir) float64 {
	var s float64
	for i, dir := range dirs {
		if dir == Diff {
			continue
		}
		v := dims[i]
		if v.IsNull() || !v.IsNumeric() {
			continue
		}
		f := v.AsFloat()
		if dir == Max {
			f = -f
		}
		s += f
	}
	return s
}

// SFS computes the skyline of complete data with the Sort-Filter-Skyline
// algorithm: presort by a monotone score, then a single filtering pass in
// which incoming tuples are only ever *discarded* (window tuples are never
// evicted because a later tuple cannot dominate an earlier one).
//
// SFS requires the data on a single node, which is the drawback the paper
// cites for sorting-based algorithms in a distributed setting (§2).
func SFS(points []Point, dirs []Dir, distinct bool, stats *Stats) ([]Point, error) {
	// Decode-once discipline (mirroring Batch.SFS, which sums the already
	// decoded vectors): the monotone score column is computed once per
	// point, not re-evaluated on every sort comparison.
	scores := make([]float64, len(points))
	for i := range points {
		scores[i] = entropyScore(points[i].Dims, dirs)
	}
	order := make([]int, len(points))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(i, j int) bool {
		return scores[order[i]] < scores[order[j]]
	})
	var local Counters
	defer stats.Merge(&local)
	window := make([]Point, 0, 16)
	for _, j := range order {
		t := points[j]
		dominated := false
		for _, w := range window {
			rel, err := Compare(w.Dims, t.Dims, dirs, &local)
			if err != nil {
				return nil, err
			}
			if rel == LeftDominates || (rel == Equal && distinct) {
				dominated = true
				break
			}
		}
		if !dominated {
			window = append(window, t)
		}
	}
	return window, nil
}

// DivideAndConquer computes the skyline of complete data by recursively
// splitting the input, computing partial skylines, and merging them
// (original skyline paper, §2 "Divide-and-Conquer"). The merge keeps every
// tuple of either half that is not dominated by (and, with distinct, not a
// duplicate of) a surviving tuple of the other half.
func DivideAndConquer(points []Point, dirs []Dir, distinct bool, stats *Stats) ([]Point, error) {
	const cutoff = 64
	if len(points) <= cutoff {
		return BNL(points, dirs, distinct, Compare, stats)
	}
	mid := len(points) / 2
	left, err := DivideAndConquer(points[:mid], dirs, distinct, stats)
	if err != nil {
		return nil, err
	}
	right, err := DivideAndConquer(points[mid:], dirs, distinct, stats)
	if err != nil {
		return nil, err
	}
	merged := append(append(make([]Point, 0, len(left)+len(right)), left...), right...)
	// The two halves are each skylines, but tuples across halves may
	// dominate each other; a final BNL pass merges them. Transitivity makes
	// this correct for complete data.
	return BNL(merged, dirs, distinct, Compare, stats)
}
