package skyline

import (
	"cmp"
	"math"
	"slices"

	"skysql/internal/types"
)

// This file implements the "future work" algorithm families the paper
// lists in §7: a sorting-based algorithm (SFS, Sort-Filter-Skyline
// [Chomicki et al. 2003]) and the partition-based Divide-and-Conquer
// algorithm from the original skyline paper. They are wired into the
// ablation benchmarks so that the modular algorithm-selection design of
// §5.5 can be demonstrated end to end.

// sfsKey is SFS's presort key over the direction-normalized MIN/MAX
// dimensions (smaller is better): the count of −Inf dimensions, descending;
// the count of +Inf dimensions, ascending; the sum of the finite ones,
// ascending. Each component is monotone under dominance. A dominator w of t
// is ≤ in every dimension, so t's −Inf dimensions are −Inf in w and w's
// +Inf dimensions are +Inf in t; with both counts equal the two points have
// the same finite dimensions, and there w's sum is ≤ t's, rounding being
// monotone. A plain sum of all dimensions is not: it is −Inf, +Inf or NaN
// as soon as a point holds an infinity. Sums can tie under rounding even
// between a dominator and its victim, (1e17, 0) and (1e17, 1), so the
// sorts break key ties by the normalized vectors, lexicographically: the
// first dimension where a dominator differs from its victim is one where it
// is better. The resulting order puts every dominator strictly before the
// points it dominates, which SFS's eviction-free filter and SFSParallel's
// phase 2 rest on; equal points keep their index order.
type sfsKey struct {
	negInf, posInf int
	sum            float64
}

// add enters one normalized dimension value.
func (k *sfsKey) add(f float64) {
	switch {
	case math.IsInf(f, -1):
		k.negInf++
	case math.IsInf(f, 1):
		k.posInf++
	default:
		k.sum += f
	}
}

// compare orders two keys; 0 leaves the order to the tie-break.
func (k sfsKey) compare(o sfsKey) int {
	if k.negInf != o.negInf {
		return cmp.Compare(o.negInf, k.negInf)
	}
	if k.posInf != o.posInf {
		return cmp.Compare(k.posInf, o.posInf)
	}
	return cmp.Compare(k.sum, o.sum)
}

// boxedSFSKey is the sfsKey of a boxed dimension vector. NULLs count as 0,
// the value a decoded batch holds in their slots; non-numeric values do
// not count (the tie-break orders them). NaN, which sorts below every
// number, is the best MIN value and the worst MAX one, so it counts with
// −Inf or +Inf respectively.
func boxedSFSKey(dims types.Row, dirs []Dir) sfsKey {
	var k sfsKey
	for i, dir := range dirs {
		v := dims[i]
		if dir == Diff || !v.IsNumeric() {
			continue
		}
		f := v.AsFloat()
		switch {
		case f != f && dir == Min:
			k.negInf++
		case f != f:
			k.posInf++
		case dir == Max:
			k.add(-f)
		default:
			k.add(f)
		}
	}
	return k
}

// compareNormalized is the presort's tie-break on boxed vectors: the MIN/MAX
// dimensions in clause order, compared as the dominance test compares them,
// with NULL as 0 — on decodable input, exactly the lexicographic order of
// the batch's normalized vectors. Values that do not compare order by kind.
func compareNormalized(a, b types.Row, dirs []Dir) int {
	for i, dir := range dirs {
		if dir == Diff {
			continue
		}
		av, bv := a[i], b[i]
		if av.IsNull() {
			av = types.Float(0)
		}
		if bv.IsNull() {
			bv = types.Float(0)
		}
		c, ok := types.CompareValues(av, bv)
		if !ok {
			c = cmp.Compare(av.Kind(), bv.Kind())
		}
		if dir == Max {
			c = -c
		}
		if c != 0 {
			return c
		}
	}
	return 0
}

// SFS computes the skyline of complete data with the Sort-Filter-Skyline
// algorithm: presort by a dominance-compatible key (sfsKey), then a single
// filtering pass in which incoming tuples are only ever *discarded* (window
// tuples are never evicted because a later tuple cannot dominate an earlier
// one).
//
// SFS requires the data on a single node, which is the drawback the paper
// cites for sorting-based algorithms in a distributed setting (§2).
func SFS(points []Point, dirs []Dir, distinct bool, stats *Stats) ([]Point, error) {
	// Decode-once discipline (mirroring Batch.SFS, which keys the already
	// decoded vectors): the key is computed once per point, not re-evaluated
	// on every sort comparison.
	keys := make([]sfsKey, len(points))
	for i := range points {
		keys[i] = boxedSFSKey(points[i].Dims, dirs)
	}
	order := make([]int, len(points))
	for i := range order {
		order[i] = i
	}
	slices.SortStableFunc(order, func(x, y int) int {
		if c := keys[x].compare(keys[y]); c != 0 {
			return c
		}
		return compareNormalized(points[x].Dims, points[y].Dims, dirs)
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
