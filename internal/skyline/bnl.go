package skyline

import "skysql/internal/types"

// BNL computes the skyline of points with the Block-Nested-Loop window
// algorithm (paper §5.6, originally [Börzsönyi et al. 2001]).
//
// A window holds the skyline of all tuples processed so far. For each
// incoming tuple t:
//   - if a window tuple dominates t (or equals t and distinct is set),
//     t is discarded; by transitivity t cannot dominate any window tuple,
//     so scanning stops immediately;
//   - otherwise every window tuple dominated by t is evicted and t is
//     inserted (t is also inserted when incomparable with the whole
//     window).
//
// The function relies on transitivity and must therefore only be used when
// the dominance relation is transitive: on complete data, or on a single
// null-bitmap partition of incomplete data (where all tuples share their
// NULL positions). cmp selects the dominance definition.
func BNL(points []Point, dirs []Dir, distinct bool, cmp CompareFunc, stats *Stats) ([]Point, error) {
	var local Counters
	defer stats.Merge(&local)
	window := make([]Point, 0, 16)
	for _, t := range points {
		var dominated bool
		var err error
		if window, dominated, err = windowStep(window, pointDims, t.Dims, dirs, distinct, cmp, &local); err != nil {
			return nil, err
		}
		if !dominated {
			window = append(window, t)
		}
	}
	return window, nil
}

// BNLFunc is BNL over n points whose dimension values are read on demand,
// in input order: dims(k, dst) writes point k's values into dst. Only the
// points that enter the window are kept, each in a row of its own, so a
// caller reading them from storage never holds more than the window boxed.
// It returns the input positions of the points BNL would return, in the
// same order, after the same comparisons.
func BNLFunc(n int, dims func(k int, dst types.Row), dirs []Dir, distinct bool, cmp CompareFunc, stats *Stats) ([]int, error) {
	var local Counters
	defer stats.Merge(&local)
	type entry struct {
		dims types.Row
		pos  int
	}
	window := make([]entry, 0, 16)
	t := make(types.Row, len(dirs))
	for k := 0; k < n; k++ {
		dims(k, t)
		var dominated bool
		var err error
		if window, dominated, err = windowStep(window, func(e entry) types.Row { return e.dims }, t, dirs, distinct, cmp, &local); err != nil {
			return nil, err
		}
		if !dominated {
			window = append(window, entry{t, k})
			t = make(types.Row, len(dirs))
		}
	}
	pos := make([]int, len(window))
	for i, e := range window {
		pos[i] = e.pos
	}
	return pos, nil
}

func pointDims(p Point) types.Row { return p.Dims }

// windowStep is one BNL step for an incoming tuple t: it evicts the window
// tuples t dominates, in place, and reports whether t is dominated — or,
// under distinct, equal to a window tuple — and so stays out.
func windowStep[E any](window []E, dimsOf func(E) types.Row, t types.Row, dirs []Dir, distinct bool, cmp CompareFunc, c *Counters) ([]E, bool, error) {
	keep := window[:0]
	for wi, w := range window {
		rel, err := cmp(dimsOf(w), t, dirs, c)
		if err != nil {
			return nil, false, err
		}
		switch rel {
		case LeftDominates:
		case Equal:
			if !distinct {
				keep = append(keep, w)
				continue
			}
		case RightDominates:
			// w is evicted: skip appending it.
			continue
		default:
			keep = append(keep, w)
			continue
		}
		// t cannot dominate the remaining window tuples (transitivity);
		// keep w and the rest, and stop.
		return append(keep, window[wi:]...), true, nil
	}
	return keep, false, nil
}

// CompareFunc is the dominance classifier used by the window algorithms:
// either Compare (complete data) or CompareIncomplete. It receives the
// algorithm's invocation-local Counters; the algorithm merges them into
// the shared Stats once at the end.
type CompareFunc func(a, b types.Row, dirs []Dir, counters *Counters) (Relation, error)
