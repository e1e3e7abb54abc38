package skyline

// Columnar twins of the window algorithms: each operates on batch indices
// through CompareDecoded and returns surviving indices in the exact
// emission order of its boxed counterpart, so kernel-on and kernel-off
// executions are row-for-row identical.
//
// On dense batches a BNL pass first screens its arrivals (screenOrder):
// the few arrivals with the smallest range-normalized sum strictly dominate
// most of an independent or correlated input, and every arrival one of them
// dominates is dropped before the window sees it. The screen stops itself
// on data where it does not pay (anti-correlated), after one stretch.
//
// The BNL window passes then count their dominance tests as they go and,
// once the count says most arrivals scan most of a large window, continue
// on the cell-grid index (grid.go), which tests an arrival only against
// the window points whose cells allow dominance. A pass seeded with a
// large trusted window (BNLSeeded) needs no count: it starts on the index. Neither changes the
// result: it is the plain pass's, index for index and in order. The
// screen drops only points some input point strictly dominates, which a
// BNL pass never emits and whose absence changes no emitted point's
// admission; the gridded window keeps the plain window's insertion order
// and only marks evictions.

import "math"

// allIndices returns 0..n-1, the identity processing order.
func (b *Batch) allIndices() []int {
	order := make([]int, b.n)
	for i := range order {
		order[i] = i
	}
	return order
}

// BNL computes the skyline with the Block-Nested-Loop window algorithm
// (§5.6) over the decoded batch. Like the boxed BNL it requires a
// transitive dominance relation: complete data, or one null-bitmap
// partition of incomplete data.
func (b *Batch) BNL(distinct bool) []int {
	return b.bnlOver(nil, b.allIndices(), distinct, b.newGridSource())
}

// BNLSeeded is BNL with a trusted starting window: points [0, seed) are
// installed as the window without one test among themselves, and points
// [seed, n) are absorbed in index order. The caller vouches that the seed
// is something a BNL pass could hold — mutually non-dominating, pairwise
// non-Equal under distinct — typically the skyline BNL emitted for some
// earlier input X. By the window invariant (§5.6: the window is the exact
// skyline of what the pass has seen) the result is then, survivor for
// survivor and in order, what BNL emits over X followed by [seed, n): a
// dominated arrival leaves the window untouched, an admitted one evicts
// without reordering the rest and joins at the end.
//
// On a dense batch whose seed and arrivals are large enough
// (paysSeeded) the pass runs on the cell index from its first arrival.
// codes are the seed's cell codes as the pass that returned the seed left
// them (zero: none); the pass installs them when they fit and otherwise
// takes the grid again. It returns the survivors' codes beside them — for
// the next pass seeded with the survivors — whenever it ran on the index
// or was handed codes that fit, and none otherwise.
func (b *Batch) BNLSeeded(seed int, distinct bool, codes CellCodes) ([]int, CellCodes) {
	window, order := rangeIndices(0, seed), rangeIndices(seed, b.n)
	gs := b.newGridSource()
	if !b.dense() {
		return b.bnlOver(window, order, distinct, gs), CellCodes{}
	}
	if gs.policy != gridOff {
		order = b.screenOrder(order)
	}
	fits := codes.fits(b, seed)
	if !gs.paysSeeded(seed, len(order)) {
		idx := b.bnlDense(window, order, distinct, gs)
		if !fits {
			return idx, CellCodes{}
		}
		return idx, codes.carry(b, seed, idx)
	}
	if !fits {
		codes = CellCodes{grid: b.newCellGrid(), taken: seed}
	}
	idx, out := b.windowGrid(window, order, distinct, codes.grid, codes.codes, true)
	return idx, CellCodes{grid: codes.grid, codes: out, taken: codes.taken}
}

// bnlOver runs the BNL window pass over the given processing order,
// starting from window (nil: empty); it owns both and compacts them in
// place. The dense pass screens order first and may switch to the cell
// index when gs's rule says it pays; gridOff pins the plain pass.
func (b *Batch) bnlOver(window, order []int, distinct bool, gs *gridSource) []int {
	if window == nil {
		window = make([]int, 0, 16)
	}
	if b.dense() {
		if gs.policy != gridOff {
			order = b.screenOrder(order)
		}
		return b.bnlDense(window, order, distinct, gs)
	}
	for _, t := range order {
		dominated := false
		keep := window[:0]
		for wi, w := range window {
			switch b.CompareDecoded(w, t) {
			case LeftDominates:
				dominated = true
			case Equal:
				if distinct {
					dominated = true
				} else {
					keep = append(keep, w)
				}
			case RightDominates:
				// w is evicted: skip appending it.
			default:
				keep = append(keep, w)
			}
			if dominated {
				// t cannot dominate the remaining window tuples
				// (transitivity); keep w and the rest, and stop. When
				// nothing was evicted before w the window is unchanged.
				if len(keep) == wi {
					keep = window
				} else {
					keep = append(keep, window[wi:]...)
				}
				break
			}
		}
		window = keep
		if !dominated {
			window = append(window, t)
		}
	}
	return window
}

// The dominance screen: a dense BNL pass of at least screenMinArrivals
// arrivals tests each against the screenPoints arrivals with the smallest
// range-normalized sum, and stops screening after the first stretch of
// gridCheckEvery arrivals of which fewer than half were dropped.
const (
	screenPoints      = 8
	screenMinArrivals = 64
)

// screenOrder drops from a dense pass's arrivals every point that one of a
// few strong arrivals strictly dominates (LESS's elimination filter), and
// returns order compacted in place. The strong points are the arrivals
// with the smallest sum of range-normalized columns; columns whose range
// is zero or infinite take no part in the sum. A dropped point is never in
// the pass's result, and the pass over the survivors returns the plain
// pass's indices in the plain pass's order (see the file comment); Equal
// never drops, so DISTINCT keeps the first of equals as before. On
// anti-correlated data the first stretch stops the screen, at a cost of at
// most gridCheckEvery·screenPoints tests.
func (b *Batch) screenOrder(order []int) []int {
	if len(order) < screenMinArrivals {
		return order
	}
	s, num := b.numStride, b.num
	var lo, hi, scale [64]float64 // a batch has at most 64 dimensions
	var cols [64]int
	for k := range s {
		lo[k], hi[k] = math.Inf(1), math.Inf(-1)
	}
	for _, t := range order {
		for k, x := range num[t*s : t*s+s] {
			if x < lo[k] {
				lo[k] = x
			}
			if x > hi[k] {
				hi[k] = x
			}
		}
	}
	nc := 0
	for k := range s {
		if r := hi[k] - lo[k]; r > 0 && !math.IsInf(r, 1) {
			cols[nc], scale[nc] = k, 1/r
			nc++
		}
	}
	// The strong points, best first.
	var strong [screenPoints]int
	var score [screenPoints]float64
	m := 0
	for _, t := range order {
		v := num[t*s : t*s+s]
		sum := 0.0
		for c, k := range cols[:nc] {
			sum += (v[k] - lo[k]) * scale[c]
		}
		if m == screenPoints && sum >= score[m-1] {
			continue
		}
		if m < screenPoints {
			m++
		}
		i := m - 1
		for ; i > 0 && score[i-1] > sum; i-- {
			strong[i], score[i] = strong[i-1], score[i-1]
		}
		strong[i], score[i] = t, sum
	}
	four := s == 4
	var tests, comps int64
	kept, dropped := order[:0], 0
	for i, t := range order {
		if i > 0 && i%gridCheckEvery == 0 {
			if 2*dropped < gridCheckEvery {
				kept = append(kept, order[i:]...)
				break
			}
			dropped = 0
		}
		tv := num[t*s : t*s+s]
		gone := false
		for _, p := range strong[:m] {
			pv := num[p*s : p*s+s]
			var lt, gt uint64
			if four {
				lt, gt = lessMask4(pv, tv), lessMask4(tv, pv)
			} else {
				lt, gt = laneMasks(pv, tv)
			}
			tests++
			comps += lanesCompared(lt, gt, s)
			if gone = gt == 0 && lt != 0; gone {
				break
			}
		}
		if gone {
			dropped++
		} else {
			kept = append(kept, t)
		}
	}
	b.counters.Tests += tests
	b.counters.Comparisons += comps
	return kept
}

// bnlDense is the window pass for the hot case — purely numeric
// dimensions, no NULLs: the incoming point's vector is hoisted out of the
// window scan, and every test is the branch-free lane masks of masks.go,
// inlined, with no calls and no per-test counter writes. The window is
// compacted in place without a branch per kept point. Before each arrival
// it asks gs whether the tests of the current stretch say the cell index
// pays; if so, it hands its window and the rest of order to windowGrid.
func (b *Batch) bnlDense(window, order []int, distinct bool, gs *gridSource) []int {
	s := b.numStride
	num := b.num
	if s == 2 {
		return b.bnlDense2(window, order, distinct, gs)
	}
	four := s == 4
	var tests, comps, mark int64
	for i, t := range order {
		if gs.pays(len(window), len(order)-i, tests-mark) {
			b.counters.Tests += tests
			b.counters.Comparisons += comps
			idx, _ := b.windowGrid(window, order[i:], distinct, gs.grid(), nil, false)
			return idx
		}
		if i%gridCheckEvery == 0 {
			mark = tests
		}
		tv := num[t*s : t*s+s]
		dominated := false
		n := 0 // window[:n] is what t has left of window[:wi]
		for wi, w := range window {
			wv := num[w*s : w*s+s]
			var lt, gt uint64
			if four {
				lt, gt = lessMask4(wv, tv), lessMask4(tv, wv)
			} else {
				lt, gt = laneMasks(wv, tv)
			}
			tests++
			comps += lanesCompared(lt, gt, s)
			if gt == 0 && (lt != 0 || distinct) {
				// w dominates t, or equals it under distinct. t cannot
				// dominate the remaining window tuples (transitivity);
				// keep w and the rest, and stop. When nothing was evicted
				// before w the window is unchanged: skip the copy.
				dominated = true
				if n != wi {
					n += copy(window[n:], window[wi:])
				} else {
					n = len(window)
				}
				break
			}
			// Kept unless t evicts it (lt == 0 && gt != 0).
			window[n] = w
			n += int(b2u(lt != 0) | b2u(gt == 0))
		}
		window = window[:n]
		if !dominated {
			window = append(window, t)
		}
	}
	b.counters.Tests += tests
	b.counters.Comparisons += comps
	return window
}

// bnlDense2 unrolls bnlDense for the two-dimensional case — the classic
// price/rating skyline — where the window is small and per-test loop
// machinery would outweigh the two float comparisons: both coordinates of
// the incoming point live in registers across the whole window scan.
func (b *Batch) bnlDense2(window, order []int, distinct bool, gs *gridSource) []int {
	num := b.num
	var tests, mark int64
	for i, t := range order {
		if gs.pays(len(window), len(order)-i, tests-mark) {
			b.counters.Tests += tests
			b.counters.Comparisons += 2 * tests
			idx, _ := b.windowGrid(window, order[i:], distinct, gs.grid(), nil, false)
			return idx
		}
		if i%gridCheckEvery == 0 {
			mark = tests
		}
		t0, t1 := num[2*t], num[2*t+1]
		dominated := false
		keep := window[:0]
		for wi, w := range window {
			tests++
			w0, w1 := num[2*w], num[2*w+1]
			aBetter := w0 < t0 || w1 < t1
			bBetter := w0 > t0 || w1 > t1
			switch {
			case aBetter && bBetter:
				keep = append(keep, w) // incomparable
			case aBetter: // w dominates t
				dominated = true
			case bBetter: // t dominates w: evicted
			default: // equal
				if distinct {
					dominated = true
				} else {
					keep = append(keep, w)
				}
			}
			if dominated {
				if len(keep) == wi {
					keep = window
				} else {
					keep = append(keep, window[wi:]...)
				}
				break
			}
		}
		window = keep
		if !dominated {
			window = append(window, t)
		}
	}
	b.counters.Tests += tests
	b.counters.Comparisons += 2 * tests
	return window
}

// GlobalIncomplete is the pairwise flag-based algorithm of §5.7/Appendix A
// over a batch decoded with the incomplete dominance definition: all pairs
// are compared, dominated points are only removed at the end, tolerating
// the cyclic dominance relationships of incomplete data.
func (b *Batch) GlobalIncomplete(distinct bool) []int {
	drop := make([]bool, b.n)
	b.flagIncomplete(0, b.n, distinct, drop)
	return keptIndices(drop)
}

// flagIncomplete is the flag loop of GlobalIncomplete for the points i in
// [lo, hi): it compares each with every j > i and sets drop on the
// dominated point of every pair and, under distinct, on the later of two
// equal points (the first occurrence is kept). Over [0, n) it makes
// exactly n(n-1)/2 dominance tests.
func (b *Batch) flagIncomplete(lo, hi int, distinct bool, drop []bool) {
	for i := lo; i < hi; i++ {
		for j := i + 1; j < b.n; j++ {
			switch b.CompareDecoded(i, j) {
			case LeftDominates:
				drop[j] = true
			case RightDominates:
				drop[i] = true
			case Equal:
				if distinct {
					drop[j] = true
				}
			}
		}
	}
}

// keptIndices returns the indices whose drop flag is unset, in order.
func keptIndices(drop []bool) []int {
	out := make([]int, 0, len(drop))
	for i, d := range drop {
		if !d {
			out = append(out, i)
		}
	}
	return out
}
