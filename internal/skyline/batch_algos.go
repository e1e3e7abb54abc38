package skyline

// Columnar twins of the window algorithms: each operates on batch indices
// through CompareDecoded and returns surviving indices in the exact
// emission order of its boxed counterpart, so kernel-on and kernel-off
// executions are row-for-row identical.

import (
	"fmt"
	"sort"
)

// allIndices returns 0..n-1, the identity processing order.
func (b *Batch) allIndices() []int {
	order := make([]int, len(b.pts))
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
	return b.bnlOver(nil, b.allIndices(), distinct)
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
func (b *Batch) BNLSeeded(seed int, distinct bool) []int {
	return b.bnlOver(rangeIndices(0, seed), rangeIndices(seed, len(b.pts)), distinct)
}

// bnlOver runs the BNL window pass over the given processing order,
// starting from window (nil: empty), which it owns and compacts in place.
func (b *Batch) bnlOver(window, order []int, distinct bool) []int {
	if window == nil {
		window = make([]int, 0, 16)
	}
	if !b.anyNull && b.keyStride == 0 {
		return b.bnlDense(window, order, distinct)
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

// bnlDense is the window pass for the hot case — purely numeric
// dimensions, no NULLs: the incoming point's vector is hoisted out of the
// window scan and the dominance classification is inlined, so every test
// is a branchy linear scan of two contiguous float64 slices with no calls
// and no per-test counter writes.
func (b *Batch) bnlDense(window, order []int, distinct bool) []int {
	s := b.numStride
	num := b.num
	if s == 2 {
		return b.bnlDense2(window, order, distinct)
	}
	var tests, comps int64
	for _, t := range order {
		tv := num[t*s : t*s+s]
		dominated := false
		keep := window[:0]
		for wi, w := range window {
			tests++
			wv := num[w*s : w*s+s]
			// Inlined compareDense(w, t) on wv vs tv, with the boxed
			// path's early exit once both directions have won a dimension.
			aBetter, bBetter, incomparable := false, false, false
			for k, x := range wv {
				y := tv[k]
				comps++
				if x < y {
					if bBetter {
						incomparable = true
						break
					}
					aBetter = true
				} else if x > y {
					if aBetter {
						incomparable = true
						break
					}
					bBetter = true
				}
			}
			switch {
			case incomparable || (aBetter && bBetter):
				keep = append(keep, w)
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
				// t cannot dominate the remaining window tuples
				// (transitivity); keep w and the rest, and stop. When
				// nothing was evicted before w the window is unchanged
				// (keep aliases its prefix), so skip the copy entirely.
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
	b.counters.Comparisons += comps
	return window
}

// bnlDense2 unrolls bnlDense for the two-dimensional case — the classic
// price/rating skyline — where the window is small and per-test loop
// machinery would outweigh the two float comparisons: both coordinates of
// the incoming point live in registers across the whole window scan.
func (b *Batch) bnlDense2(window, order []int, distinct bool) []int {
	num := b.num
	var tests int64
	for _, t := range order {
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

// BNLBounded is the multi-pass bounded-window BNL (see bounded.go) over
// the decoded batch.
func (b *Batch) BNLBounded(distinct bool, windowCap int) ([]int, error) {
	if windowCap < 1 {
		return nil, fmt.Errorf("skyline: window capacity must be positive, got %d", windowCap)
	}
	var out []int
	input := b.allIndices()
	n := len(input)
	for pass := 0; len(input) > 0; pass++ {
		if pass > n+1 {
			return nil, fmt.Errorf("skyline: bounded BNL failed to converge (window cap %d)", windowCap)
		}
		type entry struct {
			p int
			t int // insertion timestamp within this pass
		}
		var window []entry
		var overflow []int
		firstOverflow := -1 // timestamp of the first overflow write; -1 = none
		clock := 0
		for _, t := range input {
			clock++
			dominated := false
			keep := window[:0]
			for wi, w := range window {
				switch b.CompareDecoded(w.p, t) {
				case LeftDominates:
					dominated = true
				case Equal:
					if distinct {
						dominated = true
					} else {
						keep = append(keep, w)
					}
				case RightDominates:
					// evicted
				default:
					keep = append(keep, w)
				}
				if dominated {
					keep = append(keep, window[wi:]...)
					break
				}
			}
			window = keep
			if dominated {
				continue
			}
			if len(window) < windowCap {
				window = append(window, entry{p: t, t: clock})
				continue
			}
			if firstOverflow < 0 {
				firstOverflow = clock
			}
			overflow = append(overflow, t)
		}
		var carry []int
		for _, w := range window {
			if firstOverflow < 0 || w.t < firstOverflow {
				out = append(out, w.p)
			} else {
				carry = append(carry, w.p)
			}
		}
		input = append(carry, overflow...)
	}
	return out, nil
}

// SFS is the Sort-Filter-Skyline pass (§7 extension) over the decoded
// batch: presort by the monotone entropy score, then filter without
// evictions. The score is the sum of the direction-normalized columns,
// which reproduces the boxed entropyScore exactly (NULL slots hold 0, the
// contribution entropyScore assigns them).
func (b *Batch) SFS(distinct bool) []int {
	return b.sfsFilter(b.sfsOrder(), distinct)
}

// sfsOrder computes SFS's processing order: all indices, stably sorted by
// the entropy score (the sum of the direction-normalized columns). The
// score is strictly monotone under dominance — a dominator is ≤ in every
// normalized column and < in one — so no point is ever preceded by a point
// it dominates, and equal points keep their index order.
func (b *Batch) sfsOrder() []int {
	scores := make([]float64, len(b.pts))
	s := b.numStride
	for i := range scores {
		sum := 0.0
		for _, v := range b.num[i*s : i*s+s] {
			sum += v
		}
		scores[i] = sum
	}
	order := b.allIndices()
	sort.SliceStable(order, func(x, y int) bool {
		return scores[order[x]] < scores[order[y]]
	})
	return order
}

// sfsFilter is the eviction-free SFS filter pass over an already
// dominance-compatible processing order (entropy or Z-order presorted).
func (b *Batch) sfsFilter(order []int, distinct bool) []int {
	window := make([]int, 0, 16)
	for _, t := range order {
		dominated := false
		for _, w := range window {
			rel := b.CompareDecoded(w, t)
			if rel == LeftDominates || (rel == Equal && distinct) {
				dominated = true
				break
			}
		}
		if !dominated {
			window = append(window, t)
		}
	}
	return window
}

// DivideAndConquer recursively splits the batch, computes partial
// skylines, and merges them with a BNL pass, mirroring the boxed
// DivideAndConquer structure (same cutoff, same merge order).
func (b *Batch) DivideAndConquer(distinct bool) []int {
	return b.dnc(b.allIndices(), distinct)
}

func (b *Batch) dnc(order []int, distinct bool) []int {
	const cutoff = 64
	if len(order) <= cutoff {
		return b.bnlOver(nil, order, distinct)
	}
	mid := len(order) / 2
	left := b.dnc(order[:mid], distinct)
	right := b.dnc(order[mid:], distinct)
	merged := append(append(make([]int, 0, len(left)+len(right)), left...), right...)
	return b.bnlOver(nil, merged, distinct)
}

// GlobalIncomplete is the pairwise flag-based algorithm of §5.7/Appendix A
// over a batch decoded with the incomplete dominance definition: all pairs
// are compared, dominated points are only removed at the end, tolerating
// the cyclic dominance relationships of incomplete data.
func (b *Batch) GlobalIncomplete(distinct bool) []int {
	n := len(b.pts)
	dominated := make([]bool, n)
	duplicate := make([]bool, n)
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			switch b.CompareDecoded(i, j) {
			case LeftDominates:
				dominated[j] = true
			case RightDominates:
				dominated[i] = true
			case Equal:
				if distinct {
					duplicate[j] = true // keep the first occurrence
				}
			}
		}
	}
	out := make([]int, 0, n)
	for i := 0; i < n; i++ {
		if !dominated[i] && !duplicate[i] {
			out = append(out, i)
		}
	}
	return out
}
