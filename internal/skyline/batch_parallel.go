package skyline

// Morsel-parallel twins of the global window algorithms. Each runs in two
// phases over contiguous index-range chunks of one decoded batch:
//
//  1. a shared-nothing local pass per chunk (the serial algorithm applied
//     to the chunk's index range), and
//  2. a parallel cross-chunk filter: each chunk's local survivors are
//     tested against the other chunks' local survivors.
//
// Phase 2 is itself parallel — one task per chunk — which is what makes
// the twins scale on anti-correlated inputs, where nearly every point is a
// skyline point and a serial merge would cost as much as the whole serial
// algorithm.
//
// Correctness rests on the transitivity of complete dominance (NULL-aware:
// dominance requires identical null masks, so the relation stays
// transitive — see compareCompleteNulls): a point eliminated inside a
// chunk is always dominated (or, under DISTINCT, duplicated) by one of the
// chunk's local survivors, so testing against local survivors only is
// exhaustive. Every twin emits exactly the serial algorithm's indices in
// exactly the serial order, so the bit-identity contracts of the kernel
// hold across the parallel path too. The incomplete-data algorithm needs
// no transitivity at all: its pairwise flag marking is order-independent,
// so its twin just splits the pair space.
//
// Tasks never share mutable state: each runs on a shallow view of the
// batch with its own cost counters (the decoded storage is read-only), and
// the counters are absorbed back serially after each phase.

// ParallelRunner executes one round of independent tasks, returning the
// first task error (or a cancellation error). The cluster's morsel runtime
// provides it; the skyline package stays scheduler-agnostic.
type ParallelRunner func(tasks []func() error) error

// view returns a shallow copy of b with fresh cost counters: same decoded
// storage (read-only), private accumulation — the per-task handle of the
// parallel twins.
func (b *Batch) view() *Batch {
	v := *b
	v.counters = Counters{}
	return &v
}

// absorb merges the views' task-local counters back into b.
func (b *Batch) absorb(views []*Batch) {
	for _, v := range views {
		b.counters.Tests += v.counters.Tests
		b.counters.Comparisons += v.counters.Comparisons
	}
}

// parallelChunks cuts n indices into ceil-even contiguous ranges of about
// chunk rows. nil when splitting is pointless (fewer than two chunks).
func parallelChunks(n, chunk int) [][2]int {
	if chunk < 1 || n < 2*chunk {
		return nil
	}
	parts := (n + chunk - 1) / chunk
	size := (n + parts - 1) / parts
	out := make([][2]int, 0, parts)
	for lo := 0; lo < n; lo += size {
		hi := lo + size
		if hi > n {
			hi = n
		}
		out = append(out, [2]int{lo, hi})
	}
	return out
}

// rangeIndices returns lo..hi-1.
func rangeIndices(lo, hi int) []int {
	order := make([]int, hi-lo)
	for i := range order {
		order[i] = lo + i
	}
	return order
}

// runChunks executes fn(k, view) for every chunk k as one parallel round,
// then absorbs the views' counters.
func (b *Batch) runChunks(nchunks int, run ParallelRunner, fn func(k int, v *Batch)) error {
	views := make([]*Batch, nchunks)
	tasks := make([]func() error, nchunks)
	for k := 0; k < nchunks; k++ {
		k := k
		views[k] = b.view()
		tasks[k] = func() error {
			fn(k, views[k])
			return nil
		}
	}
	if err := run(tasks); err != nil {
		return err
	}
	b.absorb(views)
	return nil
}

// concatChunks flattens per-chunk survivor lists in chunk order — which is
// global index order (chunks are contiguous ranges in order), the emission
// order of the serial input-order algorithms.
func concatChunks(keep [][]int) []int {
	n := 0
	for _, k := range keep {
		n += len(k)
	}
	out := make([]int, 0, n)
	for _, k := range keep {
		out = append(out, k...)
	}
	return out
}

// crossFilterInputOrder is phase 2 of the input-order algorithms (BNL,
// divide & conquer): keep p of chunk k unless some other chunk's local
// survivor dominates it, or — under DISTINCT — equals it with a smaller
// global index (the serial pass keeps the first occurrence of an equal
// class). Within-chunk elimination already happened in phase 1.
func (v *Batch) crossFilterInputOrder(local [][]int, k int, distinct bool) []int {
	out := make([]int, 0, len(local[k]))
	for _, p := range local[k] {
		keep := true
	scan:
		for j := range local {
			if j == k {
				continue
			}
			for _, q := range local[j] {
				switch v.CompareDecoded(q, p) {
				case LeftDominates:
					keep = false
					break scan
				case Equal:
					if distinct && q < p {
						keep = false
						break scan
					}
				}
			}
		}
		if keep {
			out = append(out, p)
		}
	}
	return out
}

// BNLParallel is the morsel-parallel twin of BNL: per-chunk window passes,
// then the parallel cross-chunk filter. Emits exactly BNL's indices in
// BNL's order (the skyline in input order; first-of-equals under
// DISTINCT). chunk is the target rows per task; inputs smaller than two
// chunks fall back to the serial pass.
func (b *Batch) BNLParallel(distinct bool, chunk int, run ParallelRunner) ([]int, error) {
	bounds := parallelChunks(len(b.pts), chunk)
	if bounds == nil {
		return b.BNL(distinct), nil
	}
	local := make([][]int, len(bounds))
	err := b.runChunks(len(bounds), run, func(k int, v *Batch) {
		local[k] = v.bnlOver(nil, rangeIndices(bounds[k][0], bounds[k][1]), distinct)
	})
	if err != nil {
		return nil, err
	}
	keep := make([][]int, len(bounds))
	err = b.runChunks(len(bounds), run, func(k int, v *Batch) {
		keep[k] = v.crossFilterInputOrder(local, k, distinct)
	})
	if err != nil {
		return nil, err
	}
	return concatChunks(keep), nil
}

// DivideAndConquerParallel is the morsel-parallel twin of DivideAndConquer:
// each chunk runs the recursive split-and-merge locally, the cross-chunk
// filter replaces the top merge levels. The serial algorithm emits the
// skyline in input order — the same sequence BNL emits — so the twin
// shares BNL's phase 2 and emission proof.
func (b *Batch) DivideAndConquerParallel(distinct bool, chunk int, run ParallelRunner) ([]int, error) {
	bounds := parallelChunks(len(b.pts), chunk)
	if bounds == nil {
		return b.DivideAndConquer(distinct), nil
	}
	local := make([][]int, len(bounds))
	err := b.runChunks(len(bounds), run, func(k int, v *Batch) {
		local[k] = v.dnc(rangeIndices(bounds[k][0], bounds[k][1]), distinct)
	})
	if err != nil {
		return nil, err
	}
	keep := make([][]int, len(bounds))
	err = b.runChunks(len(bounds), run, func(k int, v *Batch) {
		keep[k] = v.crossFilterInputOrder(local, k, distinct)
	})
	if err != nil {
		return nil, err
	}
	return concatChunks(keep), nil
}

// SFSParallel is the morsel-parallel twin of SFS. The entropy scoring and
// the stable sort stay serial (O(n log n), not the hot spot); the sorted
// order is chunked, each chunk runs the eviction-free filter locally, and
// phase 2 filters chunk k's survivors against the survivors of chunks
// j < k only: the entropy score is strictly monotone under dominance
// (a dominator's normalized sum is strictly smaller) and equal points
// share a score with stable index order, so every point that can eliminate
// p sorts before it. Emits exactly SFS's indices in SFS's (sorted) order.
func (b *Batch) SFSParallel(distinct bool, chunk int, run ParallelRunner) ([]int, error) {
	bounds := parallelChunks(len(b.pts), chunk)
	if bounds == nil {
		return b.SFS(distinct), nil
	}
	order := b.sfsOrder()
	local := make([][]int, len(bounds))
	err := b.runChunks(len(bounds), run, func(k int, v *Batch) {
		local[k] = v.sfsFilter(order[bounds[k][0]:bounds[k][1]], distinct)
	})
	if err != nil {
		return nil, err
	}
	keep := make([][]int, len(bounds))
	err = b.runChunks(len(bounds), run, func(k int, v *Batch) {
		out := make([]int, 0, len(local[k]))
		for _, p := range local[k] {
			kept := true
		scan:
			for j := 0; j < k; j++ {
				for _, q := range local[j] {
					rel := v.CompareDecoded(q, p)
					if rel == LeftDominates || (rel == Equal && distinct) {
						kept = false
						break scan
					}
				}
			}
			if kept {
				out = append(out, p)
			}
		}
		keep[k] = out
	})
	if err != nil {
		return nil, err
	}
	return concatChunks(keep), nil
}

// GlobalIncompleteParallel is the morsel-parallel twin of GlobalIncomplete.
// Incomplete dominance is not transitive, so there is no local-survivor
// shortcut; instead the pairwise flag marking — which is order-independent
// by construction (flags are only read after every pair was visited) — is
// split by i-chunk: each task scans its i range against all j > i, writing
// task-local flag arrays that are OR-merged serially. Same flags, same
// index-order emission, exactly n(n-1)/2 dominance tests either way.
func (b *Batch) GlobalIncompleteParallel(distinct bool, chunk int, run ParallelRunner) ([]int, error) {
	n := len(b.pts)
	bounds := parallelChunks(n, chunk)
	if bounds == nil {
		return b.GlobalIncomplete(distinct), nil
	}
	dom := make([][]bool, len(bounds))
	dup := make([][]bool, len(bounds))
	err := b.runChunks(len(bounds), run, func(k int, v *Batch) {
		dominated := make([]bool, n)
		duplicate := make([]bool, n)
		for i := bounds[k][0]; i < bounds[k][1]; i++ {
			for j := i + 1; j < n; j++ {
				switch v.CompareDecoded(i, j) {
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
		dom[k], dup[k] = dominated, duplicate
	})
	if err != nil {
		return nil, err
	}
	out := make([]int, 0, n)
	for i := 0; i < n; i++ {
		keep := true
		for k := range dom {
			if dom[k][i] || dup[k][i] {
				keep = false
				break
			}
		}
		if keep {
			out = append(out, i)
		}
	}
	return out, nil
}
