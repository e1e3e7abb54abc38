package skyline

// Morsel-parallel twins of the global window algorithms. Each runs in two
// phases over contiguous index-range chunks of one decoded batch:
//
//  1. a shared-nothing local pass per chunk (the serial algorithm applied
//     to the chunk's index range) — for BNL, seeded by the leading run and
//     skipped inside a run when the batch records runs (MarkRun), and
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
// Both phases use the cell-grid index (grid.go) on dense batches, chosen
// per task from its own measured tests: phase 1 through the serial window
// passes (whose BNL passes also screen their arrivals, batch_algos.go),
// phase 2 through one index over every chunk's local survivors,
// built by the first task that asks and shared by the rest. It skips only
// pairs that cannot be related, so the emission contract is untouched.
//
// Tasks never share mutable state: each runs on a shallow view of the
// batch with its own cost counters (the decoded storage is read-only; the
// phase-2 index is read-only once built), and the counters are absorbed
// back serially after each phase.

import "slices"

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

// crossFilterChunks runs phase 2 as one parallel round, a crossFilter task
// per chunk, and concatenates the kept survivors in chunk order.
func (b *Batch) crossFilterChunks(gs *gridSource, local [][]int, distinct bool, run ParallelRunner) ([]int, error) {
	ci := &crossIndex{gs: gs, local: local}
	keep := make([][]int, len(local))
	err := b.runChunks(len(local), run, func(k int, v *Batch) {
		keep[k] = v.crossFilter(ci, k, distinct)
	})
	if err != nil {
		return nil, err
	}
	return concatChunks(keep), nil
}

// crossFilter is phase 2: keep p of chunk k unless a local survivor of
// another chunk dominates it, or — under DISTINCT — equals it and precedes
// it in index order (the serial pass keeps the first occurrence of an
// equal class). Within-chunk elimination already happened in phase 1. On
// dense batches the task moves to the shared cell index once its measured
// tests say it pays, exactly as a window pass does.
func (v *Batch) crossFilter(ci *crossIndex, k int, distinct bool) []int {
	local := ci.local
	against := 0
	for j, l := range local {
		if j != k {
			against += len(l)
		}
	}
	dense, indexed := v.dense(), false
	mark := v.counters.Tests
	var cand []uint64
	out := make([]int, 0, len(local[k]))
	for i, p := range local[k] {
		if dense && !indexed {
			if indexed = ci.gs.pays(against, len(local[k])-i, v.counters.Tests-mark); indexed {
				ci.build()
			}
			if i%gridCheckEvery == 0 {
				mark = v.counters.Tests
			}
		}
		var gone bool
		switch {
		case indexed:
			gone, cand = v.eliminatedIndexed(ci, cand, k, i, distinct)
		case dense:
			gone = v.eliminatedDense(local, p, k, distinct)
		default:
			gone = v.eliminated(local, p, k, distinct)
		}
		if !gone {
			out = append(out, p)
		}
	}
	return out
}

// eliminated is crossFilter's test of p against every survivor of the
// other chunks.
func (v *Batch) eliminated(local [][]int, p, k int, distinct bool) bool {
	for j, l := range local {
		if j == k {
			continue
		}
		for _, q := range l {
			rel := v.CompareDecoded(q, p)
			if rel == LeftDominates || (rel == Equal && distinct && q < p) {
				return true
			}
		}
	}
	return false
}

// eliminatedDense is eliminated on a dense batch: each test is the lane
// masks, inlined, and the counters accumulate locally until p is decided.
func (v *Batch) eliminatedDense(local [][]int, p, k int, distinct bool) bool {
	s, num := v.numStride, v.num
	pv := num[p*s : p*s+s]
	four := s == 4
	var tests, comps int64
	gone := false
scan:
	for j, l := range local {
		if j == k {
			continue
		}
		for _, q := range l {
			qv := num[q*s : q*s+s]
			var lt, gt uint64
			if four {
				lt, gt = lessMask4(qv, pv), lessMask4(pv, qv)
			} else {
				lt, gt = laneMasks(qv, pv)
			}
			tests++
			comps += lanesCompared(lt, gt, s)
			if gt == 0 && (lt != 0 || distinct && q < p) {
				gone = true
				break scan
			}
		}
	}
	v.counters.Tests += tests
	v.counters.Comparisons += comps
	return gone
}

// MarkRun records the whole batch as one run: the caller vouches that no
// point of it dominates another and, under distinct, that no two are
// Equal — what a local BNL pass emits. Exchanges concatenate runs
// (MergeBatches), and BNLParallel then leaves inside a run the work the
// local pass already did. It returns b.
func (b *Batch) MarkRun(distinct bool) *Batch {
	b.runs, b.runsDistinct = []int{b.n}, distinct
	return b
}

// Runs returns the batch's run lengths in index order, nil when it records
// none, and whether they were produced under DISTINCT.
func (b *Batch) Runs() ([]int, bool) { return b.runs, b.runsDistinct }

// runEnds returns the end index of every run a pass under distinct may
// trust, ascending, or nil when there is none: a DISTINCT pass ignores
// runs that were not produced under DISTINCT, whose points may be Equal.
func (b *Batch) runEnds(distinct bool) []int {
	if b.runs == nil || (distinct && !b.runsDistinct) {
		return nil
	}
	ends := make([]int, 0, len(b.runs))
	end := 0
	for _, r := range b.runs {
		if r > 0 {
			end += r
			ends = append(ends, end)
		}
	}
	if end != b.n {
		return nil
	}
	return ends
}

// runEndAfter returns the end of the run that index lo lies in, or lo when
// there are no runs.
func runEndAfter(ends []int, lo int) int {
	i, _ := slices.BinarySearch(ends, lo+1)
	if i == len(ends) {
		return lo
	}
	return ends[i]
}

// cutAtRuns moves every interior cut of bounds to the nearest run end (the
// lower one on a tie), dropping cuts that land on the batch's ends or on
// each other, so a chunk never has more pieces than bounds had. With no
// run ends bounds is returned unchanged.
func cutAtRuns(bounds [][2]int, ends []int) [][2]int {
	if len(ends) == 0 || len(bounds) < 2 {
		return bounds
	}
	n := bounds[len(bounds)-1][1]
	out := make([][2]int, 0, len(bounds))
	lo := 0
	for _, bd := range bounds[:len(bounds)-1] {
		c := bd[1]
		i, _ := slices.BinarySearch(ends, c)
		switch {
		case i == len(ends):
			c = ends[i-1]
		case i > 0 && c-ends[i-1] <= ends[i]-c:
			c = ends[i-1]
		default:
			c = ends[i]
		}
		if c > lo && c < n {
			out = append(out, [2]int{lo, c})
			lo = c
		}
	}
	return append(out, [2]int{lo, n})
}

// bnlRange is the BNL pass over [lo, hi) with the run that starts at lo,
// if any, installed as its window (BNLSeeded's contract: a run is what a
// BNL pass over it holds), so a range inside one run costs no test.
func (b *Batch) bnlRange(lo, hi int, ends []int, distinct bool, gs *gridSource) []int {
	seed := min(runEndAfter(ends, lo), hi)
	var window []int
	if seed > lo {
		window = rangeIndices(lo, seed)
	}
	return b.bnlOver(window, rangeIndices(seed, hi), distinct, gs)
}

// BNLParallel is the morsel-parallel twin of BNL: per-chunk window passes,
// then the parallel cross-chunk filter. Emits exactly BNL's indices in
// BNL's order (the skyline in input order; first-of-equals under
// DISTINCT). chunk is the target rows per task; inputs smaller than two
// chunks fall back to the serial pass.
//
// Runs the batch records (MarkRun, kept by MergeBatches) shape phase 1:
// the chunk cuts move to run ends, a chunk inside one run is its own BNL
// result and is not passed over, and any other chunk's pass starts with
// its leading run as the window. The round is not submitted when no chunk
// needs a pass. The serial pass, likewise, seeds its window with the first
// run.
func (b *Batch) BNLParallel(distinct bool, chunk int, run ParallelRunner) ([]int, error) {
	ends := b.runEnds(distinct)
	gs := b.newGridSource()
	bounds := cutAtRuns(parallelChunks(b.n, chunk), ends)
	if len(bounds) < 2 {
		return b.bnlRange(0, b.n, ends, distinct, gs), nil
	}
	local := make([][]int, len(bounds))
	var pass []int // chunks that span more than one run
	for k, bd := range bounds {
		if runEndAfter(ends, bd[0]) >= bd[1] {
			local[k] = rangeIndices(bd[0], bd[1])
		} else {
			pass = append(pass, k)
		}
	}
	if len(pass) > 0 {
		err := b.runChunks(len(pass), run, func(i int, v *Batch) {
			bd := bounds[pass[i]]
			local[pass[i]] = v.bnlRange(bd[0], bd[1], ends, distinct, gs)
		})
		if err != nil {
			return nil, err
		}
	}
	return b.crossFilterChunks(gs, local, distinct, run)
}

// GlobalIncompleteParallel is the morsel-parallel twin of GlobalIncomplete.
// Incomplete dominance is not transitive, so there is no local-survivor
// shortcut; instead the pairwise flag marking — which is order-independent
// by construction (flags are only read after every pair was visited) — is
// split by i-chunk: each task runs flagIncomplete over its i range against
// all j > i, writing a task-local flag array, and the arrays are OR-merged
// serially. Same flags, same index-order emission, exactly n(n-1)/2
// dominance tests either way.
func (b *Batch) GlobalIncompleteParallel(distinct bool, chunk int, run ParallelRunner) ([]int, error) {
	n := b.n
	bounds := parallelChunks(n, chunk)
	if bounds == nil {
		return b.GlobalIncomplete(distinct), nil
	}
	drops := make([][]bool, len(bounds))
	err := b.runChunks(len(bounds), run, func(k int, v *Batch) {
		drops[k] = make([]bool, n)
		v.flagIncomplete(bounds[k][0], bounds[k][1], distinct, drops[k])
	})
	if err != nil {
		return nil, err
	}
	drop := drops[0]
	for _, d := range drops[1:] {
		for i, f := range d {
			drop[i] = drop[i] || f
		}
	}
	return keptIndices(drop), nil
}
