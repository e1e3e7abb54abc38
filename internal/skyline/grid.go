package skyline

// This file implements the cell-grid index of the dense window passes: the
// point-based space partitioning of the skyline literature, chosen from the
// data. Per numeric dimension ("lane", at most 16) the grid holds quantile
// cut points taken from a strided sample of the batch, L cells per lane with
// L ≈ n^(1/d) clamped to 2..8. A point's cell code packs its cell number per
// lane into 4-bit lanes of one uint64.
//
// Cells are monotone in the value, so w can dominate or equal t only if
// cell(w) ≤ cell(t) in every lane; dropping lanes beyond 16 keeps that
// condition necessary. The index buckets points by cell code and keeps, per
// lane and cell value, a bitset of the buckets at or below that value, so
// the buckets below a code in every lane — the only ones that can dominate
// it — are the AND of one bitset per lane, 64 buckets a word; the buckets
// above it, the only ones it can dominate, come from the complements.
// Skipped pairs are exactly pairs that cannot be related, so a window pass
// that switches to the index holds, after every arrival, the plain pass's
// window in the plain pass's order, and returns the plain pass's result.
// Cell checks are not dominance tests and are not counted as such.
//
// Nothing about the grid is carried on a batch: cut points are taken at
// kernel entry from the batch being processed, codes are computed as points
// are indexed. The one thing that outlives a pass is what a seeded pass
// (BNLSeeded) returns for its survivors, CellCodes: the grid and one code
// per survivor, which the next pass seeded with those survivors installs
// instead of coding them again. Codes are only ever compared with codes
// taken under the same grid; any monotone cut points are exact, so a grid
// taken from an earlier batch is as correct as a fresh one, and only how
// evenly it spreads the points over buckets can differ.

import (
	"cmp"
	"math"
	"math/bits"
	"slices"
	"sync"
)

const (
	// gridMaxLanes is the number of 4-bit lanes in a cell code.
	gridMaxLanes = 16
	// gridMaxCells bounds the cells per lane, and with them the bitsets.
	gridMaxCells = 8
	// gridSamplePerCell is the sample size per cell the cut points come from.
	gridSamplePerCell = 32
)

// The switch rule. A plain pass counts its dominance tests in stretches of
// gridCheckEvery arrivals and moves to the index as soon as the current
// stretch has cost gridMinTestsPerArrival tests for each arrival of a full
// stretch, while its window and the input still to come both hold at least
// gridMinWindow and gridMinRemaining points: then most arrivals scan most
// of a large window, which is what the index removes. On data whose
// arrivals meet an early dominator (correlated, small independent passes)
// the count stays low and the index is never built. A large independent
// BNL pass is different once its screen (screenOrder) has dropped the easy
// arrivals: the rest meet their dominators late, and the rule may fire.
const (
	gridCheckEvery         = 16
	gridMinWindow          = 64
	gridMinRemaining       = 64
	gridMinTestsPerArrival = 64
)

// gridPolicy pins a window pass's use of the index and of BNL's dominance
// screen (screenOrder). The engine always runs gridAuto; tests run gridOff,
// the plain pass with neither, as the oracle the screened and gridded paths
// must equal, and gridOn to index every pass from its first arrival.
type gridPolicy int8

const (
	gridAuto gridPolicy = iota
	gridOff
	gridOn
)

// cellGrid holds the per-lane cut points of one batch.
type cellGrid struct {
	cuts [][]float64 // cuts[k]: ascending cut points of lane k, cells-1 of them
}

// newCellGrid takes the cut points from a strided sample of the batch.
func (b *Batch) newCellGrid() *cellGrid {
	n, s := b.n, b.numStride
	lanes := min(s, gridMaxLanes)
	cells := int(math.Round(math.Pow(float64(n), 1/float64(lanes))))
	cells = max(2, min(cells, gridMaxCells))
	m := min(n, cells*gridSamplePerCell)
	g := &cellGrid{cuts: make([][]float64, lanes)}
	if m == 0 {
		return g // no points: every lane is one cell
	}
	sample := make([]float64, m)
	for k := range g.cuts {
		for i := range sample {
			sample[i] = b.num[(i*n/m)*s+k]
		}
		slices.Sort(sample)
		cuts := make([]float64, cells-1)
		for j := range cuts {
			cuts[j] = sample[(j+1)*m/cells]
		}
		g.cuts[k] = cuts
	}
	return g
}

// code returns the cell code of a normalized vector: per lane, the number
// of cut points the value lies above, counted without a branch (the cuts
// ascend, so they are the leading ones). -0 and +0, equal to every cut
// point alike, share a cell.
func (g *cellGrid) code(v []float64) uint64 {
	var c uint64
	for k, cuts := range g.cuts {
		x := v[k]
		var cell uint64
		for _, cut := range cuts {
			cell += b2u(x > cut)
		}
		c |= cell << (4 * uint(k))
	}
	return c
}

// CellCodes is what a seeded window pass (BNLSeeded) leaves for the next
// pass seeded with its survivors: the grid it coded them under and one
// cell code per survivor, in the order the pass returned them. Its holder
// keeps it beside the survivors' batch and hands it back unchanged; the
// zero value holds no codes.
type CellCodes struct {
	grid  *cellGrid
	codes []uint64
	taken int // the seed the cut points were taken for
}

// MemSize is what the codes and their grid's cut points weigh, in bytes.
func (c CellCodes) MemSize() int64 {
	if c.grid == nil {
		return 0
	}
	n := int64(len(c.codes)) * 8
	for _, cuts := range c.grid.cuts {
		n += int64(len(cuts)) * 8
	}
	return n
}

// fits reports whether c codes the seed of a seeded pass over b: one code
// per seed point, under a grid with b's lanes whose cut points were taken
// for a seed less than twice and more than half this one. Past that the
// grid is taken again, so its cells follow the window's size.
func (c CellCodes) fits(b *Batch, seed int) bool {
	return c.grid != nil && len(c.codes) == seed && len(c.grid.cuts) == min(b.numStride, gridMaxLanes) &&
		seed < 2*c.taken && 2*seed > c.taken
}

// carry returns the codes of the survivors idx of a pass over b seeded
// with c's points [0, seed): a seed point keeps its code, an admitted
// arrival is coded under c's grid.
func (c CellCodes) carry(b *Batch, seed int, idx []int) CellCodes {
	s := b.numStride
	out := make([]uint64, len(idx))
	for i, j := range idx {
		if j < seed {
			out[i] = c.codes[j]
		} else {
			out[i] = c.grid.code(b.num[j*s : j*s+s])
		}
	}
	return CellCodes{grid: c.grid, codes: out, taken: c.taken}
}

// gridSource carries a kernel call's policy and builds the batch's grid the
// first time a pass switches. One per kernel call, shared by its tasks.
type gridSource struct {
	b      *Batch
	policy gridPolicy
	once   sync.Once
	g      *cellGrid
}

// newGridSource starts a kernel call on b.
func (b *Batch) newGridSource() *gridSource {
	return &gridSource{b: b, policy: b.gridPolicy}
}

// grid returns the batch's grid, building it on first use.
func (gs *gridSource) grid() *cellGrid {
	gs.once.Do(func() { gs.g = gs.b.newCellGrid() })
	return gs.g
}

// paysSeeded is the switch rule for a pass seeded with a trusted window
// of seed points and arrivals to absorb. The seed is an antichain, so an
// arrival that is not dominated scans all of it: the index pays from the
// first arrival once the seed and the work, seed × arrivals, are as large
// as the stretch rule's window and remaining input require.
func (gs *gridSource) paysSeeded(seed, arrivals int) bool {
	switch gs.policy {
	case gridOn:
		return arrivals > 0
	case gridOff:
		return false
	}
	return seed >= gridMinWindow && seed*arrivals >= gridMinWindow*gridMinRemaining
}

// pays is the switch rule for a pass holding window points with remaining
// arrivals to come, whose current stretch has cost recent tests.
func (gs *gridSource) pays(window, remaining int, recent int64) bool {
	switch gs.policy {
	case gridOn:
		return true
	case gridOff:
		return false
	}
	return window >= gridMinWindow && remaining >= gridMinRemaining &&
		recent >= gridMinTestsPerArrival*gridCheckEvery
}

// cellSets holds, for lane k and cell value v, the bitset le[k*cells+v] of
// the buckets whose cell in lane k is at most v. Bucket ids are dense and
// only ever added; the words are carved from one block sized for the most
// buckets the caller can open, so adding a bucket never allocates.
type cellSets struct {
	cells int
	le    [][]uint64
	block []uint64
}

// reset empties the sets for grid g and up to maxBuckets buckets, reusing
// their memory when it suffices.
func (cs *cellSets) reset(g *cellGrid, maxBuckets int) {
	lanes, cells := len(g.cuts), len(g.cuts[0])+1
	words := (maxBuckets + 63) / 64
	cs.cells = cells
	cs.block = reuse(cs.block, lanes*cells*words)[:lanes*cells*words]
	clear(cs.block)
	cs.le = reuse(cs.le, lanes*cells)[:lanes*cells]
	block := cs.block
	for i := range cs.le {
		cs.le[i], block = block[:0:words], block[words:]
	}
}

// reuse returns s emptied when it can hold n elements, else a new slice
// with room for n.
func reuse[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, 0, n)
	}
	return s[:0]
}

// add enters bucket id, the next one, under code.
func (cs *cellSets) add(id int, code uint64) {
	w, bit := id/64, uint64(1)<<(id%64)
	if w == len(cs.le[0]) {
		for i := range cs.le {
			cs.le[i] = cs.le[i][:w+1]
		}
	}
	for lane := 0; lane*cs.cells < len(cs.le); lane++ {
		sets := cs.le[lane*cs.cells : (lane+1)*cs.cells]
		for v := int(code>>(4*lane)) & 15; v < len(sets); v++ {
			sets[v][w] |= bit
		}
	}
}

// below returns in dst the buckets whose code is ≤ code in every lane.
func (cs *cellSets) below(dst []uint64, code uint64) []uint64 {
	dst = append(dst[:0], cs.le[code&15]...)
	for k := 1; k*cs.cells < len(cs.le); k++ {
		s := cs.le[k*cs.cells+int(code>>(4*k))&15]
		for w := range dst {
			dst[w] &= s[w]
		}
	}
	return dst
}

// above returns in dst the buckets whose code is ≥ code in every lane: in
// each lane, the complement of the buckets at or below the cell beneath.
func (cs *cellSets) above(dst []uint64, code uint64) []uint64 {
	dst = append(dst[:0], cs.le[cs.cells-1]...) // every bucket
	for k := 0; k*cs.cells < len(cs.le); k++ {
		if c := int(code>>(4*k)) & 15; c > 0 {
			s := cs.le[k*cs.cells+c-1]
			for w := range dst {
				dst[w] &^= s[w]
			}
		}
	}
	return dst
}

// maxBuckets bounds the buckets an index of at most entries entries can
// open: one per entry, and no more than there are cells.
func (g *cellGrid) maxBuckets(entries int) int {
	if c := math.Pow(float64(len(g.cuts[0])+1), float64(len(g.cuts))); c < float64(entries) {
		return int(c)
	}
	return entries
}

// gridWindow is a window pass's window on the cell index: the window in
// insertion order (-1 once evicted), bucketed by cell code with one singly
// linked list per bucket, so evicting is O(1) and no bucket ever moves.
// Passes recycle it through gridWindows: a kernel call runs one pass per
// chunk, each sized by its input.
type gridWindow struct {
	entries []int
	codes   []uint64 // bucket → cell code
	head    []int32  // bucket → first entry, -1 when empty
	next    []int32  // entry → next entry of its bucket, -1 at the end
	sets    cellSets
	cand    []uint64 // the buckets a query selected
	keys    []uint64 // entry → cell code
	slots   []int32  // the install's open-addressing table: code → bucket id+1, 0 when free

	num          []float64
	s            int
	distinct     bool
	tv           []float64 // the arrival's vector
	tests, comps int64
}

var gridWindows = sync.Pool{New: func() any { return new(gridWindow) }}

// windowGrid continues a dense BNL pass on the cell index: window is the
// pass's window so far, order the arrivals still to come; an admitted
// arrival evicts what it dominates. It returns exactly what the plain pass
// returns. codes, when not nil, are the window's cell codes under g, one
// per window entry; without them the window is coded here. withCodes asks
// for the survivors' codes beside them, in the same order.
func (b *Batch) windowGrid(window, order []int, distinct bool, g *cellGrid, codes []uint64, withCodes bool) ([]int, []uint64) {
	s, num := b.numStride, b.num
	maxEntries := len(window) + len(order)
	maxBuckets := g.maxBuckets(maxEntries)
	w := gridWindows.Get().(*gridWindow)
	w.entries = append(reuse(w.entries, maxEntries), window...)
	w.codes = reuse(w.codes, maxBuckets)
	w.head = reuse(w.head, maxBuckets)
	w.next = reuse(w.next, maxEntries)[:len(window)]
	w.keys = reuse(w.keys, maxEntries)[:len(window)]
	w.sets.reset(g, maxBuckets)
	w.num, w.s, w.distinct, w.tests, w.comps = num, s, distinct, 0, 0
	// Install the window in one pass: each entry joins the bucket of its
	// code, found through an open-addressing table; buckets open in the
	// order their codes first appear.
	w.clearSlots(min(len(window), maxBuckets))
	for e, p := range window {
		var c uint64
		if codes != nil {
			c = codes[e]
		} else {
			c = g.code(num[p*s : p*s+s])
		}
		id := w.install(c)
		w.keys[e] = c
		w.next[e], w.head[id] = w.head[id], int32(e)
	}
	for _, t := range order {
		w.tv = num[t*s : t*s+s]
		ct := g.code(w.tv)
		dominated, own := false, -1
		w.cand = w.sets.below(w.cand, ct)
	below:
		for i, word := range w.cand {
			for ; word != 0; word &= word - 1 {
				id := i*64 + bits.TrailingZeros64(word)
				if w.codes[id] == ct {
					own = id
				}
				if dominated = w.scan(id); dominated {
					break below
				}
			}
		}
		if dominated {
			continue
		}
		// The window is an antichain: t, not dominated, may evict from the
		// buckets above it; its own was scanned in full already.
		w.cand = w.sets.above(w.cand, ct)
		for i, word := range w.cand {
			for ; word != 0; word &= word - 1 {
				if id := i*64 + bits.TrailingZeros64(word); id != own {
					w.scan(id)
				}
			}
		}
		if own < 0 {
			own = w.bucket(ct)
		}
		w.entries = append(w.entries, t)
		w.keys = append(w.keys, ct)
		w.next = append(w.next, w.head[own])
		w.head[own] = int32(len(w.entries) - 1)
	}
	b.counters.Tests += w.tests
	b.counters.Comparisons += w.comps
	live := 0
	for _, p := range w.entries {
		if p >= 0 {
			live++
		}
	}
	out := make([]int, 0, live)
	var outCodes []uint64
	if withCodes {
		outCodes = make([]uint64, 0, live)
	}
	for e, p := range w.entries {
		if p >= 0 {
			out = append(out, p)
			if withCodes {
				outCodes = append(outCodes, w.keys[e])
			}
		}
	}
	w.num, w.tv = nil, nil // the pool must not keep the batch alive
	gridWindows.Put(w)
	return out, outCodes
}

// clearSlots empties the install table for up to n distinct codes: a power
// of two at least twice n, so a probe meets a free slot within a few steps.
func (w *gridWindow) clearSlots(n int) {
	size := 1
	for size < 2*n {
		size *= 2
	}
	w.slots = reuse(w.slots, size)[:size]
	clear(w.slots)
}

// install returns the id of code's bucket, opening it when the install
// meets the code for the first time. A code hashes to the upper half of
// its product with the golden-ratio constant and probes linearly.
func (w *gridWindow) install(code uint64) int {
	mask := len(w.slots) - 1
	h := int((code*0x9E3779B97F4A7C15)>>32) & mask
	for ; w.slots[h] != 0; h = (h + 1) & mask {
		if id := int(w.slots[h] - 1); w.codes[id] == code {
			return id
		}
	}
	id := w.bucket(code)
	w.slots[h] = int32(id + 1)
	return id
}

// bucket opens an empty bucket for code and returns its id.
func (w *gridWindow) bucket(code uint64) int {
	id := len(w.codes)
	w.codes = append(w.codes, code)
	w.head = append(w.head, -1)
	w.sets.add(id, code)
	return id
}

// scan tests the arrival against bucket id's window points, evicting those
// it dominates, and reports whether one dominates it
// (or, under distinct, equals it) — at which point it stops.
func (w *gridWindow) scan(id int) bool {
	prev := int32(-1)
	for e := w.head[id]; e >= 0; e = w.next[e] {
		p := w.entries[e]
		pv := w.num[p*w.s : p*w.s+w.s]
		var lt, gt uint64
		if w.s == 4 {
			lt, gt = lessMask4(pv, w.tv), lessMask4(w.tv, pv)
		} else {
			lt, gt = laneMasks(pv, w.tv)
		}
		w.tests++
		w.comps += lanesCompared(lt, gt, w.s)
		switch {
		case gt == 0 && (lt != 0 || w.distinct):
			return true
		case lt == 0 && gt != 0:
			w.entries[e] = -1
			if prev < 0 {
				w.head[id] = w.next[e]
			} else {
				w.next[prev] = w.next[e]
			}
			continue
		}
		prev = e
	}
	return false
}

// crossIndex is the cell index over every chunk's local survivors that
// phase 2 of a parallel twin consults once a task's measured cost says it
// pays. The first such task builds it; the others then share it read-only.
// Survivors are sorted by cell code, so a bucket is a run of members.
type crossIndex struct {
	gs    *gridSource
	local [][]int
	once  sync.Once

	g       *cellGrid
	codes   [][]uint64 // codes[j][i]: the cell code of local[j][i]
	members []crossMember
	start   []int32 // bucket → first member; one past the last bucket: len(members)
	sets    cellSets
}

// crossMember is one local survivor: its batch index and chunk, and while
// the index is built, its cell code.
type crossMember struct {
	code     uint64
	q, chunk int32
}

// build indexes the survivors the first time it is called. It keeps every
// survivor's cell code by chunk and position, so a query for a survivor
// reads its code instead of computing it again.
func (ci *crossIndex) build() {
	ci.once.Do(func() {
		b := ci.gs.b
		s := b.numStride
		ci.g = ci.gs.grid()
		n := 0
		for _, l := range ci.local {
			n += len(l)
		}
		codes := make([]uint64, n)
		ci.codes = make([][]uint64, len(ci.local))
		ci.members = make([]crossMember, 0, n)
		for j, l := range ci.local {
			c := codes[:len(l):len(l)]
			codes = codes[len(l):]
			for i, q := range l {
				c[i] = ci.g.code(b.num[q*s : q*s+s])
				ci.members = append(ci.members, crossMember{c[i], int32(q), int32(j)})
			}
			ci.codes[j] = c
		}
		slices.SortFunc(ci.members, func(a, b crossMember) int { return cmp.Compare(a.code, b.code) })
		buckets := 0
		for i, m := range ci.members {
			if i == 0 || m.code != ci.members[i-1].code {
				buckets++
			}
		}
		ci.start = make([]int32, 0, buckets+1)
		ci.sets.reset(ci.g, buckets)
		for i, m := range ci.members {
			if i == 0 || m.code != ci.members[i-1].code {
				ci.sets.add(len(ci.start), m.code)
				ci.start = append(ci.start, int32(i))
			}
		}
		ci.start = append(ci.start, int32(n))
	})
}

// eliminatedIndexed is crossFilter's eliminated on the built index for
// local[k][i]: only the survivors whose cells allow dominance of it are
// tested. cand is the calling task's scratch, returned for reuse.
func (v *Batch) eliminatedIndexed(ci *crossIndex, cand []uint64, k, i int, distinct bool) (bool, []uint64) {
	s, num := v.numStride, v.num
	p := ci.local[k][i]
	pv := num[p*s : p*s+s]
	cand = ci.sets.below(cand, ci.codes[k][i])
	four := s == 4
	var tests, comps int64
	gone := false
scan:
	for wi, word := range cand {
		for ; word != 0; word &= word - 1 {
			id := wi*64 + bits.TrailingZeros64(word)
			for _, m := range ci.members[ci.start[id]:ci.start[id+1]] {
				q := int(m.q)
				if int(m.chunk) == k {
					continue
				}
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
	}
	v.counters.Tests += tests
	v.counters.Comparisons += comps
	return gone, cand
}
