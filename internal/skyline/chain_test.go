package skyline

import (
	"fmt"
	"math/rand"
	"testing"

	"skysql/internal/types"
)

// chainPolicies are the policies a chain's links run under, picked by bits
// 5–6 of byte 0: the engine's rule throughout, the index throughout, and
// the index alternating with the plain pass (which carries codes it was
// handed) or with the rule.
var chainPolicies = [4][2]gridPolicy{
	{gridAuto, gridAuto},
	{gridOn, gridOn},
	{gridOn, gridOff},
	{gridOn, gridAuto},
}

// checkSeededChain asserts the contract of the result cache's upgrades over
// a chain of appends: the input is cut into a prefix and links (gridCase's
// points; its cut ends the prefix, links are half its chunk), the prefix's
// plain BNL is the first window, and each link is absorbed by BNLSeeded
// over the window merged with the link, handed the codes the previous pass
// returned. After every link the window must be, index for index, what the
// plain pass (gridOff) returns over the points so far, and the codes
// returned must be one per survivor, each its point's code under their
// grid.
func checkSeededChain(t *testing.T, data []byte) {
	t.Helper()
	pts, dirs, distinct, cut, chunk := gridCase(data)
	policies := chainPolicies[data[0]>>5&3]
	decode := func(p []Point) *Batch {
		b, ok := DecodeBatch(p, dirs, false, nil)
		if !ok {
			t.Fatalf("DecodeBatch refused numeric points %v", p)
		}
		return b
	}
	prefix := decode(pts[:cut])
	prefix.gridPolicy = gridOff
	ids := prefix.BNL(distinct)
	window := prefix.Select(ids)
	var codes CellCodes
	for link, lo := 0, cut; lo < len(pts); link++ {
		hi := min(lo+chunk/2+1, len(pts))
		merged, ok := MergeBatches([]*Batch{window, decode(pts[lo:hi])})
		if !ok {
			t.Fatal("MergeBatches refused two batches of one shape")
		}
		merged.gridPolicy = policies[link%2]
		seed := window.Len()
		idx, out := merged.BNLSeeded(seed, distinct, codes)
		next := make([]int, len(idx))
		for i, j := range idx {
			if j < seed {
				next[i] = ids[j]
			} else {
				next[i] = lo + j - seed
			}
		}
		plain := decode(pts[:hi])
		plain.gridPolicy = gridOff
		if want := plain.BNL(distinct); fmt.Sprint(next) != fmt.Sprint(want) {
			t.Fatalf("d=%d distinct=%v link %d [%d, %d) policy=%d seed=%d codes=%d:\n chained %v\n plain   %v",
				len(dirs), distinct, link, lo, hi, merged.gridPolicy, seed, len(codes.codes), next, want)
		}
		checkChainCodes(t, merged, idx, out)
		window, ids, codes, lo = merged.Select(idx), next, out, hi
	}
}

// checkChainCodes holds the codes a seeded pass returned to its survivors:
// none, or one per survivor under a grid with the batch's lanes, each the
// code of its point.
func checkChainCodes(t *testing.T, b *Batch, idx []int, c CellCodes) {
	t.Helper()
	if c.grid == nil {
		if c.codes != nil {
			t.Fatalf("%d codes without a grid", len(c.codes))
		}
		return
	}
	if len(c.codes) != len(idx) || len(c.grid.cuts) != min(b.numStride, gridMaxLanes) {
		t.Fatalf("%d codes over %d lanes for %d survivors of a batch of %d dimensions", len(c.codes), len(c.grid.cuts), len(idx), b.numStride)
	}
	for i, j := range idx {
		if want := c.grid.code(b.NumRow(j)); c.codes[i] != want {
			t.Fatalf("survivor %d (point %d) carries code %x, its point codes to %x", i, j, c.codes[i], want)
		}
	}
}

// FuzzBNLSeededChain: bytes → a chain of appends; every seeded pass,
// handed the previous pass's codes, leaves the plain BNL's window over the
// input so far, and codes that are its survivors' own. Byte 0 is read by
// caseDims (2–17 dimensions, DISTINCT, a constant column, MAX) and bits
// 5–6 pick the links' policies (chainPolicies); bytes 1–2 and the explicit
// points are gridCase's (±Inf, both zeros, duplicates, cut-point ties). The
// committed corpus under testdata/fuzz/FuzzBNLSeededChain runs as part of
// `go test`.
func FuzzBNLSeededChain(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0x21, 20, 16, 1, 2, 3, 4, 4, 3, 2, 1})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 4096 {
			t.Skip("window passes are quadratic; longer inputs add time, not cases")
		}
		for len(data) < 3 {
			data = append(data, 0)
		}
		checkSeededChain(t, data)
	})
}

// TestBNLSeededChainRetakesGrid follows one entry's codes through a chain
// the engine's rule runs on the index: the grid is kept while the window
// stays within a factor of two of the seed it was taken for, taken again
// once the window has doubled, and again after a point that dominates
// nearly all of it has halved it; every window is the plain pass's.
func TestBNLSeededChainRetakesGrid(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	anti := genPoints(rng, 3000, 4, -1)
	dirs := make([]Dir, 4)
	decode := func(p []Point) *Batch {
		b, ok := DecodeBatch(p, dirs, false, nil)
		if !ok {
			t.Fatal("decode failed")
		}
		return b
	}
	// The points: 400 of an anti-correlated plane, links of 40 more, and
	// after 2 000 of them one that dominates every point of the plane whose
	// first coordinate is at least 0.3 — most of the window.
	pts := append([]Point(nil), anti[:2000]...)
	pts = append(pts, pointOf([]float64{0.3, 0, 0, 0}))
	pts = append(pts, anti[2000:]...)

	prefix := decode(pts[:400])
	ids := prefix.BNL(false)
	window := prefix.Select(ids)
	var codes CellCodes
	var grids []*cellGrid
	taken := map[*cellGrid]int{}
	for lo := 400; lo < len(pts); lo += 40 {
		hi := min(lo+40, len(pts))
		merged, ok := MergeBatches([]*Batch{window, decode(pts[lo:hi])})
		if !ok {
			t.Fatal("merge failed")
		}
		seed := window.Len()
		fits := codes.fits(merged, seed)
		idx, out := merged.BNLSeeded(seed, false, codes)
		switch {
		case out.grid == nil:
			if seed >= gridMinWindow && seed*(hi-lo) >= gridMinWindow*gridMinRemaining {
				t.Fatalf("[%d, %d): a seed of %d and %d arrivals ran without the index", lo, hi, seed, hi-lo)
			}
		case fits && out.grid != codes.grid:
			t.Fatalf("[%d, %d): codes that fit a seed of %d (taken for %d) were taken again", lo, hi, seed, codes.taken)
		case !fits && out.grid == codes.grid:
			t.Fatalf("[%d, %d): codes taken for %d were kept for a seed of %d", lo, hi, codes.taken, seed)
		case out.grid != codes.grid:
			grids = append(grids, out.grid)
			taken[out.grid] = seed
		}
		checkChainCodes(t, merged, idx, out)
		next := make([]int, len(idx))
		for i, j := range idx {
			if j < seed {
				next[i] = ids[j]
			} else {
				next[i] = lo + j - seed
			}
		}
		window, ids, codes = merged.Select(idx), next, out
	}
	plain := decode(pts)
	plain.gridPolicy = gridOff
	if want := plain.BNL(false); fmt.Sprint(ids) != fmt.Sprint(want) {
		t.Fatalf("the chain's window is %d points, the plain pass's %d", len(ids), len(want))
	}
	// Taken once at the start, again as the window grew past twice that,
	// and again after the dominating point shrank it below half.
	grew, shrank := false, false
	for i := 1; i < len(grids); i++ {
		prev, cur := taken[grids[i-1]], taken[grids[i]]
		grew = grew || cur >= 2*prev
		shrank = shrank || 2*cur <= prev
	}
	t.Logf("grids taken for seeds %v", seedsOf(grids, taken))
	if len(grids) < 3 || !grew || !shrank {
		t.Fatalf("grids taken for seeds %v; want one taken again after the window doubled and one after it halved", seedsOf(grids, taken))
	}
}

func pointOf(v []float64) Point {
	dims := make(types.Row, len(v))
	for k, f := range v {
		dims[k] = types.Float(f)
	}
	return Point{Dims: dims, Row: dims}
}

func seedsOf(grids []*cellGrid, taken map[*cellGrid]int) []int {
	out := make([]int, len(grids))
	for i, g := range grids {
		out[i] = taken[g]
	}
	return out
}
