package skyline

import (
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"sync"
	"testing"

	"skysql/internal/types"
)

// goRunner runs a round's tasks on their own goroutines, so the parallel
// twins' shared index is built and read concurrently under -race.
func goRunner(tasks []func() error) error {
	errs := make([]error, len(tasks))
	var wg sync.WaitGroup
	for i, task := range tasks {
		wg.Add(1)
		go func(i int, task func() error) {
			defer wg.Done()
			errs[i] = task()
		}(i, task)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// gridAlgos are the kernel entry points the cell index serves, each as a
// function of a decoded batch. seed is BNLSeeded's seed length; chunk is
// the parallel twins' rows per task.
var gridAlgos = []struct {
	name string
	run  func(b *Batch, distinct bool, seed, chunk int) []int
}{
	{"BNL", func(b *Batch, d bool, _, _ int) []int { return b.BNL(d) }},
	{"BNLSeeded", func(b *Batch, d bool, seed, _ int) []int {
		idx, _ := b.BNLSeeded(seed, d, CellCodes{})
		return idx
	}},
	{"BNLParallel", func(b *Batch, d bool, _, chunk int) []int {
		idx, _ := b.BNLParallel(d, chunk, goRunner)
		return idx
	}},
}

// checkGrid asserts the contract of the dominance screen and the cell
// index on one input: every entry point returns, under gridOn (indexed
// from the first arrival) and under gridAuto (indexed once the switch rule
// fires), BNL passes screened in both, exactly the indices the plain pass
// (gridOff: no screen, no index) returns, in the same order. BNLSeeded
// runs on the batch the result cache builds — skyline(points[:cut]) ++
// points[cut:].
func checkGrid(t *testing.T, pts []Point, dirs []Dir, distinct bool, cut, chunk int) {
	t.Helper()
	decode := func(p []Point) *Batch {
		b, ok := DecodeBatch(p, dirs, false, nil)
		if !ok {
			t.Fatalf("DecodeBatch refused numeric points %v", p)
		}
		return b
	}
	full := decode(pts)
	prefix := decode(pts[:cut])
	prefix.gridPolicy = gridOff
	sky := prefix.BNL(distinct)
	seeded, ok := MergeBatches([]*Batch{prefix.Select(sky), decode(pts[cut:])})
	if !ok {
		t.Fatal("MergeBatches refused two batches of one shape")
	}
	for _, a := range gridAlgos {
		b := full
		if a.name == "BNLSeeded" {
			b = seeded
		}
		b.gridPolicy = gridOff
		want := a.run(b, distinct, len(sky), chunk)
		for _, p := range []gridPolicy{gridOn, gridAuto} {
			b.gridPolicy = p
			if got := a.run(b, distinct, len(sky), chunk); fmt.Sprint(got) != fmt.Sprint(want) {
				t.Fatalf("%s policy=%d d=%d n=%d distinct=%v cut=%d chunk=%d:\n gridded %v\n plain   %v",
					a.name, p, len(dirs), len(pts), distinct, cut, chunk, got, want)
			}
		}
	}
}

// gridDims are the dimension counts the fuzz target walks: the 2-dimension
// unrolling, the dense loop, all 16 lanes, and one dimension past them.
var gridDims = []int{2, 4, 16, 17}

// gridValue maps a fuzz byte onto a dimension value: a small domain, so
// duplicates and values exactly on a cut point (cut points are sampled
// values) are common, plus ±Inf and both zeros.
func gridValue(v byte) float64 {
	switch v % 16 {
	case 15:
		return math.Inf(1)
	case 14:
		return math.Inf(-1)
	case 13:
		return math.Copysign(0, -1)
	case 12:
		return 0
	}
	f := float64(v % 12)
	if v&0x80 != 0 {
		f += 0.5
	}
	return f
}

// gridCase turns fuzz bytes into one scenario. Byte 0 is read by caseDims.
// Byte 1: 8× that many anti-correlated points are appended after the
// explicit ones (seeded from the bytes), which carries n across the switch
// point with a small corpus file. Byte 2 places BNLSeeded's cut and picks
// 2–5 parallel chunks. Every following group of d bytes is one explicit
// point.
func gridCase(data []byte) (pts []Point, dirs []Dir, distinct bool, cut, chunk int) {
	for len(data) < 3 {
		data = append(data, 0)
	}
	dirs, distinct, constant := caseDims(data[0])
	d := len(dirs)
	vecs, rng := caseExplicit(data, d)
	for i := 0; i < 8*int(data[1]); i++ {
		v := make([]float64, d)
		sum := 0.0
		for k := range v {
			v[k] = rng.ExpFloat64()
			sum += v[k]
		}
		for k := range v {
			v[k] = math.Round(v[k]/sum*64) / 64 // coarse: ties on cut points
		}
		vecs = append(vecs, v)
	}
	pts = caseBatch(vecs, dirs, constant)
	cut = int(data[2]) * len(pts) / 256
	chunk = len(pts)/(2+int(data[2]%4)) + 1
	return pts, dirs, distinct, cut, chunk
}

// caseDims reads a case's byte 0: bits 0–1 pick the dimension count, bit 2
// DISTINCT, bit 3 a constant first column, bit 4 MAX on odd dimensions.
func caseDims(b byte) (dirs []Dir, distinct, constant bool) {
	dirs = make([]Dir, gridDims[b&3])
	for k := range dirs {
		if b&16 != 0 && k%2 == 1 {
			dirs[k] = Max
		}
	}
	return dirs, b&4 != 0, b&8 != 0
}

// caseExplicit reads a case's explicit points, every group of d bytes
// after byte 2 (gridValue), and seeds the generator of its other points
// from all its bytes.
func caseExplicit(data []byte, d int) ([][]float64, *rand.Rand) {
	var vecs [][]float64
	for body := data[3:]; len(body) >= d; body = body[d:] {
		v := make([]float64, d)
		for k := range v {
			v[k] = gridValue(body[k])
		}
		vecs = append(vecs, v)
	}
	h := fnv.New64a()
	h.Write(data)
	return vecs, rand.New(rand.NewSource(int64(h.Sum64())))
}

// caseBatch turns a case's vectors, given as minimized values, into points
// under dirs (MAX dimensions negated, so the shape is kept) — the first
// column set to 1 when constant.
func caseBatch(vecs [][]float64, dirs []Dir, constant bool) []Point {
	pts := make([]Point, 0, len(vecs))
	for _, v := range vecs {
		if constant {
			v[0] = 1
		}
		dims := make(types.Row, len(dirs))
		for k, f := range v {
			if dirs[k] == Max {
				f = -f
			}
			dims[k] = types.Float(f)
		}
		pts = append(pts, Point{Dims: dims, Row: dims})
	}
	return pts
}

// FuzzBNLGrid: bytes → points; every entry point returns the same indices
// in the same order with the cell index on, on by the switch rule, and
// off. The committed corpus under testdata/fuzz/FuzzBNLGrid runs as part
// of `go test`.
func FuzzBNLGrid(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{1, 0, 128, 1, 2, 3, 4, 4, 3, 2, 1})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 4096 {
			t.Skip("window passes are quadratic; longer inputs add time, not cases")
		}
		pts, dirs, distinct, cut, chunk := gridCase(data)
		checkGrid(t, pts, dirs, distinct, cut, chunk)
	})
}

// TestCellSetsMatchLanes pins the bitset queries against a lane-by-lane
// comparison of the codes, for 2 and 16 lanes and bucket counts on both
// sides of a word boundary.
func TestCellSetsMatchLanes(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, shape := range []struct{ lanes, cells, buckets int }{{2, 8, 40}, {4, 5, 200}, {16, 2, 130}} {
		g := &cellGrid{cuts: make([][]float64, shape.lanes)}
		for k := range g.cuts {
			g.cuts[k] = make([]float64, shape.cells-1)
		}
		randCode := func() uint64 {
			var c uint64
			for k := 0; k < shape.lanes; k++ {
				c |= uint64(rng.Intn(shape.cells)) << (4 * k)
			}
			return c
		}
		le := func(a, b uint64) bool {
			for k := 0; k < shape.lanes; k++ {
				if (a>>(4*k))&15 > (b>>(4*k))&15 {
					return false
				}
			}
			return true
		}
		var cs cellSets
		cs.reset(g, shape.buckets)
		codes := make([]uint64, shape.buckets)
		var dst []uint64
		for id := range codes {
			codes[id] = randCode()
			cs.add(id, codes[id])
			for q := 0; q < 20; q++ {
				c := randCode()
				if q%2 == 0 {
					c = codes[rng.Intn(id+1)] // an occupied cell: both sides non-empty
				}
				below, above := cs.below(nil, c), cs.above(dst, c)
				for j := 0; j <= id; j++ {
					inBelow := below[j/64]&(1<<(j%64)) != 0
					inAbove := above[j/64]&(1<<(j%64)) != 0
					if inBelow != le(codes[j], c) || inAbove != le(c, codes[j]) {
						t.Fatalf("lanes=%d cells=%d: bucket %x vs %x: below=%v above=%v", shape.lanes, shape.cells, codes[j], c, inBelow, inAbove)
					}
				}
				dst = above
			}
		}
	}
}

// TestCellCodeMonotone: a value never lands in a lower cell than a smaller
// one, -0 and +0 share a cell, and a constant column is one cell.
func TestCellCodeMonotone(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	vals := []float64{math.Inf(-1), -2, -1, math.Copysign(0, -1), 0, 0.5, 1, 1, 1, 2, 3, math.Inf(1)}
	pts := make([]Point, 300)
	for i := range pts {
		a := vals[rng.Intn(len(vals))]
		pts[i] = Point{Dims: types.Row{types.Float(a), types.Float(7)}}
	}
	b, ok := DecodeBatch(pts, []Dir{Min, Min}, false, nil)
	if !ok {
		t.Fatal("decode failed")
	}
	g := b.newCellGrid()
	for _, x := range vals {
		for _, y := range vals {
			cx, cy := g.code([]float64{x, 7}), g.code([]float64{y, 7})
			if x <= y && cx&15 > cy&15 {
				t.Fatalf("%v ≤ %v but cell %x is not ≤ cell %x (cuts %v)", x, y, cx, cy, g.cuts)
			}
			if cx>>4 != cy>>4 {
				t.Fatalf("constant column split into cells %x and %x", cx>>4, cy>>4)
			}
		}
	}
}

// TestGridSwitchRule: anti-correlated input makes the pass switch to the
// index and spend far fewer tests than the plain pass. Correlated input,
// whose arrivals meet an early dominator, never builds a grid. On
// independent input of the local-skyline shape the screen drops the easy
// arrivals, and the pass over the rest — indexed or not, as the rule finds
// — spends at most half the plain pass's tests.
func TestGridSwitchRule(t *testing.T) {
	run := func(pts []Point, p gridPolicy) (tests int64, gridded bool) {
		b, ok := DecodeBatch(pts, make([]Dir, 4), false, nil)
		if !ok {
			t.Fatal("decode failed")
		}
		b.gridPolicy = p
		gs := b.newGridSource()
		b.bnlOver(nil, b.allIndices(), false, gs)
		return b.counters.Tests, gs.g != nil
	}
	rng := rand.New(rand.NewSource(9))
	anti := genPoints(rng, 2000, 4, -1)
	auto, gridded := run(anti, gridAuto)
	if plain, _ := run(anti, gridOff); !gridded || auto*4 > plain {
		t.Errorf("anti-correlated: %d tests with the switch rule (grid built: %v), %d plain; want the index and at least 4× fewer",
			auto, gridded, plain)
	}
	if _, gridded := run(genPoints(rng, 5000, 4, 1), gridAuto); gridded {
		t.Error("correlated: the switch rule built a grid; the index must not engage")
	}
	indep := genPoints(rng, 5000, 4, 0)
	auto, _ = run(indep, gridAuto)
	if plain, _ := run(indep, gridOff); auto*2 > plain {
		t.Errorf("independent: %d tests screened, %d plain; want at most half", auto, plain)
	}
}
