package skyline

import (
	"math"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"skysql/internal/types"
)

// pointSet is a quick.Generator producing small random datasets, some
// complete and some with NULLs.
type pointSet struct {
	pts      []Point
	withNull bool
}

// Generate implements quick.Generator.
func (pointSet) Generate(rng *rand.Rand, size int) reflect.Value {
	n := rng.Intn(40)
	withNull := rng.Intn(2) == 0
	pts := make([]Point, n)
	for i := range pts {
		dims := make(types.Row, 3)
		for d := range dims {
			if withNull && rng.Float64() < 0.2 {
				dims[d] = types.Null
			} else {
				dims[d] = types.Int(int64(rng.Intn(5)))
			}
		}
		pts[i] = Point{Dims: dims, Row: dims}
	}
	return reflect.ValueOf(pointSet{pts: pts, withNull: withNull})
}

var quickDirs = []Dir{Min, Max, Min}

func setKey(pts []Point) map[string]int {
	m := map[string]int{}
	for _, p := range pts {
		m[p.Dims.String()]++
	}
	return m
}

func equalMultiset(a, b []Point) bool {
	am, bm := setKey(a), setKey(b)
	if len(am) != len(bm) {
		return false
	}
	for k, v := range am {
		if bm[k] != v {
			return false
		}
	}
	return true
}

// TestQuickBNLMatchesOracleComplete: on complete data, BNL must equal the
// naive quadratic oracle.
func TestQuickBNLMatchesOracleComplete(t *testing.T) {
	f := func(ps pointSet) bool {
		if ps.withNull {
			return true // covered by the incomplete property below
		}
		got, err := BNL(ps.pts, quickDirs, false, Compare, nil)
		if err != nil {
			return false
		}
		want, err := NaiveComplete(ps.pts, quickDirs, false, nil)
		if err != nil {
			return false
		}
		return equalMultiset(got, want)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// TestQuickIncompletePipelineMatchesOracle: the paper's full incomplete
// pipeline (null-bitmap partitioning → local BNL → flag-based global) must
// equal the naive incomplete-dominance oracle on any dataset.
func TestQuickIncompletePipelineMatchesOracle(t *testing.T) {
	f := func(ps pointSet) bool {
		var locals []Point
		for _, part := range PartitionByNullBitmap(ps.pts) {
			l, err := LocalIncomplete(part, quickDirs, false, nil)
			if err != nil {
				return false
			}
			locals = append(locals, l...)
		}
		got, err := GlobalIncomplete(locals, quickDirs, false, nil)
		if err != nil {
			return false
		}
		want, err := NaiveIncomplete(ps.pts, quickDirs, false, nil)
		if err != nil {
			return false
		}
		return equalMultiset(got, want)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// TestQuickNoSkylinePointDominated: no output point may be dominated by
// any input point — for both dominance definitions.
func TestQuickNoSkylinePointDominated(t *testing.T) {
	f := func(ps pointSet) bool {
		out, err := GlobalIncomplete(ps.pts, quickDirs, false, nil)
		if err != nil {
			return false
		}
		for _, o := range out {
			for _, in := range ps.pts {
				d, err := DominatesIncomplete(in.Dims, o.Dims, quickDirs, nil)
				if err != nil || d {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// TestQuickOrderInsensitivity: shuffling the input must not change the
// skyline as a set (complete data).
func TestQuickOrderInsensitivity(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	f := func(ps pointSet) bool {
		if ps.withNull {
			return true
		}
		a, err := BNL(ps.pts, quickDirs, false, Compare, nil)
		if err != nil {
			return false
		}
		shuffled := make([]Point, len(ps.pts))
		copy(shuffled, ps.pts)
		rng.Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
		b, err := BNL(shuffled, quickDirs, false, Compare, nil)
		if err != nil {
			return false
		}
		return equalMultiset(a, b)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// kernelDirs exercises every dimension flavor the kernel decodes: MIN,
// MAX, and a DIFF equality dimension.
var kernelDirs = []Dir{Min, Max, Diff, Min}

// kernelPointSet is a quick.Generator for kernel-equivalence properties:
// small value domains force duplicates, NULLs appear in every dimension
// (including DIFF), and dimension kinds mix int, float, string and bool.
type kernelPointSet struct {
	pts []Point
}

// Generate implements quick.Generator.
func (kernelPointSet) Generate(rng *rand.Rand, size int) reflect.Value {
	n := rng.Intn(50)
	// Per-dataset kind choices keep columns plausible while still mixing
	// int/float within numeric columns.
	diffKind := rng.Intn(3) // 0: numeric, 1: string, 2: bool
	pts := make([]Point, n)
	for i := range pts {
		dims := make(types.Row, len(kernelDirs))
		for d, dir := range kernelDirs {
			if rng.Float64() < 0.15 {
				dims[d] = types.Null
				continue
			}
			if dir == Diff {
				switch diffKind {
				case 0:
					if rng.Intn(2) == 0 {
						dims[d] = types.Int(int64(rng.Intn(3)))
					} else {
						dims[d] = types.Float(float64(rng.Intn(3)))
					}
				case 1:
					dims[d] = types.Str(string(rune('a' + rng.Intn(3))))
				default:
					dims[d] = types.Bool(rng.Intn(2) == 0)
				}
				continue
			}
			if rng.Intn(2) == 0 {
				dims[d] = types.Int(int64(rng.Intn(5)))
			} else {
				dims[d] = types.Float(float64(rng.Intn(5)))
			}
		}
		pts[i] = Point{Dims: dims, Row: dims}
	}
	return reflect.ValueOf(kernelPointSet{pts: pts})
}

// TestQuickCompareDecodedMatchesBoxed: over randomized data with NULLs,
// DIFF dimensions, duplicates and mixed numeric kinds, CompareDecoded must
// classify every pair exactly like the boxed Compare/CompareIncomplete.
func TestQuickCompareDecodedMatchesBoxed(t *testing.T) {
	for _, incomplete := range []bool{false, true} {
		f := func(ps kernelPointSet) bool {
			b, ok := DecodeBatch(ps.pts, kernelDirs, incomplete, nil)
			if !ok {
				t.Fatalf("DecodeBatch refused decodable data: %v", ps.pts)
			}
			for i := range ps.pts {
				for j := range ps.pts {
					var want Relation
					var err error
					if incomplete {
						want, err = CompareIncomplete(ps.pts[i].Dims, ps.pts[j].Dims, kernelDirs, nil)
					} else {
						want, err = Compare(ps.pts[i].Dims, ps.pts[j].Dims, kernelDirs, nil)
					}
					if err != nil {
						t.Fatalf("boxed compare errored on decodable data: %v", err)
					}
					if got := b.CompareDecoded(i, j); got != want {
						t.Fatalf("incomplete=%v: CompareDecoded(%v, %v) = %v, boxed = %v",
							incomplete, ps.pts[i].Dims, ps.pts[j].Dims, got, want)
					}
				}
			}
			return true
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
			t.Error(err)
		}
	}
}

// samePoints asserts exact emission-order equality, the contract the
// kernel algorithms give so kernel-on/off plans are row-for-row identical.
func samePoints(got, want []Point) bool {
	if len(got) != len(want) {
		return false
	}
	for i := range got {
		if got[i].Dims.String() != want[i].Dims.String() {
			return false
		}
	}
	return true
}

// TestQuickBatchAlgorithmsMatchBoxed: every batch algorithm must emit the
// same points in the same order as its boxed counterpart, with distinct
// both ways.
func TestQuickBatchAlgorithmsMatchBoxed(t *testing.T) {
	for _, distinct := range []bool{false, true} {
		f := func(ps kernelPointSet) bool {
			// Complete-definition algorithms.
			cb, ok := DecodeBatch(ps.pts, kernelDirs, false, nil)
			if !ok {
				t.Fatal("DecodeBatch refused decodable data")
			}
			type algo struct {
				name  string
				boxed func() ([]Point, error)
				batch func() ([]int, error)
			}
			algos := []algo{
				{"BNL",
					func() ([]Point, error) { return BNL(ps.pts, kernelDirs, distinct, Compare, nil) },
					func() ([]int, error) { return cb.BNL(distinct), nil }},
				{"SFS",
					func() ([]Point, error) { return SFS(ps.pts, kernelDirs, distinct, nil) },
					func() ([]int, error) { return cb.SFS(distinct), nil }},
				{"DivideAndConquer",
					func() ([]Point, error) { return DivideAndConquer(ps.pts, kernelDirs, distinct, nil) },
					func() ([]int, error) { return cb.DivideAndConquer(distinct), nil }},
				{"BNLBounded",
					func() ([]Point, error) { return BNLBounded(ps.pts, kernelDirs, distinct, 4, Compare, nil) },
					func() ([]int, error) { return cb.BNLBounded(distinct, 4) }},
			}
			// Incomplete-definition algorithms on their own decoded batch.
			ib, ok := DecodeBatch(ps.pts, kernelDirs, true, nil)
			if !ok {
				t.Fatal("DecodeBatch refused decodable data")
			}
			algos = append(algos,
				algo{"GlobalIncomplete",
					func() ([]Point, error) { return GlobalIncomplete(ps.pts, kernelDirs, distinct, nil) },
					func() ([]int, error) { return ib.GlobalIncomplete(distinct), nil }},
				algo{"LocalIncompleteBNL",
					func() ([]Point, error) { return BNL(ps.pts, kernelDirs, distinct, CompareIncomplete, nil) },
					func() ([]int, error) { return ib.BNL(distinct), nil }})
			for _, a := range algos {
				want, err := a.boxed()
				if err != nil {
					t.Fatalf("%s boxed: %v", a.name, err)
				}
				idx, err := a.batch()
				if err != nil {
					t.Fatalf("%s batch: %v", a.name, err)
				}
				src := cb
				if a.name == "GlobalIncomplete" || a.name == "LocalIncompleteBNL" {
					src = ib
				}
				if got := src.Points(idx); !samePoints(got, want) {
					t.Fatalf("distinct=%v %s: kernel emitted %v, boxed %v", distinct, a.name, got, want)
				}
			}
			return true
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
			t.Error(err)
		}
	}
}

// TestQuickDenseWindowPathsMatchBoxed covers the specialized dense window
// loops (bnlDense and its 2-dimension unrolling), which only engage on
// purely numeric, DIFF-free batches: for 2, 3 and 5 dimensions, with and
// without NULLs, batch BNL must emit exactly what boxed BNL emits.
func TestQuickDenseWindowPathsMatchBoxed(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	dirSets := [][]Dir{
		{Min, Max},           // stride 2: bnlDense2
		{Min, Max, Min},      // stride 3: bnlDense
		{Max, Min, Min, Max}, // stride 4: bnlDense
		{Min, Min, Min, Max, Max},
	}
	for trial := 0; trial < 200; trial++ {
		dirs := dirSets[trial%len(dirSets)]
		withNull := trial%3 == 0
		n := rng.Intn(80)
		pts := make([]Point, n)
		for i := range pts {
			dims := make(types.Row, len(dirs))
			for d := range dims {
				switch {
				case withNull && rng.Float64() < 0.2:
					dims[d] = types.Null
				case rng.Intn(2) == 0:
					dims[d] = types.Int(int64(rng.Intn(4)))
				default:
					dims[d] = types.Float(float64(rng.Intn(4)))
				}
			}
			pts[i] = Point{Dims: dims, Row: dims}
		}
		for _, distinct := range []bool{false, true} {
			for _, incomplete := range []bool{false, true} {
				b, ok := DecodeBatch(pts, dirs, incomplete, nil)
				if !ok {
					t.Fatal("DecodeBatch refused numeric data")
				}
				cmp := Compare
				if incomplete {
					cmp = CompareIncomplete
				}
				want, err := BNL(pts, dirs, distinct, cmp, nil)
				if err != nil {
					t.Fatal(err)
				}
				if got := b.Points(b.BNL(distinct)); !samePoints(got, want) {
					t.Fatalf("trial %d dirs=%v distinct=%v incomplete=%v null=%v: kernel %v, boxed %v",
						trial, dirs, distinct, incomplete, withNull, got, want)
				}
			}
		}
	}
}

// gridPointSet is a quick.Generator for the screen and cell-index
// property: dense batches of 1–17 dimensions, anti-correlated (the index
// engages, the screen stops), independent (the screen drops most arrivals)
// or from a small integer domain (duplicates, values on cut points), of
// sizes below, around and well above the screen's 64 arrivals — some large
// enough for the switch rule to fire in the middle of a pass.
type gridPointSet struct {
	pts        []Point
	dirs       []Dir
	distinct   bool
	cut, chunk int
}

// Generate implements quick.Generator.
func (gridPointSet) Generate(rng *rand.Rand, size int) reflect.Value {
	d := []int{1, 2, 3, 4, 5, 16, 17}[rng.Intn(7)]
	n := rng.Intn(60)
	switch rng.Intn(3) {
	case 1:
		n = 60 + rng.Intn(10)
	case 2:
		n = 200 + rng.Intn(600)
	}
	shape := rng.Intn(3)
	dirs := make([]Dir, d)
	for k := range dirs {
		if rng.Intn(2) == 0 {
			dirs[k] = Max
		}
	}
	pts := make([]Point, n)
	for i := range pts {
		dims := make(types.Row, d)
		sum := 0.0
		vals := make([]float64, d)
		for k := range vals {
			vals[k] = rng.ExpFloat64()
			sum += vals[k]
		}
		for k := range dims {
			v := vals[k] / sum
			switch shape {
			case 1:
				v = float64(rng.Intn(4))
			case 2:
				v = rng.Float64()
			}
			if dirs[k] == Max {
				v = -v
			}
			dims[k] = types.Float(v)
		}
		pts[i] = Point{Dims: dims, Row: dims}
	}
	return reflect.ValueOf(gridPointSet{pts: pts, dirs: dirs, distinct: rng.Intn(2) == 0,
		cut: rng.Intn(n + 1), chunk: 1 + rng.Intn(n/2+1)})
}

// TestQuickGridMatchesPlain: with the cell index pinned on, and under the
// switch rule, both with BNL's dominance screen, every kernel entry point
// returns the plain pass's indices in the plain pass's order — the
// property FuzzBNLGrid and FuzzBNLScreen explore from bytes, here over
// generated shapes and sizes.
func TestQuickGridMatchesPlain(t *testing.T) {
	f := func(ps gridPointSet) bool {
		checkGrid(t, ps.pts, ps.dirs, ps.distinct, ps.cut, ps.chunk)
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// TestDecodeBatchRefusals pins the exactness guards: inputs whose boxed
// semantics a float64/interned representation cannot reproduce must be
// refused, not decoded approximately.
func TestDecodeBatchRefusals(t *testing.T) {
	mk := func(vals ...types.Value) Point {
		return Point{Dims: types.Row(vals), Row: types.Row(vals)}
	}
	big := int64(1) << 60
	cases := []struct {
		name string
		pts  []Point
		dirs []Dir
	}{
		{"string min dim", []Point{mk(types.Str("x"))}, []Dir{Min}},
		{"bool max dim", []Point{mk(types.Bool(true))}, []Dir{Max}},
		{"NaN value", []Point{mk(types.Float(math.NaN()))}, []Dir{Min}},
		{"int beyond 2^53", []Point{mk(types.Int(big))}, []Dir{Min}},
		{"diff mixing big int and float", []Point{mk(types.Int(big)), mk(types.Float(1.5))}, []Dir{Diff}},
		{"no dimensions", []Point{mk()}, nil},
		{"ragged point", []Point{mk(types.Int(1))}, []Dir{Min, Min}},
	}
	for _, c := range cases {
		if _, ok := DecodeBatch(c.pts, c.dirs, false, nil); ok {
			t.Errorf("%s: DecodeBatch must refuse", c.name)
		}
	}
	// Sanity: big ints are decodable for DIFF when the column has no floats.
	pts := []Point{mk(types.Int(big)), mk(types.Int(big)), mk(types.Int(big + 1))}
	b, ok := DecodeBatch(pts, []Dir{Diff}, false, nil)
	if !ok {
		t.Fatal("all-int DIFF column with big values must decode")
	}
	if b.CompareDecoded(0, 1) != Equal || b.CompareDecoded(0, 2) != Incomparable {
		t.Error("big-int DIFF interning must stay exact")
	}
}

// TestBatchStatsFlush pins the batched accounting: counters accumulate
// locally and reach the shared Stats only via Flush.
func TestBatchStatsFlush(t *testing.T) {
	pts := []Point{pt(1, 1, 1, 1), pt(2, 2, 1, 2), pt(3, 3, 1, 3)}
	b, ok := DecodeBatch(pts, kernelDirs, false, nil)
	if !ok {
		t.Fatal("decode failed")
	}
	b.BNL(false)
	stats := &Stats{}
	if stats.DominanceTests() != 0 {
		t.Fatal("stats must stay untouched before Flush")
	}
	b.Flush(stats)
	if stats.DominanceTests() == 0 || stats.Comparisons() == 0 {
		t.Error("Flush must merge batch counters into stats")
	}
	before := stats.DominanceTests()
	b.Flush(stats)
	if stats.DominanceTests() != before {
		t.Error("Flush must reset local counters")
	}
}

// TestQuickBNLFuncMatchesBNL: BNL over dimension values read on demand
// returns the positions of exactly the points BNL returns, in the same
// order, after the same dominance tests — complete and incomplete,
// distinct or not.
func TestQuickBNLFuncMatchesBNL(t *testing.T) {
	f := func(ps pointSet, distinct bool) bool {
		cmp := Compare
		if ps.withNull {
			cmp = CompareIncomplete
		}
		tagged := make([]Point, len(ps.pts))
		for i, p := range ps.pts {
			tagged[i] = Point{Dims: p.Dims, Row: types.Row{types.Int(int64(i))}}
		}
		var wantStats, gotStats Stats
		want, err := BNL(tagged, quickDirs, distinct, cmp, &wantStats)
		if err != nil {
			return false
		}
		got, err := BNLFunc(len(ps.pts), func(k int, dst types.Row) { copy(dst, ps.pts[k].Dims) },
			quickDirs, distinct, cmp, &gotStats)
		if err != nil || len(got) != len(want) {
			return false
		}
		for i, p := range want {
			if int64(got[i]) != p.Row[0].AsInt() {
				return false
			}
		}
		return gotStats.DominanceTests() == wantStats.DominanceTests() &&
			gotStats.Comparisons() == wantStats.Comparisons()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// TestQuickDistinctIsSubset: the DISTINCT skyline must be a sub-multiset
// of the plain skyline with one representative per dimension vector.
func TestQuickDistinctIsSubset(t *testing.T) {
	f := func(ps pointSet) bool {
		if ps.withNull {
			return true
		}
		plain, err := BNL(ps.pts, quickDirs, false, Compare, nil)
		if err != nil {
			return false
		}
		distinct, err := BNL(ps.pts, quickDirs, true, Compare, nil)
		if err != nil {
			return false
		}
		plainSet := setKey(plain)
		if len(distinct) > len(plain) {
			return false
		}
		seen := map[string]bool{}
		for _, p := range distinct {
			k := p.Dims.String()
			if plainSet[k] == 0 || seen[k] {
				return false // not in plain skyline, or duplicated
			}
			seen[k] = true
		}
		// Every distinct dim-vector of the plain skyline is represented.
		return len(seen) == len(plainSet)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}
