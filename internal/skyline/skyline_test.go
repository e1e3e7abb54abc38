package skyline

import (
	"math/rand"
	"sort"
	"testing"

	"skysql/internal/types"
)

func pt(vals ...any) Point {
	dims := make(types.Row, len(vals))
	for i, v := range vals {
		switch x := v.(type) {
		case int:
			dims[i] = types.Int(int64(x))
		case float64:
			dims[i] = types.Float(x)
		case nil:
			dims[i] = types.Null
		default:
			panic("unsupported test value")
		}
	}
	return Point{Dims: dims, Row: dims}
}

func dimsKey(p Point) string { return p.Dims.String() }

func sameSet(t *testing.T, got, want []Point, label string) {
	t.Helper()
	g := make([]string, len(got))
	w := make([]string, len(want))
	for i, p := range got {
		g[i] = dimsKey(p)
	}
	for i, p := range want {
		w[i] = dimsKey(p)
	}
	sort.Strings(g)
	sort.Strings(w)
	if len(g) != len(w) {
		t.Fatalf("%s: got %d points %v, want %d points %v", label, len(g), g, len(w), w)
	}
	for i := range g {
		if g[i] != w[i] {
			t.Fatalf("%s: got %v, want %v", label, g, w)
		}
	}
}

func TestCompareBasics(t *testing.T) {
	dirs := []Dir{Min, Max}
	tests := []struct {
		a, b Point
		want Relation
	}{
		{pt(1, 5), pt(2, 4), LeftDominates},
		{pt(2, 4), pt(1, 5), RightDominates},
		{pt(1, 4), pt(2, 5), Incomparable},
		{pt(1, 5), pt(1, 5), Equal},
		{pt(1, 5), pt(1, 4), LeftDominates}, // equal in MIN, better in MAX
	}
	for _, tt := range tests {
		rel, err := Compare(tt.a.Dims, tt.b.Dims, dirs, nil)
		if err != nil {
			t.Fatal(err)
		}
		if rel != tt.want {
			t.Errorf("Compare(%v, %v) = %v, want %v", tt.a.Dims, tt.b.Dims, rel, tt.want)
		}
	}
}

func TestCompareDiffDimension(t *testing.T) {
	dirs := []Dir{Diff, Min}
	rel, err := Compare(pt(1, 1).Dims, pt(1, 2).Dims, dirs, nil)
	if err != nil || rel != LeftDominates {
		t.Errorf("same DIFF group: rel = %v, err = %v", rel, err)
	}
	rel, err = Compare(pt(1, 1).Dims, pt(2, 9).Dims, dirs, nil)
	if err != nil || rel != Incomparable {
		t.Errorf("different DIFF groups must be incomparable: rel = %v", rel)
	}
}

func TestCompareKindMismatchErrors(t *testing.T) {
	a := Point{Dims: types.Row{types.Int(1)}}
	b := Point{Dims: types.Row{types.Str("x")}}
	if _, err := Compare(a.Dims, b.Dims, []Dir{Min}, nil); err == nil {
		t.Error("mismatched kinds must error")
	}
}

func TestStatsCounting(t *testing.T) {
	stats := &Stats{}
	pts := []Point{pt(1, 1), pt(2, 2), pt(3, 3)}
	if _, err := BNL(pts, []Dir{Min, Min}, false, Compare, stats); err != nil {
		t.Fatal(err)
	}
	if stats.DominanceTests() == 0 {
		t.Error("stats must record dominance tests")
	}
	if stats.Comparisons() == 0 {
		t.Error("stats must record comparisons")
	}
	var nilStats *Stats
	if nilStats.DominanceTests() != 0 || nilStats.Comparisons() != 0 {
		t.Error("nil stats must read as zero")
	}
	nilStats.AddTests(1) // must not panic
}

func TestBNLHotelExample(t *testing.T) {
	// Figure 1 shape: price MIN, rating MAX.
	hotels := []Point{
		pt(50, 7), pt(60, 9), pt(80, 9), pt(40, 5), pt(55, 7), pt(45, 8),
	}
	dirs := []Dir{Min, Max}
	got, err := BNL(hotels, dirs, false, Compare, nil)
	if err != nil {
		t.Fatal(err)
	}
	want := []Point{pt(60, 9), pt(40, 5), pt(45, 8)}
	sameSet(t, got, want, "hotel skyline")
}

func TestBNLSingleDimension(t *testing.T) {
	pts := []Point{pt(3), pt(1), pt(2), pt(1)}
	got, err := BNL(pts, []Dir{Min}, false, Compare, nil)
	if err != nil {
		t.Fatal(err)
	}
	sameSet(t, got, []Point{pt(1), pt(1)}, "1-dim MIN keeps all minima")

	gotD, err := BNL(pts, []Dir{Min}, true, Compare, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(gotD) != 1 {
		t.Errorf("DISTINCT skyline = %d points, want 1", len(gotD))
	}
}

func TestBNLEmptyAndSingleton(t *testing.T) {
	if got, _ := BNL(nil, []Dir{Min}, false, Compare, nil); len(got) != 0 {
		t.Error("empty input must give empty skyline")
	}
	got, _ := BNL([]Point{pt(1)}, []Dir{Min}, false, Compare, nil)
	if len(got) != 1 {
		t.Error("singleton input must survive")
	}
}

func TestBNLAllEqual(t *testing.T) {
	pts := []Point{pt(1, 1), pt(1, 1), pt(1, 1)}
	got, _ := BNL(pts, []Dir{Min, Max}, false, Compare, nil)
	if len(got) != 3 {
		t.Errorf("without DISTINCT all ties survive: got %d", len(got))
	}
	got, _ = BNL(pts, []Dir{Min, Max}, true, Compare, nil)
	if len(got) != 1 {
		t.Errorf("with DISTINCT one tie survives: got %d", len(got))
	}
}

func TestDominanceTransitivityComplete(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	dirs := []Dir{Min, Max, Min}
	for trial := 0; trial < 2000; trial++ {
		mk := func() Point {
			return pt(rng.Intn(4), rng.Intn(4), rng.Intn(4))
		}
		a, b, c := mk(), mk(), mk()
		ab, _ := Compare(a.Dims, b.Dims, dirs, nil)
		bc, _ := Compare(b.Dims, c.Dims, dirs, nil)
		ac, _ := Compare(a.Dims, c.Dims, dirs, nil)
		if ab == LeftDominates && bc == LeftDominates && !(ac == LeftDominates) {
			t.Fatalf("transitivity violated: a=%v b=%v c=%v", a.Dims, b.Dims, c.Dims)
		}
	}
}

func TestAppendixACyclicDominance(t *testing.T) {
	// Paper Appendix A: a=(1,*,10), b=(3,2,*), c=(*,5,3), all MIN.
	a, b, c := pt(1, nil, 10), pt(3, 2, nil), pt(nil, 5, 3)
	dirs := []Dir{Min, Min, Min}

	rel, _ := CompareIncomplete(a.Dims, b.Dims, dirs, nil)
	if rel != LeftDominates {
		t.Fatalf("a must dominate b, got %v", rel)
	}
	rel, _ = CompareIncomplete(b.Dims, c.Dims, dirs, nil)
	if rel != LeftDominates {
		t.Fatalf("b must dominate c, got %v", rel)
	}
	rel, _ = CompareIncomplete(c.Dims, a.Dims, dirs, nil)
	if rel != LeftDominates {
		t.Fatalf("c must dominate a, got %v", rel)
	}

	// The correct skyline is empty: every tuple is dominated.
	got, err := GlobalIncomplete([]Point{a, b, c}, dirs, false, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 0 {
		t.Fatalf("cyclic dominance skyline = %v, want empty", got)
	}

	// Demonstrate that a premature-deletion strategy (processing clusters
	// in order and deleting immediately, per [Gulzar et al. 2019]) would
	// wrongly keep c — this is the bug Appendix A exposes. Our BNL over the
	// union of local skylines is exactly that wrong strategy here.
	wrong, err := BNL([]Point{a, b, c}, dirs, false, CompareIncomplete, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(wrong) == 0 {
		t.Fatal("expected the naive window algorithm to be fooled by the cycle; the regression test is vacuous")
	}
}

func TestLocalIncompleteWithinPartition(t *testing.T) {
	// Same null bitmap (NULL in dim 1): transitivity holds on dims {0,2}.
	pts := []Point{pt(1, nil, 5), pt(2, nil, 6), pt(1, nil, 4)}
	got, err := LocalIncomplete(pts, []Dir{Min, Min, Min}, false, nil)
	if err != nil {
		t.Fatal(err)
	}
	sameSet(t, got, []Point{pt(1, nil, 4)}, "local incomplete")
}

func TestNullBitmap(t *testing.T) {
	if NullBitmap(pt(1, nil, 3).Dims) != 0b010 {
		t.Errorf("bitmap = %b", NullBitmap(pt(1, nil, 3).Dims))
	}
	if NullBitmap(pt(nil, nil).Dims) != 0b11 {
		t.Error("all-null bitmap wrong")
	}
	if NullBitmap(pt(1, 2).Dims) != 0 {
		t.Error("complete bitmap must be 0")
	}
}

func TestPartitionByNullBitmap(t *testing.T) {
	pts := []Point{pt(1, nil), pt(2, 3), pt(4, nil), pt(5, 6)}
	parts := PartitionByNullBitmap(pts)
	if len(parts) != 2 {
		t.Fatalf("partitions = %d, want 2", len(parts))
	}
	if len(parts[0]) != 2 || len(parts[1]) != 2 {
		t.Errorf("partition sizes = %d, %d", len(parts[0]), len(parts[1]))
	}
}

// pipelineIncomplete runs the paper's full incomplete algorithm:
// null-bitmap partitioning → local BNL per partition → flag-based global.
func pipelineIncomplete(pts []Point, dirs []Dir, distinct bool) ([]Point, error) {
	var locals []Point
	for _, part := range PartitionByNullBitmap(pts) {
		l, err := LocalIncomplete(part, dirs, distinct, nil)
		if err != nil {
			return nil, err
		}
		locals = append(locals, l...)
	}
	return GlobalIncomplete(locals, dirs, distinct, nil)
}

func TestLemma51PipelineMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	dirs := []Dir{Min, Max, Min, Max}
	for trial := 0; trial < 300; trial++ {
		n := rng.Intn(40)
		pts := make([]Point, n)
		for i := range pts {
			vals := make([]any, 4)
			for d := range vals {
				if rng.Float64() < 0.25 {
					vals[d] = nil
				} else {
					vals[d] = rng.Intn(5)
				}
			}
			pts[i] = pt(vals...)
		}
		got, err := pipelineIncomplete(pts, dirs, false)
		if err != nil {
			t.Fatal(err)
		}
		want, err := NaiveIncomplete(pts, dirs, false, nil)
		if err != nil {
			t.Fatal(err)
		}
		sameSet(t, got, want, "incomplete pipeline vs naive oracle")
	}
}

func TestAlgorithmsAgreeOnCompleteData(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	dirs := []Dir{Min, Max, Min}
	algos := map[string]func([]Point, []Dir, bool, *Stats) ([]Point, error){
		"BNL": func(p []Point, d []Dir, dis bool, s *Stats) ([]Point, error) {
			return BNL(p, d, dis, Compare, s)
		},
		"GlobalIncomplete": GlobalIncomplete, // must coincide on complete data
	}
	for trial := 0; trial < 100; trial++ {
		n := rng.Intn(120)
		pts := make([]Point, n)
		for i := range pts {
			pts[i] = pt(rng.Intn(8), rng.Intn(8), rng.Intn(8))
		}
		want, err := NaiveComplete(pts, dirs, false, nil)
		if err != nil {
			t.Fatal(err)
		}
		for name, algo := range algos {
			got, err := algo(pts, dirs, false, nil)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			sameSet(t, got, want, name)
		}
	}
}

func TestAlgorithmsAgreeDistinct(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	dirs := []Dir{Min, Max}
	for trial := 0; trial < 100; trial++ {
		n := rng.Intn(60)
		pts := make([]Point, n)
		for i := range pts {
			pts[i] = pt(rng.Intn(3), rng.Intn(3))
		}
		want, err := NaiveComplete(pts, dirs, true, nil)
		if err != nil {
			t.Fatal(err)
		}
		got, err := BNL(pts, dirs, true, Compare, nil)
		if err != nil {
			t.Fatal(err)
		}
		sameSet(t, got, want, "BNL distinct")
	}
}

func TestSkylineIdempotence(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	dirs := []Dir{Min, Max, Min}
	pts := make([]Point, 200)
	for i := range pts {
		pts[i] = pt(rng.Intn(10), rng.Intn(10), rng.Intn(10))
	}
	once, err := BNL(pts, dirs, false, Compare, nil)
	if err != nil {
		t.Fatal(err)
	}
	twice, err := BNL(once, dirs, false, Compare, nil)
	if err != nil {
		t.Fatal(err)
	}
	sameSet(t, twice, once, "SKY(SKY(R)) = SKY(R)")
}

func TestSkylineSubsetOfInput(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	pts := make([]Point, 100)
	for i := range pts {
		pts[i] = pt(rng.Intn(10), rng.Intn(10))
	}
	out, err := BNL(pts, []Dir{Min, Min}, false, Compare, nil)
	if err != nil {
		t.Fatal(err)
	}
	inputs := map[string]int{}
	for _, p := range pts {
		inputs[dimsKey(p)]++
	}
	for _, p := range out {
		if inputs[dimsKey(p)] == 0 {
			t.Fatalf("skyline point %v not in input", p.Dims)
		}
		inputs[dimsKey(p)]--
	}
}

func TestLocalGlobalSplitMatchesGlobalComplete(t *testing.T) {
	// Distributed complete = local BNL per arbitrary partition, then global
	// BNL over the union — must equal single-pass BNL for any partitioning.
	rng := rand.New(rand.NewSource(21))
	dirs := []Dir{Min, Max, Min}
	for trial := 0; trial < 50; trial++ {
		pts := make([]Point, 150)
		for i := range pts {
			pts[i] = pt(rng.Intn(9), rng.Intn(9), rng.Intn(9))
		}
		parts := rng.Intn(7) + 1
		var locals []Point
		for p := 0; p < parts; p++ {
			var chunk []Point
			for i := p; i < len(pts); i += parts {
				chunk = append(chunk, pts[i])
			}
			l, err := BNL(chunk, dirs, false, Compare, nil)
			if err != nil {
				t.Fatal(err)
			}
			locals = append(locals, l...)
		}
		got, err := BNL(locals, dirs, false, Compare, nil)
		if err != nil {
			t.Fatal(err)
		}
		want, err := NaiveComplete(pts, dirs, false, nil)
		if err != nil {
			t.Fatal(err)
		}
		sameSet(t, got, want, "local+global split")
	}
}

func TestGlobalIncompleteDistinct(t *testing.T) {
	pts := []Point{pt(1, nil), pt(1, nil), pt(2, 5)}
	got, err := GlobalIncomplete(pts, []Dir{Min, Min}, true, nil)
	if err != nil {
		t.Fatal(err)
	}
	// (1,*) and (1,*) are duplicates → one survives; (2,5) dominated by
	// (1,*)? Dominance restricted to dim 0: 1 < 2 → yes, dominated.
	if len(got) != 1 || !got[0].Dims[0].Equal(types.Int(1)) {
		t.Fatalf("distinct incomplete = %v", got)
	}
}

func TestDirString(t *testing.T) {
	if Min.String() != "MIN" || Max.String() != "MAX" || Diff.String() != "DIFF" {
		t.Error("Dir.String wrong")
	}
}
