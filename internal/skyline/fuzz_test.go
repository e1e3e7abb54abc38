package skyline

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"skysql/internal/types"
)

// seededShapes are the clause shapes the seeded-window property runs
// over, one per window loop: the 2-dimension unrolling, the dense loop,
// and the general loop (DIFF keys).
var seededShapes = [][]Dir{
	{Min, Max},
	{Min, Max, Min, Min},
	{Max, Diff, Min},
	{Diff, Min, Diff, Max},
}

// seededCase turns fuzz bytes into one BNLSeeded scenario. Byte 0 picks
// the clause shape, DISTINCT, and whether NULLs may appear; byte 1 places
// the prefix/tail cut; every following group of len(dirs) bytes is one
// point. Values come from a small range so that dominance, equality and
// DIFF-group collisions are all frequent.
func seededCase(data []byte) (pts []Point, dirs []Dir, distinct bool, cut int) {
	if len(data) < 2 {
		return nil, seededShapes[0], false, 0
	}
	dirs = seededShapes[int(data[0]&3)]
	distinct = data[0]&4 != 0
	withNull := data[0]&8 != 0
	body := data[2:]
	for ; len(body) >= len(dirs); body = body[len(dirs):] {
		dims := make(types.Row, len(dirs))
		for d, dir := range dirs {
			v := body[d]
			switch {
			case withNull && v%16 == 15:
				dims[d] = types.Null
			case dir == Diff:
				dims[d] = types.Str(fmt.Sprintf("g%d", v%3))
			case v&0x80 != 0:
				dims[d] = types.Float(float64(v%8) + 0.5)
			default:
				dims[d] = types.Int(int64(v % 8))
			}
		}
		pts = append(pts, Point{Dims: dims, Row: dims})
	}
	if len(pts) > 0 {
		cut = int(data[1]) % (len(pts) + 1)
	}
	return pts, dirs, distinct, cut
}

// checkBNLSeeded asserts the seeded-window contract the result cache's
// incremental upgrade rests on: with sky = BNL(prefix), running
// BNLSeeded(len(sky)) over skyline(prefix) ++ tail — assembled the way
// the cache assembles it, Select then MergeBatches — returns, index for
// index once mapped back, what BNL returns over prefix ++ tail, and
// spends at most |tail| × |window| dominance tests (none when the tail is
// empty: seed points are never tested against each other).
func checkBNLSeeded(t *testing.T, data []byte) {
	t.Helper()
	pts, dirs, distinct, cut := seededCase(data)
	decode := func(p []Point) *Batch {
		b, ok := DecodeBatch(p, dirs, false, nil)
		if !ok {
			t.Fatalf("DecodeBatch refused decodable points %v", p)
		}
		return b
	}
	want := decode(pts).BNL(distinct)

	prefix := decode(pts[:cut])
	sky := prefix.BNL(distinct)
	merged, ok := MergeBatches([]*Batch{prefix.Select(sky), decode(pts[cut:])})
	if !ok {
		t.Fatal("MergeBatches refused two batches of one shape")
	}
	got, _ := merged.BNLSeeded(len(sky), distinct, CellCodes{})
	var stats Stats
	merged.Flush(&stats)
	if max := int64(len(pts)-cut) * int64(len(sky)+len(pts)-cut); stats.DominanceTests() > max {
		t.Fatalf("seeded pass spent %d tests; %d tail points against a window of at most %d allow %d",
			stats.DominanceTests(), len(pts)-cut, len(sky)+len(pts)-cut, max)
	}
	for i, j := range got {
		if j < len(sky) {
			got[i] = sky[j]
		} else {
			got[i] = cut + j - len(sky)
		}
	}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("dirs=%v distinct=%v cut=%d/%d:\n seeded %v\n full   %v\n points %v",
			dirs, distinct, cut, len(pts), got, want, pts)
	}
}

// FuzzBNLSeeded: bytes → points; BNLSeeded(skyline(prefix) ++ tail) ≡
// BNL(prefix ++ tail) index-for-index. The committed corpus under
// testdata/fuzz/FuzzBNLSeeded runs as part of `go test`.
func FuzzBNLSeeded(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 1, 3, 3, 1, 1})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 4096 {
			t.Skip("window passes are quadratic; longer inputs add time, not cases")
		}
		checkBNLSeeded(t, data)
	})
}

// TestBNLSeededMatchesBNL runs the fuzz property over seeded random
// inputs, so every shape × DISTINCT × NULL combination is exercised at
// sizes the corpus does not reach.
func TestBNLSeededMatchesBNL(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for trial := 0; trial < 400; trial++ {
		data := make([]byte, 2+rng.Intn(600))
		rng.Read(data)
		data[0] = byte(trial) // walk shape × distinct × null systematically
		checkBNLSeeded(t, data)
	}
}

// runsValue maps one fuzz byte to a dimension value: NULLs when allowed,
// three DIFF groups, small integers, and floats that include −0 and ±Inf,
// so dominance, equality and cross-kind equality are all frequent.
func runsValue(v byte, dir Dir, withNull bool) types.Value {
	switch {
	case withNull && v%16 == 15:
		return types.Null
	case dir == Diff:
		return types.Str(fmt.Sprintf("g%d", v%3))
	case v&0x80 == 0:
		return types.Int(int64(v % 6))
	}
	switch v % 8 {
	case 0:
		return types.Float(math.Copysign(0, -1))
	case 1:
		return types.Float(math.Inf(1))
	case 2:
		return types.Float(math.Inf(-1))
	}
	return types.Float(float64(v%6) + 0.5)
}

// runsCase turns fuzz bytes into one scenario of a global pass over
// local runs. Byte 0 picks the clause shape (seededShapes), the pass's
// DISTINCT, the runs' DISTINCT and whether NULLs may appear; byte 1 gives
// the number of cut bytes that follow (0–7), each placing one cut of the
// input into slices; every following group of len(dirs) bytes is one
// point, on an anti-correlated plane when byte 0 says so (antiPoint).
func runsCase(data []byte) (pts []Point, dirs []Dir, distinct, runDistinct bool, cuts []int) {
	dirs = seededShapes[0]
	if len(data) < 2 {
		return nil, dirs, false, false, nil
	}
	dirs = seededShapes[int(data[0]&3)]
	distinct, runDistinct = data[0]&4 != 0, data[0]&8 != 0
	withNull, anti := data[0]&16 != 0, data[0]&32 != 0
	k := min(int(data[1]%8), len(data)-2)
	raw, body := data[2:2+k], data[2+k:]
	for ; len(body) >= len(dirs); body = body[len(dirs):] {
		dims := make(types.Row, len(dirs))
		for d, dir := range dirs {
			dims[d] = runsValue(body[d], dir, withNull)
		}
		if anti {
			antiPoint(dims, dirs, body)
		}
		pts = append(pts, Point{Dims: dims, Row: dims})
	}
	cuts = []int{0, len(pts)}
	for _, c := range raw {
		cuts = append(cuts, int(c)%(len(pts)+1))
	}
	slices.Sort(cuts)
	return pts, dirs, distinct, runDistinct, slices.Compact(cuts)
}

// antiPoint rewrites a point's numeric dimensions so that their
// direction-normalized sum is 1000 (one in four points misses it by one):
// most points are then incomparable, the local skylines stay large, and
// the global pass reaches the dominance screen and the cell index.
func antiPoint(dims types.Row, dirs []Dir, body []byte) {
	first, sum := -1, 0
	for d, dir := range dirs {
		switch {
		case dir == Diff:
		case first < 0:
			first = d
		case dir == Min:
			dims[d], sum = types.Int(int64(body[d])), sum+int(body[d])
		default:
			dims[d], sum = types.Int(int64(body[d])), sum-int(body[d])
		}
	}
	rest := 1000 - sum + int(body[first]>>6)/3
	if dirs[first] == Max {
		rest = -rest
	}
	dims[first] = types.Int(int64(rest))
}

// checkBNLRuns asserts the run contract of the global pass. Each slice of
// the input between two cuts is reduced by a local BNL under the runs'
// DISTINCT and marked as one run, the way a local skyline emits it, and
// the runs are merged the way an exchange gathers them. BNLParallel over
// the merge, at every chunk size from 1 to n and serially (chunk 0), must
// return what BNL returns over the same points without runs, index for
// index. A DISTINCT pass must ignore runs not produced under DISTINCT —
// it spends exactly the tests it spends on the unmarked batch — and a
// batch that is one trusted run costs no test at all.
func checkBNLRuns(t *testing.T, data []byte) {
	t.Helper()
	pts, dirs, distinct, runDistinct, cuts := runsCase(data)
	if len(pts) == 0 {
		return
	}
	var marked, plain []*Batch
	for i := 1; i < len(cuts); i++ {
		b, ok := DecodeBatch(pts[cuts[i-1]:cuts[i]], dirs, false, nil)
		if !ok {
			t.Fatalf("DecodeBatch refused decodable points %v", pts)
		}
		sky := b.BNL(runDistinct)
		plain = append(plain, b.Select(sky))
		marked = append(marked, b.Select(sky).MarkRun(runDistinct))
	}
	ref, ok1 := MergeBatches(plain)
	runs, ok2 := MergeBatches(marked)
	if !ok1 || !ok2 {
		t.Fatal("MergeBatches refused batches of one shape")
	}
	if r, _ := ref.Runs(); r != nil {
		t.Fatalf("unmarked batches merged into runs %v", r)
	}
	if r, _ := runs.Runs(); len(r) > len(marked) {
		t.Fatalf("%d marked batches merged into runs %v", len(marked), r)
	}
	want := ref.BNL(distinct)
	trusted := !distinct || runDistinct
	var stats Stats
	ref.Flush(&stats)
	stats = Stats{}
	for chunk := 0; chunk <= runs.Len(); chunk++ {
		got, err := runs.BNLParallel(distinct, chunk, goRunner)
		if err != nil {
			t.Fatal(err)
		}
		runs.Flush(&stats)
		tests := stats.DominanceTests()
		stats = Stats{}
		if !slices.Equal(got, want) {
			t.Fatalf("dirs=%v distinct=%v runs distinct=%v cuts=%v chunk=%d:\n runs %v\n BNL  %v\n points %v",
				dirs, distinct, runDistinct, cuts, chunk, got, want, pts)
		}
		if trusted && len(marked) == 1 && tests != 0 {
			t.Fatalf("one trusted run (chunk %d) spent %d tests", chunk, tests)
		}
		if !trusted {
			if _, err := ref.BNLParallel(distinct, chunk, goRunner); err != nil {
				t.Fatal(err)
			}
			ref.Flush(&stats)
			if plainTests := stats.DominanceTests(); plainTests != tests {
				t.Fatalf("DISTINCT pass over non-DISTINCT runs (chunk %d) spent %d tests, %d without runs", chunk, tests, plainTests)
			}
			stats = Stats{}
		}
	}
}

// FuzzBNLRuns: bytes → local runs; BNLParallel over their merge, at every
// chunk size and serially, ≡ BNL without runs, index for index. The
// committed corpus under testdata/fuzz/FuzzBNLRuns runs as part of
// `go test`.
func FuzzBNLRuns(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 2, 3, 9, 1, 1, 2, 0, 0, 2, 3, 3, 1, 2})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 384 {
			t.Skip("every chunk size is a pass of its own; longer inputs add time, not cases")
		}
		checkBNLRuns(t, data)
	})
}

// TestBNLRunsMatchesBNL runs the fuzz property over seeded random inputs,
// walking shape × DISTINCT × runs' DISTINCT × NULL systematically.
func TestBNLRunsMatchesBNL(t *testing.T) {
	rng := rand.New(rand.NewSource(28))
	for trial := 0; trial < 256; trial++ {
		data := make([]byte, 2+rng.Intn(383))
		rng.Read(data)
		data[0] = byte(trial) // walk shape × distinct × run distinct × null × plane
		checkBNLRuns(t, data)
	}
}

// TestRunsDroppedByDerivations: only MergeBatches keeps runs, and only when
// every input records them under one DISTINCT flag.
func TestRunsDroppedByDerivations(t *testing.T) {
	pts := genPoints(rand.New(rand.NewSource(5)), 40, 3, -1)
	decode := func(p []Point) *Batch {
		b, ok := DecodeBatch(p, make([]Dir, 3), false, nil)
		if !ok {
			t.Fatal("decode failed")
		}
		return b
	}
	a, b := decode(pts[:20]).MarkRun(true), decode(pts[20:]).MarkRun(true)
	m, _ := MergeBatches([]*Batch{a, decode(nil).MarkRun(true), b})
	if r, d := m.Runs(); !slices.Equal(r, []int{20, 0, 20}) || !d {
		t.Fatalf("merged runs %v distinct=%v, want [20 0 20] true", r, d)
	}
	rows := make([]types.Row, 3)
	for name, derived := range map[string]*Batch{
		"Slice":         m.Slice(0, 10),
		"Select":        m.Select([]int{0, 1, 2}),
		"SelectRows":    m.SelectRows([]int{0, 1, 2}, rows),
		"Filter":        m.Filter(make([]bool, 40)),
		"WithRows":      a.WithRows(rowsOfPoints(pts[:20]), nil),
		"WithoutPoints": a.WithoutPoints(),
	} {
		if r, _ := derived.Runs(); r != nil {
			t.Errorf("%s kept runs %v", name, r)
		}
	}
	for name, in := range map[string][]*Batch{
		"unmarked":       {a, decode(pts[20:])},
		"mixed DISTINCT": {a, decode(pts[20:]).MarkRun(false)},
	} {
		if m, ok := MergeBatches(in); !ok {
			t.Fatalf("%s: merge refused", name)
		} else if r, _ := m.Runs(); r != nil {
			t.Errorf("%s: merged runs %v, want none", name, r)
		}
	}
}

func rowsOfPoints(pts []Point) []types.Row {
	rows := make([]types.Row, len(pts))
	for i, p := range pts {
		rows[i] = p.Row
	}
	return rows
}
