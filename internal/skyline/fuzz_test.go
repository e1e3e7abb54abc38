package skyline

import (
	"fmt"
	"math/rand"
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
	got := merged.BNLSeeded(len(sky), distinct)
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
