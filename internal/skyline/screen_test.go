package skyline

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"skysql/internal/types"
)

// screenCase turns fuzz bytes into one scenario for the dominance screen.
// Byte 0 is read by caseDims, and its bits 5–6 pick the shape of the
// generated points: independent, correlated, anti-correlated (the screen
// stops), or all identical. Byte 1 is the exact number of generated
// points, so n = 63/64/65 is one byte away. Byte 2 places BNLSeeded's cut
// and picks 2–5 parallel chunks, as in gridCase. Every following group of
// d bytes is one explicit point (gridValue: ±Inf, both zeros, duplicates),
// placed before the generated ones.
func screenCase(data []byte) (pts []Point, dirs []Dir, distinct bool, cut, chunk int) {
	for len(data) < 3 {
		data = append(data, 0)
	}
	dirs, distinct, constant := caseDims(data[0])
	d := len(dirs)
	vecs, rng := caseExplicit(data, d)
	coarse := func(f float64) float64 { return math.Round(f*64) / 64 } // ties
	// same is every point of the all-identical shape.
	same := make([]float64, d)
	for k := range same {
		same[k] = coarse(rng.Float64())
	}
	for i := 0; i < int(data[1]); i++ {
		v := make([]float64, d)
		base, sum := rng.Float64(), 0.0
		for k := range v {
			switch data[0] >> 5 & 3 {
			case 0:
				v[k] = coarse(rng.Float64())
			case 1:
				v[k] = coarse(base + rng.NormFloat64()*0.05)
			case 2:
				v[k] = rng.ExpFloat64()
				sum += v[k]
			case 3:
				v[k] = same[k]
			}
		}
		if sum > 0 {
			for k := range v {
				v[k] = coarse(v[k] / sum)
			}
		}
		vecs = append(vecs, v)
	}
	pts = caseBatch(vecs, dirs, constant)
	cut = int(data[2]) * len(pts) / 256
	chunk = len(pts)/(2+int(data[2]%4)) + 1
	return pts, dirs, distinct, cut, chunk
}

// FuzzBNLScreen: bytes → points; every dense entry point returns, with
// BNL's dominance screen (and the cell index by its rule or pinned on),
// the plain pass's indices in the plain pass's order. The committed corpus
// under testdata/fuzz/FuzzBNLScreen runs as part of `go test`.
func FuzzBNLScreen(f *testing.F) {
	f.Add([]byte{1, 200, 0})
	f.Add([]byte{1 | 4 | 3<<5, 100, 0, 12, 12, 12, 12})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 4096 {
			t.Skip("window passes are quadratic; longer inputs add time, not cases")
		}
		pts, dirs, distinct, cut, chunk := screenCase(data)
		checkGrid(t, pts, dirs, distinct, cut, chunk)
	})
}

// TestScreenOrder pins what the screen costs and saves: on independent data
// it drops most arrivals; on anti-correlated data it stops after one
// stretch, having spent at most gridCheckEvery·screenPoints tests; below
// screenMinArrivals it does nothing.
func TestScreenOrder(t *testing.T) {
	screen := func(pts []Point) (kept int, tests int64) {
		b, ok := DecodeBatch(pts, make([]Dir, 4), false, nil)
		if !ok {
			t.Fatal("decode failed")
		}
		kept = len(b.screenOrder(b.allIndices()))
		return kept, b.counters.Tests
	}
	rng := rand.New(rand.NewSource(11))
	if kept, _ := screen(genPoints(rng, 5000, 4, 0)); kept*2 > 5000 {
		t.Errorf("independent: the screen kept %d of 5000 arrivals; want fewer than half", kept)
	}
	if kept, tests := screen(genPoints(rng, 5000, 4, -1)); tests > gridCheckEvery*screenPoints || kept < 5000-gridCheckEvery {
		t.Errorf("anti-correlated: the screen kept %d of 5000 arrivals after %d tests; want it stopped within %d tests",
			kept, tests, gridCheckEvery*screenPoints)
	}
	if kept, tests := screen(genPoints(rng, screenMinArrivals-1, 4, 0)); kept != screenMinArrivals-1 || tests != 0 {
		t.Errorf("%d arrivals: the screen ran (%d kept, %d tests)", screenMinArrivals-1, kept, tests)
	}
}

// TestScreenKeepsEquals: copies of the strongest point all survive the
// screen — Equal never drops — so BNL keeps every copy, or under DISTINCT
// the first, exactly as the plain pass does.
func TestScreenKeepsEquals(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	pts := genPoints(rng, 200, 4, 0)
	best := types.Row{types.Float(-1), types.Float(-1), types.Float(-1), types.Float(-1)}
	for _, at := range []int{17, 90, 150} {
		pts[at] = Point{Dims: best, Row: best}
	}
	for _, distinct := range []bool{false, true} {
		want := "[17 90 150]"
		if distinct {
			want = "[17]"
		}
		for _, p := range []gridPolicy{gridOff, gridAuto} {
			b, ok := DecodeBatch(pts, make([]Dir, 4), false, nil)
			if !ok {
				t.Fatal("decode failed")
			}
			b.gridPolicy = p
			if got := fmt.Sprint(b.BNL(distinct)); got != want {
				t.Errorf("policy=%d distinct=%v: BNL = %s, want %s", p, distinct, got, want)
			}
		}
	}
}
