package skyline

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"skysql/internal/cost"
	"skysql/internal/datagen"
)

// kernelCount is what one kernel entry point spent on a fixed input.
type kernelCount struct {
	name               string
	tests, comparisons int64
}

// countKernel runs fn on b with fresh counters and returns what it spent.
func countKernel(t *testing.T, b *Batch, fn func(*Batch) ([]int, error)) (tests, comparisons int64) {
	t.Helper()
	b.counters = Counters{}
	if _, err := fn(b); err != nil {
		t.Fatal(err)
	}
	tests, comparisons = b.counters.Tests, b.counters.Comparisons
	b.counters = Counters{}
	return tests, comparisons
}

// globalAntiBatch is BenchmarkDominanceGlobalAnti's input: 8 local
// skylines of 500 anti-correlated d=4 rows each, merged, and marked as
// runs when marked is set. It also returns the first run's length.
func globalAntiBatch(t *testing.T, marked bool) (*Batch, int) {
	t.Helper()
	pts := datagenPoints(datagen.AntiCorrelated, 4000, 4, 1)
	dirs := make([]Dir, 4)
	var locals []*Batch
	for m := 0; m < 8; m++ {
		lb, ok := DecodeBatch(pts[m*500:(m+1)*500], dirs, false, nil)
		if !ok {
			t.Fatal("decode failed")
		}
		local := lb.Select(lb.BNL(false))
		if marked {
			local.MarkRun(false)
		}
		locals = append(locals, local)
	}
	global, ok := MergeBatches(locals)
	if !ok {
		t.Fatal("merge failed")
	}
	return global, locals[0].Len()
}

// seededHalves is the batch the result cache's upgrade runs BNLSeeded on:
// the skyline of the first half of b followed by its second half. It
// returns the batch and the seed length.
func seededHalves(t *testing.T, b *Batch) (*Batch, int) {
	t.Helper()
	half := b.Len() / 2
	prefix := b.Slice(0, half)
	sky := prefix.Select(prefix.BNL(false))
	merged, ok := MergeBatches([]*Batch{sky, b.Slice(half, b.Len())})
	if !ok {
		t.Fatal("merge failed")
	}
	return merged, sky.Len()
}

// TestKernelCountsPinned pins the dominance tests and scalar comparisons
// the dense kernel spends on the dominance benchmarks' fixed inputs. The
// counts depend on which pairs a pass tests and on the early-exit lane
// count, not on how one test is computed, so a change to the test itself
// must leave them exactly as they are.
func TestKernelCountsPinned(t *testing.T) {
	want := map[string]kernelCount{}
	for _, c := range []kernelCount{
		{"GlobalAnti/runs/BNL", 113746, 290251},
		{"GlobalAnti/runs/BNLSeeded", 108535, 276896},
		{"GlobalAnti/runs/BNLParallel", 143012, 364409},
		{"GlobalAnti/unmarked/BNL", 113746, 290251},
		{"GlobalAnti/unmarked/BNLSeeded", 108535, 276896},
		{"GlobalAnti/unmarked/BNLParallel", 187722, 479524},
		{"LocalIndependent/BNL", 57555, 185425},
		{"LocalIndependent/BNLSeeded", 27662, 90150},
		{"LocalIndependent/BNLParallel", 221638, 601127},
		{"Columnar/d=2/BNL", 10570, 21140},
		{"Columnar/d=2/BNLSeeded", 5803, 11606},
		{"Columnar/d=2/BNLParallel", 15561, 31122},
		{"Columnar/d=6/BNL", 93757, 301418},
	} {
		want[c.name] = c
	}
	check := func(name string, b *Batch, fn func(*Batch) ([]int, error)) {
		t.Helper()
		tests, comps := countKernel(t, b, fn)
		w, ok := want[name]
		if !ok {
			t.Fatalf("%s: no pinned count", name)
		}
		if tests != w.tests || comps != w.comparisons {
			t.Errorf("%s: %d tests, %d comparisons; want %d, %d", name, tests, comps, w.tests, w.comparisons)
		}
	}
	bnl := func(b *Batch) ([]int, error) { return b.BNL(false), nil }
	seeded := func(seed int) func(*Batch) ([]int, error) {
		return func(b *Batch) ([]int, error) {
			idx, _ := b.BNLSeeded(seed, false, CellCodes{})
			return idx, nil
		}
	}
	parallel := func(b *Batch) ([]int, error) {
		return b.BNLParallel(false, cost.MorselTarget(b.Len(), 4), goRunner)
	}
	all := func(prefix string, b *Batch) {
		t.Helper()
		check(prefix+"/BNL", b, bnl)
		sb, seed := seededHalves(t, b)
		check(prefix+"/BNLSeeded", sb, seeded(seed))
		check(prefix+"/BNLParallel", b, parallel)
	}
	for _, marked := range []bool{true, false} {
		name := "GlobalAnti/runs"
		if !marked {
			name = "GlobalAnti/unmarked"
		}
		global, firstRun := globalAntiBatch(t, marked)
		check(name+"/BNL", global, bnl)
		check(name+"/BNLSeeded", global, seeded(firstRun))
		check(name+"/BNLParallel", global, parallel)
	}
	local, ok := DecodeBatch(datagenPoints(datagen.Independent, 25000, 4, 1), make([]Dir, 4), false, nil)
	if !ok {
		t.Fatal("decode failed")
	}
	all("LocalIndependent", local)
	for _, d := range []int{2, 6} {
		b, ok := DecodeBatch(genPoints(rand.New(rand.NewSource(1)), 10000, d, 0), make([]Dir, d), false, nil)
		if !ok {
			t.Fatal("decode failed")
		}
		if d == 2 {
			all(fmt.Sprintf("Columnar/d=%d", d), b)
		} else {
			check(fmt.Sprintf("Columnar/d=%d/BNL", d), b, bnl)
		}
	}
}

// branchyCompare is the early-exit classifier the lane masks replaced,
// kept as their oracle: it scans the lanes in order and stops at the first
// lane where both sides have been better once, returning the relation and
// the lanes it read.
func branchyCompare(wv, tv []float64) (Relation, int64) {
	aBetter, bBetter := false, false
	for k, x := range wv {
		y := tv[k]
		if x < y {
			if bBetter {
				return Incomparable, int64(k + 1)
			}
			aBetter = true
		} else if x > y {
			if aBetter {
				return Incomparable, int64(k + 1)
			}
			bBetter = true
		}
	}
	switch {
	case aBetter:
		return LeftDominates, int64(len(wv))
	case bBetter:
		return RightDominates, int64(len(wv))
	}
	return Equal, int64(len(wv))
}

// maskValues are the lane values the mask checks draw from: the
// infinities, both zeros (equal, so never better either way), and
// duplicates; maskCase adds arbitrary values besides.
var maskValues = []float64{math.Inf(-1), -1, math.Copysign(0, -1), 0, 1, 2, math.Inf(1)}

// checkMasks asserts that the lane masks classify w against t as the
// branchy oracle does, counting the same lanes (denseCompare), and that at
// four lanes the unrolled form equals the loop.
func checkMasks(t *testing.T, w, tv []float64) {
	t.Helper()
	lt, gt := laneMasks(w, tv)
	wantRel, wantN := branchyCompare(w, tv)
	if rel, n := denseCompare(w, tv); rel != wantRel || n != wantN {
		t.Fatalf("masks of %v vs %v: %v over %d lanes (lt %b, gt %b); branchy compare: %v over %d", w, tv, rel, n, lt, gt, wantRel, wantN)
	}
	if len(w) == 4 {
		if lt4, gt4 := lessMask4(w, tv), lessMask4(tv, w); lt4 != lt || gt4 != gt {
			t.Fatalf("four-lane masks of %v vs %v: lt %b, gt %b; laneMasks: lt %b, gt %b", w, tv, lt4, gt4, lt, gt)
		}
	}
}

// maskCase turns fuzz bytes into one pair of vectors: byte 0 picks d in
// 1..9, then every lane of w and then of t takes one byte, whose low three
// bits pick a maskValues entry or, at 7, an arbitrary value from the byte
// after it. Missing bytes read as +0.
func maskCase(data []byte) (w, t []float64) {
	next := func() byte {
		if len(data) == 0 {
			return 3 // +0
		}
		b := data[0]
		data = data[1:]
		return b
	}
	d := 1 + int(next())%9
	v := make([]float64, 2*d)
	for k := range v {
		if sel := next() % 8; sel < 7 {
			v[k] = maskValues[sel]
		} else {
			v[k] = float64(int8(next())) / 8
		}
	}
	return v[:d], v[d:]
}

// FuzzDenseMasks: bytes → one pair of complete, direction-normalized
// vectors of 1 to 9 lanes; the branch-free masks must decide the pair and
// count its lanes exactly as the early-exit compare did. The committed
// corpus under testdata/fuzz/FuzzDenseMasks (±0, ±Inf, all-equal and
// single-lane pairs) runs as part of `go test`.
func FuzzDenseMasks(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{3, 2, 3, 3, 2, 2, 3, 2, 2})
	f.Fuzz(func(t *testing.T, data []byte) {
		w, tv := maskCase(data)
		checkMasks(t, w, tv)
	})
}

// TestDenseMasksRandom runs the FuzzDenseMasks check over 200 000 random
// pairs of 1 to 9 lanes, each lane a maskValues entry or a small integer,
// so ties, signed zeros and infinities are frequent.
func TestDenseMasksRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	v := make([]float64, 18)
	for i := 0; i < 200000; i++ {
		d := 1 + rng.Intn(9)
		for k := range v[:2*d] {
			if j := rng.Intn(len(maskValues) + 1); j < len(maskValues) {
				v[k] = maskValues[j]
			} else {
				v[k] = float64(rng.Intn(5))
			}
		}
		checkMasks(t, v[:d], v[d:2*d])
	}
}
