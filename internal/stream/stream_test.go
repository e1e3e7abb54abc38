package stream

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"skysql/internal/skyline"
	"skysql/internal/types"
)

func row(vals ...int64) types.Row {
	out := make(types.Row, len(vals))
	for i, v := range vals {
		out[i] = types.Int(v)
	}
	return out
}

func TestIncrementalBasics(t *testing.T) {
	inc := NewIncremental([]skyline.Dir{skyline.Min, skyline.Max}, false)
	ev, err := inc.Add(row(50, 7), row(50, 7))
	if err != nil || !ev.Admitted {
		t.Fatalf("first tuple must be admitted: %+v %v", ev, err)
	}
	// Dominated arrival: rejected, no eviction.
	ev, err = inc.Add(row(55, 7), row(55, 7))
	if err != nil || ev.Admitted || len(ev.Evicted) != 0 {
		t.Fatalf("dominated arrival: %+v %v", ev, err)
	}
	// Dominating arrival: admitted, evicts the previous point.
	ev, err = inc.Add(row(45, 8), row(45, 8))
	if err != nil || !ev.Admitted || len(ev.Evicted) != 1 {
		t.Fatalf("dominating arrival: %+v %v", ev, err)
	}
	if inc.Size() != 1 || inc.Seen() != 3 {
		t.Errorf("size=%d seen=%d", inc.Size(), inc.Seen())
	}
	if inc.Stats().DominanceTests() == 0 {
		t.Error("stats not counted")
	}
}

func TestIncrementalRejectsNulls(t *testing.T) {
	inc := NewIncremental([]skyline.Dir{skyline.Min}, false)
	if _, err := inc.Add(types.Row{types.Null}, nil); err == nil {
		t.Error("NULL dimension must be rejected")
	}
}

func TestIncrementalDimensionMismatch(t *testing.T) {
	inc := NewIncremental([]skyline.Dir{skyline.Min, skyline.Min}, false)
	if _, err := inc.Add(row(1), nil); err == nil {
		t.Error("width mismatch must error")
	}
}

func TestIncrementalDistinct(t *testing.T) {
	inc := NewIncremental([]skyline.Dir{skyline.Min, skyline.Min}, true)
	inc.Add(row(1, 1), row(1, 1))
	ev, err := inc.Add(row(1, 1), row(1, 1))
	if err != nil || ev.Admitted {
		t.Errorf("duplicate must be rejected under DISTINCT: %+v %v", ev, err)
	}
	incN := NewIncremental([]skyline.Dir{skyline.Min, skyline.Min}, false)
	incN.Add(row(1, 1), row(1, 1))
	ev, _ = incN.Add(row(1, 1), row(1, 1))
	if !ev.Admitted {
		t.Error("duplicate must be kept without DISTINCT")
	}
}

func TestIncrementalMatchesBatchBNL(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	dirs := []skyline.Dir{skyline.Min, skyline.Max, skyline.Min}
	for trial := 0; trial < 50; trial++ {
		n := rng.Intn(300)
		pts := make([]skyline.Point, n)
		inc := NewIncremental(dirs, false)
		for i := range pts {
			r := row(int64(rng.Intn(12)), int64(rng.Intn(12)), int64(rng.Intn(12)))
			pts[i] = skyline.Point{Dims: r, Row: r}
			if _, err := inc.Add(r, r); err != nil {
				t.Fatal(err)
			}
		}
		want, err := skyline.BNL(pts, dirs, false, skyline.Compare, nil)
		if err != nil {
			t.Fatal(err)
		}
		got := inc.Skyline()
		if len(got) != len(want) {
			t.Fatalf("incremental size %d != batch %d", len(got), len(want))
		}
		g := make([]string, len(got))
		w := make([]string, len(want))
		for i := range got {
			g[i] = got[i].Dims.String()
			w[i] = want[i].Dims.String()
		}
		sort.Strings(g)
		sort.Strings(w)
		for i := range g {
			if g[i] != w[i] {
				t.Fatalf("incremental %v != batch %v", g, w)
			}
		}
	}
}

// TestIncrementalPermutationProperty is the property behind incremental
// maintenance: absorbing ANY permutation of a tuple
// set yields exactly the batch engine's skyline (as a multiset — which
// duplicate survives under DISTINCT legitimately depends on arrival
// order, so rows are compared by their dimension vectors). Exhaustive
// over all permutations of small sets, sampled for larger ones, both
// distinct and non-distinct.
func TestIncrementalPermutationProperty(t *testing.T) {
	dirs := []skyline.Dir{skyline.Min, skyline.Max}
	rng := rand.New(rand.NewSource(7))
	newSet := func(n, vals int) []types.Row {
		set := make([]types.Row, n)
		for i := range set {
			set[i] = row(int64(rng.Intn(vals)), int64(rng.Intn(vals)))
		}
		return set
	}
	check := func(set []types.Row, perm []int, distinct bool) {
		t.Helper()
		inc := NewIncremental(dirs, distinct)
		pts := make([]skyline.Point, len(set))
		for i, r := range set {
			pts[i] = skyline.Point{Dims: r, Row: r}
		}
		for _, i := range perm {
			if _, err := inc.Add(set[i], set[i]); err != nil {
				t.Fatal(err)
			}
		}
		want, err := skyline.BNL(pts, dirs, distinct, skyline.Compare, nil)
		if err != nil {
			t.Fatal(err)
		}
		got := inc.Skyline()
		g := make([]string, len(got))
		for i := range got {
			g[i] = got[i].Dims.String()
		}
		w := make([]string, len(want))
		for i := range want {
			w[i] = want[i].Dims.String()
		}
		sort.Strings(g)
		sort.Strings(w)
		if len(g) != len(w) {
			t.Fatalf("distinct=%v perm=%v: incremental %v != batch %v", distinct, perm, g, w)
		}
		for i := range g {
			if g[i] != w[i] {
				t.Fatalf("distinct=%v perm=%v: incremental %v != batch %v", distinct, perm, g, w)
			}
		}
	}
	var permute func(n int, f func([]int))
	permute = func(n int, f func([]int)) {
		perm := make([]int, n)
		for i := range perm {
			perm[i] = i
		}
		var rec func(k int)
		rec = func(k int) {
			if k == n {
				f(perm)
				return
			}
			for i := k; i < n; i++ {
				perm[k], perm[i] = perm[i], perm[k]
				rec(k + 1)
				perm[k], perm[i] = perm[i], perm[k]
			}
		}
		rec(0)
	}
	// Exhaustive: every permutation of 5-tuple sets (120 orders each),
	// with small value ranges to force duplicates and dominance chains.
	for trial := 0; trial < 4; trial++ {
		set := newSet(5, 4)
		for _, distinct := range []bool{false, true} {
			permute(len(set), func(p []int) { check(set, p, distinct) })
		}
	}
	// Sampled: random permutations of larger sets.
	for trial := 0; trial < 20; trial++ {
		set := newSet(60, 8)
		perm := rng.Perm(len(set))
		check(set, perm, trial%2 == 0)
	}
}

// TestIncrementalNullRoutingRefusal pins the NULL-routing contract a
// streaming caller relies on: a NULL skyline dimension is refused with an
// error (the caller must route to batch recomputation / invalidation),
// and the refusal leaves the maintained window untouched and usable.
func TestIncrementalNullRoutingRefusal(t *testing.T) {
	inc := NewIncremental([]skyline.Dir{skyline.Min, skyline.Min}, false)
	if _, err := inc.Add(row(3, 3), row(3, 3)); err != nil {
		t.Fatal(err)
	}
	if _, err := inc.Add(types.Row{types.Int(1), types.Null}, row(1, 0)); err == nil {
		t.Fatal("NULL dimension must be refused")
	}
	if inc.Size() != 1 || inc.Seen() != 1 {
		t.Errorf("refusal must not mutate state: size=%d seen=%d", inc.Size(), inc.Seen())
	}
	if ev, err := inc.Add(row(1, 1), row(1, 1)); err != nil || !ev.Admitted || len(ev.Evicted) != 1 {
		t.Errorf("window must stay usable after a refusal: %+v %v", ev, err)
	}
}

func TestEvictionEventsAreConsistent(t *testing.T) {
	// Every evicted point must have been in the skyline immediately
	// before, and the net size change must match.
	rng := rand.New(rand.NewSource(29))
	dirs := []skyline.Dir{skyline.Min, skyline.Min}
	inc := NewIncremental(dirs, false)
	for i := 0; i < 500; i++ {
		before := inc.Size()
		r := row(int64(rng.Intn(30)), int64(rng.Intn(30)))
		ev, err := inc.Add(r, r)
		if err != nil {
			t.Fatal(err)
		}
		after := inc.Size()
		switch {
		case ev.Admitted && after != before-len(ev.Evicted)+1:
			t.Fatalf("admitted: size %d -> %d with %d evictions", before, after, len(ev.Evicted))
		case !ev.Admitted && (after != before || len(ev.Evicted) != 0):
			t.Fatalf("rejected arrival must not change the skyline")
		}
	}
}

func TestSkylineReturnsCopy(t *testing.T) {
	inc := NewIncremental([]skyline.Dir{skyline.Min}, false)
	inc.Add(row(5), row(5))
	snap := inc.Skyline()
	snap[0] = skyline.Point{}
	if inc.Skyline()[0].Dims == nil {
		t.Error("Skyline must return a copy")
	}
}

func dimStrings(pts []skyline.Point) []string {
	out := make([]string, len(pts))
	for i, p := range pts {
		out[i] = p.Dims.String()
	}
	return out
}

// TestFailedAddLeavesWindowIntact is the regression test for Add
// compacting the window in place before it knew the scan would finish: a
// dominance test that errors (a string meeting a number in a MIN
// dimension) after an eviction AND a kept entry left the window with a
// shifted, duplicated entry. The three seeds are admitted without error
// because Compare stops at the first two dimensions; the fourth tuple
// evicts a, keeps b, and only then reaches c's string.
func TestFailedAddLeavesWindowIntact(t *testing.T) {
	dirs := []skyline.Dir{skyline.Min, skyline.Min, skyline.Min}
	inc := NewIncremental(dirs, false)
	a, b := row(5, 5, 5), row(1, 9, 9)
	c := types.Row{types.Int(6), types.Int(4), types.Str("x")}
	for _, r := range []types.Row{a, b, c} {
		if ev, err := inc.Add(r, r); err != nil || !ev.Admitted {
			t.Fatalf("seed %v: %+v %v", r, ev, err)
		}
	}
	before := dimStrings(inc.Skyline())
	tests := inc.Stats().DominanceTests()

	if _, err := inc.Add(row(4, 4, 4), row(4, 4, 4)); err == nil {
		t.Fatal("a number meeting a string in a MIN dimension must error")
	}
	if inc.Stats().DominanceTests() != tests+3 {
		t.Fatalf("the failing Add must have scanned a (evicted), b (kept) and c (error): %d tests, had %d",
			inc.Stats().DominanceTests(), tests)
	}
	if got := dimStrings(inc.Skyline()); fmt.Sprint(got) != fmt.Sprint(before) {
		t.Fatalf("a failed Add must leave the window as it was:\n got  %v\n want %v", got, before)
	}
	if inc.Size() != 3 || inc.Seen() != 3 {
		t.Errorf("a failed Add must not count: size=%d seen=%d", inc.Size(), inc.Seen())
	}
	// Still usable: a tuple that resolves against every entry in the first
	// two dimensions is absorbed normally.
	if ev, err := inc.Add(row(0, 20, 0), row(0, 20, 0)); err != nil || !ev.Admitted || len(ev.Evicted) != 0 {
		t.Errorf("window must stay usable after a failed Add: %+v %v", ev, err)
	}
}
