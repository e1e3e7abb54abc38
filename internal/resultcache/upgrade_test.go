package resultcache

import (
	"bytes"
	"container/list"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"skysql/internal/catalog"
	"skysql/internal/cluster"
	"skysql/internal/core"
	"skysql/internal/datagen"
	"skysql/internal/physical"
	"skysql/internal/skyline"
	"skysql/internal/types"
)

// The randomized differential for incremental upgrades. Every scenario
// draws a maintainable query shape and a base table, populates the cache,
// and plays append batches through TableChanged. After every append the
// entry — rows, rebuilt sidecar, byte accounting — must equal what a cold
// cache-less recompute over the grown table and a fresh DecodeBatch of
// its result produce, and both upgrade engines (absorbKernel,
// absorbBoxed) are run side by side on the same delta and held to the
// same answer, so neither is covered only when upgrade happens to pick
// it. The entry's encoded form rides along: dropped by every upgrade,
// rebuilt by the next hit that asks for text, and what is served — encoded
// afresh or copied off the entry — is the cold recompute's rows as JSON.

// diffSchema: id, two INT and two DOUBLE measures, and a group column for
// DIFF dimensions.
var diffSchema = types.NewSchema(
	types.Field{Name: "id", Type: types.KindInt},
	types.Field{Name: "a", Type: types.KindInt},
	types.Field{Name: "b", Type: types.KindInt},
	types.Field{Name: "c", Type: types.KindFloat},
	types.Field{Name: "d", Type: types.KindFloat},
	types.Field{Name: "g", Type: types.KindString},
)

const diffValues = 40 // measure range [0, diffValues): collisions and dominance are both common

// undecodable is exact under the boxed int comparison and refused by the
// kernel's float64 decode (beyond 2^53).
const undecodable = int64(1) << 60

type diffScenario struct {
	rng     *rand.Rand
	query   string
	dimCols []int          // table ordinals of the skyline dimensions
	dirs    []skyline.Dir  // their directions
	nextID  int64          // ids stay unique so row strings identify rows
	tab     *catalog.Table // the cached side's table
	eng     *core.Engine
}

func (sc *diffScenario) randomRow() types.Row {
	sc.nextID++
	return types.Row{
		types.Int(sc.nextID),
		types.Int(int64(sc.rng.Intn(diffValues))),
		types.Int(int64(sc.rng.Intn(diffValues))),
		types.Float(float64(sc.rng.Intn(diffValues)) / 2),
		types.Float(float64(sc.rng.Intn(diffValues)) / 2),
		types.Str(fmt.Sprintf("g%d", sc.rng.Intn(3))),
	}
}

// extremeRow is best (or worst) in every MIN/MAX dimension of the clause,
// inside a random DIFF group.
func (sc *diffScenario) extremeRow(best bool) types.Row {
	r := sc.randomRow()
	for i, col := range sc.dimCols {
		if sc.dirs[i] == skyline.Diff {
			continue
		}
		v := 0.0
		if (sc.dirs[i] == skyline.Max) == best {
			v = diffValues
		}
		if col <= 2 {
			r[col] = types.Int(int64(v))
		} else {
			r[col] = types.Float(v)
		}
	}
	return r
}

// newDiffScenario draws a shape: 2–4 MIN/MAX dimensions over distinct
// columns (the optimizer turns a single-dimension skyline into an
// extremum filter, which is not a skyline plan), an optional DIFF
// dimension, 0–2 filters, DISTINCT on or off.
func newDiffScenario(t *testing.T, seed int64) *diffScenario {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	sc := &diffScenario{rng: rng}
	names := []string{"id", "a", "b", "c", "d", "g"}
	cols := rng.Perm(4)[:2+rng.Intn(3)] // measures a..d are ordinals 1..4
	var clause []string
	for _, c := range cols {
		dir := skyline.Min
		if rng.Intn(2) == 0 {
			dir = skyline.Max
		}
		sc.dimCols, sc.dirs = append(sc.dimCols, c+1), append(sc.dirs, dir)
		clause = append(clause, names[c+1]+" "+dir.String())
	}
	if rng.Intn(3) == 0 { // a DIFF dimension, anywhere in the clause
		at := rng.Intn(len(clause) + 1)
		clause = append(clause[:at], append([]string{"g DIFF"}, clause[at:]...)...)
		sc.dimCols = append(sc.dimCols[:at], append([]int{5}, sc.dimCols[at:]...)...)
		sc.dirs = append(sc.dirs[:at], append([]skyline.Dir{skyline.Diff}, sc.dirs[at:]...)...)
	}
	filters := []string{"a < 30", "b >= 5", "c < 15", "d >= 2"}
	rng.Shuffle(len(filters), func(i, j int) { filters[i], filters[j] = filters[j], filters[i] })
	where := ""
	if n := rng.Intn(3); n > 0 {
		where = " WHERE " + strings.Join(filters[:n], " AND ")
	}
	distinct := ""
	if rng.Intn(2) == 0 {
		distinct = "DISTINCT "
	}
	sc.query = "SELECT * FROM t" + where + " SKYLINE OF " + distinct + strings.Join(clause, ", ")

	base := make([]types.Row, 100+rng.Intn(200))
	for i := range base {
		base[i] = sc.randomRow()
	}
	tab, err := catalog.NewTable("t", diffSchema, base)
	if err != nil {
		t.Fatal(err)
	}
	cat := catalog.New()
	cat.Register(tab)
	sc.tab, sc.eng = tab, core.NewEngine(cat)
	return sc
}

// batch draws one append batch of the given kind against the entry's
// current rows.
func (sc *diffScenario) batch(kind int, cached []types.Row, undecodables bool) []types.Row {
	var out []types.Row
	switch kind % 6 {
	case 0: // plain random rows
		for i := 0; i < 1+sc.rng.Intn(20); i++ {
			out = append(out, sc.randomRow())
		}
	case 1: // rows every filter in the pool rejects
		for i := 0; i < 5; i++ {
			r := sc.randomRow()
			r[1], r[2], r[3], r[4] = types.Int(35), types.Int(0), types.Float(19), types.Float(0)
			out = append(out, r)
		}
	case 2: // exact duplicates of cached rows, among fresh ones
		for i := 0; i < 6 && len(cached) > 0; i++ {
			out = append(out, append(types.Row(nil), cached[sc.rng.Intn(len(cached))]...))
			out = append(out, sc.randomRow())
		}
	case 3: // one row dominating a whole DIFF group's worth of the cached skyline
		out = append(out, sc.randomRow(), sc.extremeRow(true), sc.randomRow())
	case 4: // nothing survives
		for i := 0; i < 8; i++ {
			out = append(out, sc.extremeRow(false))
		}
	case 5: // more new rows than cached ones
		for i := 0; i < len(cached)+10; i++ {
			out = append(out, sc.randomRow())
		}
	}
	if undecodables {
		for _, r := range out {
			if sc.rng.Intn(8) == 0 {
				r[1+sc.rng.Intn(2)] = types.Int(undecodable - int64(sc.rng.Intn(3)))
			}
		}
	}
	return out
}

// coldRows is the oracle: the query compiled without a cache.
func (sc *diffScenario) coldRows(t *testing.T) []types.Row {
	t.Helper()
	compiled, err := sc.eng.CompileSQL(sc.query, physical.Options{})
	if err != nil {
		t.Fatalf("compile %q: %v", sc.query, err)
	}
	res, err := sc.eng.Run(compiled, 3)
	if err != nil {
		t.Fatalf("run %q: %v", sc.query, err)
	}
	return res.Rows
}

// assertSidecarFresh holds a sidecar to a fresh decode of the rows it
// rides on: same decoded vectors, same pairwise classifications (which
// covers the DIFF ids, whose numbering is batch-local).
func assertSidecarFresh(t *testing.T, label string, m *maintenance, rows []types.Row, got *skyline.Batch) {
	t.Helper()
	pts := make([]skyline.Point, len(rows))
	for i, r := range rows {
		dims, ok := evalDims(m.dims, r)
		if !ok {
			t.Fatalf("%s: evalDims failed on %v", label, r)
		}
		pts[i] = skyline.Point{Dims: dims, Row: r}
	}
	fresh, ok := skyline.DecodeBatch(pts, m.dirs, false, nil)
	if !ok {
		t.Fatalf("%s: the entry carries a sidecar for rows a fresh decode refuses", label)
	}
	if got.Len() != fresh.Len() || got.Tag != m.tag || got.MemSize() != fresh.MemSize() {
		t.Fatalf("%s: sidecar len=%d tag=%q mem=%d, fresh len=%d tag=%q mem=%d",
			label, got.Len(), got.Tag, got.MemSize(), fresh.Len(), m.tag, fresh.MemSize())
	}
	for i := 0; i < got.Len(); i++ {
		if fmt.Sprint(got.NumRow(i)) != fmt.Sprint(fresh.NumRow(i)) || got.NullBits(i) != fresh.NullBits(i) {
			t.Fatalf("%s: point %d decoded as %v, fresh %v", label, i, got.NumRow(i), fresh.NumRow(i))
		}
		for j := 0; j < got.Len(); j++ {
			if g, f := got.CompareDecoded(i, j), fresh.CompareDecoded(i, j); g != f {
				t.Fatalf("%s: CompareDecoded(%d,%d) = %v, fresh %v", label, i, j, g, f)
			}
		}
	}
}

// assertEntry checks the single cached entry against the oracle rows and
// re-sums its byte accounting from scratch.
func assertEntry(t *testing.T, label string, c *Cache, want []types.Row, wantSidecar bool) *entry {
	t.Helper()
	if c.lru.Len() != 1 {
		t.Fatalf("%s: cache holds %d entries, want 1", label, c.lru.Len())
	}
	e := c.lru.Front().Value.(*entry)
	assertIdentical(t, e.rows, want, label+": cached rows vs cold recompute")
	rowBytes := int64(len(e.key))
	for _, r := range e.rows {
		rowBytes += r.MemSize()
	}
	if e.rowBytes != rowBytes {
		t.Fatalf("%s: delta-adjusted rowBytes = %d, re-summed %d", label, e.rowBytes, rowBytes)
	}
	if (e.batch != nil) != wantSidecar {
		t.Fatalf("%s: sidecar present = %v, want %v", label, e.batch != nil, wantSidecar)
	}
	var batchBytes int64
	if e.batch != nil {
		assertSidecarFresh(t, label, e.maint, e.rows, e.batch)
		batchBytes = e.batch.MemSize()
	}
	if used := rowBytes + batchBytes + int64(len(e.encoded)); e.batchBytes != batchBytes || c.used != used {
		t.Fatalf("%s: batchBytes=%d used=%d, want %d and %d", label, e.batchBytes, c.used, batchBytes, used)
	}
	return e
}

// serveJSON answers query the way skysqld does: compiled against the
// cache, executed without a gather, rendered through the result's
// encoding. It returns the text and the run's metrics.
func serveJSON(t *testing.T, e *core.Engine, c *Cache, query string) ([]byte, *cluster.Metrics) {
	t.Helper()
	compiled, err := e.CompileSQL(query, physical.Options{ResultCache: c})
	if err != nil {
		t.Fatalf("compile %q: %v", query, err)
	}
	res, err := e.ExecuteCtx(compiled, cluster.NewContext(3))
	if err != nil {
		t.Fatalf("run %q: %v", query, err)
	}
	text, err := res.AppendRowsJSON(nil)
	if err != nil {
		t.Fatalf("encode %q: %v", query, err)
	}
	return text, res.Metrics
}

func rowsJSON(t *testing.T, rows []types.Row) []byte {
	t.Helper()
	text, err := types.AppendRowsJSON(nil, rows)
	if err != nil {
		t.Fatal(err)
	}
	return text
}

func TestResultCacheUpgradeDifferential(t *testing.T) {
	variants := []struct {
		name         string
		shed         bool // drop the sidecar up front, as LRU pressure would
		undecodables bool // appended rows may carry values the kernel refuses
	}{
		{name: "sidecar"},
		{name: "shed", shed: true},
		{name: "undecodable", undecodables: true},
	}
	for _, v := range variants {
		t.Run(v.name, func(t *testing.T) {
			kernelSteps, boxedSteps := 0, 0
			for seed := int64(1); seed <= 25; seed++ {
				sc := newDiffScenario(t, seed)
				c := New(0)
				runQuery(t, sc.eng, c, sc.query, physical.Options{})
				e := assertEntry(t, fmt.Sprintf("seed %d %q populate", seed, sc.query), c, sc.coldRows(t), true)
				if v.shed {
					c.used -= e.batchBytes
					e.batch, e.batchBytes = nil, 0
				}
				drained := int64(0)
				for step := 0; step < 12; step++ {
					label := fmt.Sprintf("%s seed %d step %d %q", v.name, seed, step, sc.query)
					rows := sc.batch(step+int(seed), e.rows, v.undecodables)
					if err := sc.tab.Append(rows...); err != nil {
						t.Fatal(err)
					}
					want := sc.coldRows(t)

					// Both engines, side by side, on the entry as it stands.
					delta, ok := e.maint.delta(rows)
					if !ok {
						t.Fatalf("%s: delta refused complete rows", label)
					}
					_, decodable := skyline.DecodeBatch(delta, e.maint.dirs, false, nil)
					bRows, bBatch, bBytes, bOK := e.maint.absorbBoxed(e, delta)
					if !bOK {
						t.Fatalf("%s: the boxed engine must absorb any complete delta", label)
					}
					assertIdentical(t, bRows, want, label+": boxed engine vs cold recompute")
					kRows, kBatch, kBytes, kOK := e.maint.absorbKernel(e, delta)
					if kOK != (e.batch != nil && decodable) {
						t.Fatalf("%s: kernel engine ok=%v with sidecar=%v decodable delta=%v",
							label, kOK, e.batch != nil, decodable)
					}
					if kOK {
						kernelSteps++
						assertIdentical(t, kRows, want, label+": kernel engine vs cold recompute")
						if kBytes != bBytes {
							t.Fatalf("%s: kernel rowBytes %d, boxed %d", label, kBytes, bBytes)
						}
						assertSidecarFresh(t, label+" kernel", e.maint, kRows, kBatch)
						if bBatch == nil {
							t.Fatalf("%s: boxed engine lost a sidecar the survivors can carry", label)
						}
					} else {
						boxedSteps++
					}
					// The sidecar survives an append iff the entry had one and
					// the surviving rows still decode.
					wantSidecar := e.batch != nil && bBatch != nil

					if up, inv := c.TableChanged(sc.tab, rows); up != 1 || inv != 0 {
						t.Fatalf("%s: upgraded=%d invalidated=%d, want 1,0", label, up, inv)
					}
					e = assertEntry(t, label, c, want, wantSidecar)

					// The upgrade dropped the old rows' text; the first hit
					// encodes the new rows and leaves the text, the second
					// copies it, and both serve the cold recompute's.
					if e.encoded != nil {
						t.Fatalf("%s: the upgraded entry kept the text of its old rows", label)
					}
					wantText := rowsJSON(t, want)
					first, m := serveJSON(t, sc.eng, c, sc.query)
					drained += m.IncrementalUpgrades()
					if !bytes.Equal(first, wantText) || !bytes.Equal(e.encoded, wantText) {
						t.Fatalf("%s: first hit served %d bytes and left %d, a fresh encode of the cold recompute is %d",
							label, len(first), len(e.encoded), len(wantText))
					}
					if second, m := serveJSON(t, sc.eng, c, sc.query); !bytes.Equal(second, wantText) || m.CacheHits() != 1 {
						t.Fatalf("%s: second hit (hits=%d) served %d bytes, want the %d attached", label, m.CacheHits(), len(second), len(wantText))
					}
					assertEntry(t, label+" with text", c, want, wantSidecar)
				}
				// The maintained entry serves the next query as a hit; the
				// twelve upgrades were drained by the hits that followed them.
				got, m := runQuery(t, sc.eng, c, sc.query, physical.Options{})
				if m.CacheHits() != 1 || drained != 12 {
					t.Fatalf("seed %d: hits=%d upgrades drained=%d, want 1 and 12", seed, m.CacheHits(), drained)
				}
				assertIdentical(t, got, sc.coldRows(t), "served after 12 upgrades vs cold recompute")
			}
			switch {
			case v.shed && kernelSteps != 0:
				t.Errorf("an entry without a sidecar took the kernel engine %d times", kernelSteps)
			case v.undecodables && (kernelSteps == 0 || boxedSteps == 0):
				t.Errorf("undecodable deltas must split the steps: kernel=%d boxed=%d", kernelSteps, boxedSteps)
			case !v.shed && !v.undecodables && boxedSteps != 0:
				t.Errorf("a decodable entry fell back to the boxed engine %d times", boxedSteps)
			}
		})
	}
}

// TestResultCacheUpgradeNullStillInvalidates: a NULL in a skyline
// dimension of an appended row that passes the filters invalidates, with
// or without a sidecar, after earlier appends were absorbed; a NULL in a
// column the clause does not read does not.
func TestResultCacheUpgradeNullStillInvalidates(t *testing.T) {
	for _, shed := range []bool{false, true} {
		e, tab := newHotelEngine(t)
		c := New(0)
		const q = "SELECT * FROM hotels WHERE price < 100 SKYLINE OF price MIN, user_rating MAX"
		runQuery(t, e, c, q, physical.Options{})
		if shed {
			en := c.lru.Front().Value.(*entry)
			c.used -= en.batchBytes
			en.batch, en.batchBytes = nil, 0
		}
		appendRow := func(r types.Row) (int, int) {
			t.Helper()
			if err := tab.Append(r); err != nil {
				t.Fatal(err)
			}
			return c.TableChanged(tab, []types.Row{r})
		}
		if up, inv := appendRow(types.Row{types.Int(7), types.Int(30), types.Int(6)}); up != 1 || inv != 0 {
			t.Fatalf("shed=%v: complete row: upgraded=%d invalidated=%d", shed, up, inv)
		}
		if up, inv := appendRow(types.Row{types.Null, types.Int(20), types.Int(9)}); up != 1 || inv != 0 {
			t.Fatalf("shed=%v: NULL outside the clause: upgraded=%d invalidated=%d", shed, up, inv)
		}
		if up, inv := appendRow(types.Row{types.Int(9), types.Int(10), types.Null}); up != 0 || inv != 1 {
			t.Fatalf("shed=%v: NULL skyline dimension: upgraded=%d invalidated=%d", shed, up, inv)
		}
		if s := c.Stats(); s.Entries != 0 || s.Upgrades != 2 || s.Invalidations != 1 || s.Evictions != 0 || s.UsedBytes != 0 {
			t.Errorf("shed=%v: stats = %+v", shed, s)
		}
	}
}

// BenchmarkTableChanged measures one 20-row append against a cached
// anti-correlated d=4 skyline of s rows (run with -benchmem). The cost is
// O(Δ·s) kernel tests plus the O(s) copies that rebuild rows and sidecar,
// so ns/op grows linearly in s, not quadratically, and allocs/op stays
// flat. Each iteration upgrades a fresh entry: the base entry is copied
// (a struct copy shares rows and sidecar, which upgrade never mutates).
func BenchmarkTableChanged(b *testing.B) {
	const dims, delta = 4, 20
	const q = "SELECT * FROM t SKYLINE OF d1 MIN, d2 MIN, d3 MIN, d4 MIN"
	for _, s := range []int{100, 700, 2400} {
		b.Run(fmt.Sprintf("s=%d/delta=%d/d=%d", s, delta, dims), func(b *testing.B) {
			// Grow an anti-correlated table until its skyline reaches s rows.
			src := datagen.Synthetic(datagen.AntiCorrelated, 40*s, dims, datagen.Config{Seed: 1, Complete: true})
			n := s
			var tab *catalog.Table
			var eng *core.Engine
			c := New(1 << 30)
			for {
				var err error
				if tab, err = catalog.NewTable("t", src.Schema, src.Rows[:n:n]); err != nil {
					b.Fatal(err)
				}
				cat := catalog.New()
				cat.Register(tab)
				eng = core.NewEngine(cat)
				compiled, err := eng.CompileSQL(q, physical.Options{})
				if err != nil {
					b.Fatal(err)
				}
				res, err := eng.Run(compiled, 3)
				if err != nil {
					b.Fatal(err)
				}
				if len(res.Rows) >= s || n == len(src.Rows) {
					break
				}
				if n += n/8 + 1; n > len(src.Rows) {
					n = len(src.Rows)
				}
			}
			compiled, err := eng.CompileSQL(q, physical.Options{ResultCache: c})
			if err != nil {
				b.Fatal(err)
			}
			if _, err := eng.Run(compiled, 3); err != nil {
				b.Fatal(err)
			}
			el := c.lru.Front()
			base := *el.Value.(*entry)
			if base.batch == nil || base.maint == nil {
				b.Fatal("the benchmark entry must be maintainable and carry its sidecar")
			}
			extra := datagen.Synthetic(datagen.AntiCorrelated, delta, dims, datagen.Config{Seed: 2, Complete: true}).Rows
			if err := tab.Append(extra...); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				e := base
				el.Value = &e
				c.byKey = map[string]*list.Element{e.key: el}
				c.used = e.rowBytes + e.batchBytes
				if up, inv := c.TableChanged(tab, extra); up != 1 || inv != 0 {
					b.Fatalf("upgraded=%d invalidated=%d", up, inv)
				}
			}
			b.ReportMetric(float64(len(base.rows)), "skyline-rows")
		})
	}
}
