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
// entry — rows, sidecar, byte accounting — must equal what a cold
// cache-less recompute over the grown table and a fresh DecodeBatch of
// its result produce, and the upgrade engine (absorbKernel) is also run
// directly on the same delta and held to the same answer. An entry that
// shed its sidecar has it rebuilt from its rows, held to a fresh decode;
// an append the kernel cannot decode invalidates the entry, and the next
// read recomputes cold. The entry's text rides along: spliced by the
// kernel, and what is served — encoded afresh or copied off the entry —
// is the cold recompute's rows as JSON.

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
	anti    bool           // rows lie near a plane across the clause: most are incomparable
	tab     *catalog.Table // the cached side's table
	eng     *core.Engine
}

func (sc *diffScenario) randomRow() types.Row {
	sc.nextID++
	r := types.Row{
		types.Int(sc.nextID),
		types.Int(int64(sc.rng.Intn(diffValues))),
		types.Int(int64(sc.rng.Intn(diffValues))),
		types.Float(float64(sc.rng.Intn(diffValues)) / 2),
		types.Float(float64(sc.rng.Intn(diffValues)) / 2),
		types.Str(fmt.Sprintf("g%d", sc.rng.Intn(3))),
	}
	if sc.anti {
		sc.antiRow(r)
	}
	return r
}

// antiRow moves a row's last MIN/MAX dimension so that the clause's
// values, each mapped onto [0, diffValues) with lower better (a DOUBLE
// measure doubled, a MAX one mirrored), sum to the middle of their range,
// clamped to the measure range: the skyline then keeps most rows, and the
// upgrades run on the cell index.
func (sc *diffScenario) antiRow(r types.Row) {
	norm := func(i int) int {
		var v int
		if col := sc.dimCols[i]; col <= 2 {
			v = int(r[col].AsInt())
		} else {
			v = int(2 * r[col].AsFloat())
		}
		if sc.dirs[i] == skyline.Max {
			v = diffValues - 1 - v
		}
		return v
	}
	last, sum, n := -1, 0, 0
	for i, dir := range sc.dirs {
		if dir == skyline.Diff {
			continue
		}
		if last >= 0 {
			sum += norm(last)
		}
		last, n = i, n+1
	}
	v := max(0, min(n*(diffValues-1)/2-sum, diffValues-1))
	if sc.dirs[last] == skyline.Max {
		v = diffValues - 1 - v
	}
	if col := sc.dimCols[last]; col <= 2 {
		r[col] = types.Int(int64(v))
	} else {
		r[col] = types.Float(float64(v) / 2)
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
// dimension, 0–2 filters, DISTINCT on or off. With anti the rows are
// anti-correlated across the clause (antiRow).
func newDiffScenario(t *testing.T, seed int64, anti bool) *diffScenario {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	sc := &diffScenario{rng: rng, anti: anti}
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
	if anti {
		// A skyline of a few hundred rows: a 20-row append is then enough
		// for the seeded pass to run on the cell index (paysSeeded).
		base = make([]types.Row, 2*len(base))
	}
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
// current rows. Beside an anti-correlated skyline the batches keep it
// large, so its upgrades run on the cell index: no rows off the plane
// (kinds 1 and 3 draw plain rows), and up to 60 plain rows, not 20.
func (sc *diffScenario) batch(kind int, cached []types.Row, undecodables bool) []types.Row {
	var out []types.Row
	most := 20
	if sc.anti {
		most = 60
		if kind%6 == 1 || kind%6 == 3 {
			kind = 0
		}
	}
	switch kind % 6 {
	case 0: // plain random rows
		for i := 0; i < 1+sc.rng.Intn(most); i++ {
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
		if got.KeyDims() == 0 {
			continue // no DIFF ids: equal vectors and null bits classify every pair alike
		}
		for j := 0; j < got.Len(); j++ {
			if g, f := got.CompareDecoded(i, j), fresh.CompareDecoded(i, j); g != f {
				t.Fatalf("%s: CompareDecoded(%d,%d) = %v, fresh %v", label, i, j, g, f)
			}
		}
	}
}

// assertEntry checks the single cached entry against the oracle rows and
// re-walks its byte accounting (checkRecordedSizes).
func assertEntry(t *testing.T, label string, c *Cache, want []types.Row, wantSidecar bool) *entry {
	t.Helper()
	if c.lru.Len() != 1 {
		t.Fatalf("%s: cache holds %d entries, want 1", label, c.lru.Len())
	}
	e := c.lru.Front().Value.(*entry)
	assertIdentical(t, e.rows, want, label+": cached rows vs cold recompute")
	if (e.batch != nil) != wantSidecar {
		t.Fatalf("%s: sidecar present = %v, want %v", label, e.batch != nil, wantSidecar)
	}
	if e.batch != nil {
		assertSidecarFresh(t, label, e.maint, e.rows, e.batch)
	}
	checkRecordedSizes(t, label, c)
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

// assertText holds an entry's text, when it has one, to its rows: the
// bytes a fresh encode of them writes, and offsets that cut out each
// row's own encoding.
func assertText(t *testing.T, label string, e *entry) {
	t.Helper()
	if e.encoded == nil {
		return
	}
	if want := rowsJSON(t, e.rows); !bytes.Equal(e.encoded, want) {
		t.Fatalf("%s: the entry's text is %s, its rows encode to %s", label, e.encoded, want)
	}
	if len(e.ends) != len(e.rows) {
		t.Fatalf("%s: %d row offsets for %d rows", label, len(e.ends), len(e.rows))
	}
	lo := uint32(1)
	for i, r := range e.rows {
		want, err := types.AppendRowJSON(nil, r)
		if err != nil || e.ends[i] < lo || int(e.ends[i]) >= len(e.encoded) || !bytes.Equal(e.encoded[lo:e.ends[i]], want) {
			t.Fatalf("%s: row %d's offsets [%d, %d) do not cut %s out of the text", label, i, lo, e.ends[i], want)
		}
		lo = e.ends[i] + 1
	}
}

func TestResultCacheUpgradeDifferential(t *testing.T) {
	variants := []struct {
		name         string
		shed         bool // drop the sidecar up front, as LRU pressure would
		undecodables bool // appended rows may carry values the kernel refuses
		shedAt       int  // from this step on, every fourth drops the sidecar and its cell codes (0: never)
		anti         bool // anti-correlated rows (antiRow): large skylines, upgrades on the cell index
		seeds        int64
	}{
		{name: "sidecar", seeds: 25},
		{name: "shed", shed: true, seeds: 25},
		{name: "undecodable", undecodables: true, seeds: 25},
		{name: "shed mid-chain", shedAt: 3, anti: true, seeds: 8},
	}
	for _, v := range variants {
		t.Run(v.name, func(t *testing.T) {
			kernelSteps, rebuilt, invalidated, spliced := 0, 0, 0, 0
			coded, codesShed, retaken := 0, 0, 0
			for seed := int64(1); seed <= v.seeds; seed++ {
				sc := newDiffScenario(t, seed, v.anti)
				c := New(0)
				serveJSON(t, sc.eng, c, sc.query)
				e := assertEntry(t, fmt.Sprintf("seed %d %q populate", seed, sc.query), c, sc.coldRows(t), true)
				assertText(t, fmt.Sprintf("seed %d %q populate", seed, sc.query), e)
				if v.shed {
					c.used -= e.shedSidecar()
					checkRecordedSizes(t, fmt.Sprintf("seed %d sidecar shed", seed), c)
				}
				drained, upgraded := int64(0), int64(0)
				shedCodes := false // the last shed dropped cell codes the entry had not taken again since
				for step := 0; step < 12; step++ {
					label := fmt.Sprintf("%s seed %d step %d %q", v.name, seed, step, sc.query)
					if v.shedAt > 0 && step >= v.shedAt && (step-v.shedAt)%4 == 0 && e.batch != nil {
						// As LRU pressure would, mid-chain: the codes go with
						// the sidecar, and the next upgrade decodes the rows
						// and takes the grid again.
						if e.codes.MemSize() > 0 {
							codesShed++
							shedCodes = true
						}
						c.used -= e.shedSidecar()
						checkRecordedSizes(t, label+" sidecar shed", c)
					}
					rows := sc.batch(step+int(seed), e.rows, v.undecodables)
					if _, err := sc.tab.Append(rows...); err != nil {
						t.Fatal(err)
					}
					want := sc.coldRows(t)
					wantText := rowsJSON(t, want)

					// The engine, run directly on the entry as it stands.
					delta, ok := e.maint.delta(rows)
					if !ok {
						t.Fatalf("%s: delta refused complete rows", label)
					}
					_, decodable := skyline.DecodeBatch(delta, e.maint.dirs, false, nil)
					side, sideOK := e.maint.sidecar(e)
					if sideOK != rowsDecode(t, e.maint, e.rows) {
						t.Fatalf("%s: sidecar ok=%v, a fresh decode of the cached rows disagrees", label, sideOK)
					}
					if sideOK && e.batch == nil {
						rebuilt++
						assertSidecarFresh(t, label+" rebuilt", e.maint, e.rows, side)
					}
					wantUpgrade := len(delta) == 0 || (sideOK && decodable)
					if len(delta) > 0 && sideOK {
						kernel, kOK := e.maint.absorbKernel(e, side, delta)
						if kOK != decodable {
							t.Fatalf("%s: kernel engine ok=%v with a decodable delta=%v", label, kOK, decodable)
						}
						if kOK {
							kernelSteps++
							assertIdentical(t, kernel.rows, want, label+": kernel engine vs cold recompute")
							if walked := walkRowBytes(kernel.rows, e.key); kernel.rowBytes != walked {
								t.Fatalf("%s: kernel engine's rowBytes %d, its rows walk to %d", label, kernel.rowBytes, walked)
							}
							assertSidecarFresh(t, label+" kernel", e.maint, kernel.rows, kernel.batch)
							if !bytes.Equal(kernel.text, wantText) {
								t.Fatalf("%s: the kernel engine spliced %d bytes, a fresh encode of the cold recompute is %d",
									label, len(kernel.text), len(wantText))
							}
						}
					}
					// An upgrade leaves a sidecar unless nothing passed the
					// filters of an entry that had shed it; it splices the text.
					wantSidecar := e.batch != nil || len(delta) > 0

					up, inv := c.TableChanged(sc.tab, rows)
					if !wantUpgrade {
						// Undecodable rows invalidate; the next read is a miss
						// that recomputes cold, byte for byte.
						if up != 0 || inv != 1 || c.lru.Len() != 0 {
							t.Fatalf("%s: upgraded=%d invalidated=%d entries=%d, want 0,1,0", label, up, inv, c.lru.Len())
						}
						invalidated++
						first, m := serveJSON(t, sc.eng, c, sc.query)
						if !bytes.Equal(first, wantText) || m.Count(cluster.CacheMisses) != 1 {
							t.Fatalf("%s: the read after the invalidation (misses=%d) served %d bytes, a fresh encode of the cold recompute is %d",
								label, m.Count(cluster.CacheMisses), len(first), len(wantText))
						}
						e = c.lru.Front().Value.(*entry)
						e = assertEntry(t, label+" recomputed", c, want, e.batch != nil)
						assertText(t, label+" recomputed", e)
						continue
					}
					if up != 1 || inv != 0 {
						t.Fatalf("%s: upgraded=%d invalidated=%d, want 1,0", label, up, inv)
					}
					upgraded++
					e = assertEntry(t, label, c, want, wantSidecar)
					if e.codes.MemSize() > 0 {
						if e.batch == nil {
							t.Fatalf("%s: the entry holds cell codes without a sidecar", label)
						}
						coded++
						if shedCodes {
							retaken++
							shedCodes = false
						}
					}
					if e.encoded == nil {
						t.Fatalf("%s: the upgrade dropped the text", label)
					}
					spliced++
					assertText(t, label+" spliced", e)
					if !bytes.Equal(e.encoded, wantText) {
						t.Fatalf("%s: spliced %d bytes, a fresh encode of the cold recompute is %d", label, len(e.encoded), len(wantText))
					}
					// The first hit copies the spliced text, the second too, and
					// both serve the cold recompute's.
					first, m := serveJSON(t, sc.eng, c, sc.query)
					drained += m.Count(cluster.IncrementalUpgrades)
					if !bytes.Equal(first, wantText) || !bytes.Equal(e.encoded, wantText) {
						t.Fatalf("%s: first hit served %d bytes and left %d, a fresh encode of the cold recompute is %d",
							label, len(first), len(e.encoded), len(wantText))
					}
					if second, m := serveJSON(t, sc.eng, c, sc.query); !bytes.Equal(second, wantText) || m.Count(cluster.CacheHits) != 1 {
						t.Fatalf("%s: second hit (hits=%d) served %d bytes, want the %d attached", label, m.Count(cluster.CacheHits), len(second), len(wantText))
					}
					assertText(t, label+" with text", assertEntry(t, label+" with text", c, want, wantSidecar))
				}
				// The maintained entry serves the next query as a hit; every
				// upgrade was drained by the hit that followed it.
				got, m := runQuery(t, sc.eng, c, sc.query, physical.Options{})
				if m.Count(cluster.CacheHits) != 1 || drained != upgraded {
					t.Fatalf("seed %d: hits=%d upgrades drained=%d, want 1 and %d", seed, m.Count(cluster.CacheHits), drained, upgraded)
				}
				assertIdentical(t, got, sc.coldRows(t), "served after the appends vs cold recompute")
			}
			t.Logf("kernel upgrades %d (spliced %d), sidecars rebuilt %d, invalidations %d; entries left coded %d times, codes shed %d, taken again %d",
				kernelSteps, spliced, rebuilt, invalidated, coded, codesShed, retaken)
			switch {
			case kernelSteps == 0:
				t.Error("no append took the kernel engine")
			case (v.shed || v.shedAt > 0) && rebuilt == 0:
				t.Error("no shed sidecar was rebuilt")
			case !v.shed && v.shedAt == 0 && rebuilt != 0:
				// Undecodable rows included: a skyline they left decodes, and
				// it is stored with its sidecar.
				t.Errorf("an entry holding its sidecar had it rebuilt %d times", rebuilt)
			case v.anti && (codesShed == 0 || retaken == 0):
				t.Errorf("cell codes shed %d times and taken again %d times; the history must do both", codesShed, retaken)
			case v.undecodables && invalidated == 0:
				t.Error("no undecodable delta invalidated the entry")
			case !v.undecodables && invalidated != 0:
				t.Errorf("a decodable entry was invalidated %d times", invalidated)
			case spliced < kernelSteps:
				t.Errorf("%d kernel upgrades spliced the text only %d times", kernelSteps, spliced)
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
		e, tab := newNullableHotelEngine(t)
		c := New(0)
		const q = "SELECT * FROM hotels WHERE price < 100 SKYLINE OF COMPLETE price MIN, user_rating MAX"
		runQuery(t, e, c, q, physical.Options{})
		if shed {
			en := c.lru.Front().Value.(*entry)
			c.used -= en.shedSidecar()
		}
		appendRow := func(r types.Row) (int, int) {
			t.Helper()
			if _, err := tab.Append(r); err != nil {
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

// BenchmarkTableChanged measures 20-row appends against a cached
// anti-correlated d=4 skyline of s rows (run with -benchmem), whose entry
// was served once as JSON, so each op includes splicing its text.
//
// first: the entry's first upgrade after it was stored, every iteration
// from a copy of the stored entry (a struct copy shares rows, sidecar and
// text, which upgrade never mutates). It holds no cell codes yet, so a
// pass on the cell index takes the grid and codes every cached row.
//
// chain: the steady state of an entry that absorbs append after append.
// Iterations walk a chain of chainLinks appends of fresh rows on one
// entry, which starts each chain from its state after one upgrade, so it
// carries the codes of its rows and each pass codes only the new ones.
//
// tests/op is the dominance tests of the seeded pass, replayed outside the
// timer (seededTests). With the index the tests per append fall far below
// Δ·s; without it (s=100: a seed times its arrivals below the switch
// rule's threshold, paysSeeded) they are at most Δ·s.
func BenchmarkTableChanged(b *testing.B) {
	const dims, delta, chainLinks = 4, 20, 8
	const q = "SELECT * FROM t SKYLINE OF d1 MIN, d2 MIN, d3 MIN, d4 MIN"
	for _, s := range []int{100, 700, 2400} {
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
		res, err := eng.ExecuteCtx(compiled, cluster.NewContext(3))
		if err != nil {
			b.Fatal(err)
		}
		if _, err := res.AppendRowsJSON(nil); err != nil {
			b.Fatal(err)
		}
		el := c.lru.Front()
		base := *el.Value.(*entry)
		if base.batch == nil || base.maint == nil || base.ends == nil {
			b.Fatal("the benchmark entry must be maintainable and carry its sidecar and text")
		}
		// Fresh rows for every append: the first, and one per chain link.
		// The table takes them all, so the entry's key names their version;
		// the chain re-applies its links to an entry at that version.
		var appends [][]types.Row
		for i := 0; i <= chainLinks; i++ {
			rows := datagen.Synthetic(datagen.AntiCorrelated, delta, dims, datagen.Config{Seed: int64(2 + i), Complete: true}).Rows
			if _, err := tab.Append(rows...); err != nil {
				b.Fatal(err)
			}
			appends = append(appends, rows)
		}
		upgrade := func(e entry, rows []types.Row) entry {
			el.Value = &e
			c.byKey = map[string]*list.Element{e.key: el}
			c.used = e.size()
			if up, inv := c.TableChanged(tab, rows); up != 1 || inv != 0 {
				b.Fatalf("upgraded=%d invalidated=%d", up, inv)
			}
			return *el.Value.(*entry)
		}
		name := fmt.Sprintf("s=%d/delta=%d/d=%d", s, delta, dims)
		b.Run(name+"/first", func(b *testing.B) {
			tests := seededTests(b, &base, appends[0])
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				upgrade(base, appends[0])
			}
			b.ReportMetric(float64(len(base.rows)), "skyline-rows")
			b.ReportMetric(float64(tests), "tests/op")
		})
		b.Run(name+"/chain", func(b *testing.B) {
			primed := upgrade(base, appends[0])
			var tests int64
			e := primed
			for _, rows := range appends[1:] {
				tests += seededTests(b, &e, rows)
				e = upgrade(e, rows)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if i%chainLinks == 0 {
					e = primed
				}
				e = upgrade(e, appends[1+i%chainLinks])
			}
			b.ReportMetric(float64(len(primed.rows)), "skyline-rows")
			b.ReportMetric(float64(tests)/chainLinks, "tests/op")
		})
	}
}

// seededTests replays the seeded pass an upgrade of e by rows runs — the
// filtered delta decoded and merged after e's sidecar, seeded with e's rows
// and cell codes — and returns its dominance tests.
func seededTests(b *testing.B, e *entry, rows []types.Row) int64 {
	b.Helper()
	delta, ok := e.maint.delta(rows)
	if !ok {
		b.Fatal("delta refused")
	}
	d, ok := skyline.DecodeBatch(delta, e.maint.dirs, false, nil)
	if !ok {
		b.Fatal("delta does not decode")
	}
	d.Tag = e.maint.tag
	merged, ok := skyline.MergeBatches([]*skyline.Batch{e.batch, d.WithoutPoints()})
	if !ok {
		b.Fatal("merge refused")
	}
	merged.BNLSeeded(len(e.rows), e.maint.distinct, e.codes)
	var stats skyline.Stats
	merged.Flush(&stats)
	return stats.DominanceTests()
}
