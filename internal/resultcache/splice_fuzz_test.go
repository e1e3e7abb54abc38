package resultcache

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"

	"skysql/internal/catalog"
	"skysql/internal/cluster"
	"skysql/internal/core"
	"skysql/internal/physical"
	"skysql/internal/skyline"
	"skysql/internal/types"
)

// The splice differential: whatever an append does to a cached skyline,
// the text the entry keeps is byte for byte a fresh encode of its rows,
// cut at the row boundaries it records, and what a hit serves is the cold
// recompute's rows as JSON — or, when they hold a DOUBLE JSON cannot
// carry, the same refusal naming the same cell. An append the kernel
// cannot decode invalidates the entry, and the next read is that cold
// recompute.

// spliceSchema: id and note are never skyline dimensions; s is a label
// that a DIFF dimension may group on.
var spliceSchema = types.NewSchema(
	types.Field{Name: "id", Type: types.KindInt},
	types.Field{Name: "a", Type: types.KindInt},
	types.Field{Name: "c", Type: types.KindFloat},
	types.Field{Name: "d", Type: types.KindFloat},
	types.Field{Name: "s", Type: types.KindString},
	types.Field{Name: "note", Type: types.KindFloat},
)

// spliceLabels are strings whose JSON form escapes, or that look like the
// text's own row boundaries.
var spliceLabels = []string{
	"plain", "]", ",", `"`, `\`, "],[", "<b>&", " ", "\xff\xfe", "a\"],[\"b", "",
}

type spliceRun struct {
	rng    *rand.Rand
	query  string
	dims   []int // table ordinals of the MIN/MAX dimensions; c (2) is always one
	max    []bool
	nextID int64
	tab    *catalog.Table
	eng    *core.Engine
}

func (r *spliceRun) row() types.Row {
	r.nextID++
	id := r.nextID
	if r.rng.Intn(6) == 0 {
		id += 1 << 60 // beyond 2⁵³: exact in the text, never a dimension
	}
	num := func() types.Value {
		if r.rng.Intn(10) == 0 {
			return types.Float(math.Copysign(0, -1))
		}
		return types.Float(float64(r.rng.Intn(24)) / 2)
	}
	return types.Row{types.Int(id), types.Int(int64(r.rng.Intn(24))), num(), num(),
		types.Str(spliceLabels[r.rng.Intn(len(spliceLabels))]), types.Float(r.rng.NormFloat64())}
}

// improve returns a copy of row better than it by 1/64 in dimension c,
// equal elsewhere: it dominates row and, since dimension values sit on a
// grid of halves, no other row of a skyline holding row.
func (r *spliceRun) improve(row types.Row) types.Row {
	out := row.Clone()
	r.nextID++
	out[0] = types.Int(r.nextID)
	step := 1.0 / 64
	if !r.max[0] {
		step = -step
	}
	out[2] = types.Float(out[2].AsFloat() + step)
	return out
}

// extreme is best (or worst) in every MIN/MAX dimension.
func (r *spliceRun) extreme(best bool) types.Row {
	out := r.row()
	for i, col := range r.dims {
		v := 0.0
		if r.max[i] == best {
			v = 40
		}
		if col == 1 {
			out[col] = types.Int(int64(v))
		} else {
			out[col] = types.Float(v)
		}
	}
	return out
}

func newSpliceRun(t *testing.T, seed int64, shape uint8) *spliceRun {
	t.Helper()
	r := &spliceRun{rng: rand.New(rand.NewSource(seed))}
	names := []string{"id", "a", "c", "d"}
	r.dims = []int{2}
	if shape&1 != 0 || shape&2 == 0 {
		r.dims = append(r.dims, 1)
	}
	if shape&2 != 0 {
		r.dims = append(r.dims, 3)
	}
	var clause []string
	for i, col := range r.dims {
		r.max = append(r.max, shape&(4<<i) != 0)
		dir := "MIN"
		if r.max[i] {
			dir = "MAX"
		}
		clause = append(clause, names[col]+" "+dir)
	}
	if shape&32 != 0 {
		clause = append(clause, "s DIFF")
	}
	where := ""
	if shape&64 != 0 {
		where = " WHERE a < 20 AND d >= 1"
	}
	distinct := ""
	if shape&128 != 0 {
		distinct = "DISTINCT "
	}
	r.query = "SELECT * FROM t" + where + " SKYLINE OF " + distinct + strings.Join(clause, ", ")
	base := make([]types.Row, 20+r.rng.Intn(60))
	for i := range base {
		base[i] = r.row()
	}
	tab, err := catalog.NewTable("t", spliceSchema, base)
	if err != nil {
		t.Fatal(err)
	}
	cat := catalog.New()
	cat.Register(tab)
	r.tab, r.eng = tab, core.NewEngine(cat)
	return r
}

// batch draws one append from a script byte, against the entry's rows.
func (r *spliceRun) batch(op byte, cached []types.Row) []types.Row {
	var out []types.Row
	switch op % 8 {
	case 0: // fresh rows
		for i := 0; i < 1+int(op/8)%6; i++ {
			out = append(out, r.row())
		}
	case 1: // one row over everything: evicts the whole skyline
		out = append(out, r.extreme(true))
	case 2: // exact duplicates of cached rows
		for i := 0; i < 3 && len(cached) > 0; i++ {
			out = append(out, cached[r.rng.Intn(len(cached))].Clone())
		}
	case 3: // no survivor
		out = append(out, r.extreme(false), r.extreme(false))
	case 4, 5: // evict the first (4) or the last (5) cached row alone
		if len(cached) > 0 {
			victim := cached[0]
			if op%8 == 5 {
				victim = cached[len(cached)-1]
			}
			out = append(out, r.improve(victim))
		}
	case 6: // a survivor JSON cannot carry
		bad := r.extreme(true)
		bad[5] = types.Float([]float64{math.NaN(), math.Inf(1), math.Inf(-1)}[int(op/8)%3])
		out = append(out, bad)
	case 7: // a row the kernel cannot decode: a dimension beyond 2⁵³
		bad := r.row()
		bad[1] = types.Int(1<<60 + int64(op))
		out = append(out, bad, r.row())
	}
	return out
}

// serveText answers the query from the cache the way skysqld does.
func (r *spliceRun) serveText(t *testing.T, c *Cache) ([]byte, error) {
	t.Helper()
	compiled, err := r.eng.CompileSQL(r.query, physical.Options{ResultCache: c})
	if err != nil {
		t.Fatalf("compile %q: %v", r.query, err)
	}
	res, err := r.eng.ExecuteCtx(compiled, cluster.NewContext(2))
	if err != nil {
		t.Fatalf("run %q: %v", r.query, err)
	}
	return res.AppendRowsJSON(nil)
}

// checkSplicedEntry holds the single entry's text to its rows: present only
// when the rows all have a JSON form, and then a fresh encode of them with
// offsets cutting out each row.
func checkSplicedEntry(t *testing.T, label string, c *Cache) {
	t.Helper()
	e := c.lru.Front().Value.(*entry)
	_, err := types.AppendRowsJSON(nil, e.rows)
	switch {
	case e.encoded == nil:
		if e.ends != nil {
			t.Fatalf("%s: row offsets without text", label)
		}
	case err != nil:
		t.Fatalf("%s: the entry kept text for rows JSON cannot carry (%v)", label, err)
	default:
		assertText(t, label, e)
	}
	checkRecordedSizes(t, label, c)
}

// sameAnswer holds a served answer to a fresh encode of the cold rows:
// the same bytes, or a refusal naming the same cell.
func sameAnswer(t *testing.T, label string, got []byte, gotErr error, cold []types.Row) {
	t.Helper()
	want, wantErr := types.AppendRowsJSON(nil, cold)
	if wantErr == nil {
		if gotErr != nil || !bytes.Equal(got, want) {
			t.Fatalf("%s: served %s (err %v), the cold recompute encodes to %s", label, got, gotErr, want)
		}
		return
	}
	var g, w *types.NonFiniteError
	if !errors.As(gotErr, &g) || !errors.As(wantErr, &w) || g.Row != w.Row || g.Col != w.Col {
		t.Fatalf("%s: served err %v, the cold recompute's encode fails with %v", label, gotErr, wantErr)
	}
}

// checkSplice plays script against the entry of one query shape, and
// counts, per kind of append, the upgrades after which the entry still
// held text.
func checkSplice(t *testing.T, seed int64, shape uint8, script []byte) (kept [8]int) {
	r := newSpliceRun(t, seed, shape)
	c := New(0)
	if len(script) > 24 {
		script = script[:24]
	}
	for step, op := range script {
		label := fmt.Sprintf("seed %d shape %d step %d op %d %q", seed, shape, step, op, r.query)
		cold := coldRowsOf(t, r.eng, r.query)
		got, err := r.serveText(t, c) // leaves the text on the entry when the rows have one
		sameAnswer(t, label+" before the append", got, err, cold)
		if c.lru.Len() != 1 {
			t.Fatalf("%s: %d entries, want 1", label, c.lru.Len())
		}
		e := c.lru.Front().Value.(*entry)
		rows := r.batch(op, e.rows)
		stored, err := r.tab.Append(rows...)
		if err != nil {
			t.Fatal(err)
		}
		cold = coldRowsOf(t, r.eng, r.query)
		if upgradable(t, e, stored) {
			if up, inv := c.TableChanged(r.tab, stored); up != 1 || inv != 0 {
				t.Fatalf("%s: upgraded=%d invalidated=%d, want 1 and 0", label, up, inv)
			}
			checkSplicedEntry(t, label, c)
			if c.lru.Front().Value.(*entry).encoded != nil {
				kept[op%8]++
			}
			assertIdentical(t, c.lru.Front().Value.(*entry).rows, cold, label+": upgraded rows vs cold recompute")
		} else if up, inv := c.TableChanged(r.tab, stored); up != 0 || inv != 1 || c.lru.Len() != 0 {
			t.Fatalf("%s: upgraded=%d invalidated=%d entries=%d, want 0, 1 and 0", label, up, inv, c.lru.Len())
		}
		got, err = r.serveText(t, c)
		sameAnswer(t, label+" after the append", got, err, cold)
	}
	return kept
}

// upgradable reports whether the kernel can absorb rows into e: no row
// that passes the filters does, or the entry's rows and those rows all
// decode. Otherwise the append invalidates the entry.
func upgradable(t *testing.T, e *entry, rows []types.Row) bool {
	t.Helper()
	delta, ok := e.maint.delta(rows)
	if !ok {
		t.Fatalf("delta refused complete rows %v", rows)
	}
	if len(delta) == 0 {
		return true
	}
	_, decodes := skyline.DecodeBatch(delta, e.maint.dirs, false, nil)
	return decodes && rowsDecode(t, e.maint, e.rows)
}

// rowsDecode reports whether a fresh DecodeBatch of rows' skyline
// dimensions succeeds.
func rowsDecode(t *testing.T, m *maintenance, rows []types.Row) bool {
	t.Helper()
	pts := make([]skyline.Point, len(rows))
	for i, r := range rows {
		dims, ok := evalDims(m.dims, r)
		if !ok {
			t.Fatalf("evalDims failed on %v", r)
		}
		pts[i] = skyline.Point{Dims: dims, Row: r}
	}
	_, ok := skyline.DecodeBatch(pts, m.dirs, false, nil)
	return ok
}

func coldRowsOf(t *testing.T, eng *core.Engine, query string) []types.Row {
	t.Helper()
	compiled, err := eng.CompileSQL(query, physical.Options{})
	if err != nil {
		t.Fatalf("compile %q: %v", query, err)
	}
	res, err := eng.Run(compiled, 2)
	if err != nil {
		t.Fatalf("run %q: %v", query, err)
	}
	return res.Rows
}

// FuzzUpgradeSplice: a seed, a query shape (bits: a and/or d beside c,
// the three directions, a DIFF on the label, a filter, DISTINCT) and a
// script of appends (fresh rows, a row over everything, duplicates, no
// survivor, evicting the first or the last cached row alone, a NaN or
// ±Inf survivor, an undecodable dimension); checkSplice holds every
// upgrade's text to a fresh encode. The committed corpus under
// testdata/fuzz/FuzzUpgradeSplice runs as part of `go test`.
func FuzzUpgradeSplice(f *testing.F) {
	f.Add(int64(1), uint8(0), []byte{0, 4, 5, 3, 8, 1, 0, 2})
	f.Add(int64(2), uint8(0xff), []byte{4, 5, 0, 6, 0, 1, 3, 2, 8})
	f.Fuzz(func(t *testing.T, seed int64, shape uint8, script []byte) {
		checkSplice(t, seed, shape, script)
	})
}

// TestUpgradeSpliceScripts runs every kind of append over every shape, so
// the differential does not rest on the corpus alone, and requires the
// appends the kernel absorbs to keep the text.
func TestUpgradeSpliceScripts(t *testing.T) {
	script := []byte{0, 4, 5, 2, 3, 8, 5, 4, 7, 0, 6, 0, 1, 4, 14, 5, 0, 22}
	var kept [8]int
	for shape := 0; shape < 256; shape += 7 {
		k := checkSplice(t, int64(shape), uint8(shape), script)
		for i := range kept {
			kept[i] += k[i]
		}
	}
	t.Logf("upgrades that kept the text, by kind of append: %v", kept)
	for _, kind := range []int{0, 1, 2, 3, 4, 5} {
		if kept[kind] == 0 {
			t.Errorf("no append of kind %d kept the text: %v", kind, kept)
		}
	}
}
