package physical_test

import (
	"fmt"
	"math"
	"testing"

	"skysql/internal/catalog"
	"skysql/internal/cluster"
	"skysql/internal/core"
	"skysql/internal/datagen"
	"skysql/internal/physical"
	"skysql/internal/storage"
	"skysql/internal/types"
)

// TestSegmentLocalSkylineMorselBudget runs the scan_segments query shape —
// a zone-map-pruned id range, a d1 filter, a complete d=4 skyline over
// independent data — over file-backed segments and over the same rows in
// memory, with the columnar kernel on and off. The morsel budget is per
// stage, so the segment scan's first round is four morsels per executor
// for the whole stage, not per segment. Whatever the cut, the answer is
// bit-identical to the same query under a 512-row morsel target, without
// morsels, and to the plain-SQL rewrite.
func TestSegmentLocalSkylineMorselBudget(t *testing.T) {
	const (
		executors = 4
		segRows   = 4096
		n         = 7 * segRows
	)
	tab := datagen.Synthetic(datagen.Independent, n, 4, datagen.Config{Seed: 29, Complete: true})
	store, err := storage.FromRows(tab.Rows, tab.Schema, t.TempDir(), "seg", segRows)
	if err != nil {
		t.Fatal(err)
	}
	mem, err := catalog.NewTable("mem", tab.Schema, tab.Rows)
	if err != nil {
		t.Fatal(err)
	}
	cat := catalog.New()
	cat.Register(mem)
	cat.Register(catalog.NewSegmentTable("seg", store))
	eng := core.NewEngine(cat)
	query := func(table string) string {
		return fmt.Sprintf("SELECT * FROM %s WHERE id >= %d AND d1 < 0.5 SKYLINE OF COMPLETE d1 MIN, d2 MIN, d3 MIN, d4 MIN", table, n/2)
	}

	rewritten, err := core.RewriteSkylineStatement(query("mem"), false)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := eng.Query(rewritten, executors, physical.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(ref.Rows) < 10 {
		t.Fatalf("the rewrite answers %d rows; too few to prove anything", len(ref.Rows))
	}

	run := func(table string, opts physical.Options, morsels bool, target int) ([]types.Row, *cluster.Metrics) {
		t.Helper()
		c, err := eng.CompileSQL(query(table), opts)
		if err != nil {
			t.Fatal(err)
		}
		ctx := cluster.NewContext(executors)
		ctx.MorselParallel = morsels
		ctx.MorselTargetRows = target
		ctx.DecodeAtScan = !opts.DisableColumnarKernel
		res, err := eng.RunCtx(c, ctx)
		if err != nil {
			t.Fatal(err)
		}
		return res.Rows, ctx.Metrics
	}

	for _, table := range []string{"mem", "seg"} {
		for _, kernel := range []bool{true, false} {
			opts := physical.Options{DisableColumnarKernel: !kernel}
			label := fmt.Sprintf("%s/kernel=%v", table, kernel)
			got, m := run(table, opts, true, 0)
			if table == "seg" {
				// Four segments survive the prune, 16 384 rows: 16 morsels
				// for the stage, four per segment.
				if st := m.StageTimes(); len(st) == 0 || st[0].Tasks != 4*executors {
					t.Errorf("%s: segment stage ran %+v, want %d morsels in its first round", label, st, 4*executors)
				}
			}
			sameBits(t, label+" vs rewrite", ref.Rows, got)
			small, _ := run(table, opts, true, 512)
			sameBits(t, label+" vs 512-row morsels", got, small)
			whole, _ := run(table, opts, false, 0)
			sameBits(t, label+" vs no morsels", got, whole)
		}
	}
}

// sameBits requires the same rows in the same order, floats compared by
// bit pattern.
func sameBits(t *testing.T, label string, want, got []types.Row) {
	t.Helper()
	if len(want) != len(got) {
		t.Fatalf("%s: %d rows, want %d", label, len(got), len(want))
	}
	for i := range want {
		for c, w := range want[i] {
			g := got[i][c]
			same := w.Kind() == g.Kind()
			if same && w.Kind() == types.KindFloat {
				same = math.Float64bits(w.AsFloat()) == math.Float64bits(g.AsFloat())
			} else if same {
				same = w.String() == g.String()
			}
			if !same {
				t.Fatalf("%s: row %d column %d is %v, want %v", label, i, c, g, w)
			}
		}
	}
}
