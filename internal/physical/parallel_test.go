package physical

import (
	"fmt"
	"math/rand"
	"testing"

	"skysql/internal/cluster"
	"skysql/internal/expr"
	"skysql/internal/plan"
	"skysql/internal/types"
)

// TestMorselParallelBitIdentityAllStrategies is the morsel-runtime
// contract: for every SkylineStrategy (complete and incomplete data,
// distinct both ways, with the kernel on and off) the morsel-parallel
// execution — on the work-stealing pool and on the Simulator alike —
// must be row-for-row identical to whole-partition execution. Run under
// -race this also exercises the pool's memory-safety contract: sliced
// sidecar views and per-chunk batch views share only read-only decoded
// storage.
func TestMorselParallelBitIdentityAllStrategies(t *testing.T) {
	ablations := []struct {
		name string
		opts Options
	}{
		{"default", Options{}},
		{"nokernel", Options{DisableColumnarKernel: true}},
	}
	pool := cluster.NewWorkerPool(4)
	defer pool.Close()
	r := rand.New(rand.NewSource(31))
	for _, nullable := range []bool{false, true} {
		nRows := 160
		data := make([][]int64, nRows)
		for i := range data {
			data[i] = []int64{int64(r.Intn(15)), int64(r.Intn(15)), int64(r.Intn(4))}
		}
		name := "mcomplete"
		if nullable {
			name = "mincomplete"
		}
		tab := intTable(t, name, []string{"a", "b", "c"}, data)
		if nullable {
			tab.Schema.Fields[0].Nullable = true
			tab.Schema.Fields[1].Nullable = true
			for i := 0; i < nRows; i += 5 {
				tab.Rows[i][i%2] = types.Null
			}
		}
		scan := plan.NewScan(tab, name)
		dims := []*expr.SkylineDimension{
			expr.NewSkylineDimension(expr.NewBoundRef(0, "a", types.KindInt, nullable), expr.SkyMin),
			expr.NewSkylineDimension(expr.NewBoundRef(1, "b", types.KindInt, nullable), expr.SkyMax),
			expr.NewSkylineDimension(expr.NewBoundRef(2, "c", types.KindInt, false), expr.SkyDiff),
		}
		for _, distinct := range []bool{false, true} {
			sky := plan.NewSkylineOperator(distinct, false, dims, scan)
			for _, st := range allStrategies {
				for _, ab := range ablations {
					label := fmt.Sprintf("%s/%v/distinct=%v/%s", name, st, distinct, ab.name)
					opts := ab.opts
					opts.Strategy = st
					op, err := Plan(sky, opts)
					if err != nil {
						t.Fatalf("%s: plan: %v", label, err)
					}

					serialCtx := cluster.NewContext(4)
					serial, err := Execute(op, serialCtx)
					if err != nil {
						t.Fatalf("%s: serial execute: %v", label, err)
					}

					poolCtx := cluster.NewContext(4)
					poolCtx.Runner = pool
					poolCtx.MorselParallel = true
					poolCtx.MorselTargetRows = 16
					pooled, err := Execute(op, poolCtx)
					if err != nil {
						t.Fatalf("%s: pool execute: %v", label, err)
					}
					assertSameRows(t, label+"/pool", serial, pooled)

					simCtx := cluster.NewContext(4)
					simCtx.Runner = &cluster.Simulator{Executors: 4}
					simCtx.MorselParallel = true
					simCtx.MorselTargetRows = 16
					simulated, err := Execute(op, simCtx)
					if err != nil {
						t.Fatalf("%s: simulated execute: %v", label, err)
					}
					assertSameRows(t, label+"/simulate", serial, simulated)

					if serialCtx.Metrics.Count(cluster.Morsels) != 0 {
						t.Errorf("%s: serial run counted %d morsels, want 0",
							label, serialCtx.Metrics.Count(cluster.Morsels))
					}
					// Not every combo has a morsel opportunity (incomplete
					// local skylines are not splittable; boxed global
					// kernels have no parallel twin; the incomplete
					// strategy's local pass can shrink the global input
					// below two morsels) — but complete-dominance plans on
					// complete data with the default options always do: the
					// global kernel twin chunks the 160-row merged batch.
					if !nullable && ab.name == "default" && st != SkylineDistributedIncomplete &&
						poolCtx.Metrics.Count(cluster.Morsels) == 0 {
						t.Errorf("%s: morsel-parallel run counted no morsels on a 160-row input with target 16", label)
					}
					if poolCtx.Metrics.Count(cluster.Morsels) != simCtx.Metrics.Count(cluster.Morsels) {
						t.Errorf("%s: pool counted %d morsels, simulate %d — morsel layout must be deterministic",
							label, poolCtx.Metrics.Count(cluster.Morsels), simCtx.Metrics.Count(cluster.Morsels))
					}
				}
			}
		}
	}
}
