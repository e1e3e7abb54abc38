package bench

import (
	"fmt"
	"io"

	"skysql/internal/catalog"
	"skysql/internal/cluster"
	"skysql/internal/core"
	"skysql/internal/datagen"
	"skysql/internal/physical"
)

// runKernel is the columnar-dominance-kernel ablation, the fixed synthetic
// workload behind the BENCH_*.json trajectory: every skyline algorithm
// family runs the same query twice — once through the decode-once columnar
// kernel and once through the boxed CompareFunc path — so wall time,
// dominance tests, and scalar comparisons are directly comparable across
// PRs. Complete algorithms run on a complete independent dataset; the
// incomplete algorithm runs on the same data with NULLs injected.
func runKernel(cfg Config, w io.Writer) error {
	n := cfg.scaled(20000)
	const dims = 4
	const executors = 5

	type workload struct {
		label    string
		complete bool
		algs     []core.Algorithm
	}
	workloads := []workload{
		{"synthetic_independent", true, []core.Algorithm{
			{Name: "distributed complete", Strategy: physical.SkylineDistributedComplete},
			{Name: "non-distributed complete", Strategy: physical.SkylineNonDistributedComplete},
		}},
		{"synthetic_independent_incomplete", false, []core.Algorithm{
			{Name: "distributed incomplete", Strategy: physical.SkylineDistributedIncomplete},
		}},
	}

	for _, wl := range workloads {
		gen := datagen.Config{Seed: cfg.Seed, Complete: wl.complete, NullFraction: 0.08}
		tab := datagen.Synthetic(datagen.Independent, n, dims, gen)
		cat := catalog.New()
		cat.Register(tab)
		engine := core.NewEngine(cat)
		var qdims []datagen.Dim
		for d := 1; d <= dims; d++ {
			qdims = append(qdims, datagen.Dim{Col: fmt.Sprintf("d%d", d), Dir: "MIN"})
		}
		query := datagen.SkylineQuery("t", qdims, false, wl.complete)

		fmt.Fprintf(w, "kernel | dataset=%s tuples=%d dimensions=%d\n", wl.label, n, dims)
		fmt.Fprintf(w, "%-26s%12s%12s%16s%16s%10s\n",
			"algorithm", "boxed [s]", "kernel [s]", "dom. tests", "comparisons", "speedup")
		for _, alg := range wl.algs {
			// Index 0 is the boxed run, 1 the kernel run, for every counter.
			var secs [2]float64
			var tests, comps [2]int64
			for _, noKernel := range []bool{true, false} {
				compiled, err := engine.CompileSQL(query, physical.Options{
					Strategy:              alg.Strategy,
					DisableColumnarKernel: noKernel,
				})
				if err != nil {
					return fmt.Errorf("kernel %s/%s: %w", wl.label, alg.Name, err)
				}
				ctx := cluster.NewContext(executors)
				// Pin the ungated decode path (like the exchange and
				// vectorized ablations) so this trajectory can never pick up
				// cost-gate behaviour if the workload ever grows a filter.
				ctx.DisableCostGate = true
				res, err := engine.RunCtx(compiled, ctx)
				if err != nil {
					return fmt.Errorf("kernel %s/%s: %w", wl.label, alg.Name, err)
				}
				idx := 0
				if !noKernel {
					idx = 1
				}
				secs[idx] = res.Duration.Seconds()
				tests[idx] = res.Metrics.Sky.DominanceTests()
				comps[idx] = res.Metrics.Sky.Comparisons()
				if cfg.Observer != nil {
					m := Measurement{Spec: Spec{Dataset: wl.label, Complete: wl.complete,
						Dimensions: dims, Tuples: n, Executors: executors,
						Algorithm: alg, NoKernel: noKernel, NoCostGate: true}}
					cfg.fill(&m, res)
					cfg.Observer(m)
				}
			}
			speedup := "n.a."
			if secs[1] > 0 {
				speedup = fmt.Sprintf("%.2fx", secs[0]/secs[1])
			}
			fmt.Fprintf(w, "%-26s%12.3f%12.3f%16s%16s%10s\n",
				alg.Name, secs[0], secs[1], bothCounts(tests), bothCounts(comps), speedup)
		}
		fmt.Fprintln(w)
	}
	return nil
}

// bothCounts renders a boxed/kernel counter pair: one number when the two
// paths agree (the common case), "boxed/kernel" when their accounting
// differs (e.g. the 2-dimension dense loop counts comparisons in bulk).
func bothCounts(c [2]int64) string {
	if c[0] == c[1] {
		return fmt.Sprintf("%d", c[0])
	}
	return fmt.Sprintf("%d/%d", c[0], c[1])
}
