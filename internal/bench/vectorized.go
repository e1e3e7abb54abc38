package bench

import (
	"fmt"
	"io"

	"skysql/internal/catalog"
	"skysql/internal/core"
	"skysql/internal/datagen"
	"skysql/internal/physical"
)

// runVectorized is the vectorized-expression-engine ablation behind
// BENCH_PR4.json: the same filtered skyline plan — scan → WHERE d1 < c
// (numeric predicate) → local skyline → gather → global skyline — runs
// three ways over correlated and anti-correlated data at several filter
// selectivities:
//
//	boxed       kernel and vectorization off: row-at-a-time predicate,
//	            boxed dominance tests (the PR 2 baseline's off-side).
//	kernel      columnar dominance kernel and sidecars on, expressions
//	            boxed: the filter evaluates per row, and the local skyline
//	            decodes the post-filter partition (the PR 3 state).
//	vectorized  full data plane: the stage decodes at the scan, the filter
//	            reduces a selection bitmap over the decoded columns, and
//	            the skyline reuses the surviving batch.
//
// The decoded/vectorized columns make the mechanics visible: the
// vectorized plan decodes once per input partition and reports one
// vectorized pass per partition, while the kernel plan pays its decode
// after the filter and reports zero.
func runVectorized(cfg Config, w io.Writer) error {
	n := cfg.scaled(10000)
	const dims = 4
	const executors = 8
	// Synthetic dimension values are uniform-ish in [0,1]; a predicate on
	// d1 at these cut points sweeps the filter selectivity.
	cuts := []float64{0.25, 0.5, 0.75}

	type variant struct {
		name     string
		noKernel bool
		noVector bool
	}
	variants := []variant{
		{"boxed", true, true},
		{"kernel", false, true},
		{"vectorized", false, false},
	}
	alg := core.Algorithm{Name: "distributed complete", Strategy: physical.SkylineDistributedComplete}

	for _, dist := range []datagen.Distribution{datagen.Correlated, datagen.AntiCorrelated} {
		tab := datagen.Synthetic(dist, n, dims, datagen.Config{Seed: cfg.Seed, Complete: true})
		cat := catalog.New()
		cat.Register(tab)
		engine := core.NewEngine(cat)

		fmt.Fprintf(w, "vectorized | distribution=%s tuples=%d dimensions=%d executors=%d algorithm=%s\n", dist, n, dims, executors, alg.Name)
		fmt.Fprintf(w, "%-12s%12s%13s%16s%16s%12s%10s\n",
			"selectivity", "boxed [s]", "kernel [s]", "vectorized [s]", "decoded b/k/v", "vec. passes", "speedup")
		for _, cut := range cuts {
			query := fmt.Sprintf("SELECT * FROM t WHERE d1 < %g SKYLINE OF COMPLETE d1 MIN, d2 MIN, d3 MIN, d4 MIN", cut)
			var secs [3]float64
			var decoded [3]int64
			var vecPasses int64
			for vi, v := range variants {
				compiled, err := engine.CompileSQL(query, physical.Options{
					Strategy:               alg.Strategy,
					DisableColumnarKernel:  v.noKernel,
					DisableVectorizedExprs: v.noVector,
				})
				if err != nil {
					return fmt.Errorf("vectorized %s/%s: %w", dist, v.name, err)
				}
				ctx := modelContext(executors)
				// Pin the ungated decode-at-scan path: this experiment ablates
				// the vectorized engine itself, and its BENCH_PR4 trajectory
				// must stay comparable across PRs. The costgate experiment
				// measures the gate.
				ctx.DisableCostGate = true
				ctx.DecodeAtScan = !v.noVector && !v.noKernel
				res, err := runModelled(engine, compiled, ctx)
				if err != nil {
					return fmt.Errorf("vectorized %s/%s: %w", dist, v.name, err)
				}
				secs[vi] = res.Duration.Seconds()
				decoded[vi] = res.Metrics.BatchesDecoded()
				if !v.noVector {
					vecPasses = res.Metrics.VectorizedBatches()
				}
				if cfg.Observer != nil {
					m := Measurement{Spec: Spec{Dataset: "synthetic_" + dist.String(), Complete: true,
						Dimensions: dims, Tuples: n, Executors: executors,
						Algorithm: alg, NoKernel: v.noKernel, NoVector: v.noVector, NoCostGate: true,
						Variant: fmt.Sprintf("d1<%g", cut)}}
					cfg.fill(&m, res)
					cfg.Observer(m)
				}
			}
			speedup := "n.a."
			if secs[2] > 0 {
				speedup = fmt.Sprintf("%.2fx", secs[0]/secs[2])
			}
			fmt.Fprintf(w, "d1<%-9g%12.3f%13.3f%16.3f%16s%12d%10s\n",
				cut, secs[0], secs[1], secs[2],
				fmt.Sprintf("%d/%d/%d", decoded[0], decoded[1], decoded[2]), vecPasses, speedup)
		}
		fmt.Fprintln(w)
	}
	return nil
}
