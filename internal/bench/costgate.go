package bench

import (
	"fmt"
	"io"

	"skysql/internal/catalog"
	"skysql/internal/core"
	"skysql/internal/datagen"
	"skysql/internal/physical"
)

// runCostGate is the cost-gated-planning experiment behind BENCH_PR5.json:
// the filtered skyline plan of the vectorized ablation — scan → WHERE d1 <
// cut → local skyline → gather → global skyline — runs four ways over
// correlated and anti-correlated data at three filter selectivities:
//
//	boxed      kernel and vectorization off (the reference floor).
//	ungated    full columnar fast path, cost gate disabled: the stage
//	           always decodes at the scan (the PR 4 behaviour, whose
//	           correlated rows show decode-at-scan losing to boxed when
//	           the filter is selective).
//	gated      cost gate on: the stage decodes at the scan only when the
//	           estimated selectivity × decode width says the eager decode
//	           beats deferring it past the filter.
//	gated+aqe  gated plus cost-chosen adaptive exchanges — the full
//	           default configuration of a session.
//
// The deterministic counters make the gate visible: on gated selective
// runs VectorizedBatches drops to zero (the filter runs boxed) while
// BatchesDecoded stays one per post-filter partition, and the adaptive
// variant's AdaptivePartitions records the collapsed task counts.
func runCostGate(cfg Config, w io.Writer) error {
	n := cfg.scaled(10000)
	const dims = 4
	const executors = 8
	cuts := []float64{0.25, 0.5, 0.75}

	type variant struct {
		name            string
		noKernel        bool
		noVector        bool
		noCostGate      bool
		adaptiveDefault bool
	}
	variants := []variant{
		{"boxed", true, true, true, false},
		{"ungated", false, false, true, false},
		{"gated", false, false, false, false},
		{"gated+aqe", false, false, false, true},
	}
	alg := core.Algorithm{Name: "distributed complete", Strategy: physical.SkylineDistributedComplete}

	for _, dist := range []datagen.Distribution{datagen.Correlated, datagen.AntiCorrelated} {
		tab := datagen.Synthetic(dist, n, dims, datagen.Config{Seed: cfg.Seed, Complete: true})
		cat := catalog.New()
		cat.Register(tab)
		engine := core.NewEngine(cat)

		fmt.Fprintf(w, "costgate | distribution=%s tuples=%d dimensions=%d executors=%d algorithm=%s\n", dist, n, dims, executors, alg.Name)
		fmt.Fprintf(w, "%-12s%11s%13s%11s%13s%9s%13s%14s\n",
			"selectivity", "boxed [s]", "ungated [s]", "gated [s]", "gated+aqe", "gate", "vec. u/g", "decoded u/g/a")
		for _, cut := range cuts {
			query := fmt.Sprintf("SELECT * FROM t WHERE d1 < %g SKYLINE OF COMPLETE d1 MIN, d2 MIN, d3 MIN, d4 MIN", cut)
			secs := make([]float64, len(variants))
			decoded := make([]int64, len(variants))
			vec := make([]int64, len(variants))
			gateChoice := "n.a."
			for vi, v := range variants {
				compiled, err := engine.CompileSQL(query, physical.Options{
					Strategy:               alg.Strategy,
					DisableColumnarKernel:  v.noKernel,
					DisableVectorizedExprs: v.noVector,
				})
				if err != nil {
					return fmt.Errorf("costgate %s/%s: %w", dist, v.name, err)
				}
				ctx := modelContext(executors)
				ctx.DisableCostGate = v.noCostGate
				ctx.AdaptiveExchange = v.adaptiveDefault
				ctx.DecodeAtScan = !v.noVector && !v.noKernel
				res, err := runModelled(engine, compiled, ctx)
				if err != nil {
					return fmt.Errorf("costgate %s/%s: %w", dist, v.name, err)
				}
				secs[vi] = res.Duration.Seconds()
				decoded[vi] = res.Metrics.BatchesDecoded()
				vec[vi] = res.Metrics.VectorizedBatches()
				if v.name == "gated" {
					for _, d := range res.Metrics.CostDecisions() {
						if d.Site == "decode-at-scan" {
							gateChoice = d.Choice
						}
					}
				}
				if cfg.Observer != nil {
					m := Measurement{Spec: Spec{Dataset: "synthetic_" + dist.String(), Complete: true,
						Dimensions: dims, Tuples: n, Executors: executors, Algorithm: alg,
						NoKernel: v.noKernel, NoVector: v.noVector,
						NoCostGate: v.noCostGate, AdaptiveDefault: v.adaptiveDefault,
						Variant: fmt.Sprintf("d1<%g", cut)}}
					cfg.fill(&m, res)
					cfg.Observer(m)
				}
			}
			fmt.Fprintf(w, "d1<%-9g%11.3f%13.3f%11.3f%13.3f%9s%13s%14s\n",
				cut, secs[0], secs[1], secs[2], secs[3], gateChoice,
				fmt.Sprintf("%d/%d", vec[1], vec[2]),
				fmt.Sprintf("%d/%d/%d", decoded[1], decoded[2], decoded[3]))
		}
		fmt.Fprintln(w)
	}
	return nil
}
