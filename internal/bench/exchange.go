package bench

import (
	"fmt"
	"io"
	"strings"

	"skysql/internal/catalog"
	"skysql/internal/core"
	"skysql/internal/datagen"
	"skysql/internal/physical"
)

// runExchange is the columnar-data-plane ablation behind BENCH_PR3.json:
// for each partitioning scheme of §7 (plus the paper's default distributed
// plan) it runs the same skyline query three ways — boxed path (no kernel,
// no sidecars), columnar path (batch sidecars flow through the exchanges,
// making the global pass decode-free), and columnar + adaptive
// post-exchange partitioning — over correlated and anti-correlated data.
// The batches-decoded column makes decode-freeness visible: the boxed path
// decodes nothing, the sidecar path decodes exactly once per input
// partition, and a sidecar-less kernel would decode once more at the
// global hop.
func runExchange(cfg Config, w io.Writer) error {
	n := cfg.scaled(10000)
	const dims = 4
	const executors = 8
	// Collapse to ~n/2048 partitions; on the 10k-point workloads this
	// roughly halves the task count, trading a little local parallelism
	// for more selective local skylines (a smaller global phase).
	const adaptiveTarget = 2048

	algs := []core.Algorithm{
		{Name: "distributed complete", Strategy: physical.SkylineDistributedComplete},
		{Name: "grid complete", Strategy: physical.SkylineGridComplete},
		{Name: "angle complete", Strategy: physical.SkylineAngleComplete},
		{Name: "zorder complete", Strategy: physical.SkylineZorderComplete},
	}
	type variant struct {
		name     string
		noKernel bool
		adaptive int
	}
	variants := []variant{
		{"boxed", true, 0},
		{"sidecar", false, 0},
		{"sidecar+adaptive", false, adaptiveTarget},
	}

	for _, dist := range []datagen.Distribution{datagen.Correlated, datagen.AntiCorrelated} {
		tab := datagen.Synthetic(dist, n, dims, datagen.Config{Seed: cfg.Seed, Complete: true})
		cat := catalog.New()
		cat.Register(tab)
		engine := core.NewEngine(cat)
		var qdims []datagen.Dim
		for d := 1; d <= dims; d++ {
			qdims = append(qdims, datagen.Dim{Col: fmt.Sprintf("d%d", d), Dir: "MIN"})
		}
		query := datagen.SkylineQuery("t", qdims, false, true)

		fmt.Fprintf(w, "exchange | distribution=%s tuples=%d dimensions=%d executors=%d\n", dist, n, dims, executors)
		fmt.Fprintf(w, "%-22s%12s%13s%14s%15s%14s%10s\n",
			"algorithm", "boxed [s]", "sidecar [s]", "adaptive [s]", "decoded b/s/a", "parts chosen", "speedup")
		for _, alg := range algs {
			var secs [3]float64
			var decoded [3]int64
			var parts string
			for vi, v := range variants {
				compiled, err := engine.CompileSQL(query, physical.Options{
					Strategy:              alg.Strategy,
					DisableColumnarKernel: v.noKernel,
				})
				if err != nil {
					return fmt.Errorf("exchange %s/%s: %w", dist, alg.Name, err)
				}
				ctx := modelContext(executors)
				ctx.TargetRowsPerPartition = v.adaptive
				// Pin the ungated path; the costgate experiment measures the
				// gate (no filters here, so this is purely declarative).
				ctx.DisableCostGate = true
				res, err := runModelled(engine, compiled, ctx)
				if err != nil {
					return fmt.Errorf("exchange %s/%s/%s: %w", dist, alg.Name, v.name, err)
				}
				secs[vi] = res.Duration.Seconds()
				decoded[vi] = res.Metrics.BatchesDecoded()
				if v.adaptive > 0 {
					var chosen []string
					for _, d := range res.Metrics.AdaptiveDecisions() {
						chosen = append(chosen, fmt.Sprintf("%d→%d", d.Static, d.Chosen))
					}
					parts = strings.Join(chosen, ",")
				}
				if cfg.Observer != nil {
					m := Measurement{Spec: Spec{Dataset: "synthetic_" + dist.String(), Complete: true,
						Dimensions: dims, Tuples: n, Executors: executors,
						Algorithm: alg, NoKernel: v.noKernel, AdaptiveTarget: v.adaptive, NoCostGate: true}}
					cfg.fill(&m, res)
					cfg.Observer(m)
				}
			}
			speedup := "n.a."
			if best := minNonZero(secs[1], secs[2]); best > 0 {
				speedup = fmt.Sprintf("%.2fx", secs[0]/best)
			}
			fmt.Fprintf(w, "%-22s%12.3f%13.3f%14.3f%15s%14s%10s\n",
				alg.Name, secs[0], secs[1], secs[2],
				fmt.Sprintf("%d/%d/%d", decoded[0], decoded[1], decoded[2]), parts, speedup)
		}
		fmt.Fprintln(w)
	}
	return nil
}

// minNonZero returns the smaller positive of a and b (0 when neither is).
func minNonZero(a, b float64) float64 {
	switch {
	case a > 0 && (b <= 0 || a < b):
		return a
	case b > 0:
		return b
	}
	return 0
}
