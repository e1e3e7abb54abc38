package bench

import (
	"fmt"
	"io"

	"skysql/internal/catalog"
	"skysql/internal/core"
	"skysql/internal/datagen"
	"skysql/internal/physical"
)

// runAblation, the registry's `ablation` experiment (experiments.go),
// benchmarks the BNL family of the paper against the §7 partitioning
// schemes (grid, angle, Z-order) on the three classic synthetic
// distributions, whose skyline sizes differ by orders of magnitude. It
// also reports dominance-test counts, the machine-independent cost the
// paper identifies as the main cost factor (§2).
func runAblation(cfg Config, w io.Writer) error {
	algs := []core.Algorithm{
		{Name: "distributed complete", Strategy: physical.SkylineDistributedComplete},
		{Name: "non-distributed complete", Strategy: physical.SkylineNonDistributedComplete},
		{Name: "grid complete", Strategy: physical.SkylineGridComplete},
		{Name: "angle complete", Strategy: physical.SkylineAngleComplete},
		{Name: "zorder complete", Strategy: physical.SkylineZorderComplete},
	}
	n := cfg.scaled(20000)
	const dims = 4
	const executors = 5
	for _, dist := range []datagen.Distribution{datagen.Correlated, datagen.Independent, datagen.AntiCorrelated} {
		tab := datagen.Synthetic(dist, n, dims, datagen.Config{Seed: cfg.Seed, Complete: true})
		cat := catalog.New()
		cat.Register(tab)
		engine := core.NewEngine(cat)
		var qdims []datagen.Dim
		for d := 1; d <= dims; d++ {
			qdims = append(qdims, datagen.Dim{Col: fmt.Sprintf("d%d", d), Dir: "MIN"})
		}
		query := datagen.SkylineQuery("t", qdims, false, true)
		fmt.Fprintf(w, "ablation | distribution=%s tuples=%d dimensions=%d\n", dist, n, dims)
		fmt.Fprintf(w, "%-26s%12s%16s%12s\n", "algorithm", "time [s]", "dom. tests", "skyline")
		for _, alg := range algs {
			res, err := engine.Query(query, executors, physical.Options{Strategy: alg.Strategy})
			if err != nil {
				return fmt.Errorf("ablation %s/%s: %w", dist, alg.Name, err)
			}
			fmt.Fprintf(w, "%-26s%12.3f%16d%12d\n",
				alg.Name, res.Duration.Seconds(), res.Metrics.Sky.DominanceTests(), len(res.Rows))
			if cfg.Observer != nil {
				m := Measurement{Spec: Spec{Dataset: "synthetic_" + dist.String(), Complete: true,
					Dimensions: dims, Tuples: n, Executors: executors, Algorithm: alg}}
				cfg.fill(&m, res)
				cfg.Observer(m)
			}
		}
		fmt.Fprintln(w)
	}
	return nil
}
