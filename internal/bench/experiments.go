package bench

import (
	"fmt"
	"io"
	"sort"

	"skysql/internal/core"
)

// Experiment regenerates one figure/table of the paper.
type Experiment struct {
	ID    string
	Title string
	Run   func(cfg Config, w io.Writer) error
}

// Experiments returns the registry, ordered by figure number: the index of
// experiments that `skybench -experiment` takes and the root package's
// benchmarks are named after.
func Experiments() []Experiment {
	return []Experiment{
		{"fig3", "Number of dimensions vs. execution time — Inside Airbnb (Figure 3, Tables 3–4)", runFig3},
		{"fig4", "Number of dimensions vs. execution time — store_sales (Figure 4, Tables 5–6)", runFig4},
		{"fig5", "Number of input tuples vs. execution time — store_sales (Figure 5, Tables 7–8)", runFig5},
		{"fig6", "Number of executors vs. execution time — Inside Airbnb (Figure 6, Tables 9–10)", runFig6},
		{"fig7", "Number of executors vs. execution time — store_sales (Figure 7, Tables 11–12)", runFig7},
		{"fig8", "Number of executors vs. memory — Inside Airbnb (Figure 8)", runFig8},
		{"fig9", "Number of executors vs. memory — store_sales (Figure 9)", runFig9},
		{"fig10", "Number of input tuples vs. memory — store_sales, executors 3/5/10 (Figure 10)", runFig10},
		{"fig11", "Dimensions vs. time by executor count — Inside Airbnb (Figure 11)", runFig11},
		{"fig12", "Dimensions vs. time by executor count — store_sales (Figure 12)", runFig12},
		{"fig13", "Tuples vs. time by executor count — store_sales (Figure 13)", runFig13},
		{"fig14", "Executors vs. time by dimension count — Inside Airbnb (Figure 14)", runFig14},
		{"fig15", "Executors vs. time by dimension count — store_sales (Figure 15)", runFig15},
		{"fig16", "Dimensions vs. time — MusicBrainz complex queries (Figure 16)", runFig16},
		{"fig17", "Dimensions vs. memory — MusicBrainz complex queries (Figure 17)", runFig17},
		{"fig18", "Executors vs. time — MusicBrainz complex queries (Figure 18)", runFig18},
		{"fig19", "Executors vs. memory — MusicBrainz complex queries (Figure 19)", runFig19},
		{"ablation", "Algorithm ablation — extension algorithms on synthetic distributions (§7)", runAblation},
		{"kernel", "Columnar dominance kernel vs boxed compare path — fixed synthetic workload", runKernel},
		{"exchange", "Columnar data plane — batch sidecars across exchanges + adaptive partitioning", runExchange},
		{"vectorized", "Vectorized expression engine — boxed vs vectorized filtered skyline plans", runVectorized},
		{"costgate", "Cost-gated adaptive planning — decode-at-scan gate + cost-chosen adaptive exchanges", runCostGate},
		{"parallel", "Morsel-driven parallel runtime — work-stealing morsel scheduling vs whole-partition tasks", runParallel},
		{"chaos", "Fault-tolerant task runtime — deterministic fault injection over fault rate × retry budget", runChaos},
		{"storage", "Out-of-core columnar segments — zone-map pruning and governed spill vs in-memory", runStorage},
		{"cache", "Skyline result cache — hit vs recompute latency, zipfian repeat mix, incremental upgrades vs invalidation", runCache},
		{"serve", "Concurrent serving — skysqld under open-loop load: latency percentiles, shared cache, admission 429s, global governor", runServe},
	}
}

// ExperimentByID finds an experiment.
func ExperimentByID(id string) (Experiment, error) {
	for _, e := range Experiments() {
		if e.ID == id {
			return e, nil
		}
	}
	return Experiment{}, fmt.Errorf("bench: unknown experiment %q; use one of %v", id, experimentIDs())
}

func experimentIDs() []string {
	var ids []string
	for _, e := range Experiments() {
		ids = append(ids, e.ID)
	}
	sort.Strings(ids)
	return ids
}

// sweep runs a set of specs varying one parameter and prints a
// paper-style table: one row per algorithm, one column per parameter
// value, followed by the relative-percentage table (reference = 100%),
// exactly like Appendix D.
type sweep struct {
	cfg       Config
	dataset   string
	complete  bool
	tuples    int
	header    string
	colLabels []string
	// specFor builds the spec for (algorithm, column).
	specFor func(alg core.Algorithm, col int) Spec
	// metric extracts the reported value; defaults to seconds.
	metric func(Measurement) string
}

func (s sweep) run(w io.Writer) error {
	algs := AlgorithmsFor(s.complete)
	cells := make([][]Measurement, len(algs))
	for ai, alg := range algs {
		cells[ai] = make([]Measurement, len(s.colLabels))
		for ci := range s.colLabels {
			cells[ai][ci] = s.cfg.Run(s.specFor(alg, ci))
			if err := cells[ai][ci].Err; err != nil {
				return fmt.Errorf("%s / %s: %w", alg.Name, s.colLabels[ci], err)
			}
		}
	}
	fmt.Fprintln(w, s.header)
	metric := s.metric
	if metric == nil {
		metric = Measurement.Cell
	}
	printMatrix(w, algs, s.colLabels, cells, metric)
	if s.metric == nil {
		// Relative table (reference = 100%), as in Appendix D.
		fmt.Fprintln(w, "relative to reference (100%):")
		refRow := len(algs) - 1 // reference is last in core.Algorithms()
		rel := func(ai, ci int) string {
			ref := cells[refRow][ci]
			m := cells[ai][ci]
			if ref.TimedOut || m.TimedOut {
				return "n.a."
			}
			if ref.Seconds() == 0 {
				return "n.a."
			}
			return fmt.Sprintf("%.2f%%", 100*m.Seconds()/ref.Seconds())
		}
		printMatrixFn(w, algs, s.colLabels, rel)
	}
	// Sanity: all algorithms that finished must agree on the result size.
	for ci := range s.colLabels {
		want := -1
		for ai := range algs {
			m := cells[ai][ci]
			if m.TimedOut {
				continue
			}
			if want == -1 {
				want = m.ResultRows
			} else if m.ResultRows != want {
				fmt.Fprintf(w, "WARNING: result size mismatch at %s: %s returned %d rows, expected %d\n",
					s.colLabels[ci], algs[ai].Name, m.ResultRows, want)
			}
		}
	}
	fmt.Fprintln(w)
	return nil
}

func printMatrix(w io.Writer, algs []core.Algorithm, cols []string, cells [][]Measurement, metric func(Measurement) string) {
	printMatrixFn(w, algs, cols, func(ai, ci int) string { return metric(cells[ai][ci]) })
}

func printMatrixFn(w io.Writer, algs []core.Algorithm, cols []string, cell func(ai, ci int) string) {
	fmt.Fprintf(w, "%-26s", "algorithm")
	for _, c := range cols {
		fmt.Fprintf(w, "%12s", c)
	}
	fmt.Fprintln(w)
	for ai, alg := range algs {
		fmt.Fprintf(w, "%-26s", alg.Name)
		for ci := range cols {
			fmt.Fprintf(w, "%12s", cell(ai, ci))
		}
		fmt.Fprintln(w)
	}
}

func intLabels(vals []int) []string {
	out := make([]string, len(vals))
	for i, v := range vals {
		out[i] = fmt.Sprintf("%d", v)
	}
	return out
}

// ---- Figures 3–7 (main evaluation, §6.4) ----

func dimsSweep(cfg Config, dataset string, complete bool, tuples, executors int, memory bool) sweep {
	metricName := "execution time [s]"
	var metric func(Measurement) string
	if memory {
		metricName = "peak memory [MB, modeled]"
		metric = func(m Measurement) string {
			if m.TimedOut {
				return "t.o."
			}
			return fmt.Sprintf("%.1f", m.PeakModelMB)
		}
	}
	variant := dataset
	if !complete {
		variant += "_incomplete"
	}
	return sweep{
		cfg: cfg, dataset: dataset, complete: complete, tuples: tuples,
		header: fmt.Sprintf("dimensions vs. %s | dataset=%s tuples=%d executors=%d",
			metricName, variant, tuples, executors),
		colLabels: intLabels([]int{1, 2, 3, 4, 5, 6}),
		specFor: func(alg core.Algorithm, col int) Spec {
			return Spec{Dataset: dataset, Complete: complete, Dimensions: col + 1,
				Tuples: tuples, Executors: executors, Algorithm: alg}
		},
		metric: metric,
	}
}

func executorsSweep(cfg Config, dataset string, complete bool, tuples, dims int, memory bool) sweep {
	metricName := "execution time [s]"
	var metric func(Measurement) string
	if memory {
		metricName = "peak memory [MB, modeled]"
		metric = func(m Measurement) string {
			if m.TimedOut {
				return "t.o."
			}
			return fmt.Sprintf("%.1f", m.PeakModelMB)
		}
	}
	variant := dataset
	if !complete {
		variant += "_incomplete"
	}
	return sweep{
		cfg: cfg, dataset: dataset, complete: complete, tuples: tuples,
		header: fmt.Sprintf("executors vs. %s | dataset=%s tuples=%d dimensions=%d",
			metricName, variant, tuples, dims),
		colLabels: intLabels([]int{1, 2, 3, 5, 10}),
		specFor: func(alg core.Algorithm, col int) Spec {
			execs := []int{1, 2, 3, 5, 10}[col]
			return Spec{Dataset: dataset, Complete: complete, Dimensions: dims,
				Tuples: tuples, Executors: execs, Algorithm: alg}
		},
		metric: metric,
	}
}

func tuplesSweep(cfg Config, complete bool, dims, executors int, memory bool) sweep {
	sizes := cfg.storeSalesSweep()
	metricName := "execution time [s]"
	var metric func(Measurement) string
	if memory {
		metricName = "peak memory [MB, modeled]"
		metric = func(m Measurement) string {
			if m.TimedOut {
				return "t.o."
			}
			return fmt.Sprintf("%.1f", m.PeakModelMB)
		}
	}
	variant := "store_sales"
	if !complete {
		variant += "_incomplete"
	}
	return sweep{
		cfg: cfg, dataset: "store_sales", complete: complete,
		header: fmt.Sprintf("input tuples vs. %s | dataset=%s dimensions=%d executors=%d",
			metricName, variant, dims, executors),
		colLabels: intLabels(sizes),
		specFor: func(alg core.Algorithm, col int) Spec {
			return Spec{Dataset: "store_sales", Complete: complete, Dimensions: dims,
				Tuples: sizes[col], Executors: executors, Algorithm: alg}
		},
		metric: metric,
	}
}

func runFig3(cfg Config, w io.Writer) error {
	if err := dimsSweep(cfg, "airbnb", true, cfg.scaled(airbnbCompleteRows), 5, false).run(w); err != nil {
		return err
	}
	return dimsSweep(cfg, "airbnb", false, cfg.scaled(airbnbIncompleteRows), 5, false).run(w)
}

func runFig4(cfg Config, w io.Writer) error {
	sizes := cfg.storeSalesSweep()
	// Complete at the largest size with 10 executors; incomplete at the
	// smallest size (the paper uses a 10× smaller dataset to avoid
	// timeouts there).
	if err := dimsSweep(cfg, "store_sales", true, sizes[3], 10, false).run(w); err != nil {
		return err
	}
	return dimsSweep(cfg, "store_sales", false, sizes[0], 10, false).run(w)
}

func runFig5(cfg Config, w io.Writer) error {
	if err := tuplesSweep(cfg, true, 6, 3, false).run(w); err != nil {
		return err
	}
	return tuplesSweep(cfg, false, 6, 3, false).run(w)
}

func runFig6(cfg Config, w io.Writer) error {
	if err := executorsSweep(cfg, "airbnb", true, cfg.scaled(airbnbCompleteRows), 6, false).run(w); err != nil {
		return err
	}
	return executorsSweep(cfg, "airbnb", false, cfg.scaled(airbnbIncompleteRows), 6, false).run(w)
}

func runFig7(cfg Config, w io.Writer) error {
	sizes := cfg.storeSalesSweep()
	if err := executorsSweep(cfg, "store_sales", true, sizes[3], 6, false).run(w); err != nil {
		return err
	}
	return executorsSweep(cfg, "store_sales", false, sizes[2], 6, false).run(w)
}

// ---- Appendix C (Figures 8–15) ----

func runFig8(cfg Config, w io.Writer) error {
	if err := executorsSweep(cfg, "airbnb", true, cfg.scaled(airbnbCompleteRows), 6, true).run(w); err != nil {
		return err
	}
	return executorsSweep(cfg, "airbnb", false, cfg.scaled(airbnbIncompleteRows), 6, true).run(w)
}

func runFig9(cfg Config, w io.Writer) error {
	sizes := cfg.storeSalesSweep()
	if err := executorsSweep(cfg, "store_sales", true, sizes[2], 6, true).run(w); err != nil {
		return err
	}
	return executorsSweep(cfg, "store_sales", false, sizes[2], 6, true).run(w)
}

func runFig10(cfg Config, w io.Writer) error {
	for _, execs := range []int{3, 5, 10} {
		if err := tuplesSweep(cfg, true, 6, execs, true).run(w); err != nil {
			return err
		}
		if err := tuplesSweep(cfg, false, 6, execs, true).run(w); err != nil {
			return err
		}
	}
	return nil
}

func runFig11(cfg Config, w io.Writer) error {
	for _, execs := range []int{2, 3, 5, 10} {
		if err := dimsSweep(cfg, "airbnb", true, cfg.scaled(airbnbCompleteRows), execs, false).run(w); err != nil {
			return err
		}
		if err := dimsSweep(cfg, "airbnb", false, cfg.scaled(airbnbIncompleteRows), execs, false).run(w); err != nil {
			return err
		}
	}
	return nil
}

func runFig12(cfg Config, w io.Writer) error {
	sizes := cfg.storeSalesSweep()
	for _, execs := range []int{2, 3, 5, 10} {
		if err := dimsSweep(cfg, "store_sales", true, sizes[2], execs, false).run(w); err != nil {
			return err
		}
		if err := dimsSweep(cfg, "store_sales", false, sizes[2], execs, false).run(w); err != nil {
			return err
		}
	}
	return nil
}

func runFig13(cfg Config, w io.Writer) error {
	for _, execs := range []int{2, 3, 5, 10} {
		if err := tuplesSweep(cfg, true, 6, execs, false).run(w); err != nil {
			return err
		}
		if err := tuplesSweep(cfg, false, 6, execs, false).run(w); err != nil {
			return err
		}
	}
	return nil
}

func runFig14(cfg Config, w io.Writer) error {
	for _, dims := range []int{3, 4, 5, 6} {
		if err := executorsSweep(cfg, "airbnb", true, cfg.scaled(airbnbCompleteRows), dims, false).run(w); err != nil {
			return err
		}
		if err := executorsSweep(cfg, "airbnb", false, cfg.scaled(airbnbIncompleteRows), dims, false).run(w); err != nil {
			return err
		}
	}
	return nil
}

func runFig15(cfg Config, w io.Writer) error {
	sizes := cfg.storeSalesSweep()
	for _, dims := range []int{3, 4, 5, 6} {
		if err := executorsSweep(cfg, "store_sales", true, sizes[2], dims, false).run(w); err != nil {
			return err
		}
		if err := executorsSweep(cfg, "store_sales", false, sizes[2], dims, false).run(w); err != nil {
			return err
		}
	}
	return nil
}

// ---- Appendix E (Figures 16–19): complex MusicBrainz queries ----

func runFig16(cfg Config, w io.Writer) error {
	n := cfg.scaled(musicBrainzRows)
	for _, execs := range []int{1, 2, 3, 5, 10} {
		if err := dimsSweep(cfg, "musicbrainz", true, n, execs, false).run(w); err != nil {
			return err
		}
		if err := dimsSweep(cfg, "musicbrainz", false, n, execs, false).run(w); err != nil {
			return err
		}
	}
	return nil
}

func runFig17(cfg Config, w io.Writer) error {
	n := cfg.scaled(musicBrainzRows)
	for _, execs := range []int{1, 3, 10} {
		if err := dimsSweep(cfg, "musicbrainz", true, n, execs, true).run(w); err != nil {
			return err
		}
		if err := dimsSweep(cfg, "musicbrainz", false, n, execs, true).run(w); err != nil {
			return err
		}
	}
	return nil
}

func runFig18(cfg Config, w io.Writer) error {
	n := cfg.scaled(musicBrainzRows)
	for _, dims := range []int{1, 2, 3, 4, 5, 6} {
		if err := executorsSweep(cfg, "musicbrainz", true, n, dims, false).run(w); err != nil {
			return err
		}
		if err := executorsSweep(cfg, "musicbrainz", false, n, dims, false).run(w); err != nil {
			return err
		}
	}
	return nil
}

func runFig19(cfg Config, w io.Writer) error {
	n := cfg.scaled(musicBrainzRows)
	for _, dims := range []int{1, 3, 6} {
		if err := executorsSweep(cfg, "musicbrainz", true, n, dims, true).run(w); err != nil {
			return err
		}
		if err := executorsSweep(cfg, "musicbrainz", false, n, dims, true).run(w); err != nil {
			return err
		}
	}
	return nil
}
