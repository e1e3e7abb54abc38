// Command benchmark is the socket-to-kernel benchmark of skysqld: it
// boots server.New over a real loopback listener with the real
// work-stealing pool, drives it over HTTP from one generator process,
// verifies every answer, and prints end-to-end and per-layer metrics by
// name and unit. See README.md in this directory.
//
//	go run ./benchmark -all -seed 1                 every workload, then its traced replay
//	go run ./benchmark -all -repeat 3 -out DIR      medians and quartiles, one file per workload
//	go run ./benchmark -compare DIR_A DIR_B         hold B to A by the benchmark's own bounds
//	go run ./benchmark --workload hot_serve --seed 7 --seconds 15 --trace 0
//
// The last form is one run; its last line of output is one JSON object.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
)

// runSeconds is the timed window of one run, BENCHMARK.json's
// run_seconds.
const runSeconds = 20

func main() {
	var (
		workload = flag.String("workload", "", "run one workload: kernel_anti | scan_segments | hot_serve | append_mix")
		seed     = flag.Int64("seed", 1, "seed every input is generated from")
		seconds  = flag.Float64("seconds", runSeconds, "timed window of one run")
		trace    = flag.Int("trace", 0, "1 = traced replay and per-layer metrics in place of the end-to-end ones")
		all      = flag.Bool("all", false, "run every workload in its own subprocess, then its traced replay")
		repeat   = flag.Int("repeat", 1, "untraced runs per workload; medians and quartiles are over them")
		out      = flag.String("out", "", "directory receiving one summary file per workload")
		compare  = flag.Bool("compare", false, "compare two summary directories given as arguments: baseline, then candidate")
		scale    = flag.Float64("scale", 1, "shrink every workload's data (smoke runs only; 1 is the benchmark)")
		report   = flag.String("report", "", "also write this run's full report to the file (used by -all)")
		commit   = flag.String("commit", "unknown", "commit id recorded in reports")
		workDir  = flag.String("workdir", filepath.Join("benchmark", "out"), "scratch, trace and report files")
	)
	flag.Parse()

	switch {
	case *compare:
		if flag.NArg() != 2 {
			fatal(fmt.Errorf("-compare takes two directories: baseline and candidate"))
		}
		regressed, err := compareDirs(flag.Arg(0), flag.Arg(1), os.Stdout)
		if err != nil {
			fatal(err)
		}
		if regressed {
			os.Exit(1)
		}
	case *all || *repeat > 1 || *out != "":
		names := []string{*workload}
		if *workload == "" {
			names = nil
			for _, s := range specs {
				names = append(names, s.Name)
			}
		}
		ok, err := orchestrate(names, *seed, *seconds, *repeat, *scale, *commit, *workDir, *out)
		if err != nil {
			fatal(err)
		}
		if !ok {
			os.Exit(1)
		}
	case *workload != "":
		cfg := runConfig{Workload: *workload, Seed: *seed, Seconds: *seconds, Trace: *trace != 0,
			Scale: *scale, OutDir: *workDir, Commit: *commit}
		r, err := run(cfg, os.Stdout)
		if err != nil {
			fatal(err)
		}
		printReport(os.Stdout, r)
		if *report != "" {
			if err := writeJSON(*report, r); err != nil {
				fatal(err)
			}
		}
		// The contract line: exactly the gated end-to-end metrics, or with
		// -trace 1 exactly the per-layer ones.
		line, err := json.Marshal(contractLine(r))
		if err != nil {
			fatal(err)
		}
		fmt.Println(string(line))
	default:
		flag.Usage()
		os.Exit(2)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchmark:", err)
	os.Exit(1)
}

// result is the last line of a run's output.
type result struct {
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

func contractLine(r *runReport) result {
	defs := gatedEndToEnd
	if r.Trace {
		defs = perLayer
	}
	res := result{Correct: r.Correct, Attempted: r.Attempted, Failed: r.Failed, Metrics: map[string]value{}}
	for _, d := range defs {
		v := r.Metrics[d.Name]
		res.Metrics[d.Name] = value{Value: v.Value, Unit: d.Unit}
	}
	return res
}

func printReport(w io.Writer, r *runReport) {
	fmt.Fprintf(w, "\n%s  seed=%d  seconds=%g  trace=%v  executors=%d pool=%d nproc=%d %s\n",
		r.Workload, r.Seed, r.Seconds, r.Trace, r.Env.Executors, r.Env.Pool, r.Env.NumCPU, r.Env.GoVersion)
	for _, defs := range [][]metricDef{gatedEndToEnd, specificEndToEnd, perLayer} {
		for _, d := range defs {
			v, ok := r.Metrics[d.Name]
			if !ok {
				continue
			}
			samples := ""
			if v.Samples > 0 {
				samples = fmt.Sprintf("  n=%d", v.Samples)
			}
			fmt.Fprintf(w, "  %-36s %16.6g %-7s%s\n", d.Name, v.Value, v.Unit, samples)
		}
	}
	if len(r.Shares) > 0 {
		fmt.Fprintf(w, "  share of the mean op's round trip (dominant: %s)\n", r.Dominant)
		for _, name := range sortedKeys(r.Shares) {
			fmt.Fprintf(w, "    %-34s %6.1f %%\n", name, r.Shares[name]*100)
		}
	}
	fmt.Fprintf(w, "  attempted=%d failed=%d correct=%v\n", r.Attempted, r.Failed, r.Correct)
	for _, n := range r.Notes {
		fmt.Fprintf(w, "  note: %s\n", n)
	}
}

func sortedKeys(m map[string]float64) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

func writeJSON(path string, v interface{}) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// child re-executes this binary for one run, so that peak_rss_mb and the
// Go heap belong to one workload alone, and returns the run's report.
func child(name string, seed int64, seconds float64, trace int, scale float64, commit, workDir string) (*runReport, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	reportPath := filepath.Join(workDir, fmt.Sprintf("%s.trace%d.report.json", name, trace))
	cmd := exec.Command(exe,
		"-workload", name, "-seed", fmt.Sprint(seed), "-seconds", fmt.Sprint(seconds),
		"-trace", fmt.Sprint(trace), "-scale", fmt.Sprint(scale), "-commit", commit,
		"-workdir", workDir, "-report", reportPath)
	cmd.Stdout, cmd.Stderr = os.Stdout, os.Stderr
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("%s (trace %d): %w", name, trace, err)
	}
	data, err := os.ReadFile(reportPath)
	if err != nil {
		return nil, err
	}
	var r runReport
	if err := json.Unmarshal(data, &r); err != nil {
		return nil, fmt.Errorf("reading %s: %w", reportPath, err)
	}
	return &r, nil
}

// orchestrate runs each named workload repeat times untraced and once
// traced, each in a fresh subprocess, prints the summaries and writes
// them under out. ok is false when any answer was wrong or any op failed.
func orchestrate(names []string, seed int64, seconds float64, repeat int, scale float64, commit, workDir, out string) (ok bool, err error) {
	if repeat < 1 {
		repeat = 1
	}
	ok = true
	var sums []*summary
	for _, name := range names {
		s, found := specByName(name)
		if !found {
			return false, fmt.Errorf("unknown workload %q", name)
		}
		var runs []*runReport
		for i := 0; i < repeat; i++ {
			r, err := child(name, seed, seconds, 0, scale, commit, workDir)
			if err != nil {
				return false, err
			}
			runs = append(runs, r)
		}
		traced, err := child(name, seed, seconds, 1, scale, commit, workDir)
		if err != nil {
			return false, err
		}
		sum := summarize(s, runs, traced)
		ok = ok && sum.Correct
		sums = append(sums, sum)
		if out != "" {
			if err := writeJSON(filepath.Join(out, name+".json"), sum); err != nil {
				return false, err
			}
		}
	}
	for _, sum := range sums {
		sum.print(os.Stdout)
	}
	printShares(os.Stdout, sums)
	return ok, nil
}

// printShares is the cross-workload view: a layer that dominates one
// workload should be a small share of another.
func printShares(w io.Writer, sums []*summary) {
	layers := map[string]bool{}
	for _, s := range sums {
		for l := range s.Shares {
			layers[l] = true
		}
	}
	if len(layers) == 0 {
		return
	}
	names := make([]string, 0, len(layers))
	for l := range layers {
		names = append(names, l)
	}
	sort.Strings(names)
	fmt.Fprintf(w, "\nshare of the mean op's round trip, per layer and workload (%%)\n  %-24s", "")
	for _, s := range sums {
		fmt.Fprintf(w, "%15s", s.Workload)
	}
	fmt.Fprintln(w)
	for _, l := range names {
		fmt.Fprintf(w, "  %-24s", l)
		for _, s := range sums {
			fmt.Fprintf(w, "%15.1f", s.Shares[l]*100)
		}
		fmt.Fprintln(w)
	}
	for _, s := range sums {
		fmt.Fprintf(w, "  dominant on %s: %s\n", s.Workload, s.Dominant)
	}
}
