// Command skybench regenerates the paper's evaluation artifacts: every
// figure (3–19) and the Appendix D tables. Each experiment prints the
// measured series in the paper's layout, with timed-out cells marked
// "t.o." and a relative-%-of-reference table; -verify runs the §5.9
// integrated-vs-reference check.
//
// Usage:
//
//	skybench -list
//	skybench -experiment fig3
//	skybench -experiment all -scale 0.25 -timeout 60s
//	skybench -verify -scale 0.05
//
// Full manual: docs/skybench.md.
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"skysql/internal/bench"
)

func main() {
	var (
		experiment = flag.String("experiment", "", "experiment id (fig3..fig19, or all)")
		list       = flag.Bool("list", false, "list available experiments")
		verify     = flag.Bool("verify", false, "run the §5.9 correctness check (integrated vs reference) and exit")
		scale      = flag.Float64("scale", 1.0, "dataset size multiplier")
		timeout    = flag.Duration("timeout", 120*time.Second, "per-query timeout")
		seed       = flag.Int64("seed", 1, "dataset generator seed")
	)
	flag.Parse()

	if *list {
		for _, e := range bench.Experiments() {
			fmt.Printf("%-10s %s\n", e.ID, e.Title)
		}
		return
	}
	cfg := bench.DefaultConfig()
	cfg.Scale = *scale
	cfg.Timeout = *timeout
	cfg.Seed = *seed

	if *verify {
		if err := bench.Verify(cfg, os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, "skybench:", err)
			os.Exit(1)
		}
		fmt.Println("all verification cases passed")
		return
	}
	if *experiment == "" {
		fmt.Fprintln(os.Stderr, "skybench: -experiment or -list required")
		flag.Usage()
		os.Exit(2)
	}

	run := func(e bench.Experiment) {
		fmt.Printf("==== %s: %s ====\n", e.ID, e.Title)
		start := time.Now()
		if err := e.Run(cfg, os.Stdout); err != nil {
			fmt.Fprintf(os.Stderr, "skybench: %s: %v\n", e.ID, err)
			os.Exit(1)
		}
		fmt.Printf("(%s completed in %s)\n\n", e.ID, time.Since(start).Round(time.Millisecond))
	}

	if *experiment == "all" {
		for _, e := range bench.Experiments() {
			run(e)
		}
	} else {
		e, err := bench.ExperimentByID(*experiment)
		if err != nil {
			fmt.Fprintln(os.Stderr, "skybench:", err)
			os.Exit(2)
		}
		run(e)
	}
}
