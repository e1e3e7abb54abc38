package bench

import (
	"fmt"
	"io"
	"os"
	"sort"

	"skysql/internal/catalog"
	"skysql/internal/core"
	"skysql/internal/datagen"
	"skysql/internal/physical"
	"skysql/internal/storage"
	"skysql/internal/types"
)

// runStorage is the out-of-core storage ablation behind BENCH_PR8.json:
// the same filtered skyline plan — scan → WHERE d1 < c → local skyline →
// gather → global skyline — runs three ways over correlated and
// anti-correlated data clustered on d1:
//
//	memory          the PR 7 baseline: rows resident in the catalog.
//	segments        the table re-backed by paged columnar segments;
//	                zone-map pruning disabled, so every segment decodes.
//	segments+prune  the full storage path: the scan consults each
//	                segment's zone map against the pushed-down predicate
//	                and skips segments the filter provably empties.
//
// The input is sorted by d1 before both the in-memory and the
// segment-backed variants see it (the clustering a real ingest would
// apply for a range-filtered column), so segment zone maps are tight and
// the cut point translates directly into skipped segments. All three
// variants must return bit-identical rows; pruned counts are pure
// functions of (data, predicate, segment size), so benchdiff gates on
// them.
//
// A final section engages the spill tier: the segment-backed plan run
// under a budget 0.9× its observed peak must spill gather inputs to
// temporary segments (SegmentsSpilled > 0) — the spill rung fires first,
// by ladder order — and still return the identical skyline.
func runStorage(cfg Config, w io.Writer) error {
	n := cfg.scaled(10000)
	const dims = 4
	const executors = 8
	// Segments sized so the scaled dataset spans a few dozen zone maps.
	segRows := n / 16
	if segRows < 1 {
		segRows = 1
	}
	cuts := []float64{0.25, 0.5}
	alg := core.Algorithm{Name: "distributed complete", Strategy: physical.SkylineDistributedComplete}

	type variant struct {
		name     string
		segments bool
		noPrune  bool
	}
	variants := []variant{
		{"memory", false, false},
		{"segments", true, true},
		{"segments+prune", true, false},
	}

	for _, dist := range []datagen.Distribution{datagen.Correlated, datagen.AntiCorrelated} {
		tab := datagen.Synthetic(dist, n, dims, datagen.Config{Seed: cfg.Seed, Complete: true})
		// Cluster on the filter column: sort rows by d1 so each segment
		// covers a tight d1 range. Both variants run over the sorted order,
		// keeping results bit-identical.
		rows := append([]types.Row(nil), tab.Rows...)
		sort.SliceStable(rows, func(i, j int) bool {
			return rows[i][1].AsFloat() < rows[j][1].AsFloat()
		})
		memTab, err := catalog.NewTable("t", tab.Schema, rows)
		if err != nil {
			return fmt.Errorf("storage %s: %w", dist, err)
		}
		store, err := storage.FromRows(rows, tab.Schema, "", "t", segRows)
		if err != nil {
			return fmt.Errorf("storage %s: %w", dist, err)
		}
		segTab := catalog.NewSegmentTable("t", store)

		run := func(v variant, cut float64, budget int64, spillDir string) (Measurement, error) {
			cat := catalog.New()
			if v.segments {
				cat.Register(segTab)
			} else {
				cat.Register(memTab)
			}
			engine := core.NewEngine(cat)
			query := fmt.Sprintf("SELECT * FROM t WHERE d1 < %g SKYLINE OF COMPLETE d1 MIN, d2 MIN, d3 MIN, d4 MIN", cut)
			compiled, err := engine.CompileSQL(query, physical.Options{Strategy: alg.Strategy})
			if err != nil {
				return Measurement{}, err
			}
			ctx := modelContext(executors)
			ctx.DecodeAtScan = true
			ctx.DisableSegmentPrune = v.noPrune
			ctx.MemoryBudget = budget
			ctx.SpillDir = spillDir
			res, err := runModelled(engine, compiled, ctx)
			if err != nil {
				return Measurement{}, err
			}
			m := Measurement{Spec: Spec{Dataset: "synthetic_" + dist.String(), Complete: true,
				Dimensions: dims, Tuples: n, Executors: executors, Algorithm: alg,
				MemoryBudget: budget,
				Variant:      fmt.Sprintf("%s,d1<%g", v.name, cut)}}
			cfg.fill(&m, res)
			if cfg.Observer != nil {
				cfg.Observer(m)
			}
			return m, nil
		}

		fmt.Fprintf(w, "storage | distribution=%s tuples=%d dimensions=%d executors=%d segment_rows=%d algorithm=%s\n",
			dist, n, dims, executors, segRows, alg.Name)
		fmt.Fprintf(w, "%-12s%12s%14s%18s%16s%10s\n",
			"selectivity", "memory [s]", "segments [s]", "seg+prune [s]", "pruned/total", "rows")
		for _, cut := range cuts {
			var cells [3]Measurement
			for vi, v := range variants {
				m, err := run(v, cut, 0, "")
				if err != nil {
					return fmt.Errorf("storage %s/%s d1<%g: %w", dist, v.name, cut, err)
				}
				cells[vi] = m
			}
			for vi := 1; vi < len(cells); vi++ {
				if cells[vi].ResultRows != cells[0].ResultRows {
					fmt.Fprintf(w, "WARNING: %s d1<%g returned %d rows, in-memory run %d\n",
						variants[vi].name, cut, cells[vi].ResultRows, cells[0].ResultRows)
				}
			}
			fmt.Fprintf(w, "d1<%-9g%12.3f%14.3f%18.3f%16s%10d\n",
				cut, cells[0].Seconds(), cells[1].Seconds(), cells[2].Seconds(),
				fmt.Sprintf("%d/%d", cells[2].SegmentsPruned, len(store.Segments())), cells[0].ResultRows)
		}
		fmt.Fprintln(w)
	}

	// Spill section: the segment-backed anti-correlated plan (the largest
	// intermediate state) budgeted just above its peak, with a spill
	// directory configured. The governor's first rung must move gather
	// inputs to temporary segments and the query must complete with the
	// identical skyline.
	dist := datagen.AntiCorrelated
	const spillCut = 0.5
	tab := datagen.Synthetic(dist, n, dims, datagen.Config{Seed: cfg.Seed, Complete: true})
	rows := append([]types.Row(nil), tab.Rows...)
	sort.SliceStable(rows, func(i, j int) bool {
		return rows[i][1].AsFloat() < rows[j][1].AsFloat()
	})
	store, err := storage.FromRows(rows, tab.Schema, "", "t", segRows)
	if err != nil {
		return fmt.Errorf("storage spill: %w", err)
	}
	segTab := catalog.NewSegmentTable("t", store)
	runSeg := func(budget int64, spillDir string, variantName string) (Measurement, error) {
		cat := catalog.New()
		cat.Register(segTab)
		engine := core.NewEngine(cat)
		query := fmt.Sprintf("SELECT * FROM t WHERE d1 < %g SKYLINE OF COMPLETE d1 MIN, d2 MIN, d3 MIN, d4 MIN", spillCut)
		compiled, err := engine.CompileSQL(query, physical.Options{Strategy: alg.Strategy})
		if err != nil {
			return Measurement{}, err
		}
		ctx := modelContext(executors)
		ctx.DecodeAtScan = true
		ctx.MemoryBudget = budget
		ctx.SpillDir = spillDir
		res, err := runModelled(engine, compiled, ctx)
		if err != nil {
			return Measurement{}, err
		}
		m := Measurement{Spec: Spec{Dataset: "synthetic_" + dist.String(), Complete: true,
			Dimensions: dims, Tuples: n, Executors: executors, Algorithm: alg,
			MemoryBudget: budget, Variant: variantName}}
		cfg.fill(&m, res)
		if cfg.Observer != nil {
			cfg.Observer(m)
		}
		return m, nil
	}
	clean, err := runSeg(0, "", fmt.Sprintf("segments+prune,d1<%g", spillCut))
	if err != nil {
		return fmt.Errorf("storage spill baseline: %w", err)
	}
	spillDir, err := os.MkdirTemp("", "skybench-spill-")
	if err != nil {
		return fmt.Errorf("storage spill dir: %w", err)
	}
	defer os.RemoveAll(spillDir)
	// The peak (gather input + output live at once) sits between budget
	// checkpoints; what the governor sees at the pre-gather exchange entry
	// is about half of it. Budget 9/10 of the peak: the 50% spill threshold
	// then lands below the checkpoint's live bytes, so the governor engages
	// the spill rung (first, by ladder order) before the gather
	// materializes its output, and spilling halves the gather peak, keeping
	// the run inside the budget.
	budget := clean.PeakDataBytes * 9 / 10
	m, err := runSeg(budget, spillDir, fmt.Sprintf("segments+prune+spill,budget=0.9xpeak,d1<%g", spillCut))
	if err != nil {
		return fmt.Errorf("storage spill: %w", err)
	}
	if m.ResultRows != clean.ResultRows {
		fmt.Fprintf(w, "WARNING: spilled run returned %d rows, unbudgeted %d\n", m.ResultRows, clean.ResultRows)
	}
	fmt.Fprintf(w, "spill | distribution=%s d1<%g memory budget %d bytes (0.9x peak): %s s, %d segments spilled, %d degradation steps\n",
		dist, spillCut, budget, m.Cell(), m.SegmentsSpilled, m.DegradationSteps)
	for _, step := range m.DegradationLog {
		fmt.Fprintf(w, "  %s\n", step)
	}
	if m.SegmentsSpilled == 0 {
		fmt.Fprintln(w, "WARNING: budget at 0.9x peak never spilled")
	}
	fmt.Fprintln(w)
	return nil
}
