// Package bench is the evaluation harness. It reproduces every experiment
// of the paper's §6 and appendices C/E on the scaled-down generated
// datasets: for each figure (and its tabulation in Appendix D) it sweeps
// the paper's parameter — number of skyline dimensions, number of input
// tuples, or number of executors — over the four algorithms of §6.3 and
// prints the measured series in the paper's format, including the
// relative-percent-of-reference tables.
//
// Wall-clock numbers are not expected to match the paper's cluster (the
// substrate is a simulated cluster on one machine); the comparisons the
// harness makes — which algorithm wins, by what factor, where behaviour
// crosses over — are the reproduction targets. Experiments (experiments.go)
// is the registry of figures; ROADMAP.md records what they show and what
// they do not. Wall time of this engine on real hardware is measured by
// the benchmark/ program, not here.
package bench

import (
	"fmt"
	"strings"
	"time"

	"skysql/internal/catalog"
	"skysql/internal/cluster"
	"skysql/internal/core"
	"skysql/internal/datagen"
	"skysql/internal/expr"
	"skysql/internal/physical"
)

// Config scales and parameterizes the harness.
type Config struct {
	// Scale multiplies every dataset size. 1.0 means the default
	// laptop-scale sizes (airbnb 20k rows; store_sales sweep 10k..100k).
	Scale float64
	// Timeout aborts a single query run; timed-out cells print "t.o." as
	// in the paper. (The run keeps a goroutine until it finishes.)
	Timeout time.Duration
	// Seed makes datasets reproducible.
	Seed int64
	// ExecutorOverheadMB models the fixed per-executor memory footprint
	// (each Spark executor loads its full runtime; Appendix C).
	ExecutorOverheadMB float64
}

// DefaultConfig returns the harness defaults.
func DefaultConfig() Config {
	return Config{Scale: 1.0, Timeout: 120 * time.Second, Seed: 1, ExecutorOverheadMB: 300}
}

func (c Config) scaled(n int) int {
	out := int(float64(n) * c.Scale)
	if out < 10 {
		out = 10
	}
	return out
}

// Spec describes one measured cell.
type Spec struct {
	Dataset    string // airbnb | store_sales | musicbrainz (+_incomplete)
	Complete   bool
	Dimensions int
	Tuples     int
	Executors  int
	Algorithm  core.Algorithm
}

// Measurement is the outcome of one run.
type Measurement struct {
	Duration time.Duration
	// PeakModelMB adds the per-executor runtime overhead to the run's peak
	// data bytes, modelling the paper's Appendix C memory measurements.
	PeakModelMB float64
	ResultRows  int
	TimedOut    bool
	Err         error
}

// Seconds returns the runtime in seconds (for chart-style output).
func (m Measurement) Seconds() float64 { return m.Duration.Seconds() }

// Cell renders the measurement as a table cell.
func (m Measurement) Cell() string {
	if m.TimedOut {
		return "t.o."
	}
	if m.Err != nil {
		return "err"
	}
	return fmt.Sprintf("%.3f", m.Seconds())
}

// workload is a prepared dataset + query pair.
type workload struct {
	cat      *catalog.Catalog
	query    string // integrated skyline query
	refQuery string // plain-SQL reference rewriting
}

// datasetRows returns the default (scale=1) sizes standing in for the
// paper's row counts.
const (
	airbnbCompleteRows   = 16000 // stands in for 820,698
	airbnbIncompleteRows = 24000 // stands in for 1,193,465
	musicBrainzRows      = 8000  // stands in for 1,500,000
)

// storeSalesSweep returns the scaled stand-ins for the paper's
// 1e6/2e6/5e6/1e7 tuple sweep.
func (c Config) storeSalesSweep() []int {
	return []int{c.scaled(10000), c.scaled(20000), c.scaled(50000), c.scaled(100000)}
}

// buildWorkload prepares catalog and queries for a spec.
func (c Config) buildWorkload(spec Spec) (*workload, error) {
	cat := catalog.New()
	gen := datagen.Config{Rows: spec.Tuples, Seed: c.Seed, Complete: spec.Complete, NullFraction: 0.08}
	var table string
	var dims []datagen.Dim
	switch spec.Dataset {
	case "airbnb":
		t := datagen.Airbnb(gen)
		cat.Register(t)
		table = t.Name
		dims = datagen.AirbnbDims()
	case "store_sales":
		t := datagen.StoreSales(gen)
		cat.Register(t)
		table = t.Name
		dims = datagen.StoreSalesDims()
	case "musicbrainz":
		mb := datagen.NewMusicBrainz(gen)
		cat.Register(mb.Recordings)
		cat.Register(mb.Meta)
		cat.Register(mb.Tracks)
		return c.buildMusicBrainzWorkload(cat, mb, spec)
	default:
		return nil, fmt.Errorf("bench: unknown dataset %q", spec.Dataset)
	}
	if spec.Dimensions < 1 || spec.Dimensions > len(dims) {
		return nil, fmt.Errorf("bench: dimension count %d out of range", spec.Dimensions)
	}
	dims = dims[:spec.Dimensions]
	query := datagen.SkylineQuery(table, dims, false, spec.Complete)
	refDims := make([]core.RefDim, len(dims))
	for i, d := range dims {
		refDims[i] = core.RefDim{Col: d.Col, Dir: dirOf(d.Dir)}
	}
	ref := core.ReferenceRewrite(table, nil, refDims, !spec.Complete)
	return &workload{cat: cat, query: query, refQuery: ref}, nil
}

// buildMusicBrainzWorkload wraps the complex base query (Appendix E).
func (c Config) buildMusicBrainzWorkload(cat *catalog.Catalog, mb *datagen.MusicBrainz, spec Spec) (*workload, error) {
	dims := datagen.MusicBrainzDims()
	if spec.Dimensions < 1 || spec.Dimensions > len(dims) {
		return nil, fmt.Errorf("bench: dimension count %d out of range", spec.Dimensions)
	}
	dims = dims[:spec.Dimensions]
	base := mb.BaseQuery()
	var sky strings.Builder
	sky.WriteString("SELECT * FROM (")
	sky.WriteString(base)
	sky.WriteString(") SKYLINE OF ")
	if spec.Complete {
		sky.WriteString("COMPLETE ")
	}
	for i, d := range dims {
		if i > 0 {
			sky.WriteString(", ")
		}
		sky.WriteString(d.Col + " " + d.Dir)
	}
	refDims := make([]core.RefDim, len(dims))
	for i, d := range dims {
		refDims[i] = core.RefDim{Col: d.Col, Dir: dirOf(d.Dir)}
	}
	ref := core.ReferenceRewrite("("+base+")", nil, refDims, !spec.Complete)
	return &workload{cat: cat, query: sky.String(), refQuery: ref}, nil
}

func dirOf(s string) expr.SkylineDir {
	d, ok := expr.SkylineDirByName(s)
	if !ok {
		return expr.SkyDiff
	}
	return d
}

// Run executes one spec on the harness substrate and returns its
// measurement. The rounds run on a cluster.Simulator — tasks one at a time,
// each round charged its greedy makespan on spec.Executors workers plus
// 1 ms per task — and Duration is that modelled time. Everything else is
// NewContext's default: decode at the scan, whole-partition tasks, no task
// retries, no memory budget.
func (c Config) Run(spec Spec) Measurement {
	var m Measurement
	w, err := c.buildWorkload(spec)
	if err != nil {
		m.Err = err
		return m
	}
	engine := core.NewEngine(w.cat)
	query := w.query
	opts := physical.Options{Strategy: spec.Algorithm.Strategy}
	if spec.Algorithm.Reference {
		query = w.refQuery
		opts = physical.Options{}
	}
	compiled, err := engine.CompileSQL(query, opts)
	if err != nil {
		m.Err = err
		return m
	}
	sim := &cluster.Simulator{Executors: spec.Executors, TaskOverhead: time.Millisecond}
	ctx := cluster.NewContext(spec.Executors)
	ctx.Runner = sim
	type outcome struct {
		res *core.Result
		err error
	}
	// The deadline is armed before the run starts, and a run that finishes
	// past it counts as timed out: when both cases are ready the select
	// picks one at random, so the channel alone cannot decide.
	done := make(chan outcome, 1)
	deadline := time.NewTimer(c.Timeout)
	defer deadline.Stop()
	start := time.Now()
	go func() {
		res, err := engine.RunCtx(compiled, ctx)
		if err == nil {
			// The rounds' makespans in place of the serial time their
			// tasks took.
			res.Duration = max(res.Duration+sim.Adjustment(), 0)
		}
		done <- outcome{res, err}
	}()
	select {
	case o := <-done:
		if time.Since(start) > c.Timeout {
			m.TimedOut = true
			return m
		}
		if o.err != nil {
			m.Err = o.err
			return m
		}
		m.Duration = o.res.Duration
		m.PeakModelMB = c.ExecutorOverheadMB*float64(spec.Executors) + float64(o.res.Metrics.PeakBytes())/1e6
		m.ResultRows = len(o.res.Rows)
	case <-deadline.C:
		ctx.Cancel()
		<-done // operators observe the cancel promptly; reclaim the worker
		m.TimedOut = true
	}
	return m
}

// AlgorithmsFor returns the algorithms applicable to a dataset variant:
// all four for complete data, only the incomplete-capable two otherwise
// (paper §6.3).
func AlgorithmsFor(complete bool) []core.Algorithm {
	all := core.Algorithms()
	if complete {
		return all
	}
	var out []core.Algorithm
	for _, a := range all {
		if a.Name == "distributed incomplete" || a.Name == "reference" {
			out = append(out, a)
		}
	}
	return out
}
