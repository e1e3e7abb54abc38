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
// crosses over — are the reproduction targets recorded in EXPERIMENTS.md.
package bench

import (
	"fmt"
	"strings"
	"time"

	"skysql/internal/catalog"
	"skysql/internal/chaos"
	"skysql/internal/cluster"
	"skysql/internal/core"
	"skysql/internal/datagen"
	"skysql/internal/expr"
	"skysql/internal/physical"
	"skysql/internal/types"
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
	// Observer, when non-nil, receives every completed measurement. The
	// -json path of cmd/skybench uses it to collect machine-readable
	// records while the tables render normally (or are discarded).
	Observer func(Measurement)
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
	// NoKernel disables the columnar dominance kernel for this run (the
	// boxed-path side of the kernel A/B ablation, which also disables the
	// batch sidecars exchanges would otherwise carry).
	NoKernel bool
	// NoVector disables the vectorized expression engine for this run (the
	// boxed-path side of the vectorization A/B ablation, which also stops
	// fused stages decoding their batch at the scan).
	NoVector bool
	// AdaptiveTarget, when positive, enables adaptive post-exchange
	// partitioning with this rows-per-partition target
	// (cluster.Context.TargetRowsPerPartition).
	AdaptiveTarget int
	// AdaptiveDefault enables cost-chosen adaptive partitioning without an
	// explicit target (cluster.Context.AdaptiveExchange) — the session
	// default the costgate experiment measures.
	AdaptiveDefault bool
	// NoCostGate disables the decode-at-scan cost gate for this run
	// (cluster.Context.DisableCostGate), the ungated side of the costgate
	// A/B. The pure kernel/vectorization ablations also set it so their
	// trajectory stays comparable across PRs.
	NoCostGate bool
	// Variant distinguishes records an experiment emits at several query
	// shapes over otherwise identical specs (e.g. the filter cut of the
	// vectorized/costgate sweeps), so benchdiff matches like with like.
	Variant string
	// MorselParallel enables morsel-granular task splitting and the
	// parallel global-skyline kernel for this run
	// (cluster.Context.MorselParallel); part of a record's identity in
	// benchdiff, since it changes the task decomposition.
	MorselParallel bool
	// FaultRate, when positive, enables deterministic chaos injection of
	// transient task faults at this rate, seeded from Config.Seed
	// (cluster.Context.Injector); part of a record's identity in benchdiff.
	FaultRate float64
	// RetryBudget is the per-task retry budget for the run
	// (cluster.Context.MaxTaskRetries); identity-bearing alongside FaultRate.
	RetryBudget int
	// MemoryBudget, when positive, enforces the per-query memory budget
	// (cluster.Context.MemoryBudget), engaging the degradation ladder.
	MemoryBudget int64
	// Clients and TargetRPS describe a serve-experiment cell: the number
	// of open-loop load clients and their aggregate request rate against
	// one skysqld server. Both are identity-bearing in benchdiff (a
	// 2-client cell never compares against an 8-client cell).
	Clients   int
	TargetRPS float64
}

// Measurement is the outcome of one run.
type Measurement struct {
	Spec           Spec
	Duration       time.Duration
	DominanceTests int64
	Comparisons    int64
	RowsShuffled   int64
	PeakDataBytes  int64
	// PeakModelMB adds the per-executor runtime overhead to the data
	// bytes, modelling the paper's Appendix C memory measurements.
	PeakModelMB float64
	// StagesExecuted counts the scheduled task rounds of the run; fused
	// stage execution makes it smaller than the operator count.
	StagesExecuted int64
	// StageSeconds is the per-stage makespan breakdown, in execution
	// order, exposing which stage dominates the query.
	StageSeconds []float64
	// BatchesDecoded counts columnar kernel decodes; on a sidecar-carrying
	// plan it equals the number of input partitions (decode-free exchanges
	// and global pass).
	BatchesDecoded int64
	// VectorizedBatches counts partition passes served by the vectorized
	// expression engine (zero on boxed runs).
	VectorizedBatches int64
	// AdaptivePartitions lists the partition counts adaptive exchanges
	// chose, in execution order (empty when adaptivity is off).
	AdaptivePartitions []int
	// CostDecisions renders the cost-model decisions of the run, in
	// execution order (empty when the model decided nothing).
	CostDecisions []string
	// MorselsExecuted counts morsel-granular tasks scheduled by the run
	// (zero when MorselParallel is off — whole partitions are not counted).
	MorselsExecuted int64
	// Steals counts tasks executed by a worker other than their home
	// worker. Informational: depends on measured task durations.
	Steals int64
	// AchievedParallelism is busy-time / wall-time over the parallel
	// morsel rounds (0 when none ran). Informational.
	AchievedParallelism float64
	// TaskRetries, TasksFailed, and InjectedFaults count the
	// fault-tolerance events of the run. Deterministic under seeded
	// injection in simulated mode (decisions are pure functions of the
	// task key), so benchdiff gates on retries and faults.
	TaskRetries    int64
	TasksFailed    int64
	InjectedFaults int64
	// DegradationSteps counts memory-governor escalations (benchdiff-gated);
	// DegradationLog lists them in order.
	DegradationSteps int64
	DegradationLog   []string
	// SegmentsPruned counts storage segments skipped by zone-map pruning
	// before decode; SegmentsSpilled counts gather inputs written to
	// temporary segments under memory pressure. Both are pure functions of
	// (data, plan, budget), so benchdiff gates on them.
	SegmentsPruned  int64
	SegmentsSpilled int64
	// CacheHits/CacheMisses count result-cache lookups of the run;
	// CacheEvictions counts whole entries evicted under the byte budget and
	// IncrementalUpgrades counts in-place append upgrades drained by a hit.
	// All four are pure functions of (queries, data, budget) under a fixed
	// seed, so benchdiff gates on the hit/miss/upgrade counters.
	CacheHits           int64
	CacheMisses         int64
	CacheEvictions      int64
	IncrementalUpgrades int64
	// Serve-experiment load metrics. RequestsIssued and the admission
	// counters are deterministic per (seed, sweep shape) — benchdiff gates
	// on rejections — while the latency percentiles and achieved
	// throughput are wall-clock observations, informational only.
	RequestsIssued    int64
	AdmissionAdmitted int64
	AdmissionQueued   int64
	AdmissionRejected int64
	LatencyP50MS      float64
	LatencyP95MS      float64
	LatencyP99MS      float64
	AchievedRPS       float64
	ResultRows        int
	TimedOut          bool
	Err               error
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
	case "synthetic_correlated", "synthetic_independent", "synthetic_anti-correlated", "synthetic_skewed":
		t, err := c.syntheticTable(spec)
		if err != nil {
			return nil, err
		}
		cat.Register(t)
		table = t.Name
		for d := 1; d <= spec.Dimensions; d++ {
			dims = append(dims, datagen.Dim{Col: fmt.Sprintf("d%d", d), Dir: "MIN"})
		}
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

// syntheticTable builds the synthetic tables of the ablation and parallel
// experiments from the spec's dataset name. "synthetic_skewed" is a
// mixture — about 70% correlated rows followed by 30% anti-correlated
// rows in one table — so contiguous range partitioning produces one
// hot partition (the anti-correlated tail, whose local skyline is orders
// of magnitude more work) among cheap ones: the skew case where morsel
// stealing beats whole-partition scheduling.
func (c Config) syntheticTable(spec Spec) (*catalog.Table, error) {
	gen := datagen.Config{Seed: c.Seed, Complete: spec.Complete, NullFraction: 0.08}
	switch spec.Dataset {
	case "synthetic_correlated":
		return datagen.Synthetic(datagen.Correlated, spec.Tuples, spec.Dimensions, gen), nil
	case "synthetic_independent":
		return datagen.Synthetic(datagen.Independent, spec.Tuples, spec.Dimensions, gen), nil
	case "synthetic_anti-correlated":
		return datagen.Synthetic(datagen.AntiCorrelated, spec.Tuples, spec.Dimensions, gen), nil
	case "synthetic_skewed":
		cold := spec.Tuples * 7 / 10
		hot := spec.Tuples - cold
		corr := datagen.Synthetic(datagen.Correlated, cold, spec.Dimensions, gen)
		anti := datagen.Synthetic(datagen.AntiCorrelated, hot, spec.Dimensions, gen)
		rows := append(append(make([]types.Row, 0, spec.Tuples), corr.Rows...), anti.Rows...)
		for i, r := range rows {
			// Re-number the ids so the concatenated halves stay distinct.
			r[0] = types.Int(int64(i + 1))
		}
		return catalog.NewTable("t", corr.Schema, rows)
	}
	return nil, fmt.Errorf("bench: unknown synthetic dataset %q", spec.Dataset)
}

func dirOf(s string) expr.SkylineDir {
	d, ok := expr.SkylineDirByName(s)
	if !ok {
		return expr.SkyDiff
	}
	return d
}

// fill populates the result-derived fields of a measurement from a
// finished run; m.Spec must already be set (Executors feeds the
// Appendix C memory model).
func (c Config) fill(m *Measurement, res *core.Result) {
	m.Duration = res.Duration
	m.DominanceTests = res.Metrics.Sky.DominanceTests()
	m.Comparisons = res.Metrics.Sky.Comparisons()
	m.RowsShuffled = res.Metrics.RowsShuffled()
	m.PeakDataBytes = res.Metrics.PeakBytes()
	m.StagesExecuted = res.Metrics.StagesExecuted()
	m.BatchesDecoded = res.Metrics.BatchesDecoded()
	m.VectorizedBatches = res.Metrics.VectorizedBatches()
	for _, d := range res.Metrics.AdaptiveDecisions() {
		m.AdaptivePartitions = append(m.AdaptivePartitions, d.Chosen)
	}
	for _, d := range res.Metrics.CostDecisions() {
		m.CostDecisions = append(m.CostDecisions, d.String())
	}
	for _, st := range res.Metrics.StageTimes() {
		m.StageSeconds = append(m.StageSeconds, st.Elapsed.Seconds())
	}
	m.MorselsExecuted = res.Metrics.MorselsExecuted()
	m.Steals = res.Metrics.Steals()
	m.AchievedParallelism = res.Metrics.AchievedParallelism()
	m.TaskRetries = res.Metrics.TaskRetries()
	m.TasksFailed = res.Metrics.TasksFailed()
	m.InjectedFaults = res.Metrics.InjectedFaults()
	m.DegradationSteps = res.Metrics.DegradationSteps()
	m.DegradationLog = res.Metrics.Degradations()
	m.SegmentsPruned = res.Metrics.SegmentsPruned()
	m.SegmentsSpilled = res.Metrics.SegmentsSpilled()
	m.CacheHits = res.Metrics.CacheHits()
	m.CacheMisses = res.Metrics.CacheMisses()
	m.CacheEvictions = res.Metrics.CacheEvictions()
	m.IncrementalUpgrades = res.Metrics.IncrementalUpgrades()
	m.PeakModelMB = c.ExecutorOverheadMB*float64(m.Spec.Executors) + float64(m.PeakDataBytes)/1e6
	m.ResultRows = len(res.Rows)
}

// Run executes one spec and returns its measurement, forwarding it to the
// Observer when one is configured.
func (c Config) Run(spec Spec) Measurement {
	m := c.run(spec)
	if c.Observer != nil {
		c.Observer(m)
	}
	return m
}

// modelContext returns a context whose rounds run on the harness
// substrate: a Simulator that runs tasks one at a time and charges each
// round its greedy makespan on executors workers plus 1 ms per task.
func modelContext(executors int) *cluster.Context {
	ctx := cluster.NewContext(executors)
	ctx.Runner = &cluster.Simulator{Executors: executors, TaskOverhead: time.Millisecond}
	return ctx
}

// runModelled runs c on a context from modelContext and reports the
// result's duration in modelled time: the rounds' makespans in place of the
// serial time their tasks took.
func runModelled(engine *core.Engine, c *core.Compiled, ctx *cluster.Context) (*core.Result, error) {
	res, err := engine.RunCtx(c, ctx)
	if err != nil {
		return nil, err
	}
	res.Duration = max(res.Duration+ctx.Runner.(*cluster.Simulator).Adjustment(), 0)
	return res, nil
}

func (c Config) run(spec Spec) Measurement {
	m := Measurement{Spec: spec}
	w, err := c.buildWorkload(spec)
	if err != nil {
		m.Err = err
		return m
	}
	engine := core.NewEngine(w.cat)
	query := w.query
	opts := physical.Options{Strategy: spec.Algorithm.Strategy, DisableColumnarKernel: spec.NoKernel, DisableVectorizedExprs: spec.NoVector}
	if spec.Algorithm.Reference {
		query = w.refQuery
		opts = physical.Options{DisableColumnarKernel: spec.NoKernel, DisableVectorizedExprs: spec.NoVector}
	}
	compiled, err := engine.CompileSQL(query, opts)
	if err != nil {
		m.Err = err
		return m
	}
	ctx := modelContext(spec.Executors)
	ctx.TargetRowsPerPartition = spec.AdaptiveTarget
	ctx.AdaptiveExchange = spec.AdaptiveDefault
	ctx.DisableCostGate = spec.NoCostGate
	ctx.DecodeAtScan = !spec.NoVector && !spec.NoKernel
	ctx.MorselParallel = spec.MorselParallel
	if spec.FaultRate > 0 {
		// The injector seed is salted per (rate, budget) cell: decisions
		// are pure functions of (seed, stage, task, attempt), and every
		// cell of a sweep reuses the same few small key tuples, so a shared
		// seed would replay one draw instead of sampling the key space.
		seed := int64(chaos.Mix(c.Seed, int64(spec.FaultRate*1e6), int64(spec.RetryBudget)) >> 1)
		ctx.Injector = chaos.New(chaos.Config{Seed: seed, FaultRate: spec.FaultRate})
		// The substrate simulates task time but backoff sleeps are real;
		// keep them far below the measured makespan scale.
		ctx.RetryBackoff = time.Microsecond
	}
	ctx.MaxTaskRetries = spec.RetryBudget
	ctx.MemoryBudget = spec.MemoryBudget
	type outcome struct {
		res *core.Result
		err error
	}
	done := make(chan outcome, 1)
	go func() {
		res, err := runModelled(engine, compiled, ctx)
		done <- outcome{res, err}
	}()
	select {
	case o := <-done:
		if o.err != nil {
			m.Err = o.err
			return m
		}
		c.fill(&m, o.res)
	case <-time.After(c.Timeout):
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
