package main

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"time"
)

// runConfig selects one run: one workload, one seed, one timed window.
type runConfig struct {
	Workload string
	Seed     int64
	Seconds  float64
	Trace    bool
	Scale    float64
	OutDir   string // scratch and trace files
	Commit   string
}

// runReport is everything one run measured.
type runReport struct {
	Workload  string      `json:"workload"`
	Seed      int64       `json:"seed"`
	Seconds   float64     `json:"seconds"`
	Trace     bool        `json:"trace"`
	Scale     float64     `json:"scale"`
	Env       environment `json:"env"`
	Correct   bool        `json:"correct"`
	Attempted int         `json:"attempted"`
	Failed    int         `json:"failed"`
	Metrics   metricSet   `json:"metrics"`
	// Shares is each layer's share of the mean op's round trip in the
	// traced replay, and Dominant the largest of them.
	Shares   map[string]float64 `json:"shares,omitempty"`
	Dominant string             `json:"dominant,omitempty"`
	Notes    []string           `json:"notes,omitempty"`
}

func (r *runReport) note(format string, args ...interface{}) {
	r.Notes = append(r.Notes, fmt.Sprintf(format, args...))
}

// window is what one pass over a workload's timed ops measured.
type window struct {
	setups []time.Duration
	lat    *tally // latency samples; on hot_serve the open-loop phase only
	// rates is the successful ops per second of each slice of the
	// throughput window (on hot_serve the closed-loop capacity phase; on
	// append_mix one slice per round); throughput_ops_s is the highest.
	rates []float64
	// Go runtime deltas over every timed phase, set-ups excluded.
	ops        int
	allocBytes uint64
	mallocs    uint64
	gcCycles   uint32
	gcPause    time.Duration
	attempted  int
	failed     int
	firstErr   string
}

// meter accumulates runtime.MemStats deltas around timed phases.
// ReadMemStats stops the world, so it is only called at phase edges.
type meter struct {
	w      *window
	before runtime.MemStats
}

func (m *meter) start() { runtime.ReadMemStats(&m.before) }

func (m *meter) stop(ops int) {
	var after runtime.MemStats
	runtime.ReadMemStats(&after)
	m.w.ops += ops
	m.w.allocBytes += after.TotalAlloc - m.before.TotalAlloc
	m.w.mallocs += after.Mallocs - m.before.Mallocs
	m.w.gcCycles += after.NumGC - m.before.NumGC
	m.w.gcPause += time.Duration(after.PauseTotalNs - m.before.PauseTotalNs)
}

func (w *window) absorb(t *tally) {
	w.attempted += t.attempted
	w.failed += t.failed
	if w.firstErr == "" {
		w.firstErr = t.firstErr
	}
}

// timed runs the workload's timed ops for d. tr, when non-nil, mounts the
// traced middleware and records client spans.
func timed(ds *dataset, v *verification, d time.Duration, tr *tracer) (*window, error) {
	var wrap func(http.Handler) http.Handler
	if tr != nil {
		wrap = tr.middleware
	}
	w := &window{lat: &tally{}}
	m := &meter{w: w}
	if ds.spec.drive == driveAppend {
		return w, timedRounds(ds, v, d, tr, wrap, w, m)
	}

	// Set up several times and keep the last server: setup_s is the
	// median, so one slow start does not decide it.
	var fx *fixture
	for i := 0; i < setupReps; i++ {
		if fx != nil {
			fx.close()
		}
		var took time.Duration
		var err error
		if fx, took, err = setUp(ds, wrap); err != nil {
			return nil, err
		}
		w.setups = append(w.setups, took)
	}
	defer fx.close()

	switch ds.spec.drive {
	case driveClosed:
		m.start()
		t := closedLoop(fx.base, 1, d, func(int) *op { return ds.qops[0] }, v.want, tr)
		m.stop(t.attempted)
		w.lat = t
		w.rates = t.rates(steadySlices)
		w.absorb(t)
	case driveHot:
		// Two thirds of the window offer a fixed rate, the last third
		// measures what two waiting clients can push through.
		open := time.Duration(float64(d) * 2 / 3)
		seq := hotSequence(ds, int(hotRate*open.Seconds()))
		if len(seq) == 0 {
			return nil, fmt.Errorf("hot_serve: %v is too short for one request at %.0f/s", d, hotRate)
		}
		m.start()
		t := openLoop(fx.base, hotConns, hotRate, seq, v.want, tr)
		m.stop(t.attempted)
		w.lat = t
		w.absorb(t)
		m.start()
		c := closedLoop(fx.base, hotConns, d-open, func(i int) *op { return seq[i%len(seq)] }, v.want, tr)
		m.stop(c.attempted)
		w.rates = c.rates(steadySlices)
		w.absorb(c)
	}
	return w, nil
}

// hotSequence is hot_serve's request order: every shape in exactly its
// zipf share of n requests, shuffled from the seed, so that two seeds
// differ in data and order but not in mix.
func hotSequence(ds *dataset, n int) []*op {
	seq := make([]*op, 0, n)
	for k := len(ds.qops) - 1; k > 0; k-- {
		for c := int(math.Round(ds.weights[k] * float64(n))); c > 0 && len(seq) < n; c-- {
			seq = append(seq, ds.qops[k])
		}
	}
	for len(seq) < n {
		seq = append(seq, ds.qops[0]) // the most popular shape takes the rounding
	}
	rand.New(rand.NewSource(ds.seed)).Shuffle(n, func(i, j int) { seq[i], seq[j] = seq[j], seq[i] })
	return seq
}

// timedRounds drives append_mix: whole rounds of a fixed op sequence,
// each against a freshly set-up server, until d of timed wall clock has
// been spent. Only whole rounds count, so the table states the latencies
// come from are the same on every commit however fast it is.
func timedRounds(ds *dataset, v *verification, d time.Duration, tr *tracer, wrap func(http.Handler) http.Handler, w *window, m *meter) error {
	ops := roundOps(ds)
	c := newConn()
	defer c.close()
	for w.lat.wall < d {
		fx, took, err := setUp(ds, wrap)
		if err != nil {
			return err
		}
		w.setups = append(w.setups, took)
		m.start()
		t := &tally{start: time.Now()}
		for i, o := range ops {
			res, _, sent, end := c.send(fx.base, o, tr, phaseTimed)
			t.record(o, res, end, end.Sub(sent), v.wantRound[i])
		}
		t.wall = time.Since(t.start)
		m.stop(t.attempted)
		w.lat.merge(t)
		w.lat.wall += t.wall
		w.rates = append(w.rates, t.rates(1)...)
		w.absorb(t)
		// Untimed: the round's last served answers against the cold
		// recompute over its final table.
		attempted, failed, first := v.checkFinal(ds, fx, c)
		w.attempted += attempted
		w.failed += failed
		if w.firstErr == "" {
			w.firstErr = first
		}
		fx.close()
	}
	return nil
}

// endToEnd turns a window into the end-to-end metrics of its workload.
func endToEnd(r *runReport, w *window) {
	name := r.Workload
	r.Metrics.put("setup_s", median(secondsOf(w.setups)), len(w.setups))
	r.Metrics.put("throughput_ops_s", highest(w.rates), len(w.rates))
	tail := func(metric string, samples []sample, q float64) {
		r.Metrics.put(metric, steadyPercentile(samples, q), len(samples))
		if !supported(len(samples), q) {
			r.note("%s rests on %d samples: fewer than %d lie beyond it", metric, len(samples), minBeyond)
		}
	}
	tail("query_p50_ms", w.lat.queries, 0.50)
	tail("query_p90_ms", w.lat.queries, 0.90)
	if reports(name, "query_p99_ms") {
		tail("query_p99_ms", w.lat.queries, 0.99)
	}
	if reports(name, "append_p50_ms") {
		tail("append_p50_ms", w.lat.appends, 0.50)
		tail("append_p90_ms", w.lat.appends, 0.90)
	}
	if w.ops > 0 {
		r.Metrics.put("alloc_mb_per_op", float64(w.allocBytes)/float64(w.ops)/1e6, 0)
	}
	r.Metrics.put("peak_rss_mb", peakRSSMB(), 0)
	if lag := w.lat.schedLagP99MS(); lag > schedLagLimitMS {
		r.note("open-loop generator left %.2f ms late at p99 (limit %g ms): it, not the server, shapes part of the tail", lag, schedLagLimitMS)
	}
}

// schedLagLimitMS is how late, at p99, the open-loop generator may fire
// a request that was due and had a free connection before the run says
// so. Latency runs from the due time, so the lag is inside every latency
// either way.
const schedLagLimitMS = 1.0

// reports tells whether a workload carries a workload-specific metric.
func reports(workload, metric string) bool {
	for _, d := range specificEndToEnd {
		if d.Name == metric {
			return d.appliesTo(workload)
		}
	}
	panic("benchmark: no workload-specific metric " + metric)
}

func secondsOf(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = d.Seconds()
	}
	return out
}

// peakRSSMB is the process's resident-set high-water mark (VmHWM), in
// 10⁶ bytes like alloc_mb_per_op. Each workload runs in its own process,
// so this is per workload.
func peakRSSMB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return math.NaN()
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return math.NaN()
			}
			return kb * 1024 / 1e6
		}
	}
	return math.NaN()
}

// run executes one workload once: prepare from the seed, verify outputs,
// then either the timed window (end-to-end metrics) or, with Trace, a
// plain and a traced half-window followed by the fixed-count replay
// (per-layer metrics). Progress goes to log.
func run(cfg runConfig, log io.Writer) (*runReport, error) {
	s, ok := specByName(cfg.Workload)
	if !ok {
		return nil, fmt.Errorf("unknown workload %q", cfg.Workload)
	}
	if cfg.Scale <= 0 {
		cfg.Scale = 1
	}
	debug.SetGCPercent(gcPercent)
	r := &runReport{Workload: s.Name, Seed: cfg.Seed, Seconds: cfg.Seconds, Trace: cfg.Trace,
		Scale: cfg.Scale, Env: currentEnvironment(cfg.Commit), Metrics: metricSet{}}
	ds, err := prepare(s.scaled(cfg.Scale), cfg.Seed, filepath.Join(cfg.OutDir, "data"))
	if err != nil {
		return nil, fmt.Errorf("preparing %s: %w", s.Name, err)
	}
	defer ds.cleanup()

	v, err := verify(ds)
	if err != nil {
		return nil, err
	}
	r.Attempted += v.checks
	r.Failed += len(v.problems)
	for _, p := range v.problems {
		r.note("verification: %s", p)
	}
	fmt.Fprintf(log, "%s: verified %d answers against the boxed cache-less path and the Listing-4 rewrite, %d differ\n",
		s.Name, v.checks, len(v.problems))

	window := time.Duration(cfg.Seconds * float64(time.Second))
	if !cfg.Trace {
		w, err := timed(ds, v, window, nil)
		if err != nil {
			return nil, err
		}
		endToEnd(r, w)
		r.absorb(w)
	} else {
		plain, err := timed(ds, v, window/2, nil)
		if err != nil {
			return nil, err
		}
		r.absorb(plain)
		tr := newTracer()
		traced, err := timed(ds, v, window/2, tr)
		if err != nil {
			return nil, err
		}
		r.absorb(traced)
		if err := replay(r, ds, v, tr); err != nil {
			return nil, err
		}
		runtimeMetrics(r, plain, traced)
		path := filepath.Join(cfg.OutDir, s.Name+".trace.json")
		if err := writeTrace(path, traceFile{Workload: s.Name, Seed: cfg.Seed, Env: r.Env, Spans: tr.spans()}); err != nil {
			return nil, fmt.Errorf("writing trace: %w", err)
		}
		fmt.Fprintf(log, "%s: spans written to %s\n", s.Name, path)
	}
	r.Metrics.put("error_rate", float64(r.Failed)/float64(r.Attempted), r.Attempted)
	r.Correct = r.Failed == 0
	return r, nil
}

func (r *runReport) absorb(w *window) {
	r.Attempted += w.attempted
	r.Failed += w.failed
	if w.firstErr != "" {
		r.note("first failed op: %s", w.firstErr)
	}
}

// runtimeMetrics fills the generator- and runtime-side per-layer metrics
// from the two half-windows of a traced run.
func runtimeMetrics(r *runReport, plain, traced *window) {
	r.Metrics.put("runtime.gc_cycles", float64(plain.gcCycles), 0)
	r.Metrics.put("runtime.gc_pause_total_ms", ms(plain.gcPause), 0)
	mallocs := 0.0
	if plain.ops > 0 {
		mallocs = float64(plain.mallocs) / float64(plain.ops)
	}
	r.Metrics.put("runtime.mallocs_per_op", mallocs, 0)
	r.Metrics.put("loadgen.sched_lag_p99_ms", plain.lat.schedLagP99MS(), len(plain.lat.schedLag))
	overhead := 0.0
	if p := highest(plain.rates); p > 0 {
		overhead = (p - highest(traced.rates)) / p * 100
	}
	r.Metrics.put("trace.overhead_pct", overhead, 0)
}
