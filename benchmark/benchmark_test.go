package main

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"os"
	"path/filepath"
	"testing"
	"time"
)

// smokeRun is one tiny run of a workload: -scale 0.02, a fraction of a
// second of timed window.
func smokeRun(t *testing.T, workload string, trace bool) *runReport {
	t.Helper()
	r, err := run(runConfig{Workload: workload, Seed: 3, Seconds: 0.2, Trace: trace, Scale: 0.02,
		OutDir: t.TempDir(), Commit: "test"}, io.Discard)
	if err != nil {
		t.Fatalf("%s (trace %v): %v", workload, trace, err)
	}
	if !r.Correct || r.Failed != 0 || r.Attempted < 1 {
		t.Fatalf("%s (trace %v): correct=%v attempted=%d failed=%d notes=%v",
			workload, trace, r.Correct, r.Attempted, r.Failed, r.Notes)
	}
	return r
}

func finite(v float64) bool { return !math.IsNaN(v) && !math.IsInf(v, 0) }

func checkMetrics(t *testing.T, r *runReport, defs []metricDef) {
	t.Helper()
	for _, d := range defs {
		v, ok := r.Metrics[d.Name]
		switch {
		case !ok:
			t.Errorf("%s: metric %s is missing", r.Workload, d.Name)
		case !finite(v.Value):
			t.Errorf("%s: metric %s is %v", r.Workload, d.Name, v.Value)
		case v.Unit != d.Unit || v.Unit == "":
			t.Errorf("%s: metric %s carries unit %q, want %q", r.Workload, d.Name, v.Unit, d.Unit)
		}
	}
}

// TestSmoke runs all four workloads at -scale 0.02, untraced and traced:
// every named metric is present, finite and carries its unit; two traced
// replays of one seed agree on every count; and every replayed request's
// span tree accounts for its round trip.
func TestSmoke(t *testing.T) {
	for _, s := range specs {
		s := s
		t.Run(s.Name, func(t *testing.T) {
			plain := smokeRun(t, s.Name, false)
			checkMetrics(t, plain, endToEndDefs(s.Name))
			for _, d := range gatedEndToEnd {
				if plain.Metrics[d.Name].Value <= 0 {
					t.Errorf("gated metric %s is %v; the contract needs it above 0", d.Name, plain.Metrics[d.Name].Value)
				}
			}
			line := contractLine(plain)
			if len(line.Metrics) != len(gatedEndToEnd) {
				t.Errorf("contract line has %d metrics, want the %d gated ones", len(line.Metrics), len(gatedEndToEnd))
			}

			first, second := smokeRun(t, s.Name, true), smokeRun(t, s.Name, true)
			checkMetrics(t, first, perLayer)
			if line := contractLine(first); len(line.Metrics) != len(perLayer) {
				t.Errorf("traced contract line has %d metrics, want %d", len(line.Metrics), len(perLayer))
			}
			for _, d := range perLayer {
				if d.Count && first.Metrics[d.Name].Value != second.Metrics[d.Name].Value {
					t.Errorf("count %s differs between two replays of one seed: %v vs %v",
						d.Name, first.Metrics[d.Name].Value, second.Metrics[d.Name].Value)
				}
			}
			if first.Dominant == "" || len(first.Shares) == 0 {
				t.Errorf("traced run names no dominant layer")
			}
		})
	}
}

// TestSpanTreeSumsToRoundTrip replays one workload and checks, request by
// request, that the self times of the span tree add up to the round trip.
// (The printed breakdown is a sum of medians; a run notes when that one
// strays, which on sub-millisecond smoke ops it may.)
func TestSpanTreeSumsToRoundTrip(t *testing.T) {
	dir := t.TempDir()
	if _, err := run(runConfig{Workload: "kernel_anti", Seed: 5, Seconds: 0.4, Trace: true, Scale: 0.05,
		OutDir: dir, Commit: "test"}, io.Discard); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(filepath.Join(dir, "kernel_anti.trace.json"))
	if err != nil {
		t.Fatal(err)
	}
	var tf traceFile
	if err := json.Unmarshal(data, &tf); err != nil {
		t.Fatal(err)
	}
	self := selfTimes(tf.Spans)
	sums, roots := map[int64]float64{}, map[int64]float64{}
	for _, s := range tf.Spans {
		if s.Phase != phaseReplay {
			continue
		}
		sums[s.Trace] += self[s.ID]
		if s.Parent == 0 {
			roots[s.Trace] = s.durMS()
		}
	}
	if len(roots) != replayReps {
		t.Fatalf("replay left %d traced requests, want %d", len(roots), replayReps)
	}
	for id, root := range roots {
		if off := math.Abs(sums[id]-root) / root; off > 0.05 {
			t.Errorf("request %d: self times sum to %.4f ms, round trip is %.4f ms", id, sums[id], root)
		}
	}
}

func TestSelfTimesClipAndMergeChildren(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "root", StartUS: 0, EndUS: 1000},
		{ID: 2, Parent: 1, Name: "a", StartUS: 100, EndUS: 400},
		{ID: 3, Parent: 1, Name: "b", StartUS: 300, EndUS: 600},  // overlaps a
		{ID: 4, Parent: 1, Name: "c", StartUS: 900, EndUS: 1500}, // runs past the parent
		{ID: 5, Parent: 2, Name: "a1", StartUS: 100, EndUS: 200},
	}
	self := selfTimes(spans)
	want := map[int]float64{1: 0.4, 2: 0.2, 3: 0.3, 4: 0.6, 5: 0.1}
	for id, w := range want {
		if math.Abs(self[id]-w) > 1e-9 {
			t.Errorf("span %d: self %.3f ms, want %.3f", id, self[id], w)
		}
	}
}

// TestPercentileRule pins the "at least ten samples beyond" rule.
func TestPercentileRule(t *testing.T) {
	cases := []struct {
		n    int
		q    float64
		want bool
	}{
		{100, 0.90, true}, {99, 0.90, false}, {1000, 0.99, true}, {999, 0.99, false},
		{20, 0.50, true}, {19, 0.50, false}, {0, 0.5, false},
	}
	for _, c := range cases {
		if got := supported(c.n, c.q); got != c.want {
			t.Errorf("supported(%d, %v) = %v, want %v", c.n, c.q, got, c.want)
		}
	}
	sorted := make([]float64, 100)
	for i := range sorted {
		sorted[i] = float64(i + 1)
	}
	if p := percentile(sorted, 0.90); p != 90 {
		t.Errorf("p90 of 1..100 = %v, want 90", p)
	}
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, q3 := quartiles(sorted[:10])
	if q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles of 1..10 = %v, %v; Python's exclusive method gives 2.75, 8.25", q1, q3)
	}
}

// TestSteadyEstimators pins the quietest-stretch estimators: a burst of
// slow ops in one part of the window moves neither the percentile nor the
// rate, and a window too short to cut gives the plain quantile.
func TestSteadyEstimators(t *testing.T) {
	start := time.Unix(0, 0)
	tl := &tally{start: start}
	at := start
	for i := 0; i < 400; i++ {
		lat := 10 * time.Millisecond
		if i >= 100 && i < 150 {
			lat = 30 * time.Millisecond
		}
		at = at.Add(lat)
		tl.queries = append(tl.queries, sample{end: at, lat: lat})
	}
	if p := steadyPercentile(tl.queries, 0.90); p != 10 {
		t.Errorf("p90 with a burst in one sub-window = %v ms, want 10", p)
	}
	rates := tl.rates(steadySlices)
	burst := 100 * steadySlices / 400 // the slice the burst starts in
	if len(rates) != steadySlices || highest(rates) != 100 || rates[burst] >= 50 {
		t.Errorf("rates %v: want %d slices, 100 ops/s in the quiet ones, a third of it in the burst", rates, steadySlices)
	}
	var few []sample
	for i := 1; i <= 30; i++ {
		few = append(few, sample{end: start.Add(time.Duration(i) * time.Second), lat: time.Duration(i) * time.Millisecond})
	}
	if p := steadyPercentile(few, 0.90); p != 27 {
		t.Errorf("p90 of 30 samples = %v ms, want the plain quantile 27", p)
	}
	if p := steadyPercentile(nil, 0.5); p != 0 {
		t.Errorf("p50 of no samples = %v, want 0", p)
	}
}

func TestScanRowCount(t *testing.T) {
	cases := map[string]int{
		`{"columns":[],"rows":[[1,"row_count"]],"row_count":1,"duration_ms":0.1}`: 1,
		`{"rows":[],"row_count":4831,"metrics":{}}`:                               4831,
		`{"error":"x","code":"bad_request"}`:                                      -1,
		`{"row_count":}`:                                                          -1,
	}
	for body, want := range cases {
		if got := scanRowCount([]byte(body)); got != want {
			t.Errorf("scanRowCount(%s) = %d, want %d", body, got, want)
		}
	}
}

func TestJudge(t *testing.T) {
	lower := series{Better: "lower", Bound: 0.07, Median: 100, Q1: 99, Q3: 101}
	with := func(s series, median, spread float64) series {
		s.Median, s.Q1, s.Q3 = median, median-spread/2, median+spread/2
		return s
	}
	cases := []struct {
		name string
		a, b series
		want string
	}{
		{"within the bound", lower, with(lower, 104, 2), verdictUnchanged},
		{"worse than the bound", lower, with(lower, 108, 2), verdictRegressed},
		{"better than the bound", lower, with(lower, 90, 2), verdictImproved},
		{"spread wider than the bound", lower, with(lower, 101, 20), verdictUnresolved},
		{"higher is better", series{Better: "higher", Bound: 0.07, Median: 100, Q1: 99, Q3: 101},
			series{Better: "higher", Bound: 0.07, Median: 90, Q1: 89, Q3: 91}, verdictRegressed},
		{"any increase of a zero-bound metric", series{Better: "lower", Median: 0}, series{Better: "lower", Median: 0.001}, verdictRegressed},
		{"zero stays zero", series{Better: "lower"}, series{Better: "lower"}, verdictUnchanged},
		{"absolute floor", series{Better: "lower", Bound: 0.25, Floor: 0.05, Median: 0.01, Q1: 0.01, Q3: 0.01},
			series{Better: "lower", Bound: 0.25, Floor: 0.05, Median: 0.05, Q1: 0.05, Q3: 0.05}, verdictUnchanged},
	}
	for _, c := range cases {
		if got, _ := judge(c.a, c.b); got != c.want {
			t.Errorf("%s: %s, want %s", c.name, got, c.want)
		}
	}
}

// TestCompareDirs drives -compare over two written summaries.
func TestCompareDirs(t *testing.T) {
	s, _ := specByName("kernel_anti")
	report := func(p50 float64, tests float64) *runReport {
		r := &runReport{Workload: s.Name, Seed: 1, Seconds: 1, Scale: 1, Correct: true, Attempted: 10, Metrics: metricSet{}}
		for _, d := range endToEndDefs(s.Name) {
			r.Metrics.put(d.Name, 1, 0)
		}
		r.Metrics.put("query_p50_ms", p50, 100)
		r.Metrics.put("error_rate", 0, 10)
		for _, d := range perLayer {
			r.Metrics.put(d.Name, 1, 0)
		}
		r.Metrics.put("skyline.dominance_tests", tests, 0)
		return r
	}
	write := func(dir string, p50, tests float64) {
		sum := summarize(s, []*runReport{report(p50, tests), report(p50, tests), report(p50, tests)}, report(p50, tests))
		if err := writeJSON(filepath.Join(dir, s.Name+".json"), sum); err != nil {
			t.Fatal(err)
		}
	}
	a, same, slow := t.TempDir(), t.TempDir(), t.TempDir()
	write(a, 100, 5000)
	write(same, 101, 5000)
	write(slow, 140, 6000)

	var out bytes.Buffer
	regressed, err := compareDirs(a, same, &out)
	if err != nil || regressed {
		t.Fatalf("identical runs: regressed=%v err=%v\n%s", regressed, err, out.String())
	}
	if !bytes.Contains(out.Bytes(), []byte("every count metric of the traced replay is identical")) {
		t.Errorf("identical counts not reported:\n%s", out.String())
	}
	out.Reset()
	regressed, err = compareDirs(a, slow, &out)
	if err != nil || !regressed {
		t.Fatalf("40%% slower p50: regressed=%v err=%v\n%s", regressed, err, out.String())
	}
	if !bytes.Contains(out.Bytes(), []byte("skyline.dominance_tests 5000 -> 6000")) {
		t.Errorf("moved count not reported:\n%s", out.String())
	}
}

// TestBenchmarkJSON keeps ../BENCHMARK.json, which the driver reads, in
// step with the tables this program prints from.
func TestBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	type metric struct {
		Name   string   `json:"name"`
		Unit   string   `json:"unit"`
		Better string   `json:"better"`
		Bound  *float64 `json:"bound"`
	}
	var file struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct {
			Name string `json:"name"`
			Why  string `json:"why"`
		} `json:"workloads"`
		EndToEnd []metric `json:"end_to_end"`
		PerLayer []metric `json:"per_layer"`
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&file); err != nil {
		t.Fatal(err)
	}
	if file.RunSeconds != runSeconds {
		t.Errorf("run_seconds %d, the program's default window is %d", file.RunSeconds, runSeconds)
	}
	if len(file.Workloads) != len(specs) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the program", len(file.Workloads), len(specs))
	}
	for i, w := range file.Workloads {
		if w.Name != specs[i].Name || w.Why != specs[i].Why {
			t.Errorf("workload %d is %q (%q), the program has %q (%q)", i, w.Name, w.Why, specs[i].Name, specs[i].Why)
		}
		if len(w.Why) > 200 {
			t.Errorf("why of %s has %d characters, the limit is 200", w.Name, len(w.Why))
		}
	}
	same := func(kind string, got []metric, want []metricDef, bounded bool) {
		if len(got) != len(want) {
			t.Fatalf("%d %s metrics in BENCHMARK.json, %d in the program", len(got), kind, len(want))
		}
		for i, g := range got {
			w := want[i]
			if g.Name != w.Name || g.Unit != w.Unit || g.Better != w.Better {
				t.Errorf("%s metric %d is %+v, the program has %s %s %s", kind, i, g, w.Name, w.Unit, w.Better)
			}
			switch {
			case bounded && (g.Bound == nil || *g.Bound != w.Bound):
				t.Errorf("%s: bound in BENCHMARK.json differs from the program's %v", w.Name, w.Bound)
			case bounded && *g.Bound > 0.25:
				t.Errorf("%s: bound %v is above the contract's 0.25", w.Name, *g.Bound)
			case !bounded && g.Bound != nil:
				t.Errorf("%s: per-layer metrics carry no bound", w.Name)
			}
		}
	}
	same("end-to-end", file.EndToEnd, gatedEndToEnd, true)
	same("per-layer", file.PerLayer, perLayer, false)
}
