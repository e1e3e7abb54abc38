package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// series is one end-to-end metric of one workload over the repeated runs.
type series struct {
	Unit    string    `json:"unit"`
	Better  string    `json:"better"`
	Bound   float64   `json:"bound"`
	Floor   float64   `json:"floor,omitempty"`
	Median  float64   `json:"median"`
	Q1      float64   `json:"q1"`
	Q3      float64   `json:"q3"`
	Values  []float64 `json:"values"`
	Samples []int     `json:"samples,omitempty"` // observations behind each run's value
}

// layerValue is one per-layer metric of the traced replay.
type layerValue struct {
	Unit  string  `json:"unit"`
	Value float64 `json:"value"`
	// Count marks values that must repeat exactly between two replays of
	// one seed.
	Count bool `json:"count,omitempty"`
}

// summary is what -out writes per workload and -compare reads: the
// committed baseline is a directory of these.
type summary struct {
	Workload  string                `json:"workload"`
	Why       string                `json:"why"`
	Seed      int64                 `json:"seed"`
	Seconds   float64               `json:"seconds"`
	Scale     float64               `json:"scale"`
	Repeat    int                   `json:"repeat"`
	Env       environment           `json:"env"`
	Correct   bool                  `json:"correct"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	EndToEnd  map[string]series     `json:"end_to_end"`
	PerLayer  map[string]layerValue `json:"per_layer"`
	Shares    map[string]float64    `json:"shares"`
	Dominant  string                `json:"dominant"`
	Notes     []string              `json:"notes,omitempty"`
}

// endToEndDefs lists the end-to-end metrics a workload reports.
func endToEndDefs(workload string) []metricDef {
	defs := append([]metricDef(nil), gatedEndToEnd...)
	for _, d := range specificEndToEnd {
		if d.appliesTo(workload) {
			defs = append(defs, d)
		}
	}
	return defs
}

// summarize folds the untraced runs and the traced one of a workload.
func summarize(s spec, runs []*runReport, traced *runReport) *summary {
	first := runs[0]
	sum := &summary{Workload: s.Name, Why: s.Why, Seed: first.Seed, Seconds: first.Seconds,
		Scale: first.Scale, Repeat: len(runs), Env: first.Env, Correct: traced.Correct,
		EndToEnd: map[string]series{}, PerLayer: map[string]layerValue{},
		Shares: traced.Shares, Dominant: traced.Dominant}
	seen := map[string]bool{}
	for _, r := range append(append([]*runReport(nil), runs...), traced) {
		sum.Correct = sum.Correct && r.Correct
		sum.Attempted += r.Attempted
		sum.Failed += r.Failed
		for _, n := range r.Notes {
			if !seen[n] {
				seen[n] = true
				sum.Notes = append(sum.Notes, n)
			}
		}
	}
	for _, d := range endToEndDefs(s.Name) {
		se := series{Unit: d.Unit, Better: d.Better, Bound: d.Bound, Floor: d.Floor}
		for _, r := range runs {
			v := r.Metrics[d.Name]
			se.Values = append(se.Values, v.Value)
			if v.Samples > 0 {
				se.Samples = append(se.Samples, v.Samples)
			}
		}
		se.Median = median(se.Values)
		se.Q1, se.Q3 = quartiles(se.Values)
		sum.EndToEnd[d.Name] = se
	}
	for _, d := range perLayer {
		sum.PerLayer[d.Name] = layerValue{Unit: d.Unit, Value: traced.Metrics[d.Name].Value, Count: d.Count}
	}
	return sum
}

func (s *summary) print(w io.Writer) {
	fmt.Fprintf(w, "\n== %s  seed=%d seconds=%g repeat=%d  (%s, nproc=%d, executors=%d, pool=%d, commit %s)\n",
		s.Workload, s.Seed, s.Seconds, s.Repeat, s.Env.GoVersion, s.Env.NumCPU, s.Env.Executors, s.Env.Pool, s.Env.Commit)
	fmt.Fprintf(w, "  %-22s %14s %-7s %14s %14s %8s\n", "end to end", "median", "unit", "q1", "q3", "bound")
	for _, d := range endToEndDefs(s.Workload) {
		se := s.EndToEnd[d.Name]
		n := ""
		if len(se.Samples) > 0 {
			n = fmt.Sprintf("  n=%d", se.Samples[0])
		}
		fmt.Fprintf(w, "  %-22s %14.6g %-7s %14.6g %14.6g %7.0f%%%s\n", d.Name, se.Median, se.Unit, se.Q1, se.Q3, se.Bound*100, n)
	}
	fmt.Fprintf(w, "  %-36s %16s %s\n", "per layer (traced replay)", "value", "unit")
	for _, d := range perLayer {
		lv := s.PerLayer[d.Name]
		fmt.Fprintf(w, "  %-36s %16.6g %s\n", d.Name, lv.Value, lv.Unit)
	}
	fmt.Fprintf(w, "  attempted=%d failed=%d correct=%v\n", s.Attempted, s.Failed, s.Correct)
	for _, n := range s.Notes {
		fmt.Fprintf(w, "  note: %s\n", n)
	}
}

func loadSummaries(dir string) (map[string]*summary, error) {
	paths, err := filepath.Glob(filepath.Join(dir, "*.json"))
	if err != nil {
		return nil, err
	}
	out := map[string]*summary{}
	for _, p := range paths {
		data, err := os.ReadFile(p)
		if err != nil {
			return nil, err
		}
		var s summary
		if err := json.Unmarshal(data, &s); err != nil {
			return nil, fmt.Errorf("%s: %w", p, err)
		}
		if s.Workload == "" || s.EndToEnd == nil {
			continue // not a summary (a run report or a trace)
		}
		out[s.Workload] = &s
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("no workload summaries under %s", dir)
	}
	return out, nil
}

// Verdicts of one (metric, workload) row.
const (
	verdictRegressed  = "REGRESSED"
	verdictUnresolved = "unresolved"
	verdictImproved   = "improved"
	verdictUnchanged  = "unchanged"
)

// judge holds candidate b to baseline a on one metric. worse is how much
// b's median is worse than a's, as a share of a's median; a row whose
// run-to-run quartile spread on either side exceeds the allowance is
// unresolved rather than unchanged.
func judge(a, b series) (verdict string, worse float64) {
	diff := b.Median - a.Median
	if a.Better == "higher" {
		diff = -diff
	}
	base := a.Median
	if base < 0 {
		base = -base
	}
	allowed := a.Bound*base + a.Floor
	if base > 0 {
		worse = diff / base
	} else if diff > 0 {
		worse = 1
	}
	spread := a.Q3 - a.Q1
	if s := b.Q3 - b.Q1; s > spread {
		spread = s
	}
	switch {
	case diff > allowed:
		return verdictRegressed, worse
	case spread > allowed:
		return verdictUnresolved, worse
	case -diff > allowed:
		return verdictImproved, worse
	}
	return verdictUnchanged, worse
}

// compareDirs prints one row per (end-to-end metric, workload) and the
// count metrics that differ; regressed reports a regression or a higher
// error_rate.
func compareDirs(dirA, dirB string, w io.Writer) (regressed bool, err error) {
	as, err := loadSummaries(dirA)
	if err != nil {
		return false, err
	}
	bs, err := loadSummaries(dirB)
	if err != nil {
		return false, err
	}
	var names []string
	for name := range as {
		if bs[name] != nil {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	if len(names) == 0 {
		return false, fmt.Errorf("%s and %s share no workload", dirA, dirB)
	}
	tally := map[string]int{}
	fmt.Fprintf(w, "%-14s %-18s %14s %14s %9s %7s  %s\n", "workload", "metric", "baseline", "candidate", "worse by", "bound", "verdict")
	for _, name := range names {
		a, b := as[name], bs[name]
		if a.Seconds != b.Seconds || a.Scale != b.Scale || a.Seed != b.Seed {
			fmt.Fprintf(w, "%-14s runs differ in settings (seed %d/%d, seconds %g/%g, scale %g/%g): rows below compare unlike runs\n",
				name, a.Seed, b.Seed, a.Seconds, b.Seconds, a.Scale, b.Scale)
		}
		for _, d := range endToEndDefs(name) {
			sa, okA := a.EndToEnd[d.Name]
			sb, okB := b.EndToEnd[d.Name]
			if !okA || !okB {
				continue
			}
			verdict, worse := judge(sa, sb)
			tally[verdict]++
			regressed = regressed || verdict == verdictRegressed
			fmt.Fprintf(w, "%-14s %-18s %14.6g %14.6g %+8.1f%% %6.0f%%  %s\n",
				name, d.Name, sa.Median, sb.Median, worse*100, sa.Bound*100, verdict)
		}
		var differ []string
		for _, d := range perLayer {
			if d.Count && a.PerLayer[d.Name].Value != b.PerLayer[d.Name].Value {
				differ = append(differ, fmt.Sprintf("%s %g -> %g", d.Name, a.PerLayer[d.Name].Value, b.PerLayer[d.Name].Value))
			}
		}
		if len(differ) > 0 {
			fmt.Fprintf(w, "%-14s counts differ: %s\n", name, strings.Join(differ, "; "))
		} else {
			fmt.Fprintf(w, "%-14s every count metric of the traced replay is identical\n", name)
		}
	}
	fmt.Fprintf(w, "%d regressed, %d unresolved, %d improved, %d unchanged\n",
		tally[verdictRegressed], tally[verdictUnresolved], tally[verdictImproved], tally[verdictUnchanged])
	return regressed, nil
}
