package cluster

import (
	"fmt"
	"regexp"
	"strings"
	"testing"
	"time"

	"skysql/internal/chaos"
	"skysql/internal/skyline"
	"skysql/internal/types"
)

// TestCounterTable pins the counter table: every Counter has a unique,
// non-empty snake_case name and a Report line.
func TestCounterTable(t *testing.T) {
	snake := regexp.MustCompile(`^[a-z]+(_[a-z]+)*$`)
	seen := map[string]Counter{}
	for c := Counter(0); c < numCounters; c++ {
		name := c.String()
		if !snake.MatchString(name) {
			t.Errorf("counter %d: name %q is not snake_case", c, name)
		}
		if prev, dup := seen[name]; dup {
			t.Errorf("counters %d and %d share the name %q", prev, c, name)
		}
		seen[name] = c
		if counterTable[c].line == "" {
			t.Errorf("counter %s has no Report line", c)
		}
	}
}

// TestMetricsNilSafe: Add, Count and Report work on a nil *Metrics.
func TestMetricsNilSafe(t *testing.T) {
	var m *Metrics
	for c := Counter(0); c < numCounters; c++ {
		m.Add(c, 3)
		if got := m.Count(c); got != 0 {
			t.Errorf("nil Count(%s) = %d", c, got)
		}
	}
	m.AddDegradation("drop-sidecars")
	if got := m.Report(); got != "" {
		t.Errorf("nil Report = %q", got)
	}
}

// TestReportNamesNonZeroCounters: an all-zero Metrics reports nothing, and
// a counter set alone shows up in Report with its value and its line's
// label, while the lines of the zero counters stay out.
func TestReportNamesNonZeroCounters(t *testing.T) {
	if got := (&Metrics{}).Report(); got != "" {
		t.Fatalf("all-zero Report = %q, want \"\"", got)
	}
	for c := Counter(0); c < numCounters; c++ {
		m := &Metrics{}
		m.Add(c, 7)
		if got := m.Count(c); got != 7 {
			t.Fatalf("Count(%s) = %d after Add 7", c, got)
		}
		row := counterTable[c]
		want := row.line + ": "
		if row.unit == "" {
			want += "7\n"
		}
		rep := m.Report()
		if !strings.Contains(rep, want) || (row.unit != "" && !strings.Contains(rep, "7 "+row.unit)) {
			t.Errorf("Report with %s = 7 does not name it:\n%s", c, rep)
		}
		if lines := strings.Count(rep, "\n"); lines != 1 {
			t.Errorf("Report with only %s set has %d lines:\n%s", c, lines, rep)
		}
	}

	m := &Metrics{}
	m.Add(CacheHits, 1)
	m.Add(CacheMisses, 2)
	m.AddDegradation("drop-sidecars (live=7, budget=10)")
	m.AddStageTime(2, time.Millisecond)
	want := []string{
		"== Stage Times (last run) ==\nstage  1:    2 task(s)",
		"result cache: 1 hits, 2 misses, 0 evictions, 0 incremental upgrades\n",
		"faults: 0 task retries, 0 injected faults, 0 tasks failed, 1 degradation steps\n",
		"degradation steps:\n  drop-sidecars (live=7, budget=10)\n",
	}
	rep := m.Report()
	for _, w := range want {
		if !strings.Contains(rep, w) {
			t.Errorf("Report missing %q:\n%s", w, rep)
		}
	}
}

// TestDeterministicCountersRepeat runs the same chaos-injected,
// morsel-parallel round and gather on a shared pool three times: every
// counter the table marks deterministic must read the same each time.
func TestDeterministicCountersRepeat(t *testing.T) {
	pool := NewWorkerPool(4)
	defer pool.Close()
	run := func() *Metrics {
		ctx := NewContext(4)
		ctx.Runner = pool
		ctx.MorselParallel = true
		ctx.Injector = chaos.New(chaos.Config{Seed: 5, FaultRate: 0.2})
		ctx.MaxTaskRetries = 10
		ctx.RetryBackoff = time.Microsecond
		in := evenParts(8192, 4)
		out, err := ctx.MapRanges([]int{2048, 2048, 2048, 2048}, func(p, lo, hi int) ([]types.Row, *skyline.Batch, error) {
			return in.Parts[p][lo:hi], nil, nil
		}, true)
		if err == nil {
			out, err = ctx.Exchange(out, AllTuples, nil)
		}
		if err == nil && out.NumRows() != 8192 {
			err = fmt.Errorf("lost rows: %d", out.NumRows())
		}
		if err != nil {
			t.Fatal(err)
		}
		return ctx.Metrics
	}
	first := run()
	for _, c := range []Counter{Stages, RowsShuffled, Morsels, InjectedFaults, TaskRetries} {
		if first.Count(c) == 0 {
			t.Fatalf("%s = 0: the run does not exercise it", c)
		}
	}
	for i := 0; i < 2; i++ {
		m := run()
		for c := Counter(0); c < numCounters; c++ {
			if counterTable[c].deterministic && m.Count(c) != first.Count(c) {
				t.Errorf("run %d: deterministic %s = %d, first run %d", i+2, c, m.Count(c), first.Count(c))
			}
		}
	}
}
