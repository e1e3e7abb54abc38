package cluster

import (
	"fmt"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"skysql/internal/skyline"
)

// Counter names one execution counter of Metrics. Each has one row in
// counterTable; a new counter is one constant plus one row.
type Counter int

const (
	// Stages counts scheduled task rounds: a wave of per-partition tasks
	// submitted in one MapPartitions round. Under stage-fused execution a
	// whole pipeline of narrow operators costs a single stage.
	Stages Counter = iota
	// RowsShuffled counts rows moved through exchanges.
	RowsShuffled
	// VectorizedBatches counts partition passes whose filter/projection/
	// extremum expressions ran on the vectorized engine instead of the
	// boxed row loop. On a decode-at-scan plan with a vectorizable filter
	// it is at least the number of input partitions.
	VectorizedBatches
	// Morsels counts morsel tasks scheduled by morsel-parallel rounds;
	// whole partitions scheduled by the classic path are not morsels.
	// Morsel sizing never consults the real core count, so
	// TestMorselBudgetIsPerStage pins it.
	Morsels
	// Steals counts tasks executed by a worker other than the one they
	// were enqueued on: observed on the real pool (so timing-dependent),
	// derived from the makespan model's placement on a Simulator.
	Steals
	// CacheHits counts queries answered from a result-cache entry without
	// executing their stages. Hits and misses are pure functions of (query
	// sequence, table versions, cache budget), so
	// TestResultCacheBitIdenticalAcrossAblations (root package) pins them.
	CacheHits
	// CacheMisses counts result-cache lookups that fell through to stage
	// execution.
	CacheMisses
	// CacheEvictions counts whole entries evicted by the result cache's LRU
	// byte budget (sidecar drops are degradation, not eviction).
	CacheEvictions
	// IncrementalUpgrades counts cache entries upgraded in place after a
	// table append: new points dominance-tested against the cached skyline
	// instead of invalidating the entry.
	IncrementalUpgrades
	// TaskRetries counts task attempts retried after a transient failure.
	// Fault injection decides from the task key, so
	// TestRetryRecoversTransientFaults pins it.
	TaskRetries
	// InjectedFaults counts chaos-injected transient task failures;
	// TestInjectedFaultsRetriedDeterministically holds it equal across
	// runs.
	InjectedFaults
	// TasksFailed counts tasks that failed permanently (retry budget
	// exhausted, or a non-transient error). The failure cancels the rest
	// of the round, so how many others fail first depends on timing.
	TasksFailed
	// DegradationSteps counts memory-governor escalations (AddDegradation).
	// Injected allocation spikes check the budget inside concurrent tasks,
	// and a shared governor sees other queries' bytes, so the count can
	// depend on timing; TestMemoryGovernorLadder pins it where neither
	// happens.
	DegradationSteps
	// SegmentsPruned counts segments a scan skipped because the zone maps
	// proved the filter predicate empty over them — a pure function of
	// (footer zone maps, predicate); TestSegmentScanPeakBelowBoxedSurvivors
	// (root package) pins it.
	SegmentsPruned
	// SegmentsSpilled counts gather buffers the memory governor's spill
	// tier wrote out as temporary segments. It follows the escalations
	// DegradationSteps counts; TestOutOfCoreSpillCompletesBudgetedQuery
	// (root package) pins it.
	SegmentsSpilled

	numCounters
)

// counterTable describes every Counter. Report prints consecutive rows
// sharing a line as one "line: value unit, value unit" entry.
var counterTable = [numCounters]struct {
	name          string // snake_case; the /query metrics key where there is one
	line          string // the Report line's label
	unit          string // "" when the line names the counter
	deterministic bool   // never depends on wall clock or worker placement, under any Runner
}{
	Stages:              {"stages", "stages executed", "", true},
	RowsShuffled:        {"rows_shuffled", "rows shuffled", "", true},
	VectorizedBatches:   {"vectorized_batches", "vectorized batches", "", true},
	Morsels:             {"morsels", "morsels", "executed", true},
	Steals:              {"steals", "morsels", "steals", false},
	CacheHits:           {"cache_hits", "result cache", "hits", true},
	CacheMisses:         {"cache_misses", "result cache", "misses", true},
	CacheEvictions:      {"cache_evictions", "result cache", "evictions", true},
	IncrementalUpgrades: {"incremental_upgrades", "result cache", "incremental upgrades", true},
	TaskRetries:         {"task_retries", "faults", "task retries", true},
	InjectedFaults:      {"injected_faults", "faults", "injected faults", true},
	TasksFailed:         {"tasks_failed", "faults", "tasks failed", false},
	DegradationSteps:    {"degradation_steps", "faults", "degradation steps", false},
	SegmentsPruned:      {"segments_pruned", "segments", "pruned", true},
	SegmentsSpilled:     {"segments_spilled", "segments", "spilled", false},
}

// String returns the counter's snake_case name.
func (c Counter) String() string { return counterTable[c].name }

// Metrics accumulates execution counters. Safe for concurrent use; every
// method is a no-op (or reads zero) on a nil *Metrics.
type Metrics struct {
	counters [numCounters]atomic.Int64

	curBytes     atomic.Int64
	peakBytes    atomic.Int64
	parallelBusy atomic.Int64 // nanos of task work inside parallel rounds
	parallelWall atomic.Int64 // nanos of (real or modeled) round makespans

	// governor, when attached, mirrors this query's live-byte movements
	// into the shared cross-query pool (see governor.go).
	governor atomic.Pointer[Governor]

	mu         sync.Mutex
	stageTimes []StageTime
	cost       []CostDecision
	workerBusy []int64  // per-worker busy nanos, grown on demand
	degrade    []string // memory-governor escalations, in order

	// Sky aggregates dominance-test counts across all skyline operators in
	// the query.
	Sky skyline.Stats
}

// Add adds n to counter c.
func (m *Metrics) Add(c Counter, n int64) {
	if m != nil && n != 0 {
		m.counters[c].Add(n)
	}
}

// Count returns the value of counter c.
func (m *Metrics) Count(c Counter) int64 {
	if m == nil {
		return 0
	}
	return m.counters[c].Load()
}

// StagesExecuted is Count(Stages), kept for benchmark/layers.go.
func (m *Metrics) StagesExecuted() int64 { return m.Count(Stages) }

// MorselsExecuted is Count(Morsels), kept for benchmark/layers.go.
func (m *Metrics) MorselsExecuted() int64 { return m.Count(Morsels) }

// RowsShuffled is Count(RowsShuffled), kept for benchmark/layers.go.
func (m *Metrics) RowsShuffled() int64 { return m.Count(RowsShuffled) }

// Steals is Count(Steals), kept for benchmark/layers.go.
func (m *Metrics) Steals() int64 { return m.Count(Steals) }

// VectorizedBatches is Count(VectorizedBatches), kept for benchmark/layers.go.
func (m *Metrics) VectorizedBatches() int64 { return m.Count(VectorizedBatches) }

// SegmentsPruned is Count(SegmentsPruned), kept for benchmark/layers.go.
func (m *Metrics) SegmentsPruned() int64 { return m.Count(SegmentsPruned) }

// AddDegradation records one memory-governor escalation, in order, and
// counts it as a DegradationSteps.
func (m *Metrics) AddDegradation(step string) {
	if m == nil {
		return
	}
	m.Add(DegradationSteps, 1)
	m.mu.Lock()
	m.degrade = append(m.degrade, step)
	m.mu.Unlock()
}

// Degradations returns the recorded escalation steps, in order.
func (m *Metrics) Degradations() []string {
	if m == nil {
		return nil
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]string, len(m.degrade))
	copy(out, m.degrade)
	return out
}

// AddWorkerBusy charges d of busy time to the given worker.
func (m *Metrics) AddWorkerBusy(worker int, d time.Duration) {
	if m == nil || worker < 0 {
		return
	}
	m.mu.Lock()
	for len(m.workerBusy) <= worker {
		m.workerBusy = append(m.workerBusy, 0)
	}
	m.workerBusy[worker] += int64(d)
	m.mu.Unlock()
}

// WorkerBusy returns the per-worker busy times (index = worker id); empty
// when no parallel round ran.
func (m *Metrics) WorkerBusy() []time.Duration {
	if m == nil {
		return nil
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]time.Duration, len(m.workerBusy))
	for i, n := range m.workerBusy {
		out[i] = time.Duration(n)
	}
	return out
}

// AddParallelRound accumulates one round's busy time (the summed task
// work) and wall time (the round's real or modeled makespan). Their running
// ratio is the achieved parallelism.
func (m *Metrics) AddParallelRound(busy, wall time.Duration) {
	if m == nil {
		return
	}
	m.parallelBusy.Add(int64(busy))
	m.parallelWall.Add(int64(wall))
}

// AchievedParallelism returns total busy time over total wall time across
// the parallel rounds of the run — how many workers were effectively busy
// on average. 0 when no parallel round ran.
func (m *Metrics) AchievedParallelism() float64 {
	if m == nil {
		return 0
	}
	wall := m.parallelWall.Load()
	if wall <= 0 {
		return 0
	}
	return float64(m.parallelBusy.Load()) / float64(wall)
}

// CostDecision records one choice the cost model made during planning or
// execution, so adaptive behaviour stays observable: EXPLAIN (after a
// run) and the shell's \s surface the list.
type CostDecision struct {
	// Site names the decision point: "decode-at-scan" (fused stages),
	// "exchange-target" (adaptive partition counts), "exchange-bucketing"
	// (columnar vs boxed partitioned exchanges).
	Site string
	// Choice is the selected alternative, e.g. "decode"/"defer",
	// "adaptive"/"static"/"explicit"/"degraded", "columnar"/"boxed".
	Choice string
	// Rows is the (estimated or observed) input row count the decision was
	// based on.
	Rows int
	// Selectivity is the estimated predicate selectivity driving the
	// decision; -1 when no predicate was involved.
	Selectivity float64
	// Detail renders the deciding quantities for humans.
	Detail string
}

// String renders the decision for EXPLAIN and the shell.
func (d CostDecision) String() string {
	s := fmt.Sprintf("%s: %s (rows=%d", d.Site, d.Choice, d.Rows)
	if d.Selectivity >= 0 {
		s += fmt.Sprintf(", selectivity=%.3f", d.Selectivity)
	}
	if d.Detail != "" {
		s += ", " + d.Detail
	}
	return s + ")"
}

// AddCostDecision appends one cost-model decision, in execution order.
func (m *Metrics) AddCostDecision(d CostDecision) {
	if m == nil {
		return
	}
	m.mu.Lock()
	m.cost = append(m.cost, d)
	m.mu.Unlock()
}

// CostDecisions returns a copy of the cost-model decision records.
func (m *Metrics) CostDecisions() []CostDecision {
	if m == nil {
		return nil
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]CostDecision, len(m.cost))
	copy(out, m.cost)
	return out
}

// BatchesDecoded returns the number of columnar batches decoded during the
// run. On a sidecar-carrying local→global skyline plan it equals the
// number of input partitions: the global pass and the exchanges between
// are decode-free.
func (m *Metrics) BatchesDecoded() int64 {
	if m == nil {
		return 0
	}
	return m.Sky.BatchesDecoded()
}

// StageTime is the makespan record of one executed stage (one scheduled
// task round): Elapsed is the round's duration as its Runner reports it —
// the real wall time on the pool, the modeled makespan (including per-task
// overhead) on a Simulator.
type StageTime struct {
	Tasks   int
	Elapsed time.Duration
}

// AddStageTime appends one stage's makespan record, in execution order.
func (m *Metrics) AddStageTime(tasks int, d time.Duration) {
	if m == nil {
		return
	}
	m.mu.Lock()
	m.stageTimes = append(m.stageTimes, StageTime{Tasks: tasks, Elapsed: d})
	m.mu.Unlock()
}

// StageTimes returns a copy of the per-stage makespan records.
func (m *Metrics) StageTimes() []StageTime {
	if m == nil {
		return nil
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]StageTime, len(m.stageTimes))
	copy(out, m.stageTimes)
	return out
}

// Alloc charges n bytes of materialized data and updates the peak. When a
// global governor is attached the charge also lands in the shared pool.
func (m *Metrics) Alloc(n int64) {
	if m == nil {
		return
	}
	m.governor.Load().add(n)
	cur := m.curBytes.Add(n)
	for {
		peak := m.peakBytes.Load()
		if cur <= peak || m.peakBytes.CompareAndSwap(peak, cur) {
			return
		}
	}
}

// Free releases n bytes of materialized data. The live counter is clamped
// at zero: an unmatched Free (a bookkeeping bug in some operator) must not
// drive it negative, which would silently deflate every later PeakBytes
// reading — and, worse now that the counter is enforced, hide real
// pressure from the memory governor.
func (m *Metrics) Free(n int64) {
	if m == nil {
		return
	}
	for {
		cur := m.curBytes.Load()
		next := cur - n
		if next < 0 {
			next = 0
		}
		if m.curBytes.CompareAndSwap(cur, next) {
			// The shared pool is released by what was actually freed — the
			// clamp above can shrink an unmatched Free, and forwarding the
			// raw n would drift the global counter below the sum of its
			// per-query parts.
			m.governor.Load().add(next - cur)
			return
		}
	}
}

// LiveBytes returns the currently-materialized byte count — the quantity
// the memory governor budgets. Never negative (see Free).
func (m *Metrics) LiveBytes() int64 {
	if m == nil {
		return 0
	}
	return m.curBytes.Load()
}

// PeakBytes returns the highest concurrently-materialized byte count seen.
func (m *Metrics) PeakBytes() int64 {
	if m == nil {
		return 0
	}
	return m.peakBytes.Load()
}

// Report renders the run for EXPLAIN (after a run) and the shell's \s:
// the per-stage makespans, batches decoded, peak bytes, one line per
// counterTable line with a non-zero counter, achieved parallelism,
// per-worker busy time, cost decisions and degradation steps — each only
// when there is something to show, so an all-zero Metrics reports "".
func (m *Metrics) Report() string {
	var sb strings.Builder
	if times := m.StageTimes(); len(times) > 0 {
		var total time.Duration
		for _, st := range times {
			total += st.Elapsed
		}
		sb.WriteString("== Stage Times (last run) ==\n")
		for i, st := range times {
			pct := 0.0
			if total > 0 {
				pct = 100 * float64(st.Elapsed) / float64(total)
			}
			fmt.Fprintf(&sb, "stage %2d: %4d task(s) %12s  %5.1f%%\n", i+1, st.Tasks, st.Elapsed.Round(time.Microsecond), pct)
		}
		fmt.Fprintf(&sb, "total:    %4d stage(s) %11s\n", len(times), total.Round(time.Microsecond))
	}
	if n := m.BatchesDecoded(); n > 0 {
		fmt.Fprintf(&sb, "batches decoded: %d\n", n)
	}
	if n := m.PeakBytes(); n > 0 {
		fmt.Fprintf(&sb, "peak bytes: %d\n", n)
	}
	for c := Counter(0); c < numCounters; {
		line, values, nonzero := counterTable[c].line, "", false
		for ; c < numCounters && counterTable[c].line == line; c++ {
			n := m.Count(c)
			nonzero = nonzero || n != 0
			if values != "" {
				values += ", "
			}
			values += strconv.FormatInt(n, 10)
			if unit := counterTable[c].unit; unit != "" {
				values += " " + unit
			}
		}
		if nonzero {
			sb.WriteString(line + ": " + values + "\n")
		}
	}
	if ap := m.AchievedParallelism(); ap > 0 {
		fmt.Fprintf(&sb, "achieved parallelism: %.2fx\n", ap)
	}
	if busy := m.WorkerBusy(); len(busy) > 0 {
		parts := make([]string, len(busy))
		for i, d := range busy {
			parts[i] = d.Round(time.Microsecond).String()
		}
		sb.WriteString("worker busy: [" + strings.Join(parts, " ") + "]\n")
	}
	if ds := m.CostDecisions(); len(ds) > 0 {
		sb.WriteString("cost decisions:\n")
		for _, d := range ds {
			sb.WriteString("  " + d.String() + "\n")
		}
	}
	if steps := m.Degradations(); len(steps) > 0 {
		sb.WriteString("degradation steps:\n")
		for _, st := range steps {
			sb.WriteString("  " + st + "\n")
		}
	}
	return sb.String()
}
