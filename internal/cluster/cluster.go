// Package cluster is the execution substrate standing in for the Spark
// cluster of the paper's evaluation (§6.1): a work-stealing pool of
// executors (goroutines) processing partitioned datasets, exchange
// (shuffle) primitives with the distributions the skyline operators need
// (Unspecified, AllTuples, NullBitmap, Hash), and metrics — wall-clock is
// measured by callers; this package tracks machine-independent counters
// (rows shuffled, peak materialized bytes). The executor-count model
// (Simulator) is a substitute Runner for the evaluation harness.
package cluster

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"skysql/internal/chaos"
	"skysql/internal/cost"
	"skysql/internal/skyline"
	"skysql/internal/storage"
	"skysql/internal/types"
)

// Dataset is a partitioned bag of rows, the engine's RDD stand-in.
//
// Rows are authoritative; Batches is an optional columnar sidecar. When
// Batches is non-nil it has one slot per partition, and a non-nil
// Batches[i] is an already-decoded skyline.Batch view of Parts[i], kept
// index-aligned with the rows (batch point j wraps Parts[i][j]). The
// sidecar lets decoded columns flow through exchanges — gather merges
// batches, partition schemes re-bucket them by index arithmetic — so a
// downstream skyline operator never re-decodes what an upstream one
// already paid for. Transforms that change rows without producing a new
// batch simply drop the sidecar.
type Dataset struct {
	Parts   [][]types.Row
	Batches []*skyline.Batch

	// Encoding, when non-nil, is where the dataset's producer keeps the
	// encoded form of exactly the rows Gather returns from one run to the
	// next. Only a plan's root sets it (the result cache).
	Encoding ResultEncoding
}

// ResultEncoding holds a query result's rows as text across runs of the
// same plan over the same data. The text is types.AppendRowsJSON's, split
// at row boundaries by the offsets types.AppendRowsJSONEnds records; that
// is its only format, and it lets the holder rebuild the text of an
// upgraded result from the rows it kept without parsing it.
type ResultEncoding interface {
	// Bytes returns the text an earlier run left, or nil. The slice is
	// shared between readers and must not be modified.
	Bytes() []byte
	// Attach leaves a copy of b, and ends itself, for later runs; the
	// holder may decline.
	Attach(b []byte, ends []uint32)
}

// NewDataset creates a dataset from partitions.
func NewDataset(parts ...[]types.Row) *Dataset { return &Dataset{Parts: parts} }

// BatchAt returns the columnar sidecar of partition i, or nil when the
// partition carries none.
func (d *Dataset) BatchAt(i int) *skyline.Batch {
	if d.Batches == nil || i >= len(d.Batches) {
		return nil
	}
	return d.Batches[i]
}

// MergedSidecar concatenates the per-partition sidecars into one batch
// aligned with Gather()'s row order. ok=false when any non-empty partition
// lacks an aligned batch or the batches are not mergeable (different tags).
func (d *Dataset) MergedSidecar() (*skyline.Batch, bool) {
	if d.Batches == nil {
		return nil, false
	}
	var batches []*skyline.Batch
	for i, p := range d.Parts {
		if len(p) == 0 {
			continue
		}
		b := d.BatchAt(i)
		if b == nil || b.Len() != len(p) {
			return nil, false
		}
		batches = append(batches, b)
	}
	if len(batches) == 0 {
		return nil, false
	}
	return skyline.MergeBatches(batches)
}

// NumRows returns the total row count across partitions.
func (d *Dataset) NumRows() int {
	n := 0
	for _, p := range d.Parts {
		n += len(p)
	}
	return n
}

// Gather concatenates all partitions into one slice (AllTuples semantics).
func (d *Dataset) Gather() []types.Row {
	out := make([]types.Row, 0, d.NumRows())
	for _, p := range d.Parts {
		out = append(out, p...)
	}
	return out
}

// Rows returns all rows in Gather's order for a caller that only reads
// them: a dataset of one partition hands out that partition itself, which
// other readers may share, and only several partitions are copied
// together.
func (d *Dataset) Rows() []types.Row {
	if len(d.Parts) == 1 {
		return d.Parts[0]
	}
	return d.Gather()
}

// MemSize estimates the materialized size of the dataset in bytes,
// including the decoded buffers of any columnar sidecars — a dataset
// carrying batches really is bigger than its boxed twin, and peak-bytes
// accounting must see that (sliced sidecars count their view lengths, the
// same convention sliced row partitions follow).
func (d *Dataset) MemSize() int64 {
	var n int64
	for _, p := range d.Parts {
		for _, r := range p {
			n += r.MemSize()
		}
	}
	for _, b := range d.Batches {
		if b != nil {
			n += b.MemSize()
		}
	}
	return n
}

// Metrics accumulates execution counters. Safe for concurrent use.
type Metrics struct {
	rowsShuffled atomic.Int64
	curBytes     atomic.Int64
	peakBytes    atomic.Int64
	stages       atomic.Int64
	vectorized   atomic.Int64

	morsels      atomic.Int64
	steals       atomic.Int64
	parallelBusy atomic.Int64 // nanos of task work inside parallel rounds
	parallelWall atomic.Int64 // nanos of (real or modeled) round makespans

	taskRetries    atomic.Int64
	tasksFailed    atomic.Int64
	injectedFaults atomic.Int64
	degradeSteps   atomic.Int64

	segmentsPruned  atomic.Int64
	segmentsSpilled atomic.Int64

	cacheHits           atomic.Int64
	cacheMisses         atomic.Int64
	cacheEvictions      atomic.Int64
	incrementalUpgrades atomic.Int64

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

// AddSegmentsPruned records n segments skipped by zone-map pruning before
// any page was decoded.
func (m *Metrics) AddSegmentsPruned(n int64) {
	if m != nil && n != 0 {
		m.segmentsPruned.Add(n)
	}
}

// SegmentsPruned returns the number of segments a scan skipped because
// the zone maps proved the filter predicate empty over them. Prune
// decisions are pure functions of (footer zone maps, predicate) — never
// wall clock or worker placement — so the count is deterministic under
// any Runner; TestSegmentScanPeakBelowBoxedSurvivors (root package) pins
// it.
func (m *Metrics) SegmentsPruned() int64 {
	if m == nil {
		return 0
	}
	return m.segmentsPruned.Load()
}

// AddSegmentsSpilled records n buffers written out as temporary segments
// by the memory governor's spill tier.
func (m *Metrics) AddSegmentsSpilled(n int64) {
	if m != nil && n != 0 {
		m.segmentsSpilled.Add(n)
	}
}

// SegmentsSpilled returns the number of gather buffers the memory
// governor spilled to temporary segments instead of holding live.
func (m *Metrics) SegmentsSpilled() int64 {
	if m == nil {
		return 0
	}
	return m.segmentsSpilled.Load()
}

// FormatSegments renders the out-of-core counters, or "" when the query
// touched no segment machinery (no noise for in-memory runs).
func (m *Metrics) FormatSegments() string {
	if m == nil {
		return ""
	}
	pruned, spilled := m.segmentsPruned.Load(), m.segmentsSpilled.Load()
	if pruned == 0 && spilled == 0 {
		return ""
	}
	return fmt.Sprintf("segments: %d pruned, %d spilled", pruned, spilled)
}

// AddCacheHit records one skyline result-cache hit: a query answered from
// a cached entry without executing its stages.
func (m *Metrics) AddCacheHit() {
	if m != nil {
		m.cacheHits.Add(1)
	}
}

// CacheHits returns the number of result-cache hits. Hit/miss outcomes are
// pure functions of (query sequence, table versions, cache budget) — never
// wall clock — so TestResultCacheBitIdenticalAcrossAblations (root
// package) pins the count.
func (m *Metrics) CacheHits() int64 {
	if m == nil {
		return 0
	}
	return m.cacheHits.Load()
}

// AddCacheMiss records one result-cache lookup that found no usable entry
// and fell through to stage execution.
func (m *Metrics) AddCacheMiss() {
	if m != nil {
		m.cacheMisses.Add(1)
	}
}

// CacheMisses returns the number of result-cache misses.
func (m *Metrics) CacheMisses() int64 {
	if m == nil {
		return 0
	}
	return m.cacheMisses.Load()
}

// AddCacheEvictions records n whole entries evicted from the result cache
// by its LRU byte budget (sidecar drops are degradation, not eviction, and
// are not counted here).
func (m *Metrics) AddCacheEvictions(n int64) {
	if m != nil && n != 0 {
		m.cacheEvictions.Add(n)
	}
}

// AddIncrementalUpgrade records one cache entry upgraded in place after a
// table append — new points dominance-tested against the cached skyline
// instead of invalidating the entry.
func (m *Metrics) AddIncrementalUpgrade() {
	if m != nil {
		m.incrementalUpgrades.Add(1)
	}
}

// IncrementalUpgrades returns the number of in-place incremental cache
// entry upgrades.
func (m *Metrics) IncrementalUpgrades() int64 {
	if m == nil {
		return 0
	}
	return m.incrementalUpgrades.Load()
}

// FormatResultCache renders the result-cache counters, or "" when the
// query touched no cache (no noise for uncached runs).
func (m *Metrics) FormatResultCache() string {
	if m == nil {
		return ""
	}
	hits, misses := m.cacheHits.Load(), m.cacheMisses.Load()
	evicted, upgraded := m.cacheEvictions.Load(), m.incrementalUpgrades.Load()
	if hits == 0 && misses == 0 && evicted == 0 && upgraded == 0 {
		return ""
	}
	return fmt.Sprintf("result cache: %d hits, %d misses, %d evictions, %d incremental upgrades",
		hits, misses, evicted, upgraded)
}

// AddMorsels records n morsel tasks scheduled by a morsel-parallel round.
func (m *Metrics) AddMorsels(n int64) {
	if m != nil {
		m.morsels.Add(n)
	}
}

// MorselsExecuted returns the number of morsel tasks scheduled by
// morsel-parallel rounds. Zero when morsel parallelism was off: whole
// partitions scheduled by the classic path are not morsels. The count is a
// pure function of the data layout and the executor budget (morsel sizing
// never consults the real core count), so TestMorselBudgetIsPerStage pins
// it.
func (m *Metrics) MorselsExecuted() int64 {
	if m == nil {
		return 0
	}
	return m.morsels.Load()
}

// AddSteal records one work-stealing event: a task executed by a worker
// other than the one it was enqueued on. On the real pool this is observed;
// a Simulator derives it from the greedy makespan model's task placement (a
// task placed off its home worker).
func (m *Metrics) AddSteal() {
	if m != nil {
		m.steals.Add(1)
	}
}

// Steals returns the number of work-stealing events. Informational (the
// real pool's placement depends on timing); morsel counts are the
// deterministic twin.
func (m *Metrics) Steals() int64 {
	if m == nil {
		return 0
	}
	return m.steals.Load()
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

// FormatMorsels renders the morsel-runtime counters for EXPLAIN and the
// shell ("" when no morsel-parallel round ran).
func (m *Metrics) FormatMorsels() string {
	morsels := m.MorselsExecuted()
	if morsels == 0 {
		return ""
	}
	s := fmt.Sprintf("morsels executed: %d, steals: %d", morsels, m.Steals())
	if ap := m.AchievedParallelism(); ap > 0 {
		s += fmt.Sprintf(", achieved parallelism: %.2fx", ap)
	}
	s += "\n"
	if busy := m.WorkerBusy(); len(busy) > 0 {
		parts := make([]string, len(busy))
		for i, d := range busy {
			parts[i] = d.Round(time.Microsecond).String()
		}
		s += "worker busy: [" + strings.Join(parts, " ") + "]\n"
	}
	return s
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

// FormatCostDecisions renders the decision list one per line ("" when the
// cost model made no decisions).
func (m *Metrics) FormatCostDecisions() string {
	ds := m.CostDecisions()
	if len(ds) == 0 {
		return ""
	}
	var sb strings.Builder
	for _, d := range ds {
		sb.WriteString("  " + d.String() + "\n")
	}
	return sb.String()
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

// AddVectorizedBatch records one partition whose filter/projection/
// extremum expression pass ran on the vectorized engine instead of the
// boxed row loop.
func (m *Metrics) AddVectorizedBatch() {
	if m != nil {
		m.vectorized.Add(1)
	}
}

// VectorizedBatches returns the number of partition passes served by the
// vectorized expression engine. On a decode-at-scan plan with a
// vectorizable filter it is at least the number of input partitions; zero
// means every expression ran boxed.
func (m *Metrics) VectorizedBatches() int64 {
	if m == nil {
		return 0
	}
	return m.vectorized.Load()
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

// FormatStageTimes renders the per-stage makespan breakdown so the
// dominating stage of a query is visible at a glance.
func (m *Metrics) FormatStageTimes() string {
	times := m.StageTimes()
	if len(times) == 0 {
		return ""
	}
	var total time.Duration
	for _, st := range times {
		total += st.Elapsed
	}
	var sb strings.Builder
	for i, st := range times {
		pct := 0.0
		if total > 0 {
			pct = 100 * float64(st.Elapsed) / float64(total)
		}
		fmt.Fprintf(&sb, "stage %2d: %4d task(s) %12s  %5.1f%%\n", i+1, st.Tasks, st.Elapsed.Round(time.Microsecond), pct)
	}
	fmt.Fprintf(&sb, "total:    %4d stage(s) %11s\n", len(times), total.Round(time.Microsecond))
	return sb.String()
}

// AddStage records one scheduled stage: a wave of per-partition tasks
// submitted in one MapPartitions round. Under stage-fused execution a
// whole pipeline of narrow operators costs a single stage.
func (m *Metrics) AddStage() {
	if m != nil {
		m.stages.Add(1)
	}
}

// StagesExecuted returns the number of scheduled task rounds (stages).
func (m *Metrics) StagesExecuted() int64 {
	if m == nil {
		return 0
	}
	return m.stages.Load()
}

// AddShuffled records rows moved through an exchange.
func (m *Metrics) AddShuffled(n int64) {
	if m != nil {
		m.rowsShuffled.Add(n)
	}
}

// RowsShuffled returns the number of rows moved through exchanges.
func (m *Metrics) RowsShuffled() int64 {
	if m == nil {
		return 0
	}
	return m.rowsShuffled.Load()
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

// ErrCanceled is returned by operators when the context was canceled.
var ErrCanceled = fmt.Errorf("cluster: query canceled")

// Context carries the execution configuration of one query run.
type Context struct {
	// Executors is the parallelism budget, the paper's per-run executor
	// count parameter (§6.4).
	Executors int
	// Metrics receives counters; may be nil.
	Metrics *Metrics

	// Runner executes the context's task rounds: typically the session's
	// work-stealing pool, which concurrent queries may share, or a Simulator
	// in the evaluation harness. nil runs each round on a transient pool of
	// min(Executors, tasks) workers.
	Runner Runner

	// DecodeAtScan lets fused stages decode their columnar batch at the
	// stage source (one boxed pass over the scanned partition, or — over a
	// segment-backed scan — straight from the pages) instead of at the
	// local skyline, so leading filters and projections run on the
	// vectorized expression engine and the whole narrow chain is
	// decode-once. Results are bit-identical either way. Production never
	// clears it (NewContext sets it): the cost gate's "defer" choice is the
	// production route to the same behaviour, per stage, when eager decoding
	// of pre-filter rows would not pay. false is the tests' boxed
	// reference: no sidecar reaches a filter or projection, so they run the
	// boxed evaluator.
	DecodeAtScan bool

	// TargetRowsPerPartition, when positive, makes exchanges adaptive
	// (AQE-style): the post-exchange partition count is picked from the
	// observed upstream output size — ceil(rows/target), clamped to
	// [1, Executors] — instead of the static executor count, so tiny
	// intermediate results collapse into fewer tasks and the stage makespan
	// stops paying per-task overhead for near-empty partitions. 0 (the
	// default) keeps the static count unless AdaptiveExchange is set; tests
	// use small explicit targets to exercise adaptivity on small inputs.
	// Decisions are recorded in Metrics.CostDecisions.
	TargetRowsPerPartition int

	// AdaptiveExchange makes exchanges adaptive even without an explicit
	// TargetRowsPerPartition: the target is then cost-chosen per exchange
	// from the observed upstream size and the executor count
	// (cost.ExchangeTarget). Every session sets it; the raw cluster context
	// keeps it off, so the evaluation harness's modelled figures and other
	// low-level callers see the static partitioning unless they ask.
	AdaptiveExchange bool

	// MorselParallel lets splittable task rounds cut large partitions into
	// morsels — bounded row ranges sharing the partition's columnar sidecar
	// via Batch.Slice, about four per executor per round — so a skewed
	// partition parallelizes instead of serializing its stage. Only rounds
	// whose transform is morsel-safe opt in (MapPartitionsSplittable);
	// results are bit-identical to whole-partition execution by the
	// splitting contract.
	MorselParallel bool

	// MorselTargetRows overrides the cost-chosen rows-per-morsel target
	// (cost.MorselTarget over the round's total rows) for morsel
	// splitting. 0 (the default) keeps the cost-chosen target; tests use
	// small explicit targets to exercise splitting on small inputs.
	MorselTargetRows int

	// Injector, when non-nil, injects deterministic faults (transient task
	// errors, straggler delays, allocation spikes) into every task attempt,
	// keyed by (stage, partition/morsel, attempt). Sessions wire it via
	// skysql.WithFaultInjection.
	Injector *chaos.Injector

	// MaxTaskRetries bounds per-task re-execution after transient failures
	// (0 = fail the round on the first error, the pre-retry behaviour at
	// the cluster layer; sessions default to a small positive budget).
	// Tasks are pure per-partition/morsel closures, so re-execution is
	// lineage-safe.
	MaxTaskRetries int

	// RetryBackoff is the base delay of the exponential retry backoff
	// (doubled per attempt, capped, deterministically jittered). 0 uses a
	// sub-millisecond default sized for in-process transient faults.
	RetryBackoff time.Duration

	// MemoryBudget, when positive, caps the query's live materialized
	// bytes (Metrics.LiveBytes). Exceeding soft thresholds degrades the
	// plan gracefully — spill gather buffers to temporary segments (only
	// when SpillDir is set), then drop columnar sidecars, then collapse
	// exchange fan-out — before a hard excess fails the query with
	// ErrMemoryBudget.
	MemoryBudget int64

	// Global, when non-nil, enrolls the query in a shared cross-query
	// live-bytes pool: CheckBudget walks the degradation ladder against the
	// pool's budget as well as the query's own, so concurrent queries
	// degrade together under collective pressure instead of any one of
	// them failing alone. The session attaches the query's Metrics to the
	// governor for the run (Metrics.AttachGovernor / DetachGovernor).
	Global *Governor

	// SpillDir, when non-empty, arms the memory governor's spill tier:
	// once the budget pressure crosses the spill threshold, exchange
	// gather buffers are written out as temporary segment files under this
	// directory and re-streamed, so the query completes out-of-core before
	// any result-affecting degradation step fires. Empty (the default)
	// skips the spill rung entirely — the ladder then starts at
	// drop-sidecars, bit-identical to the pre-spill governor.
	SpillDir string

	canceled     atomic.Bool
	degradeLevel atomic.Int32 // memory-governor ladder position

	cancelMu  sync.Mutex
	cancelErr error // cause recorded by the first CancelWith
}

// Cancel requests cooperative termination of the run; long-running
// operators (nested-loop joins, exchanges, partition maps) observe it and
// return ErrCanceled. Workers re-check between tasks — one partition or
// morsel is the cancellation latency bound on every execution path.
func (c *Context) Cancel() { c.CancelWith(ErrCanceled) }

// CancelWith is Cancel with an explicit cause: the error cooperative
// checkpoints will return, e.g. a deadline error recorded by the session's
// deadline watcher. The first cause wins; a nil cause falls back to
// ErrCanceled. Callers that need errors.Is(err, ErrCanceled) to hold
// should wrap the sentinel into their cause.
func (c *Context) CancelWith(cause error) {
	if cause == nil {
		cause = ErrCanceled
	}
	c.cancelMu.Lock()
	if c.cancelErr == nil {
		c.cancelErr = cause
	}
	c.cancelMu.Unlock()
	c.canceled.Store(true)
}

// Canceled reports whether Cancel was called.
func (c *Context) Canceled() bool { return c.canceled.Load() }

// CheckCanceled returns the cancellation cause after Cancel (ErrCanceled
// unless CancelWith recorded one), nil otherwise.
func (c *Context) CheckCanceled() error {
	if !c.canceled.Load() {
		return nil
	}
	c.cancelMu.Lock()
	err := c.cancelErr
	c.cancelMu.Unlock()
	if err == nil {
		err = ErrCanceled
	}
	return err
}

// NewContext creates a context with the given executor count (minimum 1).
// Decode-at-scan is on by default; disable it for boxed-only A/B runs.
func NewContext(executors int) *Context {
	if executors < 1 {
		executors = 1
	}
	return &Context{Executors: executors, Metrics: &Metrics{}, DecodeAtScan: true}
}

// MapPartitions applies fn to each partition of in, running at most
// Executors partitions concurrently, and returns the transformed dataset.
// This is the engine's task-scheduling primitive: one partition = one task.
// The transform produces new rows, so any columnar sidecar of in is
// dropped; batch-aware transforms use MapPartitionsColumnar.
func (c *Context) MapPartitions(in *Dataset, fn func(i int, part []types.Row) ([]types.Row, error)) (*Dataset, error) {
	return c.MapPartitionsColumnar(in, func(i int, part []types.Row, _ *skyline.Batch) ([]types.Row, *skyline.Batch, error) {
		rows, err := fn(i, part)
		return rows, nil, err
	})
}

// ColumnarFn is the batch-aware per-partition transform: it receives the
// partition's rows plus its columnar sidecar (nil when none is attached)
// and may return a new sidecar index-aligned with its output rows (nil to
// drop it).
type ColumnarFn = func(i int, part []types.Row, b *skyline.Batch) ([]types.Row, *skyline.Batch, error)

// MapPartitionsColumnar is MapPartitions for batch-aware transforms: the
// columnar sidecar of each input partition is handed to fn, and sidecars
// returned by fn are attached to the output dataset. Partitions are never
// split: each is exactly one task.
func (c *Context) MapPartitionsColumnar(in *Dataset, fn ColumnarFn) (*Dataset, error) {
	return c.mapPartitions(in, fn, false)
}

// MapPartitionsSplittable is MapPartitionsColumnar for transforms that are
// morsel-safe: when MorselParallel is on, partitions that are large against
// the round's morsel target (taken once over all partitions) are cut into
// contiguous row-range morsels (sidecars sliced alongside via Batch.Slice)
// that execute as independent tasks, and each partition's output is the
// in-order concatenation of its morsel outputs (sidecars re-merged when
// every morsel produced one).
//
// The morsel-safety contract fn must satisfy: fn may be invoked several
// times with the SAME partition index i (once per morsel, concurrently),
// and for any contiguous split part = m₁ ++ m₂ ++ …, the concatenation
// fn(m₁) ++ fn(m₂) ++ … must feed downstream operators to the same final
// result as fn(part). Pure per-row transforms (filter, project) satisfy it
// trivially; a complete-dominance local skyline satisfies it because
// complete dominance is transitive (each morsel's survivors are a superset
// of the partition's survivors restricted to that range, in input order,
// and the global pass above removes exactly the difference). Such a
// skyline marks each morsel's sidecar as one run (skyline.Batch.MarkRun);
// reassembly concatenates the runs with the sidecars, so the global pass
// tests only across morsels, never again inside one. Prefix
// semantics (LIMIT) and incomplete dominance do not satisfy it and must
// use MapPartitionsColumnar.
func (c *Context) MapPartitionsSplittable(in *Dataset, fn ColumnarFn) (*Dataset, error) {
	return c.mapPartitions(in, fn, true)
}

// morselResult is one morsel's output, awaiting per-partition reassembly.
type morselResult struct {
	rows  []types.Row
	batch *skyline.Batch
}

func (c *Context) mapPartitions(in *Dataset, fn ColumnarFn, splittable bool) (*Dataset, error) {
	sizes := make([]int, len(in.Parts))
	for p, part := range in.Parts {
		sizes[p] = len(part)
	}
	return c.mapRanges(sizes, splittable, func(dropSidecars bool) RangeFn {
		return func(p, lo, hi int) ([]types.Row, *skyline.Batch, error) {
			var mb *skyline.Batch
			if pb := in.BatchAt(p); pb != nil && !dropSidecars {
				mb = pb.Slice(lo, hi)
			}
			return fn(p, in.Parts[p][lo:hi], mb)
		}
	})
}

// RangeFn is the task body of a round whose input is read inside its
// tasks rather than handed to them (a segment scan decodes its own pages):
// it produces the output of rows [lo, hi) of source partition p, with an
// optional sidecar index-aligned with the output rows.
type RangeFn = func(p, lo, hi int) ([]types.Row, *skyline.Batch, error)

// MapRanges runs one task round over len(sizes) source partitions of
// sizes[p] rows each, exactly as MapPartitionsColumnar (or, when
// splittable, MapPartitionsSplittable) runs over materialized partitions
// of those sizes — the same tasks, morsel bounds, pool homes, retries,
// budget checkpoint and output assembly — except that each task reads its
// own input. fn must satisfy the morsel-safety contract when splittable.
func (c *Context) MapRanges(sizes []int, fn RangeFn, splittable bool) (*Dataset, error) {
	return c.mapRanges(sizes, splittable, func(bool) RangeFn { return fn })
}

// mapRanges is the one task-round builder behind MapPartitions* and
// MapRanges. bind receives whether the governor had dropped sidecars when
// the round started (after its budget checkpoint) and returns the task
// body.
func (c *Context) mapRanges(sizes []int, splittable bool, bind func(dropSidecars bool) RangeFn) (*Dataset, error) {
	n := len(sizes)
	if n == 0 {
		return &Dataset{}, nil
	}
	if err := c.CheckBudget(); err != nil {
		return nil, err
	}
	c.Metrics.AddStage()
	// The stage number keys fault-injection and retry jitter. It comes from
	// the metrics counter, which only driver-side round submissions bump —
	// serially — so it is deterministic per plan, never per timing.
	stage := c.Metrics.StagesExecuted()
	morselMode := splittable && c.MorselParallel
	// Under memory degradation the columnar sidecars are dropped: tasks see
	// nil batches (the boxed path, bit-identical by the kernel ablation
	// contract) and produce none, shrinking the live footprint.
	fn := bind(c.SidecarsDropped())

	// Build the task list: one task per partition, or — in morsel mode —
	// one per contiguous row range of a split partition. Tasks are built
	// partition-major with the partition index as the pool home, so a hot
	// partition's morsels cluster on one worker's deque and rebalancing
	// shows up as steals.
	var (
		tasks   []Task
		results = make([][]morselResult, n)
		target  int // rows per morsel; 0 keeps every partition whole
	)
	if morselMode {
		target = c.morselTarget(sizes)
	}
	for p := 0; p < n; p++ {
		bounds := [][2]int{{0, sizes[p]}}
		if mb := morselBounds(sizes[p], target); mb != nil {
			bounds = mb
		}
		results[p] = make([]morselResult, len(bounds))
		for s, bd := range bounds {
			p, s, lo, hi := p, s, bd[0], bd[1]
			tasks = append(tasks, Task{Home: p, Run: c.taskAttempts(stage, int64(p), int64(s), func() error {
				res, b, err := fn(p, lo, hi)
				if err != nil {
					return err
				}
				if c.SidecarsDropped() {
					b = nil
				}
				results[p][s] = morselResult{rows: res, batch: b}
				return nil
			})})
		}
	}
	if morselMode {
		c.Metrics.AddMorsels(int64(len(tasks)))
	}
	if err := c.runTasks(tasks); err != nil {
		return nil, err
	}

	out := make([][]types.Row, n)
	batches := make([]*skyline.Batch, n)
	for p := range results {
		out[p], batches[p] = assemblePartition(results[p])
	}
	return newDatasetWithBatches(out, batches), nil
}

// assemblePartition concatenates one partition's morsel outputs in range
// order. The sidecar survives only when every morsel emitted one and the
// merge is aligned with the concatenated rows; otherwise it is dropped
// (downstream re-decodes, results unchanged).
func assemblePartition(rs []morselResult) ([]types.Row, *skyline.Batch) {
	if len(rs) == 1 {
		return rs[0].rows, rs[0].batch
	}
	total := 0
	for _, r := range rs {
		total += len(r.rows)
	}
	rows := make([]types.Row, 0, total)
	batches := make([]*skyline.Batch, 0, len(rs))
	haveAll := true
	for _, r := range rs {
		rows = append(rows, r.rows...)
		if r.batch == nil {
			haveAll = haveAll && len(r.rows) == 0
			continue
		}
		batches = append(batches, r.batch)
	}
	if !haveAll || len(batches) == 0 {
		return rows, nil
	}
	merged, ok := skyline.MergeBatches(batches)
	if !ok || merged.Len() != len(rows) {
		return rows, nil
	}
	return rows, merged
}

// morselTarget is one round's rows-per-morsel: MorselTargetRows when set,
// else cost.MorselTarget over the round's total rows, so the budget of
// about four morsels per executor holds per stage, whatever the partition
// count. It depends only on (sizes, Executors), so morsel counts are
// deterministic.
func (c *Context) morselTarget(sizes []int) int {
	if c.MorselTargetRows > 0 {
		return c.MorselTargetRows
	}
	total := 0
	for _, n := range sizes {
		total += n
	}
	return cost.MorselTarget(total, c.Executors)
}

// morselBounds cuts a partition of rows rows into contiguous morsel ranges
// of about the stage's target (morselTarget, taken once per round), or
// returns nil when the partition is too small to be worth splitting (fewer
// than two full morsels) or the round does not split (target 0).
func morselBounds(rows, target int) [][2]int {
	if target <= 0 || rows < 2*target {
		return nil
	}
	return evenChunkBounds(rows, (rows+target-1)/target)
}

// RunMorsels executes tasks as one scheduled round on the context's Runner
// — the primitive behind the morsel-parallel global skyline, whose work
// units are index ranges of one merged batch rather than partitions of a
// dataset. Each task counts as a morsel, homed on its own index.
func (c *Context) RunMorsels(tasks []func() error) error {
	if len(tasks) == 0 {
		return nil
	}
	if err := c.CheckBudget(); err != nil {
		return err
	}
	c.Metrics.AddStage()
	stage := c.Metrics.StagesExecuted()
	c.Metrics.AddMorsels(int64(len(tasks)))
	wrapped := make([]Task, len(tasks))
	for i := range tasks {
		wrapped[i] = Task{Home: i, Run: c.taskAttempts(stage, int64(i), 0, tasks[i])}
	}
	return c.runTasks(wrapped)
}

// runTasks executes one round of tasks on the context's Runner (a
// transient pool when none is set) and records the round's stage time,
// steals, per-worker busy time and parallelism from what the Runner
// observes.
func (c *Context) runTasks(tasks []Task) error {
	runner := c.Runner
	if runner == nil {
		pool := NewWorkerPool(min(c.Executors, len(tasks)))
		defer pool.Close()
		runner = pool
	}
	var busy atomic.Int64
	elapsed, err := runner.RunBatch(tasks, c.Canceled, func(worker int, stolen bool, d time.Duration) {
		if stolen {
			c.Metrics.AddSteal()
		}
		c.Metrics.AddWorkerBusy(worker, d)
		busy.Add(int64(d))
	})
	if err != nil {
		// The Runner only knows the ErrCanceled sentinel; when the context
		// recorded a richer cause (a deadline, a budget failure), surface it.
		if errors.Is(err, ErrCanceled) {
			if cause := c.CheckCanceled(); cause != nil {
				err = cause
			}
		}
		return err
	}
	c.Metrics.AddStageTime(len(tasks), elapsed)
	c.Metrics.AddParallelRound(time.Duration(busy.Load()), elapsed)
	return nil
}

// newDatasetWithBatches assembles a dataset, keeping the sidecar slice only
// when some partition actually produced a batch.
func newDatasetWithBatches(parts [][]types.Row, batches []*skyline.Batch) *Dataset {
	d := &Dataset{Parts: parts}
	for _, b := range batches {
		if b != nil {
			d.Batches = batches
			break
		}
	}
	return d
}

// partitionTarget picks the post-exchange partition count for rows rows:
// the static executor count, the adaptive count under an explicit
// TargetRowsPerPartition, or — when AdaptiveExchange is set — the adaptive
// count under a cost-chosen target derived from the observed size and the
// executor count. Each choice but the plain static fan-out records one
// CostDecision (site "exchange-target", detail "partitions=chosen/static").
func (c *Context) partitionTarget(rows int) int {
	static := c.Executors
	if rows == 0 {
		return static
	}
	// Memory-governor level 2: collapse fan-out to the fewest partitions
	// the cost model considers acceptable, so fewer partition buffers are
	// live at once. Reuses the adaptive machinery (recorded like any other
	// adaptive decision) rather than a separate path.
	if c.fanoutCollapsed() {
		chosen := cost.DegradedFanout(rows)
		if chosen > static {
			chosen = static
		}
		c.Metrics.AddCostDecision(CostDecision{
			Site: "exchange-target", Choice: "degraded", Rows: rows, Selectivity: -1,
			Detail: fmt.Sprintf("memory budget: partitions=%d/%d", chosen, static),
		})
		return chosen
	}
	target := c.TargetRowsPerPartition
	explicit := target > 0
	if !explicit {
		if !c.AdaptiveExchange {
			return static
		}
		target = cost.ExchangeTarget(rows, static)
	}
	chosen := (rows + target - 1) / target
	if chosen > static {
		chosen = static
	}
	if chosen < 1 {
		chosen = 1
	}
	choice := "adaptive"
	switch {
	case explicit:
		choice = "explicit"
	case chosen == static:
		choice = "static"
	}
	c.Metrics.AddCostDecision(CostDecision{
		Site: "exchange-target", Choice: choice, Rows: rows, Selectivity: -1,
		Detail: fmt.Sprintf("target=%d, partitions=%d/%d", target, chosen, static),
	})
	return chosen
}

// Distribution selects how an exchange repartitions data, mirroring the
// Spark distributions the paper uses (§5.5–§5.7).
type Distribution int

// Exchange distributions.
const (
	// Unspecified rebalances into Executors equal partitions, modelling
	// Spark's default even distribution across executors.
	Unspecified Distribution = iota
	// AllTuples gathers everything into a single partition — required by
	// the global skyline computation.
	AllTuples
	// NullBitmap partitions by the IsNull bitmap of key expressions —
	// the incomplete-skyline distribution of §5.7.
	NullBitmap
	// Hash partitions rows by the hash of key values into Executors
	// partitions.
	Hash
)

// String names the distribution.
func (d Distribution) String() string {
	switch d {
	case Unspecified:
		return "Unspecified"
	case AllTuples:
		return "AllTuples"
	case NullBitmap:
		return "NullBitmap"
	case Hash:
		return "Hash"
	case Grid:
		return "Grid"
	case Angle:
		return "Angle"
	case Zorder:
		return "Zorder"
	}
	return fmt.Sprintf("Distribution(%d)", int(d))
}

// KeyFunc extracts the repartitioning key values of a row (used by
// NullBitmap and Hash distributions).
type KeyFunc func(types.Row) (types.Row, error)

// Exchange repartitions the dataset under the given distribution and
// charges the shuffle to the metrics. An AllTuples gather preserves the
// columnar sidecar: the per-partition batches are merged (intern ids
// re-mapped, no re-decode) into one batch aligned with the gathered rows,
// so the global skyline above the gather can run decode-free. The
// row-redistributing distributions drop the sidecar.
func (c *Context) Exchange(in *Dataset, dist Distribution, key KeyFunc) (*Dataset, error) {
	if err := c.CheckBudget(); err != nil {
		return nil, err
	}
	c.Metrics.AddShuffled(int64(in.NumRows()))
	switch dist {
	case AllTuples:
		rows, err := c.gatherExchange(in)
		if err != nil {
			return nil, err
		}
		out := NewDataset(rows)
		if !c.SidecarsDropped() {
			if b, ok := in.MergedSidecar(); ok {
				out.Batches = []*skyline.Batch{b}
			}
		}
		return out, nil
	case Unspecified:
		rows, err := c.gatherExchange(in)
		if err != nil {
			return nil, err
		}
		return NewDataset(splitEven(rows, c.partitionTarget(len(rows)))...), nil
	case NullBitmap:
		if key == nil {
			return nil, fmt.Errorf("cluster: NullBitmap exchange requires a key function")
		}
		gathered, err := c.gatherExchange(in)
		if err != nil {
			return nil, err
		}
		index := make(map[uint64]int)
		var parts [][]types.Row
		for _, row := range gathered {
			k, err := key(row)
			if err != nil {
				return nil, err
			}
			b := skyline.NullBitmap(k)
			i, ok := index[b]
			if !ok {
				i = len(parts)
				index[b] = i
				parts = append(parts, nil)
			}
			parts[i] = append(parts[i], row)
		}
		if len(parts) == 0 {
			return &Dataset{}, nil
		}
		return NewDataset(parts...), nil
	case Hash:
		if key == nil {
			return nil, fmt.Errorf("cluster: Hash exchange requires a key function")
		}
		rows, err := c.gatherExchange(in)
		if err != nil {
			return nil, err
		}
		n := c.partitionTarget(len(rows))
		parts := make([][]types.Row, n)
		for _, row := range rows {
			k, err := key(row)
			if err != nil {
				return nil, err
			}
			h := hashRow(k)
			i := int(h % uint64(n))
			parts[i] = append(parts[i], row)
		}
		return NewDataset(parts...), nil
	}
	return nil, fmt.Errorf("cluster: unknown distribution %v", dist)
}

// gatherExchange returns the exchange input's gathered rows, routing
// through the spill tier when the memory governor engaged it.
func (c *Context) gatherExchange(in *Dataset) ([]types.Row, error) {
	if c.SpillActive() {
		return c.spillGather(in)
	}
	return in.Gather(), nil
}

// spillGather is the spill tier's gather: each input partition is written
// out as a temporary segment under SpillDir, the input's live bytes are
// freed (its parts and sidecars detached, so the operator-layer charge
// cannot double-free), and the gathered rows are re-streamed from the
// segments, which are removed as they drain. The exchange output then
// becomes the only live copy — peak accounted bytes drop from
// input+output to output plus one in-flight segment, which is what lets a
// budgeted query finish out-of-core instead of degrading further. Row
// order is preserved exactly (partitions in order, rows in order) and
// every value round-trips bit-identically, so results are unchanged.
func (c *Context) spillGather(in *Dataset) ([]types.Row, error) {
	width, uniform := uniformWidth(in.Parts)
	if !uniform || width == 0 {
		// Ragged rows would round-trip padded, and a segment needs at
		// least one column; keep them in memory.
		return in.Gather(), nil
	}
	schema := spillSchema(width)
	var segs []*storage.Segment
	cleanup := func() {
		for _, s := range segs {
			s.Remove()
		}
	}
	total := 0
	for _, p := range in.Parts {
		if len(p) == 0 {
			continue
		}
		seg, err := storage.SpillSegment(c.SpillDir, p, schema)
		if err != nil {
			cleanup()
			return nil, err
		}
		segs = append(segs, seg)
		total += len(p)
	}
	c.Metrics.AddSegmentsSpilled(int64(len(segs)))
	c.Metrics.Free(in.MemSize())
	in.Parts, in.Batches = nil, nil
	rows := make([]types.Row, 0, total)
	for _, seg := range segs {
		part, err := seg.Decode()
		if err != nil {
			cleanup()
			return nil, err
		}
		rows = append(rows, part...)
		seg.Remove()
	}
	return rows, nil
}

// uniformWidth reports the shared row width of all partitions, ok=false
// when rows disagree (or there are no rows).
func uniformWidth(parts [][]types.Row) (int, bool) {
	width := -1
	for _, p := range parts {
		for _, r := range p {
			if width == -1 {
				width = len(r)
			} else if len(r) != width {
				return 0, false
			}
		}
	}
	return width, width >= 0
}

// spillSchema synthesizes the positional schema a spill segment is
// encoded under; spill footers never feed a catalog, so names and kinds
// are placeholders.
func spillSchema(width int) *types.Schema {
	fields := make([]types.Field, width)
	for i := range fields {
		fields[i] = types.Field{Name: fmt.Sprintf("c%d", i), Type: types.KindNull, Nullable: true}
	}
	return types.NewSchema(fields...)
}

// evenChunkBounds returns the [start, end) boundaries of splitting n items
// into at most parts equal contiguous chunks (ceil-sized; no empty chunks).
// It is the single source of truth for range partitioning, shared by
// splitEven and the columnar Zorder exchange so both carve identical
// partitions.
func evenChunkBounds(n, parts int) [][2]int {
	if n == 0 {
		return nil
	}
	if parts > n {
		parts = n
	}
	chunk := (n + parts - 1) / parts
	out := make([][2]int, 0, parts)
	for start := 0; start < n; start += chunk {
		end := start + chunk
		if end > n {
			end = n
		}
		out = append(out, [2]int{start, end})
	}
	return out
}

// splitEven splits rows into at most n equal contiguous chunks (never
// returning empty chunks unless rows is empty).
func splitEven(rows []types.Row, n int) [][]types.Row {
	bounds := evenChunkBounds(len(rows), n)
	parts := make([][]types.Row, 0, len(bounds))
	for _, b := range bounds {
		parts = append(parts, rows[b[0]:b[1]])
	}
	return parts
}

// hashRow hashes key values with FNV-1a over their group keys.
func hashRow(key types.Row) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	var h uint64 = offset64
	for _, v := range key {
		for _, b := range []byte(v.GroupKey()) {
			h ^= uint64(b)
			h *= prime64
		}
	}
	return h
}
