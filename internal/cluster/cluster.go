// Package cluster is the execution substrate standing in for the Spark
// cluster of the paper's evaluation (§6.1): a pool of executors
// (goroutines) processing partitioned datasets, exchange (shuffle)
// primitives with the distributions the skyline operators need
// (Unspecified, AllTuples, NullBitmap, Hash), and metrics — wall-clock is
// measured by callers; this package tracks machine-independent counters
// (rows shuffled, peak materialized bytes) plus the executor-count model.
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
// same plan over the same data. The holder never interprets the bytes.
type ResultEncoding interface {
	// Bytes returns the text an earlier run left, or nil. The slice is
	// shared between readers and must not be modified.
	Bytes() []byte
	// Attach leaves a copy of b for later runs; the holder may decline.
	Attach(b []byte)
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
	adaptive   []AdaptiveDecision
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
// wall clock or worker placement — so the count is deterministic and
// benchdiff can gate it, simulate mode included.
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
// wall clock — so benchdiff gates the count.
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

// CacheEvictions returns the number of whole result-cache entries evicted
// under the byte budget.
func (m *Metrics) CacheEvictions() int64 {
	if m == nil {
		return 0
	}
	return m.cacheEvictions.Load()
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
// never consults the real core count), so benchdiff can gate it.
func (m *Metrics) MorselsExecuted() int64 {
	if m == nil {
		return 0
	}
	return m.morsels.Load()
}

// AddSteal records one work-stealing event: a task executed by a worker
// other than the one it was enqueued on. On the real pool this is observed;
// in simulate mode it is derived from the greedy makespan model's task
// placement (a morsel placed off its home partition's worker).
func (m *Metrics) AddSteal() {
	if m != nil {
		m.steals.Add(1)
	}
}

// AddSteals records n work-stealing events at once.
func (m *Metrics) AddSteals(n int64) {
	if m != nil && n != 0 {
		m.steals.Add(n)
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

// AddParallelRound accumulates one parallel round's busy time (the summed
// task work) and wall time (the round's real or modeled makespan). Their
// running ratio is the achieved parallelism.
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

// AdaptiveDecision records one adaptive post-exchange partitioning choice:
// the observed upstream row count, the static partition count the exchange
// would have used (the executor count), and the count actually chosen from
// the rows-per-partition target.
type AdaptiveDecision struct {
	Rows   int
	Static int
	Chosen int
}

// AddAdaptiveDecision appends one adaptive partitioning record, in
// execution order.
func (m *Metrics) AddAdaptiveDecision(d AdaptiveDecision) {
	if m == nil {
		return
	}
	m.mu.Lock()
	m.adaptive = append(m.adaptive, d)
	m.mu.Unlock()
}

// AdaptiveDecisions returns a copy of the adaptive partitioning records.
func (m *Metrics) AdaptiveDecisions() []AdaptiveDecision {
	if m == nil {
		return nil
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]AdaptiveDecision, len(m.adaptive))
	copy(out, m.adaptive)
	return out
}

// CostDecision records one choice the cost model made during planning or
// execution, so adaptive behaviour stays observable: EXPLAIN (after a
// run), the shell's \s, and skybench -json all surface the list.
type CostDecision struct {
	// Site names the decision point: "decode-at-scan" (fused stages),
	// "exchange-target" (adaptive partition counts), "exchange-bucketing"
	// (columnar vs boxed partitioned exchanges).
	Site string
	// Choice is the selected alternative, e.g. "decode"/"defer",
	// "adaptive"/"static", "columnar"/"boxed".
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
// MapPartitions task round): in simulate mode Elapsed is the modeled
// makespan under the configured executor count (including per-task
// overhead), otherwise the real wall time of the round.
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
// whole pipeline of narrow operators costs a single stage, where the
// per-operator path pays one per operator.
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

	// Simulate switches MapPartitions into discrete-event mode: tasks run
	// one at a time, each is timed, and the stage contributes its makespan
	// under Executors workers (plus TaskOverhead per task) to the
	// simulated clock instead of its serial wall time. This models the
	// paper's cluster faithfully on machines whose real core count is
	// smaller than the executor count under test.
	Simulate bool
	// TaskOverhead is the modeled per-task launch cost in simulation mode
	// (Spark pays several milliseconds per task; the harness uses 1ms).
	TaskOverhead time.Duration

	// DecodeAtScan lets fused stages decode their columnar batch at the
	// stage source (one boxed pass over the scanned partition) instead of at
	// the local skyline, so leading filters and projections run on the
	// vectorized expression engine and the whole narrow chain is
	// decode-once. Results are bit-identical either way; the gate exists
	// because eager decoding evaluates the skyline dimensions on pre-filter
	// rows, which a caller with very selective boxed-only filters may want
	// to avoid (skysql.WithoutVectorizedExprs clears it).
	DecodeAtScan bool

	// TargetRowsPerPartition, when positive, makes exchanges adaptive
	// (AQE-style): the post-exchange partition count is picked from the
	// observed upstream output size — ceil(rows/target), clamped to
	// [1, Executors] — instead of the static executor count, so tiny
	// intermediate results collapse into fewer tasks and the stage makespan
	// stops paying per-task overhead for near-empty partitions. 0 (the
	// default) keeps the static count unless AdaptiveExchange is set.
	// Decisions are recorded in Metrics.
	TargetRowsPerPartition int

	// AdaptiveExchange makes exchanges adaptive even without an explicit
	// TargetRowsPerPartition: the target is then cost-chosen per exchange
	// from the observed upstream size and the executor count
	// (cost.ExchangeTarget), and the choice is recorded in
	// Metrics.CostDecisions as well as Metrics.AdaptiveDecisions. Sessions
	// enable this by default (skysql.WithoutAdaptiveExchange opts out); the
	// raw cluster context keeps it off so low-level callers see the static
	// partitioning unless they ask.
	AdaptiveExchange bool

	// DisableCostGate turns off the cost model's decode-at-scan gating:
	// fused stages then decode eagerly whenever DecodeAtScan allows,
	// exactly as before the gate existed. Results are bit-identical either
	// way; the switch exists for A/B ablation of the gate itself.
	DisableCostGate bool

	// Pool, when non-nil, runs task rounds on a persistent work-stealing
	// worker pool instead of spawning goroutines per stage. The pool is
	// owned by the caller (typically the session) and may be shared by
	// concurrent queries. Ignored in Simulate mode, where tasks run
	// serially by definition.
	Pool *WorkerPool

	// MorselParallel lets splittable task rounds cut large partitions into
	// morsels — bounded row ranges sharing the partition's columnar sidecar
	// via Batch.Slice — so a skewed partition parallelizes instead of
	// serializing its stage. Only rounds whose transform is morsel-safe
	// opt in (MapPartitionsSplittable); results are bit-identical to
	// whole-partition execution by the splitting contract.
	MorselParallel bool

	// MorselTargetRows overrides the cost-chosen rows-per-morsel target
	// (cost.MorselTarget) for morsel splitting. 0 (the default) keeps the
	// cost-chosen target; tests use small explicit targets to exercise
	// splitting on small inputs.
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

	// DisableSegmentPrune turns off zone-map segment pruning at
	// segment-backed scans: every segment decodes. Results are
	// bit-identical either way (pruning only skips segments the predicate
	// provably rejects); the switch exists for A/B ablation of the pruning
	// win itself.
	DisableSegmentPrune bool

	taskRealNanos atomic.Int64 // serial time actually spent inside tasks
	taskSimNanos  atomic.Int64 // simulated makespan of those stages
	canceled      atomic.Bool
	degradeLevel  atomic.Int32 // memory-governor ladder position

	cancelMu  sync.Mutex
	cancelErr error // cause recorded by the first CancelWith
}

// SimAdjustment returns the delta to add to a real elapsed measurement to
// obtain the simulated duration: simulated stage makespans minus the serial
// time the tasks really took. Zero when Simulate is off.
func (c *Context) SimAdjustment() time.Duration {
	return time.Duration(c.taskSimNanos.Load() - c.taskRealNanos.Load())
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
// morsel-safe: when MorselParallel is on, large partitions are cut into
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
// and the global pass above removes exactly the difference). Prefix
// semantics (LIMIT), bounded windows, and incomplete dominance do not
// satisfy it and must use MapPartitionsColumnar.
func (c *Context) MapPartitionsSplittable(in *Dataset, fn ColumnarFn) (*Dataset, error) {
	return c.mapPartitions(in, fn, true)
}

// morselResult is one morsel's output, awaiting per-partition reassembly.
type morselResult struct {
	rows  []types.Row
	batch *skyline.Batch
}

func (c *Context) mapPartitions(in *Dataset, fn ColumnarFn, splittable bool) (*Dataset, error) {
	n := len(in.Parts)
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
	dropSidecars := c.SidecarsDropped()

	// Build the task list: one task per partition, or — in morsel mode —
	// one per contiguous row range of a split partition. Tasks are built
	// partition-major with the partition index as the pool home, so a hot
	// partition's morsels cluster on one worker's deque and rebalancing
	// shows up as steals.
	var (
		tasks   []func() error
		homes   []int
		results = make([][]morselResult, n)
	)
	for p := 0; p < n; p++ {
		part := in.Parts[p]
		pb := in.BatchAt(p)
		if dropSidecars {
			pb = nil
		}
		bounds := [][2]int{{0, len(part)}}
		if morselMode {
			if mb := c.morselBounds(len(part)); mb != nil {
				bounds = mb
			}
		}
		results[p] = make([]morselResult, len(bounds))
		for s, bd := range bounds {
			p, s, lo, hi := p, s, bd[0], bd[1]
			var mb *skyline.Batch
			rows := part[lo:hi]
			if pb != nil {
				mb = pb.Slice(lo, hi)
			}
			tasks = append(tasks, c.taskAttempts(stage, int64(p), int64(s), func() error {
				res, b, err := fn(p, rows, mb)
				if err != nil {
					return err
				}
				if c.SidecarsDropped() {
					b = nil
				}
				results[p][s] = morselResult{rows: res, batch: b}
				return nil
			}))
			homes = append(homes, p)
		}
	}
	if morselMode {
		c.Metrics.AddMorsels(int64(len(tasks)))
	}
	if !morselMode {
		homes = nil // whole-partition round: no modeled steal accounting
	}
	if err := c.runTasks(tasks, homes); err != nil {
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

// morselBounds cuts a partition of rows rows into contiguous morsel ranges,
// or returns nil when the partition is too small to be worth splitting
// (fewer than two full morsels). The target comes from MorselTargetRows or,
// by default, the cost model — both depend only on (rows, Executors), so
// morsel counts are deterministic.
func (c *Context) morselBounds(rows int) [][2]int {
	target := c.MorselTargetRows
	if target <= 0 {
		target = cost.MorselTarget(rows, c.Executors)
	}
	if rows < 2*target {
		return nil
	}
	return evenChunkBounds(rows, (rows+target-1)/target)
}

// RunMorsels executes tasks as one scheduled parallel round under the
// context's execution mode — the primitive behind the morsel-parallel
// global skyline, whose work units are index ranges of one merged batch
// rather than partitions of a dataset. Each task counts as a morsel; in
// simulate mode the round contributes its greedy makespan over the
// measured task durations to the simulated clock, exactly like a
// MapPartitions round.
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
	wrapped := make([]func() error, len(tasks))
	homes := make([]int, len(tasks))
	for i := range tasks {
		wrapped[i] = c.taskAttempts(stage, int64(i), 0, tasks[i])
		homes[i] = i
	}
	return c.runTasks(wrapped, homes)
}

// runTasks executes one round of tasks under the context's execution mode:
// serial discrete-event simulation (Simulate), the persistent work-stealing
// pool (Pool), or the classic per-stage goroutine loop. homes, when
// non-nil, marks a morsel round and gives each task's home worker for
// steal accounting; nil rounds skip the modeled steal/busy bookkeeping.
func (c *Context) runTasks(tasks []func() error, homes []int) error {
	if len(tasks) == 0 {
		return nil
	}
	if c.Simulate {
		return c.runTasksSimulated(tasks, homes)
	}
	start := time.Now()
	var err error
	if c.Pool != nil {
		poolTasks := make([]Task, len(tasks))
		for i := range tasks {
			home := i
			if homes != nil {
				home = homes[i]
			}
			poolTasks[i] = Task{Home: home, Run: tasks[i]}
		}
		var busy atomic.Int64
		err = c.Pool.RunBatch(poolTasks, c.Canceled, func(worker int, stolen bool, d time.Duration) {
			if stolen {
				c.Metrics.AddSteal()
			}
			c.Metrics.AddWorkerBusy(worker, d)
			busy.Add(int64(d))
		})
		// The pool only knows the ErrCanceled sentinel; when the context
		// recorded a richer cause (a deadline, a budget failure), surface it.
		if errors.Is(err, ErrCanceled) {
			if cause := c.CheckCanceled(); cause != nil {
				err = cause
			}
		}
		if err == nil {
			wall := time.Since(start)
			c.Metrics.AddStageTime(len(tasks), wall)
			c.Metrics.AddParallelRound(time.Duration(busy.Load()), wall)
		}
		return err
	}
	if err = c.runTasksGoroutines(tasks); err != nil {
		return err
	}
	c.Metrics.AddStageTime(len(tasks), time.Since(start))
	return nil
}

// runTasksSimulated runs the round serially, measures each task, and
// advances the simulated clock by the greedy makespan of scheduling the
// measured durations onto Executors workers — morsel durations when the
// round was split, partition durations otherwise, the same Makespan model
// either way (the simulate path's honesty contract). For morsel rounds the
// model's task placement also yields the deterministic-shape steal and
// per-worker busy accounting the real pool observes.
func (c *Context) runTasksSimulated(tasks []func() error, homes []int) error {
	durations := make([]time.Duration, len(tasks))
	var serial, busy time.Duration
	for i, t := range tasks {
		if err := c.CheckCanceled(); err != nil {
			return err
		}
		start := time.Now()
		if err := t(); err != nil {
			return err
		}
		d := time.Since(start)
		durations[i] = d + c.TaskOverhead
		serial += d
		busy += durations[i]
	}
	makespan, assign := MakespanAssign(durations, c.Executors)
	c.taskRealNanos.Add(int64(serial))
	c.taskSimNanos.Add(int64(makespan))
	c.Metrics.AddStageTime(len(tasks), makespan)
	if homes != nil {
		k := c.Executors
		if k > len(tasks) {
			k = len(tasks)
		}
		if k < 1 {
			k = 1
		}
		steals := int64(0)
		for i, w := range assign {
			if w != homes[i]%k {
				steals++
			}
			c.Metrics.AddWorkerBusy(w, durations[i])
		}
		c.Metrics.AddSteals(steals)
		c.Metrics.AddParallelRound(busy, makespan)
	}
	return nil
}

// runTasksGoroutines is the classic per-stage scheduling loop: Executors
// goroutines pulling tasks off a shared index. Workers re-check the
// round's error slot before every pull, so one failed or canceled task
// stops the round promptly instead of letting the remaining workers drain
// every task that was still queued.
func (c *Context) runTasksGoroutines(tasks []func() error) error {
	n := len(tasks)
	workers := c.Executors
	if workers > n {
		workers = n
	}
	var (
		wg       sync.WaitGroup
		next     atomic.Int64
		firstErr atomic.Value
	)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				if firstErr.Load() != nil {
					return
				}
				if err := c.CheckCanceled(); err != nil {
					firstErr.CompareAndSwap(nil, err)
					return
				}
				if err := tasks[i](); err != nil {
					firstErr.CompareAndSwap(nil, err)
					return
				}
			}
		}()
	}
	wg.Wait()
	if err := firstErr.Load(); err != nil {
		return err.(error)
	}
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
// executor count. Adaptive choices are recorded in Metrics; cost-chosen
// targets additionally record a CostDecision.
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
		c.Metrics.AddAdaptiveDecision(AdaptiveDecision{Rows: rows, Static: static, Chosen: chosen})
		c.Metrics.AddCostDecision(CostDecision{
			Site: "exchange-target", Choice: "degraded", Rows: rows, Selectivity: -1,
			Detail: fmt.Sprintf("memory budget: partitions=%d/%d", chosen, static),
		})
		return chosen
	}
	target := c.TargetRowsPerPartition
	costChosen := false
	if target <= 0 {
		if !c.AdaptiveExchange {
			return static
		}
		target = cost.ExchangeTarget(rows, static)
		costChosen = true
	}
	chosen := (rows + target - 1) / target
	if chosen > static {
		chosen = static
	}
	if chosen < 1 {
		chosen = 1
	}
	c.Metrics.AddAdaptiveDecision(AdaptiveDecision{Rows: rows, Static: static, Chosen: chosen})
	if costChosen {
		choice := "adaptive"
		if chosen == static {
			choice = "static"
		}
		c.Metrics.AddCostDecision(CostDecision{
			Site: "exchange-target", Choice: choice, Rows: rows, Selectivity: -1,
			Detail: fmt.Sprintf("target=%d, partitions=%d/%d", target, chosen, static),
		})
	}
	return chosen
}

// Makespan computes the completion time of scheduling tasks (in order)
// greedily onto k workers: each task goes to the earliest-available worker.
func Makespan(tasks []time.Duration, k int) time.Duration {
	m, _ := MakespanAssign(tasks, k)
	return m
}

// MakespanAssign is Makespan also reporting the worker each task was placed
// on — the placement the simulate path uses to model steals and per-worker
// busy time without a real pool.
func MakespanAssign(tasks []time.Duration, k int) (time.Duration, []int) {
	if k < 1 {
		k = 1
	}
	if k > len(tasks) {
		k = len(tasks)
	}
	if k == 0 {
		return 0, nil
	}
	avail := make([]time.Duration, k)
	assign := make([]int, len(tasks))
	for t, d := range tasks {
		minI := 0
		for i := 1; i < k; i++ {
			if avail[i] < avail[minI] {
				minI = i
			}
		}
		avail[minI] += d
		assign[t] = minI
	}
	var max time.Duration
	for _, a := range avail {
		if a > max {
			max = a
		}
	}
	return max, assign
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
	if !uniform {
		// Ragged rows would round-trip padded; keep them in memory.
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
