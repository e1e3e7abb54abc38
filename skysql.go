// Package skysql is a distributed SQL query engine with native skyline
// query support, a Go reproduction of "Integration of Skyline Queries into
// Spark SQL" (Grasmann, Pichler, Selzer — EDBT 2023).
//
// The engine accepts standard SELECT statements extended with the paper's
// skyline clause:
//
//	SELECT ... FROM ... WHERE ... GROUP BY ... HAVING ...
//	SKYLINE OF [DISTINCT] [COMPLETE] dim {MIN|MAX|DIFF}, ...
//	ORDER BY ... LIMIT ...
//
// and also exposes a DataFrame-style API where skyline dimensions are
// given with Smin, Smax and Sdiff, mirroring the paper's §5.8:
//
//	sess := skysql.NewSession(skysql.WithExecutors(5))
//	sess.MustCreateTable("hotels", fields, rows)
//	df, err := sess.Table("hotels").
//		Skyline(skysql.Smin("price"), skysql.Smax("user_rating")).
//		Collect()
//
// Queries run on a simulated cluster: a pool of executor workers over
// partitioned data with explicit exchanges, so that the paper's
// distributed algorithm behaviour (local vs global skylines, null-bitmap
// partitioning for incomplete data, AllTuples gathering) is preserved.
//
// Execution follows Spark's stage/DAG model: the physical planner compiles
// the operator tree into exchange-bounded stages, fusing each maximal
// chain of narrow operators (scan, filter, project, per-partition limit,
// local skyline) into a single per-partition pass scheduled as one task
// round. Pipeline breakers — exchanges, global skylines, sorts,
// aggregates, joins — cut the stages exactly where a Spark shuffle would,
// so a filter → project → local-skyline chain materializes no
// intermediate datasets and costs one scheduling round instead of three.
// Fused stages are the only executor; EXPLAIN renders their boundaries.
//
// Skyline dominance testing — the O(n²) innermost loop of every skyline
// operator — runs on a columnar kernel: each partition is decoded once
// into direction-normalized float64 vectors and every dominance test is
// pure index arithmetic. The decoded batches are carried through the data
// plane as per-partition dataset sidecars: local skylines emit their
// surviving batch rows, exchanges merge or re-bucket them by index
// arithmetic (the Grid/Angle/Zorder schemes bucket directly on the decoded
// columns), and the global skyline runs off the merged batch — one decode
// per input partition for the whole plan. Partitions with non-numeric or
// otherwise non-decodable skyline dimensions fall back transparently to
// the boxed compare path; WithoutColumnarKernel forces that path (and
// row-only exchanges) everywhere for A/B ablation. Exchanges pick their
// partition counts from observed intermediate sizes, collapsing tiny
// results into fewer tasks.
//
// # Vectorized expression evaluation
//
// Expressions inside the narrow pipeline — WHERE predicates, projection
// outputs, the single-dimension extremum rewrite — evaluate column at a
// time over the decoded batch whenever they can, instead of boxing one
// row at a time. A fused scan → filter → local-skyline stage decodes each
// partition once at the scan (the skyline dimensions, rebased through any
// intervening projections, plus every other numeric column the stage's
// expressions reference), the filter reduces a selection bitmap over the
// dense columns, projections append computed columns, and the skyline
// reuses the surviving batch — the whole narrow chain touches each value's
// boxed form exactly once. The contract is strict bit-identity with the
// boxed path, enforced by two refusal layers: a static probe accepts only
// column references of numeric kinds, numeric/boolean/NULL literals,
// arithmetic, comparisons, AND/OR/NOT, unary minus, and IS [NOT] NULL
// (strings, CASE, IN, functions, aggregates, and integer literals beyond
// ±2⁵³ are served boxed), and a runtime guard refuses any batch whose
// values the float64 kernels cannot reproduce exactly (missing dense
// column, integer arithmetic leaving the ±2⁵³ range where int64 wraps but
// float64 rounds). Refused expressions fall back to the boxed row loop —
// with the sidecar still carried forward by index selection — so results
// are always row-for-row identical. Metrics.VectorizedBatches counts the
// partition passes the engine actually served (surfaced by EXPLAIN after a
// run and the shell's \s; TestFilteredSkylineDecodesOncePerPartitionVectorized
// pins it at one per partition). The vectorized engine has no off switch:
// the boxed evaluator is not a mode but the per-expression fallback for
// what the engine refuses and for partitions that arrive without a
// columnar sidecar.
//
// # Cost-gated adaptive planning
//
// The levers above are no longer static: a light-weight cost model
// (internal/cost) — column min/max/null-fraction sketches computed once
// per scan plus textbook predicate-shape heuristics — drives three
// decisions the engine used to hardcode.
//
// First, decode-at-scan is gated per fused stage: eager decoding pays the
// decode width on every pre-filter row to run the filters vectorized,
// deferring pays the boxed filter but decodes only the survivors, and the
// gate picks whichever the estimated filter selectivity × decode width
// says is cheaper (selective filters defer; permissive ones decode).
// Second, exchanges are adaptive in every session: each exchange derives
// its rows-per-partition target from the observed upstream size and the
// executor count, so tiny intermediates collapse into the few tasks that
// amortize their scheduling overhead while large inputs still fan out to
// every executor. Third, the
// Grid/Angle/Zorder exchanges accept a sidecar decoded at the scan below
// them, so a filter under a partitioned exchange vectorizes instead of
// forcing the boxed key path, and the exchange buckets on the decoded
// columns it is handed.
//
// The fallback rules mirror the vectorization contract: every gated
// choice selects between execution strategies that are bit-identical by
// construction (contract-tested across every SkylineStrategy × kernel
// ablation, with and without decode at the scan), so a wrong estimate
// costs time, never correctness — and when the model cannot see (no scan below the stage,
// no filters, no sketchable columns) the engine simply keeps the
// pre-gate behaviour. Every decision is recorded in
// Metrics.CostDecisions, surfaced by EXPLAIN after a run and the shell's
// \s. The decisions are deterministic, so TestCostGateDecisions
// (internal/physical) pins the gate's choice per filter selectivity.
//
// # Morsel-driven parallel runtime
//
// Task execution is morsel-driven: a session owns one persistent
// work-stealing worker pool (sized min(runtime.NumCPU(), executors) by
// default; WithWorkerPool pins it), and stages submit morsels — bounded
// contiguous row ranges of a partition together with a zero-copy
// Batch.Slice view of its columnar sidecar — rather than one task per
// partition. Each worker owns a deque: it pushes and pops its own morsels
// LIFO (cache-warm) and steals FIFO from a random victim when its deque
// drains, so a skewed hot partition is automatically spread across idle
// workers instead of serializing the stage on one task. The morsel size
// is cost-chosen once per stage (cost.MorselTarget over the stage's rows:
// about four morsels per executor for the whole stage, whatever its
// partition count, never below 512 rows) so scheduling overhead stays
// amortized and the global pass merges few local skylines.
//
// Two serial hot spots are parallelized on top of the pool. Narrow
// stages whose operators are morsel-safe (filters, projections, and the
// complete local skyline — see physical.MorselSplittable)
// split their partitions into morsels; the final global skyline runs
// morsel-parallel kernel twins (shared-nothing local windows plus a
// parallel cross-chunk filter) that emit the exact serial index sequence.
// Both paths are bit-identical to serial execution by construction and
// contract-tested under the race detector across every ablation.
//
// The A/B knobs mirror the other levers: WithoutMorselParallelism
// restores whole-partition tasks (still on the pool) and the serial global
// kernel, and WithWorkerPool sizes the pool. Every query runs on its
// session's pool; the paper-figure harness alone substitutes a makespan
// model for it (cluster.Simulator: tasks run one at a time and each round
// is charged its greedy makespan on the executor count, so modelled
// speedups stay honest). Metrics report morsels executed, steals,
// per-worker busy time, and achieved parallelism in EXPLAIN and the
// shell's \s. The morsel count is deterministic (partition layout and
// executor count only), and TestMorselBudgetIsPerStage (internal/cluster)
// and TestGlobalPassReusesLocalRuns pin it; steals and parallelism depend
// on timing.
//
// # Fault-tolerant execution
//
// The runtime inherits Spark's defining robustness property: tasks are
// pure functions of their input partition or morsel, so a failed task is
// simply re-executed from lineage. The fault-tolerance contract is:
//
//   - What is retried: task attempts failing with an error classified
//     transient (cluster.Transient / IsTransient — infrastructure-style
//     failures, including injected chaos faults) are re-executed with
//     exponential backoff and deterministic jitter, up to the
//     WithTaskRetries budget (default 3), on every task runner — the
//     work-stealing pool and the harness's makespan model. Retried
//     runs are bit-identical to fault-free runs (contract-tested at fault
//     rates up to 0.3 across every strategy × kernel ablation, under the
//     race detector).
//
//   - What degrades: under a WithMemoryBudget cap, live materialized
//     bytes past 60% of the budget drop the columnar sidecars (boxed
//     execution — bit-identical, just slower), and past 80% exchanges
//     collapse their fan-out to shrink concurrently-live buffers. Both
//     steps land in Metrics.Degradations.
//
//   - What fails: non-transient errors fail fast; a task exhausting its
//     retry budget fails the query with a cluster.TaskError naming the
//     stage, partition, morsel, and attempt count — so does a task that
//     panics, on its first attempt, with the panic value and stack in the
//     error instead of a crashed process; and a budget excess
//     with both degradation steps already taken fails with
//     ErrMemoryBudget. Deadlines (WithQueryTimeout, CollectContext) cancel
//     cooperatively between morsels, surfacing an error wrapping both
//     context.DeadlineExceeded and cluster.ErrCanceled.
//
// WithFaultInjection wires a deterministic chaos injector (seeded;
// decisions are pure functions of (seed, stage, task, attempt)) through
// every task attempt, so chaos runs are bit-reproducible: the
// TaskRetries/InjectedFaults/TasksFailed/DegradationSteps counters in
// Metrics — surfaced by EXPLAIN and the shell's \s — repeat exactly:
// TestFaultInjectionBitIdentical holds them equal across runs, and
// TestRetryRecoversTransientFaults and TestMemoryGovernorLadder
// (internal/cluster) pin their values.
//
// # Out-of-core columnar storage
//
// Tables can be stored as paged columnar segments instead of in-memory
// row slices: WithSegmentStorage(dir) makes CreateTable, RegisterTable,
// and LoadCSV encode their rows into bounded segments (WithSegmentRows,
// default 65536 rows) of per-column dense pages with null masks, each
// segment ending in a footer that carries per-column min/max zone maps,
// null and NaN counts, and equi-width histograms. OpenSegments attaches
// an existing segment directory by reading footers alone — row counts,
// schema, and statistics come from the segment tails, so opening a
// million-point dataset costs no decode — and `datagen -segments`
// writes such directories directly.
//
// Scans exploit the footers twice. Zone-map pruning: the planner pushes
// the filter predicates sitting above each scan down to it, and the scan
// skips every segment whose zone map proves the predicate can keep no
// row (conservatively: NaN-bearing segments never min-prune, all-NULL
// columns always prune, non-numeric columns never do) before decoding a
// single page; results are bit-identical to the in-memory scan of the same
// rows (TestSegmentScanContractAllStrategies). Statistics: footer histograms
// feed the cost model's selectivity estimator, replacing the uniform
// interpolation on skewed columns.
//
// The surviving segments are not decoded ahead of the query: the first
// stage reads them inside its own tasks, one per segment, morsel-split
// and run on the worker pool. When that stage is filters feeding a local
// skyline, a task filters selection first — a conjunct the segment's zone
// maps prove true for every row is skipped, a column compared with a
// constant is tested on the page bytes, anything else runs vectorized on
// the rows still selected — then reads the dimensions of the rows that
// pass straight into the skyline batch, and boxes only the rows the local
// skyline keeps — late materialization; any other stage, or data the
// pages cannot carry exactly (strings or mixed kinds in a referenced
// column, integers beyond ±2⁵³, NaN in a dimension), boxes the morsel's
// rows and runs the stage as it would over in-memory rows. Segment files are format v2:
// every column page and the header+footer carry a CRC-32C, checked on
// first read, so a damaged file answers an error, never different rows;
// v1 directories must be rewritten.
//
// The memory governor gains a spill tier: with WithSpillDirectory set,
// the first degradation rung under a WithMemoryBudget cap writes gather
// inputs out as temporary segment files and re-streams them
// segment-at-a-time, so a query whose working set exceeds its budget
// completes out-of-core — with identical results — before any
// sidecar-drop or fan-out collapse fires; without a spill directory the
// pre-spill ladder is preserved exactly. SegmentsPruned and
// SegmentsSpilled are deterministic counters in Metrics (EXPLAIN, the
// shell's \s): TestSegmentScanPeakBelowBoxedSurvivors pins the pruned
// count and TestOutOfCoreSpillCompletesBudgetedQuery the spilled one.
//
// # Skyline result cache
//
// Sessions built WithResultCache(bytes) (0 = 64 MiB default; without it
// there is no cache; the shell's -cache flag mirrors it)
// memoize skyline results: the planner wraps every skyline-bearing plan
// in a cache node keyed on a normalized fingerprint — canonical operator
// shapes, the SKYLINE OF clause with dimension order normalized exactly
// when the plan is order-invariant, pushed-down filter conjuncts split
// and sorted, and the identity of every table read. Ablations that are
// bit-identical by contract (columnar kernel, vectorized expressions)
// share one entry; anything the canonicalizer does not recognize is
// simply not cached. A hit returns the stored rows — and the stored
// columnar sidecar — bit-identical to a recompute, without scheduling a
// single task.
//
// Staleness is impossible by construction rather than checked: every
// table carries a monotonic version, entry keys embed the versions of
// their dependencies read fresh at execution time, and CreateTable,
// RegisterTable, DropTable, and AppendRows all advance it — so a query
// over changed data simply computes a key no stale entry can have.
// AppendRows goes further on maintainable plans (a complete skyline over
// gathered, filtered scans): instead of invalidating, the
// cache upgrades the entry in place, dominance-testing only the appended
// rows against the cached skyline — the incremental-maintenance win that
// makes append-heavy sessions keep their hits. The cached skyline is a
// BNL window already, so it is trusted rather than re-tested: Δ appended
// rows against s cached ones cost O(Δ·s) tests, on the columnar kernel
// while the entry carries its sidecar and the new values decode, on the
// boxed comparator otherwise (chosen from the entry and the data, not by
// an option). NULL dimensions or any other plan shape fall back to
// invalidation (ResultCacheStats counts both outcomes), and failed or
// canceled queries never populate. Entries are byte-accounted in an LRU
// that sheds what an entry's rows can rebuild — first the encoded text a
// DataFrame.CollectJSON caller left on it, then the sidecar — before
// whole entries. CollectJSON is how a caller that wants text takes a
// result: rows appended as JSON straight into its buffer, and on a cache
// hit copied from the entry without touching a row. Session.SQL, for its
// part, keeps the plans of the statements it compiled last and reuses one
// while the tables it bound are unchanged, so a repeated statement costs
// a lookup at either end. CacheHits, CacheMisses and IncrementalUpgrades
// are Metrics counters, and whole-entry evictions are counted beside them
// (EXPLAIN, the shell's \s; Session.ResultCacheStats snapshots the cache
// itself). They are pure functions of the statements and appends:
// TestResultCacheBitIdenticalAcrossAblations pins a miss then a
// bit-identical hit under every strategy and ablation, and
// TestIncrementalUpgradeMatchesRecompute (internal/resultcache) one
// upgrade per append and the recompute's rows.
package skysql

import (
	"skysql/internal/catalog"
	"skysql/internal/chaos"
	"skysql/internal/cluster"
	"skysql/internal/physical"
	"skysql/internal/types"
)

// Re-exported value model, so callers never import internal packages.
type (
	// Value is a SQL scalar (BIGINT, DOUBLE, STRING, BOOLEAN or NULL).
	Value = types.Value
	// Row is one result tuple.
	Row = types.Row
	// Kind is a column type.
	Kind = types.Kind
	// Field describes one column of a table schema.
	Field = types.Field
	// Schema is an ordered list of fields.
	Schema = types.Schema
	// Metrics carries execution counters of the last Collect.
	Metrics = cluster.Metrics
	// FaultInjection configures WithFaultInjection: a seed plus rates for
	// transient task errors, straggler delays, and allocation spikes. The
	// zero value injects nothing.
	FaultInjection = chaos.Config
	// TaskError is the permanent failure of one task (retry budget
	// exhausted or a non-transient error), carrying the stage, partition,
	// morsel, and attempt count; match with errors.As.
	TaskError = cluster.TaskError
)

// Sentinel errors of the fault-tolerance contract; match with errors.Is.
var (
	// ErrCanceled is wrapped by every cooperative-cancellation failure
	// (deadlines, canceled CollectContext, explicit cancels).
	ErrCanceled = cluster.ErrCanceled
	// ErrMemoryBudget is returned when a query exceeds WithMemoryBudget
	// after every degradation step has been taken.
	ErrMemoryBudget = cluster.ErrMemoryBudget
)

// Column kinds.
const (
	KindInt    = types.KindInt
	KindFloat  = types.KindFloat
	KindString = types.KindString
	KindBool   = types.KindBool
)

// Scalar constructors.
var (
	// Null is the SQL NULL value.
	Null = types.Null
)

// Int makes a BIGINT value.
func Int(v int64) Value { return types.Int(v) }

// Float makes a DOUBLE value.
func Float(v float64) Value { return types.Float(v) }

// Str makes a STRING value.
func Str(v string) Value { return types.Str(v) }

// Bool makes a BOOLEAN value.
func Bool(v bool) Value { return types.Bool(v) }

// NewSchema builds a schema from fields.
func NewSchema(fields ...Field) *Schema { return types.NewSchema(fields...) }

// SkylineStrategy selects the physical skyline algorithm; see the paper's
// §6.3 for the algorithm family names.
type SkylineStrategy = physical.SkylineStrategy

// Skyline strategies. Auto is the paper's Listing 8 behaviour; the three
// after it are the algorithms of §6.3, and the last three partition the
// local skylines by grid cell, angle or Z-address before the complete
// local/global split (§7).
const (
	Auto                   = physical.SkylineAuto
	DistributedComplete    = physical.SkylineDistributedComplete
	NonDistributedComplete = physical.SkylineNonDistributedComplete
	DistributedIncomplete  = physical.SkylineDistributedIncomplete
	GridComplete           = physical.SkylineGridComplete
	AngleComplete          = physical.SkylineAngleComplete
	ZorderComplete         = physical.SkylineZorderComplete
)

// NewTable validates and builds a table that can be attached to a session
// via RegisterTable.
func NewTable(name string, schema *Schema, rows []Row) (*catalog.Table, error) {
	return catalog.NewTable(name, schema, rows)
}
