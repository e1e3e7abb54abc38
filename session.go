package skysql

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"time"

	"skysql/internal/catalog"
	"skysql/internal/chaos"
	"skysql/internal/cluster"
	"skysql/internal/core"
	"skysql/internal/physical"
	"skysql/internal/resultcache"
	"skysql/internal/storage"
)

// Session is the entry point of the engine: it owns the catalog and the
// execution configuration, and compiles SQL strings or DataFrame plans
// into runnable queries.
type Session struct {
	engine       *core.Engine
	executors    int
	strategy     SkylineStrategy
	noKernel     bool
	noMorsel     bool
	injector     *chaos.Injector
	taskRetries  int
	queryTimeout time.Duration
	memoryBudget int64
	segStorage   bool
	segDir       string
	segRows      int
	spillDir     string
	cache        *resultcache.Cache

	// Serving-tier configuration (serving.go): admission bounds and the
	// cross-query memory pool. Zero values mean the pre-serving behaviour.
	maxConcurrent int
	queueDepth    int
	governed      bool
	globalBudget  int64
	admission     *admission
	governor      *cluster.Governor

	// appendMu serializes AppendRows' append + cache-maintenance pair, so
	// concurrent appends offer their batches to the result cache in the
	// same order the table received them — the order contract the
	// incremental upgrade's bit-identity rests on.
	appendMu sync.Mutex

	poolMu sync.Mutex
	pool   *cluster.WorkerPool

	plans planMemo // Session.SQL's statement → compiled plan memo
}

// Option configures a session.
type Option func(*Session)

// WithExecutors sets the parallelism budget (the paper's executor-count
// parameter; default 4).
func WithExecutors(n int) Option {
	return func(s *Session) {
		if n > 0 {
			s.executors = n
		}
	}
}

// WithSkylineStrategy overrides the automatic algorithm selection of the
// paper's Listing 8.
func WithSkylineStrategy(st SkylineStrategy) Option {
	return func(s *Session) { s.strategy = st }
}

// WithoutColumnarKernel disables the columnar dominance kernel: the local
// and global skyline operators then run every dominance test through the
// boxed compare path instead of decode-once float64 column batches, and
// no scan decodes for them. It reaches nothing else: a Grid/Angle/Zorder
// exchange still buckets on decoded columns and the extremum rewrite still
// caches its column. The default (kernel) execution is result-identical;
// this switch exists for A/B ablation and the benchmark's reference
// answers.
func WithoutColumnarKernel() Option {
	return func(s *Session) { s.noKernel = true }
}

// WithoutMorselParallelism disables morsel-granular task splitting: stages
// then schedule whole partitions as tasks on the pool and the global
// skyline runs its serial kernel, the pre-morsel behaviour. Results are bit-identical
// either way (the parallel twins preserve emission order); the switch
// exists for A/B ablation and debugging.
func WithoutMorselParallelism() Option {
	return func(s *Session) { s.noMorsel = true }
}

// WithFaultInjection enables deterministic chaos testing: every task
// attempt of every query consults a seedable injector that may fail it
// with a transient error (retried under the task-retry budget), delay it
// like a straggler, or charge a transient allocation spike against the
// memory governor. Decisions are pure functions of (seed, stage, task,
// attempt), so a chaos run is bit-reproducible: same seed, same plan —
// same faults, same retry counters, same results.
func WithFaultInjection(cfg FaultInjection) Option {
	return func(s *Session) { s.injector = chaos.New(cfg) }
}

// WithTaskRetries bounds per-task re-execution after transient failures
// (default 3; 0 disables retry, failing the query on the first transient
// error exactly as before retries existed). Only errors classified
// transient (cluster.Transient / injected faults) are retried; query
// errors fail fast.
func WithTaskRetries(n int) Option {
	return func(s *Session) {
		if n >= 0 {
			s.taskRetries = n
		}
	}
}

// WithQueryTimeout bounds the wall-clock time of every Collect: past the
// deadline the run is cooperatively canceled (workers observe it between
// morsels) and the query fails with an error wrapping both ErrCanceled and
// context.DeadlineExceeded. 0 (the default) means no deadline. Per-call
// deadlines can instead be passed via DataFrame.CollectContext.
func WithQueryTimeout(d time.Duration) Option {
	return func(s *Session) {
		if d > 0 {
			s.queryTimeout = d
		}
	}
}

// WithMemoryBudget enforces a per-query cap on live materialized bytes
// (the quantity Metrics.PeakBytes observes). The engine degrades
// gracefully before failing: past 50% of the budget it spills exchange
// gather buffers to temporary segments (only when WithSpillDirectory is
// also set — the query then completes out-of-core with unchanged
// results), past 60% it drops columnar sidecars (boxed execution,
// bit-identical results), past 80% it collapses exchange fan-out to
// shrink concurrently-live buffers, and only an excess with every step
// already taken fails the query with ErrMemoryBudget. Degradation steps
// are recorded in Metrics. 0 (the default) disables enforcement.
func WithMemoryBudget(bytes int64) Option {
	return func(s *Session) {
		if bytes > 0 {
			s.memoryBudget = bytes
		}
	}
}

// WithSegmentStorage makes the session store registered tables as paged
// columnar segments instead of in-memory row slices: CreateTable,
// RegisterTable, and LoadCSV encode their rows into bounded segments
// (internal/storage) whose footers carry min/max/null-count zone maps and
// equi-width histograms. Scans then stream segments — skipping any
// segment the query's filter predicates provably reject, before a single
// page is decoded — and the planner's statistics come from the persisted
// footers instead of a re-scan pass. Results are bit-identical to
// in-memory tables across every strategy and ablation (the standing
// contract). dir is where segment files are written; "" keeps the
// encoded segments in memory, which exercises the identical code path
// without scratch space (useful in tests and benchmarks). Already
// segment-backed tables (OpenSegments) are unaffected.
func WithSegmentStorage(dir string) Option {
	return func(s *Session) {
		s.segStorage = true
		s.segDir = dir
	}
}

// WithSegmentRows overrides the rows-per-segment bound of segment-backed
// storage (default storage.DefaultSegmentRows = 65536). Smaller segments
// mean finer pruning granularity at more footer overhead; tests use small
// values to exercise multi-segment layouts on small data.
func WithSegmentRows(n int) Option {
	return func(s *Session) {
		if n > 0 {
			s.segRows = n
		}
	}
}

// WithSpillDirectory arms the memory governor's spill tier: under
// WithMemoryBudget pressure (past 50% of the budget), exchange gather
// buffers are written out as temporary segment files under dir and
// re-streamed, so a query whose working set exceeds its budget completes
// out-of-core — with bit-identical results — before any sidecar-drop or
// fan-out-collapse degradation fires. Spill segments are transient: each
// is deleted as soon as it is re-read. Without this option the governor
// keeps its pre-spill ladder exactly.
func WithSpillDirectory(dir string) Option {
	return func(s *Session) { s.spillDir = dir }
}

// WithResultCache enables the session-scoped skyline result cache with
// the given byte budget (<= 0 selects resultcache.DefaultBudget, 64 MiB).
// Cacheable queries — skyline plans whose every operator the cache can
// fingerprint — are then answered from cache when the same normalized
// plan was executed before over the same table versions, bit-identically
// to a cold recompute. Entries store rows, their decoded skyline
// columns (which an append's dominance tests read instead of decoding
// the cached rows again) and, once rendered, their JSON text; they are
// held under an LRU byte budget that sheds text, then columns, before
// whole entries, and are invalidated
// by any table-version bump — except in-memory appends to plans the
// cache can maintain incrementally, which upgrade entries in place by
// testing the new rows against the cached skyline (see
// Session.AppendRows). Hit/miss/eviction/upgrade counts surface in
// Explain, the skysql shell's \s and skysqld's /stats;
// TestResultCacheBitIdenticalAcrossAblations pins the hit and miss counts.
// The cache is off by default.
func WithResultCache(bytes int64) Option {
	return func(s *Session) { s.cache = resultcache.New(bytes) }
}

// NewSession creates a session with an empty catalog.
func NewSession(opts ...Option) *Session {
	s := &Session{
		engine:      core.NewEngine(catalog.New()),
		executors:   4,
		strategy:    Auto,
		taskRetries: 3,
	}
	for _, o := range opts {
		o(s)
	}
	if s.maxConcurrent > 0 {
		s.admission = newAdmission(s.maxConcurrent, s.queueDepth)
	}
	if s.governed {
		s.governor = cluster.NewGovernor(s.globalBudget)
	}
	return s
}

// Executors returns the configured parallelism budget.
func (s *Session) Executors() int { return s.executors }

// workerPool lazily creates the session's work-stealing pool of
// min(runtime.NumCPU(), executors) workers: the pool never oversubscribes
// the machine and never exceeds the configured parallelism budget. Close
// frees it.
func (s *Session) workerPool() *cluster.WorkerPool {
	s.poolMu.Lock()
	defer s.poolMu.Unlock()
	if s.pool == nil {
		s.pool = cluster.NewWorkerPool(s.poolSize())
	}
	return s.pool
}

// poolSize is min(runtime.NumCPU(), executors), at least 1.
func (s *Session) poolSize() int {
	return max(1, min(runtime.NumCPU(), s.executors))
}

// Close stops the session's worker pool. The session remains usable:
// the next query recreates the pool. Safe to call multiple times.
func (s *Session) Close() {
	s.poolMu.Lock()
	defer s.poolMu.Unlock()
	if s.pool != nil {
		s.pool.Close()
		s.pool = nil
	}
}

// SetExecutors changes the parallelism budget for subsequent queries.
func (s *Session) SetExecutors(n int) {
	if n > 0 {
		s.executors = n
	}
}

// CreateTable registers an in-memory table (segment-encoded when the
// session was built WithSegmentStorage). Every row must fit the schema:
// one value per column, of the column's kind, and NULL only in a
// nullable column (Field.Nullable). BIGINT and DOUBLE values convert into
// each other's columns when the conversion is exact (up to 2⁵³ in
// magnitude, no fraction); the table stores the converted value.
func (s *Session) CreateTable(name string, schema *Schema, rows []Row) error {
	t, err := catalog.NewTable(name, schema, rows)
	if err != nil {
		return err
	}
	t, err = s.maybeSegment(t)
	if err != nil {
		return err
	}
	s.engine.Catalog.Register(t)
	return nil
}

// maybeSegment converts a row-backed table into a segment-backed one when
// the session stores tables as segments. The original schema pointer is
// kept (qualifiers, declared nullability); only the row storage moves.
func (s *Session) maybeSegment(t *catalog.Table) (*catalog.Table, error) {
	if !s.segStorage || t.Segments != nil {
		return t, nil
	}
	store, err := storage.FromRows(t.Rows, t.Schema, s.segDir, t.Name, s.segRows)
	if err != nil {
		return nil, err
	}
	return &catalog.Table{Name: t.Name, Schema: t.Schema, Segments: store}, nil
}

// MustCreateTable is CreateTable panicking on error; intended for examples
// and tests.
func (s *Session) MustCreateTable(name string, schema *Schema, rows []Row) {
	if err := s.CreateTable(name, schema, rows); err != nil {
		panic(err)
	}
}

// RegisterTable attaches an already-built table (e.g. from a generator or
// CSV loader) to the session catalog, segment-encoding it first when the
// session was built WithSegmentStorage. Conversion errors surface on the
// first query (the table is registered as-is then), so existing callers
// keep their error-free signature; use CreateTable for checked
// registration.
func (s *Session) RegisterTable(t *catalog.Table) {
	if conv, err := s.maybeSegment(t); err == nil {
		t = conv
	}
	s.engine.Catalog.Register(t)
}

// OpenSegments registers a table from an existing segment directory (as
// written by WithSegmentStorage or `datagen -segments`): footers only are
// read — row count, schema, and zone maps come from the segment tails —
// so opening a 10M-point dataset costs milliseconds, not a decode.
func (s *Session) OpenSegments(name, dir string) error {
	store, err := storage.OpenDir(dir)
	if err != nil {
		return err
	}
	s.engine.Catalog.Register(catalog.NewSegmentTable(name, store))
	return nil
}

// LoadCSV loads a CSV file as a table (segment-encoded when the session
// was built WithSegmentStorage); kinds gives the column types in header
// order.
func (s *Session) LoadCSV(name, path string, kinds []Kind) error {
	t, err := catalog.LoadCSVFile(name, path, kinds)
	if err != nil {
		return err
	}
	t, err = s.maybeSegment(t)
	if err != nil {
		return err
	}
	s.engine.Catalog.Register(t)
	return nil
}

// AppendRows appends rows to a registered in-memory table, bumping its
// version (so uncached plans re-sketch and stale cache entries stop
// matching) and, when the result cache is enabled, offering the change
// to the cache: entries over maintainable plan shapes absorb the new
// rows incrementally — dominance tests only against the cached skyline,
// O(len(rows)·s) of them for an entry of s rows, on the columnar kernel
// when the entry has its sidecar and the rows decode, boxed otherwise —
// while all other dependent entries are invalidated. ResultCacheStats
// reports both counts (Upgrades, Invalidations). Each row must fit the
// table's schema as CreateTable requires; a batch with one that does not
// appends nothing. Segment-backed tables refuse appends (they are
// immutable at this layer).
// Safe for concurrent use: the append + cache-maintenance pair is
// serialized per session, so two concurrent appends cannot offer their
// batches to the cache in an order different from the one the table's
// rows received them in.
func (s *Session) AppendRows(name string, rows []Row) error {
	s.appendMu.Lock()
	defer s.appendMu.Unlock()
	t, err := s.engine.Catalog.Lookup(name)
	if err != nil {
		return err
	}
	stored, err := t.Append(rows...)
	if err != nil {
		return err
	}
	if s.cache != nil {
		s.cache.TableChanged(t, stored)
	}
	return nil
}

// ResultCacheStats returns the cumulative counters and occupancy of the
// session's result cache; the zero Stats when caching is disabled.
func (s *Session) ResultCacheStats() resultcache.Stats {
	if s.cache == nil {
		return resultcache.Stats{}
	}
	return s.cache.Stats()
}

// DropTable removes a table from the catalog.
func (s *Session) DropTable(name string) { s.engine.Catalog.Drop(name) }

// Tables lists the registered table names.
func (s *Session) Tables() []string { return s.engine.Catalog.Names() }

// options assembles the physical planning options of this session.
func (s *Session) options() physical.Options {
	opts := physical.Options{
		Strategy:              s.strategy,
		DisableColumnarKernel: s.noKernel,
	}
	if s.cache != nil {
		// Guarded assignment: a typed-nil *Cache in the interface would
		// defeat the planner's nil check.
		opts.ResultCache = s.cache
	}
	return opts
}

// SQL compiles a query string into a lazy DataFrame. A statement the
// session compiled before, over tables that have not changed since, takes
// its plan from the session's memo instead (planMemo).
func (s *Session) SQL(query string) (*DataFrame, error) {
	c := s.plans.get(query, s.engine.Catalog)
	if c == nil {
		var err error
		if c, err = s.engine.CompileSQL(query, s.options()); err != nil {
			return nil, err
		}
		s.plans.put(query, c)
	}
	return &DataFrame{sess: s, compiled: c}, nil
}

// Query compiles and executes a query string, returning the rows.
func (s *Session) Query(query string) ([]Row, error) {
	df, err := s.SQL(query)
	if err != nil {
		return nil, err
	}
	return df.Collect()
}

// Explain compiles the query and renders the analyzed, optimized, and
// physical plans.
func (s *Session) Explain(query string) (string, error) {
	c, err := s.engine.CompileSQL(query, s.options())
	if err != nil {
		return "", err
	}
	return c.Explain(), nil
}

// RewriteSkyline produces the plain-SQL "reference" formulation of a
// skyline query (paper Listing 4) — useful for comparing the integrated
// operator with the rewriting the paper benchmarks against. incomplete
// selects the null-aware dominance conditions of §3.
func (s *Session) RewriteSkyline(query string, incomplete bool) (string, error) {
	return core.RewriteSkylineStatement(query, incomplete)
}

// runCtx executes a compiled query under a Go context: cancellation and
// deadlines (the caller's, plus WithQueryTimeout) map onto the cluster
// context's cooperative cancel, which workers observe between morsels.
// Under WithMaxConcurrentQueries the query first claims an admission
// slot (queueing or failing with ErrAdmission); under
// WithGlobalMemoryBudget its byte metering is attached to the shared
// governor pool for the duration of the run. The result comes back
// ungathered (core.Engine.ExecuteCtx): the caller copies its rows out or
// renders them in place.
func (s *Session) runCtx(goCtx context.Context, c *core.Compiled) (*core.Result, error) {
	if s.admission != nil {
		// The queue wait is bounded by the caller's context only — the
		// WithQueryTimeout clock starts when execution does, so a queued
		// query gets its full time slice once admitted.
		if err := s.admission.acquire(goCtx); err != nil {
			return nil, err
		}
		defer s.admission.release()
	}
	ctx := cluster.NewContext(s.executors)
	if s.governor != nil {
		ctx.Global = s.governor
		ctx.Metrics.AttachGovernor(s.governor)
		defer ctx.Metrics.DetachGovernor()
	}
	ctx.AdaptiveExchange = true
	ctx.MorselParallel = !s.noMorsel
	ctx.Injector = s.injector
	ctx.MaxTaskRetries = s.taskRetries
	ctx.MemoryBudget = s.memoryBudget
	ctx.SpillDir = s.spillDir
	pool := s.workerPool()
	ctx.Runner = pool
	if pool.Size() == 1 {
		// A single worker cannot overlap morsels, so splitting would be pure
		// scheduling overhead: keep whole-partition tasks there.
		ctx.MorselParallel = false
	}
	if s.queryTimeout > 0 {
		var cancel context.CancelFunc
		goCtx, cancel = context.WithTimeout(goCtx, s.queryTimeout)
		defer cancel()
	}
	if err := goCtx.Err(); err != nil {
		return nil, fmt.Errorf("skysql: %w: %w", cluster.ErrCanceled, err)
	}
	// Map goCtx's end onto the cooperative cancel; the callback runs only
	// if the context ends while the query is still running. The recorded
	// cause wraps both sentinels, so callers can match either
	// errors.Is(err, context.DeadlineExceeded) or ErrCanceled.
	stop := context.AfterFunc(goCtx, func() {
		ctx.CancelWith(fmt.Errorf("skysql: %w: %w", cluster.ErrCanceled, goCtx.Err()))
	})
	defer stop()
	res, err := s.engine.ExecuteCtx(c, ctx)
	if err == nil {
		// Cancellation is cooperative: a round whose tasks were already
		// running when the deadline fired can still drain to completion.
		// Context semantics win over the wasted work — once the caller's
		// deadline passed, the query fails with the recorded cause rather
		// than returning rows the caller stopped waiting for.
		if cerr := ctx.CheckCanceled(); cerr != nil {
			return nil, cerr
		}
	}
	return res, err
}

// FormatRows renders rows as an aligned text table for display.
func FormatRows(schema *Schema, rows []Row) string {
	widths := make([]int, schema.Len())
	header := make([]string, schema.Len())
	for i, f := range schema.Fields {
		header[i] = f.Name
		widths[i] = len(f.Name)
	}
	cells := make([][]string, len(rows))
	for r, row := range rows {
		cells[r] = make([]string, len(row))
		for i, v := range row {
			cells[r][i] = v.String()
			if len(cells[r][i]) > widths[i] {
				widths[i] = len(cells[r][i])
			}
		}
	}
	line := func(parts []string) string {
		out := ""
		for i, p := range parts {
			out += fmt.Sprintf("%-*s", widths[i], p)
			if i < len(parts)-1 {
				out += "  "
			}
		}
		return out + "\n"
	}
	out := line(header)
	for _, row := range cells {
		out += line(row)
	}
	return out
}
