// Package resultcache provides a session-scoped skyline result cache.
//
// Every query so far recomputed its skyline from scratch even though a
// skyline is tiny relative to its input and real workloads repeat the
// same queries heavily (the motivation of ROADMAP open item 3). The
// cache closes that gap at the plan level: the physical planner offers
// it the compiled plan (physical.Options.ResultCache), and cacheable
// plans are wrapped in a CacheExec that consults the cache before any
// stage executes.
//
// Keys are normalized plan fingerprints: table identity plus version
// (catalog.Table.Version, the invalidation source of truth), the
// canonicalized SKYLINE OF clause (dimension order normalized when the
// plan shape is provably order-invariant), the pushed-down predicate set
// (filter conjuncts sorted), and the strategy (encoded in the operator
// shapes).
// Ablation switches that are bit-identical by the engine's standing
// contract (stage fusion, columnar kernel, vectorized expressions) are
// deliberately excluded, so ablated sessions share entries.
//
// An entry stores the result rows plus their columnar skyline.Batch
// sidecar, so a hit re-enters the data plane decode-free, and — once a
// caller that wanted the result as text has rendered it — that encoded
// form, so the next such hit copies bytes instead of encoding rows
// (Encoding). Entries are byte-accounted against the memory governor at
// store time and held under an LRU byte budget whose pressure response
// mirrors the degradation ladder: the oldest entry first sheds what can be
// rebuilt from its rows, cheapest first — the encoded form, then the
// sidecar — and only then is evicted whole.
//
// Appends to a cached table either upgrade matching entries in place —
// the new points need dominance tests only against the cached skyline —
// or invalidate them when the entry's plan shape is not maintainable or
// a new point carries a NULL skyline dimension. The cached skyline is a
// BNL window already (§5.6: mutually non-dominating), so it is trusted,
// not re-tested: Δ appended rows against s cached ones cost O(Δ·s)
// dominance tests. They run on the columnar kernel (skyline.BNLSeeded
// over the cached sidecar plus the decoded delta) while the entry still
// carries its sidecar and the new rows decode, and on the boxed
// stream.Incremental, seeded with the cached rows, otherwise — the entry
// and the data select the path, no option does. A hit serves exactly the
// rows a cold recompute would, bit for bit; stale entries can never be
// served because the key embeds the table versions read at execution
// time.
package resultcache

import (
	"container/list"
	"sync"
	"sync/atomic"

	"skysql/internal/catalog"
	"skysql/internal/cluster"
	"skysql/internal/expr"
	"skysql/internal/physical"
	"skysql/internal/skyline"
	"skysql/internal/stream"
	"skysql/internal/types"
)

// DefaultBudget is the byte budget used when a caller enables the cache
// without choosing one.
const DefaultBudget = 64 << 20

// Cache is a session-scoped skyline result cache. Safe for concurrent
// use.
type Cache struct {
	mu     sync.Mutex
	budget int64
	used   int64
	lru    *list.List // front = most recently used; values are *entry
	byKey  map[string]*list.Element

	// Session-cumulative counters: per-query deltas also flow into the
	// running query's cluster.Metrics, but upgrades happen outside any
	// query and benches want totals, so the cache keeps its own.
	hits          atomic.Int64
	misses        atomic.Int64
	evictions     atomic.Int64
	upgrades      atomic.Int64
	invalidations atomic.Int64
}

// New creates a cache with the given byte budget (<= 0 selects
// DefaultBudget).
func New(budget int64) *Cache {
	if budget <= 0 {
		budget = DefaultBudget
	}
	return &Cache{budget: budget, lru: list.New(), byKey: make(map[string]*list.Element)}
}

// Stats is a point-in-time snapshot of the cache's cumulative counters
// and current occupancy.
type Stats struct {
	Hits, Misses, Evictions int64
	// Upgrades and Invalidations count what appends did to dependent
	// entries (TableChanged): maintained in place, or dropped because the
	// plan shape or the new rows ruled maintenance out. Invalidation is
	// correctness, eviction is memory pressure; they are counted apart.
	Upgrades, Invalidations int64
	Entries                 int
	UsedBytes               int64
}

// Stats returns the session-cumulative counters and current occupancy.
func (c *Cache) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return Stats{
		Hits: c.hits.Load(), Misses: c.misses.Load(),
		Evictions: c.evictions.Load(), Upgrades: c.upgrades.Load(),
		Invalidations: c.invalidations.Load(),
		Entries:       c.lru.Len(), UsedBytes: c.used,
	}
}

// maintenance carries what incremental upgrade needs: the scan table, the
// pre-skyline filter conjuncts, and the skyline clause bound to the scan
// schema. Present only for plans whose shape is provably maintainable
// (complete BNL over a single in-memory scan).
type maintenance struct {
	table    *catalog.Table
	filters  []expr.Expr
	dims     []physical.BoundDim
	dirs     []skyline.Dir
	distinct bool
	tag      string
}

// entry is one cached result.
type entry struct {
	key        string // structural fingerprint + dep versions
	structural string
	rows       []types.Row
	batch      *skyline.Batch // nil once the sidecar was shed
	encoded    []byte         // the rows as some caller rendered them; nil until attached, and again once shed or upgraded
	rowBytes   int64
	batchBytes int64
	deps       []*catalog.Table
	maint      *maintenance
	// pendingUpgrades counts in-place incremental upgrades applied since
	// the entry was last served; the next hit drains them into that
	// query's metrics, so the upgrade becomes visible in the query that
	// benefits from it.
	pendingUpgrades int64
}

// size is the entry's charge against the cache's byte budget.
func (e *entry) size() int64 { return e.rowBytes + e.batchBytes + int64(len(e.encoded)) }

// hit is what a lookup found: the cached rows, their sidecar and encoded
// form when the entry carries them, and the number of incremental
// upgrades this hit drained.
type hit struct {
	rows     []types.Row
	batch    *skyline.Batch
	encoded  []byte
	upgrades int64
}

// lookup returns the entry under key, marking it most-recently used.
func (c *Cache) lookup(key string) (hit, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.byKey[key]
	if !ok {
		c.misses.Add(1)
		return hit{}, false
	}
	c.lru.MoveToFront(el)
	e := el.Value.(*entry)
	h := hit{rows: e.rows, batch: e.batch, encoded: e.encoded, upgrades: e.pendingUpgrades}
	e.pendingUpgrades = 0
	c.hits.Add(1)
	return h, true
}

// Encoding is the place of one query result's encoded form — its rows as
// text, in whatever format the session's callers ask for; the cache never
// reads it — on the cache entry that served or stored the result. It
// implements cluster.ResultEncoding.
//
// The form lives and dies with the entry's rows: the first caller to
// render them attaches it, later hits find it, memory pressure sheds it
// before anything else, and an append that upgrades or invalidates the
// entry drops it. It is addressed by the entry's key, which embeds the
// versions of every table read, so bytes rendered from one result can
// only ever be attached to an entry holding that same result.
type Encoding struct {
	cache *Cache
	key   string
	bytes []byte
}

// Bytes returns the encoded form the lookup found on the entry, or nil.
// The slice is shared with every other reader: it must not be modified.
func (e *Encoding) Bytes() []byte { return e.bytes }

// Attach leaves a copy of b on the entry as its encoded form, charged to
// the cache's byte budget. It does nothing when the entry is gone, was
// re-keyed by an append, or already carries one.
func (e *Encoding) Attach(b []byte) {
	c := e.cache
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.byKey[e.key]
	if !ok {
		return
	}
	if en := el.Value.(*entry); en.encoded == nil {
		en.encoded = append(make([]byte, 0, len(b)), b...)
		c.used += int64(len(b))
		c.shed(nil)
	}
}

// store inserts (or refreshes) the entry under key. The bytes are charged
// to the running query's memory governor first: a store that would blow
// the query budget is skipped — caching is an optimization and must never
// fail a query. When the governor already degraded to sidecar-shedding,
// the entry is stored without its sidecar, mirroring the ladder. It
// reports whether the result now sits in the cache under key.
func (c *Cache) store(ctx *cluster.Context, key, structural string, rows []types.Row, batch *skyline.Batch, deps []*catalog.Table, maint *maintenance) bool {
	if ctx != nil && ctx.SidecarsDropped() {
		batch = nil
	}
	var rowBytes, batchBytes int64
	for _, r := range rows {
		rowBytes += r.MemSize()
	}
	rowBytes += int64(len(key))
	if batch != nil {
		batchBytes = batch.MemSize()
	}
	if rowBytes > c.budget {
		return false // larger than the whole cache: not storable even bare
	}
	if ctx != nil && ctx.Metrics != nil {
		ctx.Metrics.Alloc(rowBytes + batchBytes)
		if err := ctx.CheckBudget(); err != nil {
			ctx.Metrics.Free(rowBytes + batchBytes)
			return false
		}
	}
	if batch != nil {
		// The entry holds rows and decoded columns, both counted; the boxed
		// vectors the columns were decoded from are neither, so they go.
		batch = batch.WithoutDims()
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	// Store-time revalidation: the key was computed before the child
	// executed, but under concurrent serving a dependency can move between
	// keying and scanning (the scan snapshots rows at whatever version is
	// current when it runs). If the versions moved, this result belongs to
	// a NEWER key than the one it would be stored under — inserting it
	// would let a later TableChanged double-apply the very append that
	// moved the version. Skip the store; correctness never depended on it.
	if entryKey(structural, deps) != key {
		if ctx != nil && ctx.Metrics != nil {
			ctx.Metrics.Free(rowBytes + batchBytes)
		}
		return false
	}
	if el, ok := c.byKey[key]; ok {
		// Same key, fresh result (e.g. a concurrent miss): replace in place.
		e := el.Value.(*entry)
		c.used -= e.size()
		e.rows, e.batch, e.encoded, e.rowBytes, e.batchBytes = rows, batch, nil, rowBytes, batchBytes
		c.used += rowBytes + batchBytes
		c.lru.MoveToFront(el)
	} else {
		e := &entry{key: key, structural: structural, rows: rows, batch: batch,
			rowBytes: rowBytes, batchBytes: batchBytes, deps: deps, maint: maint}
		c.byKey[key] = c.lru.PushFront(e)
		c.used += rowBytes + batchBytes
	}
	c.shed(ctx)
	return true
}

// shed brings the cache back under its byte budget, oldest entry first.
// The entry sheds what its rows can rebuild before it goes itself: the
// encoded form (the next hit that wants it encodes again), then the
// sidecar (the hit stays a hit, it just re-enters the data plane boxed),
// and only a bare entry is evicted whole. Mirrors the memory governor's
// spill-before-abort ladder.
func (c *Cache) shed(ctx *cluster.Context) {
	for c.used > c.budget {
		el := c.lru.Back()
		if el == nil {
			return
		}
		e := el.Value.(*entry)
		if e.encoded != nil {
			c.used -= int64(len(e.encoded))
			e.encoded = nil
			continue
		}
		if e.batch != nil {
			c.used -= e.batchBytes
			e.batch, e.batchBytes = nil, 0
			continue
		}
		c.used -= e.rowBytes
		c.lru.Remove(el)
		delete(c.byKey, e.key)
		c.evictions.Add(1)
		if ctx != nil {
			ctx.Metrics.AddCacheEvictions(1)
		}
	}
}

// TableChanged tells the cache rows were appended to t (after the
// version bump). Entries depending on t are incrementally upgraded in
// place when maintainable — each new point is dominance-tested only
// against the cached skyline, O(Δ·s) tests for Δ new rows and s cached
// ones (see upgrade) — and invalidated otherwise, including when a new
// point carries a NULL skyline dimension (incremental maintenance
// requires complete data) or fails a filter evaluation. It returns the
// number of entries upgraded and invalidated; both are also accumulated
// in Stats.
//
// Deletions need no call: DropTable bumps the version, so stale keys can
// simply never match again (the bytes age out via LRU).
func (c *Cache) TableChanged(t *catalog.Table, newRows []types.Row) (upgraded, invalidated int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	var next *list.Element
	for el := c.lru.Front(); el != nil; el = next {
		next = el.Next()
		e := el.Value.(*entry)
		if !dependsOn(e, t) {
			continue
		}
		// A non-maintainable entry's key embeds a dead version: pure dead
		// weight, dropped like one whose upgrade was refused.
		if e.maint != nil && e.maint.table == t && c.upgrade(el, e, newRows) {
			upgraded++
		} else {
			c.remove(el, e)
			invalidated++
		}
	}
	c.invalidations.Add(int64(invalidated))
	return upgraded, invalidated
}

func dependsOn(e *entry, t *catalog.Table) bool {
	for _, d := range e.deps {
		if d == t {
			return true
		}
	}
	return false
}

// remove drops an entry without counting an eviction (invalidation is
// correctness, eviction is memory pressure).
func (c *Cache) remove(el *list.Element, e *entry) {
	c.used -= e.size()
	c.lru.Remove(el)
	delete(c.byKey, e.key)
}

// upgrade absorbs newRows into e incrementally and re-keys it under the
// table's new version. Reports false when the entry must be invalidated
// instead (NULL dimension, evaluation error, or a key collision).
//
// Cost: the cached skyline is a trusted BNL window, installed without
// one test among its s rows; the Δ new rows that pass the filters are
// each tested against it — O(Δ·s) dominance tests per append. Which
// engine runs them is read off the entry and the data, never a setting:
// absorbKernel while the entry carries its sidecar and the kernel can
// decode the new rows, absorbBoxed otherwise.
//
// Bit-identity argument: a maintainable plan (complete BNL, locals
// chunk-partitioned, AllTuples gather preserving partition order) emits
// the table-order subsequence of the skyline, which is what one BNL pass
// over the table in order leaves in its window. The cached
// rows are that window for the pre-append table, so seeding the window
// with them — in cached order, no tests, no evictions — and absorbing the
// surviving new rows in append order replays the tail of that one pass:
// a dominated arrival (or, under DISTINCT, one Equal to a window row)
// leaves the window untouched; an admitted arrival evicts the rows it
// dominates without reordering the rest and joins at the end. The result
// is old survivors in table order followed by new survivors in append
// order — exactly the table-order subsequence a cold recompute over the
// grown table emits. DIFF dimensions change nothing in the argument:
// rows differing in one are incomparable, in both engines.
func (c *Cache) upgrade(el *list.Element, e *entry, newRows []types.Row) bool {
	m := e.maint
	newKey := entryKey(e.structural, e.deps)
	if _, exists := c.byKey[newKey]; exists && newKey != e.key {
		return false // a fresh recompute beat us to the new version
	}
	delta, ok := m.delta(newRows)
	if !ok {
		return false
	}
	rows, batch, rowBytes := e.rows, e.batch, e.rowBytes
	if len(delta) > 0 {
		if rows, batch, rowBytes, ok = m.absorbKernel(e, delta); !ok {
			if rows, batch, rowBytes, ok = m.absorbBoxed(e, delta); !ok {
				return false
			}
		}
	}
	rowBytes += int64(len(newKey) - len(e.key))
	var batchBytes int64
	if batch != nil {
		batchBytes = batch.MemSize()
	}
	// The encoded form described the old rows; the next hit renders the new.
	c.used += (rowBytes + batchBytes) - e.size()
	delete(c.byKey, e.key)
	e.key, e.rows, e.batch, e.encoded = newKey, rows, batch, nil
	e.rowBytes, e.batchBytes = rowBytes, batchBytes
	e.pendingUpgrades++
	c.byKey[newKey] = el
	c.upgrades.Add(1)
	c.shed(nil)
	return true
}

// delta returns the appended rows the plan's filters let through, as
// points carrying their evaluated skyline dimensions. ok=false routes the
// entry to invalidation: a filter or dimension failed to evaluate, or a
// dimension is NULL (incremental maintenance requires complete data).
func (m *maintenance) delta(newRows []types.Row) ([]skyline.Point, bool) {
	delta := make([]skyline.Point, 0, len(newRows))
next:
	for _, row := range newRows {
		for _, f := range m.filters {
			pass, err := expr.EvalPredicate(f, row)
			if err != nil {
				return nil, false
			}
			if !pass {
				continue next
			}
		}
		dims, ok := evalDims(m.dims, row)
		if !ok {
			return nil, false
		}
		for _, v := range dims {
			if v.IsNull() {
				return nil, false
			}
		}
		delta = append(delta, skyline.Point{Dims: dims, Row: row})
	}
	return delta, true
}

// absorbKernel is the columnar upgrade: decode only the delta, append it
// to the cached sidecar, and run the seeded window pass — the cached
// prefix is the window, the delta the input. ok=false (nothing touched)
// when the entry has no sidecar, the sidecar no longer lines up with the
// rows or holds NULLs, or the kernel refuses the delta or the merge; the
// caller then takes absorbBoxed. Rows, sidecar and byte count are built
// fresh, never in place: concurrent readers hold the old ones.
func (m *maintenance) absorbKernel(e *entry, delta []skyline.Point) ([]types.Row, *skyline.Batch, int64, bool) {
	s := len(e.rows)
	if e.batch == nil || e.batch.Len() != s || e.batch.HasNulls() {
		return nil, nil, 0, false
	}
	d, ok := skyline.DecodeBatch(delta, m.dirs, false, nil)
	if !ok {
		return nil, nil, 0, false
	}
	d.Tag = m.tag
	merged, ok := skyline.MergeBatches([]*skyline.Batch{e.batch, d})
	if !ok {
		return nil, nil, 0, false
	}
	// idx is ascending: cached survivors keep their order, new survivors
	// follow in append order. Every cached index it skips was evicted.
	idx := merged.BNLSeeded(s, m.distinct)
	rows := make([]types.Row, len(idx))
	rowBytes := e.rowBytes
	old := 0 // next cached row not yet accounted for
	for i, j := range idx {
		if j >= s {
			rows[i] = delta[j-s].Row
			rowBytes += rows[i].MemSize()
			continue
		}
		for ; old < j; old++ {
			rowBytes -= e.rows[old].MemSize()
		}
		old = j + 1
		rows[i] = e.rows[j]
	}
	for ; old < s; old++ {
		rowBytes -= e.rows[old].MemSize()
	}
	return rows, merged.Select(idx), rowBytes, true
}

// absorbBoxed is the boxed upgrade for entries the kernel cannot serve:
// the cached rows seed a stream.Incremental as its trusted window (their
// dimensions are evaluated, not compared) and the delta is added through
// the boxed skyline.Compare. An entry that still carried a sidecar gets
// one back when the survivors decode — the refusal may have concerned a
// row that did not survive.
func (m *maintenance) absorbBoxed(e *entry, delta []skyline.Point) ([]types.Row, *skyline.Batch, int64, bool) {
	seed := make([]skyline.Point, len(e.rows))
	for i, row := range e.rows {
		dims, ok := evalDims(m.dims, row)
		if !ok {
			return nil, nil, 0, false
		}
		seed[i] = skyline.Point{Dims: dims, Row: row}
	}
	inc := stream.NewIncremental(m.dirs, m.distinct)
	if err := inc.Seed(seed); err != nil {
		return nil, nil, 0, false // a cached row with a NULL dimension
	}
	rowBytes := e.rowBytes
	for _, p := range delta {
		ev, err := inc.Add(p.Dims, p.Row)
		if err != nil {
			return nil, nil, 0, false
		}
		if ev.Admitted {
			rowBytes += p.Row.MemSize()
		}
		for _, gone := range ev.Evicted {
			rowBytes -= gone.Row.MemSize()
		}
	}
	pts := inc.Skyline()
	rows := make([]types.Row, len(pts))
	for i, p := range pts {
		rows[i] = p.Row
	}
	var batch *skyline.Batch
	if e.batch != nil {
		if b, ok := skyline.DecodeBatch(pts, m.dirs, false, nil); ok {
			b.Tag = m.tag
			batch = b
		}
	}
	return rows, batch, rowBytes, true
}

// evalDims evaluates the skyline dimension vector of a row; ok=false on
// evaluation error.
func evalDims(dims []physical.BoundDim, row types.Row) (types.Row, bool) {
	out := make(types.Row, len(dims))
	for i, d := range dims {
		v, err := d.E.Eval(row)
		if err != nil {
			return nil, false
		}
		out[i] = v
	}
	return out, true
}
