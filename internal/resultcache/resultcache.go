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
// contract (columnar kernel, vectorized expressions) are
// deliberately excluded, so ablated sessions share entries.
//
// An entry stores the result rows; their decoded skyline columns (a
// skyline.Batch sidecar without points), which the next append's
// dominance tests read instead of re-decoding the cached skyline; the
// rows' cell codes (skyline.CellCodes), once an upgrade has run on the
// cell index, which the next one installs instead of coding the rows
// again; and —
// once a caller that wanted the result as text has rendered it — its JSON
// text with the offset where each row ends, so the next such hit copies
// bytes instead of encoding rows (Encoding). Entries are byte-accounted
// against the memory governor at store time and held under an LRU byte
// budget whose pressure response mirrors the degradation ladder: the
// oldest entry first sheds what can be rebuilt from its rows, cheapest
// first — the text, then the sidecar with the cell codes — and only then
// is evicted whole.
//
// Appends to a cached table either upgrade matching entries in place —
// the new points need dominance tests only against the cached skyline —
// or invalidate them when the entry's plan shape is not maintainable, a
// new point carries a NULL skyline dimension, or the cached rows or the
// new ones do not decode. The cached skyline is a BNL window already
// (§5.6: mutually non-dominating), so it is trusted, not re-tested: Δ
// appended rows are tested only against the s cached ones, on the
// columnar kernel (skyline.BNLSeeded over the cached sidecar plus the
// decoded delta) — at most Δ·s tests, and once the seed and the delta are
// large enough, on the cell index, which tests an arrival only against
// the cached rows whose cells allow dominance either way. An entry that
// shed its sidecar under memory pressure gets it rebuilt from its rows
// first. The kernel names the cached rows it keeps, so their text is
// copied out of the old text and only the new survivors are encoded. A
// hit serves exactly the rows (and bytes) a cold recompute would, bit for
// bit; stale entries can never be served because the key embeds the
// table versions read at execution time.
package resultcache

import (
	"container/list"
	"math"
	"sync"
	"sync/atomic"

	"skysql/internal/catalog"
	"skysql/internal/cluster"
	"skysql/internal/expr"
	"skysql/internal/physical"
	"skysql/internal/skyline"
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
	batch      *skyline.Batch    // decoded columns only (no points); nil once the sidecar was shed
	codes      skyline.CellCodes // the rows' cell codes, left by the last upgrade that ran on the cell index; shed with the sidecar
	encoded    []byte            // the rows as JSON (types.AppendRowsJSON); nil until attached, and again once shed
	ends       []uint32          // where each row's text ends in encoded (types.AppendRowsJSONEnds); nil beside no text, and on an entry no append upgrades
	rowBytes   int64
	batchBytes int64 // the sidecar and the cell codes
	deps       []*catalog.Table
	maint      *maintenance
	// pendingUpgrades counts in-place incremental upgrades applied since
	// the entry was last served; the next hit drains them into that
	// query's metrics, so the upgrade becomes visible in the query that
	// benefits from it.
	pendingUpgrades int64
}

// size is the entry's charge against the cache's byte budget.
func (e *entry) size() int64 { return e.rowBytes + e.batchBytes + textBytes(e.encoded, e.ends) }

// textBytes is the charge of an entry's text and its row offsets.
func textBytes(text []byte, ends []uint32) int64 { return int64(len(text)) + 4*int64(len(ends)) }

// servedBytes is what the entry's rows and sidecar weigh as a dataset — the
// Dataset.MemSize of a hit on it — read off the recorded sizes: rowBytes
// counts the key beside the rows and batchBytes the cell codes beside the
// sidecar, the dataset neither.
func (e *entry) servedBytes() int64 {
	return e.rowBytes - int64(len(e.key)) + e.batchBytes - e.codes.MemSize()
}

// shedSidecar lets the sidecar and the cell codes go, returning the bytes
// they were charged.
func (e *entry) shedSidecar() int64 {
	freed := e.batchBytes
	e.batch, e.codes, e.batchBytes = nil, skyline.CellCodes{}, 0
	return freed
}

// hit is what a lookup found: the cached rows, their sidecar and encoded
// form when the entry carries them, what the rows and sidecar weigh, and
// the number of incremental upgrades this hit drained.
type hit struct {
	rows     []types.Row
	batch    *skyline.Batch
	encoded  []byte
	bytes    int64
	upgrades int64
}

// lookup returns the entry under key, marking it most-recently used. The
// hit's rows, sidecar and byte count are read in one snapshot under c.mu,
// so an upgrade or a shed can never pair one state's rows with another's
// size.
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
	h := hit{rows: e.rows, batch: e.batch, encoded: e.encoded, bytes: e.servedBytes(), upgrades: e.pendingUpgrades}
	e.pendingUpgrades = 0
	c.hits.Add(1)
	return h, true
}

// Encoding is the place of one query result's JSON text on the cache
// entry that served or stored the result — the rows as
// types.AppendRowsJSON writes them, with the offsets where each row ends.
// It implements cluster.ResultEncoding.
//
// The text lives and dies with the entry's rows: the first caller to
// render them attaches it, later hits find it, memory pressure sheds it
// before anything else, an append the kernel absorbs splices it (see
// upgrade), and any other change to the entry drops it. It is addressed
// by the entry's key, which embeds the versions of every table read, so
// bytes rendered from one result can only ever be attached to an entry
// holding that same result.
type Encoding struct {
	cache *Cache
	key   string
	bytes []byte
}

// Bytes returns the encoded form the lookup found on the entry, or nil.
// The slice is shared with every other reader: it must not be modified.
func (e *Encoding) Bytes() []byte { return e.bytes }

// Attach leaves a copy of b on the entry as its text, and ends — one
// offset per row, where its text ends in b (types.AppendRowsJSONEnds) —
// beside it, both charged to the cache's byte budget. The offsets are kept
// only where an append can read them: on an entry the cache maintains,
// and when they line up with its rows. It does nothing when the entry is
// gone, was re-keyed by an append, or already carries text.
func (e *Encoding) Attach(b []byte, ends []uint32) {
	c := e.cache
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.byKey[e.key]
	if !ok {
		return
	}
	if en := el.Value.(*entry); en.encoded == nil {
		if en.maint == nil || len(ends) != len(en.rows) || uint64(len(b)) > math.MaxUint32 {
			ends = nil
		}
		en.encoded, en.ends = append(make([]byte, 0, len(b)), b...), ends
		c.used += textBytes(en.encoded, en.ends)
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
		// The entry holds rows and decoded columns, both counted; the points
		// that pair them with boxed dimension vectors are neither, and only
		// the next upgrade reads the sidecar — its columns — so they go.
		batch = batch.WithoutPoints()
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
		e.rows, e.batch, e.codes, e.encoded, e.ends, e.rowBytes, e.batchBytes = rows, batch, skyline.CellCodes{}, nil, nil, rowBytes, batchBytes
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
// sidecar with the cell codes (the hit stays a hit, it just re-enters the
// data plane boxed, and the next append decodes the rows again and takes
// the grid again), and only a bare entry is
// evicted whole. Mirrors the memory governor's
// spill-before-abort ladder.
func (c *Cache) shed(ctx *cluster.Context) {
	for c.used > c.budget {
		el := c.lru.Back()
		if el == nil {
			return
		}
		e := el.Value.(*entry)
		if e.encoded != nil {
			c.used -= textBytes(e.encoded, e.ends)
			e.encoded, e.ends = nil, nil
			continue
		}
		if e.batch != nil {
			c.used -= e.shedSidecar()
			continue
		}
		c.used -= e.rowBytes
		c.lru.Remove(el)
		delete(c.byKey, e.key)
		c.evictions.Add(1)
		if ctx != nil {
			ctx.Metrics.Add(cluster.CacheEvictions, 1)
		}
	}
}

// TableChanged tells the cache rows were appended to t (after the
// version bump). Entries depending on t are incrementally upgraded in
// place when maintainable — each new point is dominance-tested only
// against the cached skyline, at most Δ·s tests for Δ new rows and s
// cached ones, and on the cell index only against the cached rows it can
// be related to (see upgrade) — and invalidated otherwise, including when
// a new point carries a NULL skyline dimension (incremental maintenance
// requires complete data), fails a filter evaluation, or does not decode.
// It returns the number of entries upgraded and invalidated; both are
// also accumulated in Stats.
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
// instead: a NULL dimension or an evaluation error in the delta, cached
// rows or delta rows the kernel does not decode (NaN, integers beyond
// ±2⁵³; the next read recomputes cold), or a key collision.
//
// Cost: the cached skyline is a trusted BNL window, installed without
// one test among its s rows; the Δ new rows that pass the filters are
// each tested against it on the kernel (absorbKernel). A plain pass costs
// at most Δ·s dominance tests. Once s ≥ 64 and Δ·s ≥ 4 096 the pass runs
// on the cell index from its first arrival (skyline's paysSeeded), and an
// arrival is tested only against the cached rows in cells that can
// dominate it or that it can dominate: on anti-correlated d=4 skylines of
// 731 and 2 540 rows (BenchmarkTableChanged), a 20-row append costs
// 800–1 350 tests instead of Δ·s = 14 620 and 50 800. The rows' cell
// codes ride on the entry, so the pass codes only the Δ new rows; the
// grid is taken again when the entry has none (after a store, or a shed)
// or when the skyline has doubled or halved since.
// What remains is O(s) copying: rows, sidecar, codes and text are built
// fresh. An entry that shed its sidecar pays one decode of its rows
// first (sidecar). The entry's text follows the kernel's answer
// (spliceText).
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
// rows differing in one are incomparable.
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
	a := e.held()
	if len(delta) > 0 {
		side, ok := m.sidecar(e)
		if !ok {
			return false
		}
		if a, ok = m.absorbKernel(e, side, delta); !ok {
			return false
		}
	}
	a.rowBytes += int64(len(newKey) - len(e.key))
	batchBytes := a.codes.MemSize()
	if a.batch != nil {
		batchBytes += a.batch.MemSize()
	}
	c.used += (a.rowBytes + batchBytes + textBytes(a.text, a.ends)) - e.size()
	delete(c.byKey, e.key)
	e.key, e.rows, e.batch, e.codes, e.encoded, e.ends = newKey, a.rows, a.batch, a.codes, a.text, a.ends
	e.rowBytes, e.batchBytes = a.rowBytes, batchBytes
	e.pendingUpgrades++
	c.byKey[newKey] = el
	c.upgrades.Add(1)
	c.shed(nil)
	return true
}

// absorbed is what an upgrade built for an entry: its new rows, their
// sidecar and cell codes, what the rows weigh, and their text with its row
// offsets (nil when the entry had none or a new survivor has no JSON form;
// the next hit that wants text encodes).
type absorbed struct {
	rows     []types.Row
	batch    *skyline.Batch
	codes    skyline.CellCodes
	rowBytes int64
	text     []byte
	ends     []uint32
}

// held is what the entry holds, as an append that changes nothing leaves it.
func (e *entry) held() absorbed {
	return absorbed{rows: e.rows, batch: e.batch, codes: e.codes, rowBytes: e.rowBytes, text: e.encoded, ends: e.ends}
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

// sidecar returns the entry's decoded columns: its sidecar, or — when
// memory pressure shed it — its rows decoded again (evalDims +
// DecodeBatch). ok=false when a cached row does not evaluate or decode.
func (m *maintenance) sidecar(e *entry) (*skyline.Batch, bool) {
	if e.batch != nil && e.batch.Len() == len(e.rows) {
		return e.batch, true
	}
	pts := make([]skyline.Point, len(e.rows))
	for i, row := range e.rows {
		dims, ok := evalDims(m.dims, row)
		if !ok {
			return nil, false
		}
		pts[i] = skyline.Point{Dims: dims, Row: row}
	}
	b, ok := skyline.DecodeBatch(pts, m.dirs, false, nil)
	if !ok {
		return nil, false
	}
	b.Tag = m.tag
	return b.WithoutPoints(), true
}

// absorbKernel is the upgrade: decode only the delta, append it to side
// (the cached rows' sidecar), and run the seeded window pass — the cached
// prefix is the window, the delta the input — handing it the entry's cell
// codes, so that a pass on the cell index codes only the delta. ok=false
// (nothing touched) when side holds NULLs, or the kernel refuses the delta
// or the merge. Rows, sidecar, codes and text are built fresh, never in
// place: concurrent readers hold the old ones.
func (m *maintenance) absorbKernel(e *entry, side *skyline.Batch, delta []skyline.Point) (absorbed, bool) {
	s := len(e.rows)
	if side.HasNulls() {
		return absorbed{}, false
	}
	d, ok := skyline.DecodeBatch(delta, m.dirs, false, nil)
	if !ok {
		return absorbed{}, false
	}
	d.Tag = m.tag
	merged, ok := skyline.MergeBatches([]*skyline.Batch{side, d.WithoutPoints()})
	if !ok {
		return absorbed{}, false
	}
	// idx is ascending: cached survivors keep their order, new survivors
	// follow in append order. Every cached index it skips was evicted.
	// The entry's codes go with its sidecar: a shed left none, and codes
	// that do not number s rows are not installed.
	idx, codes := merged.BNLSeeded(s, m.distinct, e.codes)
	if len(idx) == s && (s == 0 || idx[s-1] == s-1) {
		a := e.held() // nothing evicted, nothing admitted
		a.batch, a.codes = side, codes
		return a, true
	}
	a := absorbed{rows: make([]types.Row, len(idx)), codes: codes, rowBytes: e.rowBytes}
	old := 0 // next cached row not yet accounted for
	for i, j := range idx {
		if j >= s {
			a.rows[i] = delta[j-s].Row
			a.rowBytes += a.rows[i].MemSize()
			continue
		}
		for ; old < j; old++ {
			a.rowBytes -= e.rows[old].MemSize()
		}
		old = j + 1
		a.rows[i] = e.rows[j]
	}
	for ; old < s; old++ {
		a.rowBytes -= e.rows[old].MemSize()
	}
	a.batch = merged.Select(idx)
	a.text, a.ends = spliceText(e, idx, delta)
	return a, true
}

// spliceText builds the text of the rows idx picks — cached rows below
// len(e.rows), delta rows above, ascending — from the entry's: the cached
// rows' bytes are copied out of e.encoded at their recorded offsets, and
// only the new survivors are encoded. It returns nil when the entry has
// no text or no offsets, or a new survivor has no JSON form (the next hit
// encodes, and fails naming the cell).
func spliceText(e *entry, idx []int, delta []skyline.Point) ([]byte, []uint32) {
	s := len(e.rows)
	if e.encoded == nil || len(e.ends) != s {
		return nil, nil
	}
	text := make([]byte, 1, len(e.encoded)+len(delta)*(len(e.encoded)/(s+1)+16))
	text[0] = '['
	ends := make([]uint32, len(idx))
	for i, j := range idx {
		if i > 0 {
			text = append(text, ',')
		}
		if j < s {
			lo := uint32(1)
			if j > 0 {
				lo = e.ends[j-1] + 1
			}
			text = append(text, e.encoded[lo:e.ends[j]]...)
		} else {
			var err error
			if text, err = types.AppendRowJSON(text, delta[j-s].Row); err != nil {
				return nil, nil
			}
		}
		ends[i] = uint32(len(text))
	}
	if uint64(len(text)) >= math.MaxUint32 {
		return nil, nil
	}
	return append(text, ']'), ends
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
