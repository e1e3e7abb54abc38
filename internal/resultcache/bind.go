package resultcache

import (
	"fmt"
	"sort"
	"strconv"
	"strings"

	"skysql/internal/catalog"
	"skysql/internal/cluster"
	"skysql/internal/expr"
	"skysql/internal/physical"
	"skysql/internal/skyline"
	"skysql/internal/types"
)

// Bind implements physical.PlanCache: it inspects the compiled plan and,
// when the plan is cacheable — every leaf a table scan, every operator of
// a known result-deterministic kind, and at least one skyline node (this
// is a *skyline* result cache; plain selects are cheap) — wraps it in a
// CacheExec. Uncacheable plans are returned unchanged.
//
// The opts parameter is the planning configuration the plan was compiled
// under. Nothing from it joins the fingerprint directly: the
// strategy-relevant options (strategy, window cap, presort) are already
// encoded in the operator shapes the canonicalizer reads, and the
// bit-identical ablations (fusion, kernel, vectorization) are excluded
// by design so ablated sessions share entries.
func (c *Cache) Bind(root physical.Operator, opts physical.Options) physical.Operator {
	if c == nil {
		return root
	}
	m := maintainShape(root)
	cn := &canonicalizer{sortDims: m != nil}
	if !cn.op(root) || !cn.sawSkyline {
		return root
	}
	return &CacheExec{
		cache:      c,
		child:      root,
		structural: cn.sb.String(),
		deps:       cn.deps,
		maint:      m,
	}
}

// entryKey joins the structural fingerprint with the current version of
// every dependency table — read fresh each time, which is what makes a
// stale entry unservable by construction.
func entryKey(structural string, deps []*catalog.Table) string {
	var sb strings.Builder
	sb.Grow(len(structural) + 24*len(deps))
	sb.WriteString(structural)
	var num [20]byte // the longest int64 in decimal
	for i, t := range deps {
		sb.WriteString("|v")
		sb.Write(strconv.AppendInt(num[:0], int64(i), 10))
		sb.WriteByte('=')
		sb.Write(strconv.AppendInt(num[:0], t.Version(), 10))
	}
	return sb.String()
}

// CacheExec is the operator the planner wraps a cacheable plan in. At
// execution time it keys the cache on (structural fingerprint, current
// table versions): a hit returns the cached rows and sidecar without
// executing a single stage; a miss runs the wrapped plan and — only on
// full success, so a faulted or canceled query can never populate the
// cache with partial results — stores the gathered result.
type CacheExec struct {
	cache      *Cache
	child      physical.Operator
	structural string
	deps       []*catalog.Table
	maint      *maintenance
}

// Schema implements physical.Operator.
func (e *CacheExec) Schema() *types.Schema { return e.child.Schema() }

// Children implements physical.Operator.
func (e *CacheExec) Children() []physical.Operator { return []physical.Operator{e.child} }

// String implements physical.Operator.
func (e *CacheExec) String() string { return "ResultCacheExec" }

// Execute implements physical.Operator. The returned dataset carries the
// Encoding of the entry it was served from or stored under, through which
// a caller that renders the rows can leave the text for the next hit.
func (e *CacheExec) Execute(ctx *cluster.Context) (*cluster.Dataset, error) {
	if err := ctx.CheckCanceled(); err != nil {
		return nil, err
	}
	key := entryKey(e.structural, e.deps)
	if h, ok := e.cache.lookup(key); ok {
		ctx.Metrics.AddCacheHit()
		for ; h.upgrades > 0; h.upgrades-- {
			ctx.Metrics.AddIncrementalUpgrade()
		}
		out := &cluster.Dataset{Parts: [][]types.Row{h.rows},
			Encoding: &Encoding{cache: e.cache, key: key, bytes: h.encoded}}
		if h.batch != nil {
			out.Batches = []*skyline.Batch{h.batch}
		}
		ctx.Metrics.Alloc(out.MemSize())
		ctx.Metrics.AddCostDecision(cluster.CostDecision{
			Site: "result-cache", Choice: "hit", Rows: len(h.rows), Selectivity: -1,
			Detail: "stages skipped, served from cache",
		})
		return out, nil
	}
	ctx.Metrics.AddCacheMiss()
	ctx.Metrics.AddCostDecision(cluster.CostDecision{
		Site: "result-cache", Choice: "miss", Rows: 0, Selectivity: -1,
		Detail: "no entry at current table versions",
	})
	out, err := e.child.Execute(ctx)
	if err != nil {
		return nil, err // never cache a failed or partial run
	}
	rows := out.Gather()
	var batch *skyline.Batch
	if b, ok := out.MergedSidecar(); ok {
		batch = b
	}
	// Only a stored result is known to be the one key names: a run whose
	// tables moved under it holds newer rows than its key, and their text
	// must not land on an entry another run stored under that key.
	if e.cache.store(ctx, key, e.structural, rows, batch, e.deps, e.maint) {
		out.Encoding = &Encoding{cache: e.cache, key: key}
	}
	return out, nil
}

// canonicalizer builds the structural fingerprint bottom-up. Only
// operator kinds whose String()/fields capture everything
// result-relevant are accepted; anything else makes the plan uncacheable
// (default-deny — a false negative costs a recompute, a false positive
// would serve wrong rows).
type canonicalizer struct {
	sb         strings.Builder
	deps       []*catalog.Table
	sortDims   bool
	sawSkyline bool
}

func (c *canonicalizer) op(op physical.Operator) bool {
	switch n := op.(type) {
	case *physical.PipelineExec:
		c.sb.WriteString("|pipe{")
		if !c.op(n.Source) || !c.narrowOps(n.Ops) {
			return false
		}
		c.sb.WriteString("|}")
	case *physical.ScanExec:
		fmt.Fprintf(&c.sb, "|scan:%s#%d", n.Table.Name, len(c.deps))
		c.deps = append(c.deps, n.Table)
	case *physical.OneRowExec:
		c.sb.WriteString("|onerow")
	case *physical.FilterExec:
		conds := []expr.Expr{n.Cond}
		child := physical.Operator(n.Child)
		for {
			f, ok := child.(*physical.FilterExec)
			if !ok {
				break
			}
			conds = append(conds, f.Cond)
			child = f.Child
		}
		if !c.op(child) {
			return false
		}
		c.filterRun(conds)
	case *physical.ExchangeExec:
		if !c.op(n.Child) {
			return false
		}
		fmt.Fprintf(&c.sb, "|%s", n.String())
	case *physical.LocalSkylineExec:
		if !c.op(n.Child) {
			return false
		}
		c.localSky(n)
	case *physical.GlobalSkylineExec:
		if !c.op(n.Child) {
			return false
		}
		c.sawSkyline = true
		fmt.Fprintf(&c.sb, "|global-sky(%s,distinct=%v,cap=%d,zp=%v)[%s]",
			n.Algorithm, n.Distinct, n.WindowCap, n.ZorderPresort, c.dims(n.Dims))
	case *physical.ExtremumFilterExec, *physical.ProjectExec, *physical.SortExec,
		*physical.DistinctExec, *physical.LimitExec, *physical.LocalLimitExec:
		ch := op.Children()
		if len(ch) != 1 || !c.op(ch[0]) {
			return false
		}
		fmt.Fprintf(&c.sb, "|%s", op.String())
	default:
		return false
	}
	return true
}

// narrowOps renders a fused pipeline's operator chain (already in
// execution order) with the same normalizations the tree walk applies,
// without recursing into the ops' structural children (those are the
// preceding chain elements).
func (c *canonicalizer) narrowOps(ops []physical.NarrowOperator) bool {
	for i := 0; i < len(ops); {
		if f, ok := ops[i].(*physical.FilterExec); ok {
			conds := []expr.Expr{f.Cond}
			j := i + 1
			for ; j < len(ops); j++ {
				f2, ok := ops[j].(*physical.FilterExec)
				if !ok {
					break
				}
				conds = append(conds, f2.Cond)
			}
			c.filterRun(conds)
			i = j
			continue
		}
		switch n := ops[i].(type) {
		case *physical.LocalSkylineExec:
			c.localSky(n)
		case *physical.ProjectExec, *physical.LocalLimitExec:
			fmt.Fprintf(&c.sb, "|%s", n.String())
		default:
			return false
		}
		i++
	}
	return true
}

// filterRun renders a contiguous run of filters as its sorted conjunct
// set. Each cond is first split on AND (the optimizer combines adjacent
// filters into one conjunction; splitting undoes that), so WHERE clauses
// that list the same predicates in a different order share a key.
// Conjuncts are pure and filters preserve row order, so the
// normalization cannot conflate plans with different results.
func (c *canonicalizer) filterRun(conds []expr.Expr) {
	var parts []string
	for _, cond := range conds {
		for _, cj := range expr.SplitConjuncts(cond) {
			parts = append(parts, cj.String())
		}
	}
	sort.Strings(parts)
	fmt.Fprintf(&c.sb, "|filter:[%s]", strings.Join(parts, " && "))
}

func (c *canonicalizer) localSky(n *physical.LocalSkylineExec) {
	c.sawSkyline = true
	fmt.Fprintf(&c.sb, "|local-sky(inc=%v,distinct=%v,cap=%d)[%s]",
		n.Incomplete, n.Distinct, n.WindowCap, c.dims(n.Dims))
}

// dims renders a skyline clause. When the surrounding plan shape is
// order-invariant (sortDims, set exactly when the plan is maintainable:
// complete unbounded-window BNL emits the table-order subsequence of the
// skyline regardless of dimension order), the dimensions are sorted so
// "d1 MIN, d2 MAX" and "d2 MAX, d1 MIN" share an entry. Order-sensitive
// shapes (SFS presorts, Grid/Angle/Z-order bucketing, bounded windows,
// incomplete dominance) keep the literal order.
func (c *canonicalizer) dims(dims []physical.BoundDim) string {
	parts := make([]string, len(dims))
	for i, d := range dims {
		parts[i] = d.E.String() + " " + d.Dir.String()
	}
	if c.sortDims {
		sorted := append([]string(nil), parts...)
		sort.Strings(sorted)
		parts = sorted
	}
	return strings.Join(parts, ", ")
}

// maintainShape recognizes the incrementally maintainable (and
// dimension-order-invariant) plan shape:
//
//	GlobalSkylineExec(bnl, unbounded)
//	  └ ExchangeExec AllTuples
//	      └ [LocalSkylineExec(complete, unbounded, same clause)]
//	          └ FilterExec* (possibly fused into a pipeline)
//	              └ ScanExec (in-memory table)
//
// Complete BNL with an unbounded window emits the input-order subsequence
// of the skyline; chunk partitioning plus the order-preserving AllTuples
// gather make that the table-order subsequence, invariant to executor
// count, fusion, and dimension permutation — which is what lets appends
// be absorbed by a BNL window seeded from the cached rows (Cache.upgrade). Any
// other shape returns nil (cacheable, but append ⇒ invalidate).
func maintainShape(root physical.Operator) *maintenance {
	g, ok := root.(*physical.GlobalSkylineExec)
	if !ok || g.Algorithm != physical.GlobalBNL || g.WindowCap != 0 {
		return nil
	}
	ex, ok := g.Child.(*physical.ExchangeExec)
	if !ok || ex.Dist != cluster.AllTuples || len(ex.Keys) != 0 {
		return nil
	}
	// Flatten the subtree under the exchange into top-down order,
	// expanding fused pipelines (whose Ops are bottom-up execution order).
	var chain []physical.Operator
	cur := ex.Child
flatten:
	for {
		switch n := cur.(type) {
		case *physical.FilterExec:
			chain = append(chain, n)
			cur = n.Child
		case *physical.LocalSkylineExec:
			chain = append(chain, n)
			cur = n.Child
		case *physical.PipelineExec:
			for i := len(n.Ops) - 1; i >= 0; i-- {
				chain = append(chain, n.Ops[i])
			}
			cur = n.Source
		case *physical.ScanExec:
			break flatten
		default:
			return nil
		}
	}
	scan, ok := cur.(*physical.ScanExec)
	if !ok || scan.Table.Segments != nil {
		return nil
	}
	// Validate the chain: an optional local skyline directly under the
	// gather, then only filters. A filter *above* the local skyline would
	// filter skyline points, not input rows — not maintainable.
	var filters []physical.Operator
	rest := chain
	if len(rest) > 0 {
		if l, ok := rest[0].(*physical.LocalSkylineExec); ok {
			if l.Incomplete || l.WindowCap != 0 || l.Distinct != g.Distinct || !sameDims(l.Dims, g.Dims) {
				return nil
			}
			rest = rest[1:]
		}
	}
	for _, op := range rest {
		if _, ok := op.(*physical.FilterExec); !ok {
			return nil
		}
		filters = append(filters, op)
	}
	m := &maintenance{
		table:    scan.Table,
		dims:     g.Dims,
		distinct: g.Distinct,
		tag:      physical.SkyTag(g.Dims, false),
	}
	for _, f := range filters {
		m.filters = append(m.filters, f.(*physical.FilterExec).Cond)
	}
	m.dirs = make([]skyline.Dir, len(g.Dims))
	for i, d := range g.Dims {
		m.dirs[i] = d.Dir
	}
	return m
}

// sameDims reports clause equality (expression strings and directions,
// in order).
func sameDims(a, b []physical.BoundDim) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].Dir != b[i].Dir || a[i].E.String() != b[i].E.String() {
			return false
		}
	}
	return true
}
