package physical

// This file is the segment-backed scan. A segment-backed table is never
// decoded ahead of the stage that reads it: the scan only prunes, and the
// task round that consumes the table reads its own input — one task per
// surviving segment, morsel-split exactly as a materialized partition of
// that size would be (cluster.MapRanges), so decode runs on the pool and
// is retried, canceled, budget-checked and timed like any other task.
// Each task reads through its segment's one storage.Reader, which reads
// every page it is asked for once and verifies it, and takes one of two
// paths, chosen from the plan and the data — never a switch:
//
//   - The page path (pageScan): the fused chain is filters → local
//     skyline, or filters under a columnar exchange sink. It runs
//     selection first, after late materialization over selection vectors
//     (Abadi et al., ICDE 2007; MonetDB/X100, CIDR 2005): the filters only
//     narrow a selection of row numbers (storage.Sel), conjunct by
//     conjunct, each looking only at the rows still selected.
//       1. A conjunct the segment's zone maps prove true for every row
//          (cost.ProvablyFull) is dropped for that segment; its column is
//          never read there.
//       2. A comparison of a column with a constant runs on the page
//          bytes (Reader.Filter), under the vectorized engine's rules.
//       3. Any other conjunct (OR, arithmetic, IS NULL, column against
//          column) runs on the vectorized engine over dense columns read
//          from the pages at the current selection (pageColumns).
//     Then the skyline dimensions are read once, at the final selection,
//     straight into the batch's row-major storage (skyline.Gather with
//     Reader.Gather) — the batch holds no rows — the kernel runs, and only
//     the rows that leave the stage are boxed, by row number, and attached
//     to the kept points (Batch.SelectRows), which a local skyline marks
//     as one run for the global pass (Batch.MarkRun). No column is copied in
//     between and no types.Row exists for a row the stage discards. With
//     the kernel off no batch is decoded: the boxed BNL window reads the
//     dimension values of the rows that pass from the pages one row at a
//     time (skyline.BNLFunc), and still only the rows that leave the stage
//     are boxed.
//
//   - The boxed path: every other chain (projections, limits, DIFF or
//     computed dimensions, filters the engine does not vectorize), and
//     any morsel the page path cannot serve exactly — strings, bools or
//     mixed kinds in a referenced column, integers beyond ±2⁵³, NaN in a
//     kernel dimension — or, for a plan that decodes a batch, whose
//     sidecars the memory governor dropped. The task boxes its morsel's
//     rows from the pages and runs the fused chain unchanged.
//
// Both paths return the rows the chain returns over the boxed segment, in
// the same order; the page path's sidecar is the batch the chain would
// have decoded.
//
// A file-backed reader reads its pages into buffers it returns to a
// process-wide pool at Close, where the next reader takes them. That is
// safe because nothing reads a page after its reader closes. A reader
// closes in two places: when the last morsel of its segment has succeeded
// (a morsel's task runs once more only after an attempt that failed, and
// an injected fault fails an attempt before it reads anything, so the
// count of successes reaches the segment's row count exactly once, after
// every read of that segment is done), and when the round is over — and
// RunBatch returns only once every task of the round has finished or been
// skipped, canceled and failed rounds included. No output of the stage
// aliases a page: the batch, the boxed rows and the evaluator's columns
// are all copies.

import (
	"fmt"
	"sync"
	"sync/atomic"

	"skysql/internal/cluster"
	"skysql/internal/cost"
	"skysql/internal/expr"
	"skysql/internal/skyline"
	"skysql/internal/storage"
	"skysql/internal/types"
)

// segmentTask produces the output of rows [lo, hi) of surviving segment p,
// read through r.
type segmentTask func(r *storage.Reader, p, lo, hi int) ([]types.Row, *skyline.Batch, error)

// executeSegments is a bare segment scan (no fused stage above it reads
// the pages itself): one task per surviving segment boxes its rows.
func (s *ScanExec) executeSegments(ctx *cluster.Context) (*cluster.Dataset, error) {
	out, err := s.scanSegments(ctx, s.survivors(ctx), false, func(r *storage.Reader, _, lo, hi int) ([]types.Row, *skyline.Batch, error) {
		rows, err := r.Box(storage.Sel{Lo: lo, Hi: hi})
		return rows, nil, err
	})
	if err != nil {
		return nil, err
	}
	charge(ctx, out)
	if err := ctx.CheckBudget(); err != nil {
		return nil, err
	}
	return out, nil
}

// scanSegments runs the task round that reads the table: one partition
// per surviving segment, morsel-split when splittable. The pages a reader
// holds are charged to the query and released — their buffers back to
// the pool — as soon as the last morsel of their segment has succeeded,
// or when the round ends (see the file comment for why both are safe).
func (s *ScanExec) scanSegments(ctx *cluster.Context, segs []*storage.Segment, splittable bool, task segmentTask) (*cluster.Dataset, error) {
	chargePages := func(n int64) {
		if n > 0 {
			ctx.Metrics.Alloc(n)
		} else {
			ctx.Metrics.Free(-n)
		}
	}
	readers := make([]*storage.Reader, len(segs))
	sizes := make([]int, len(segs))
	left := make([]atomic.Int64, len(segs))
	for i, seg := range segs {
		readers[i] = seg.NewReader(chargePages)
		sizes[i] = seg.Rows()
		left[i].Store(int64(sizes[i]))
	}
	defer func() {
		for _, r := range readers {
			r.Close()
		}
	}()
	return ctx.MapRanges(sizes, func(p, lo, hi int) ([]types.Row, *skyline.Batch, error) {
		rows, b, err := task(readers[p], p, lo, hi)
		if err == nil && left[p].Add(int64(lo-hi)) == 0 {
			readers[p].Close()
		}
		return rows, b, err
	}, splittable)
}

// survivors returns the non-empty segments the pushed-down predicates
// cannot rule out by zone map (cost.ProvablyEmpty over the footer sketch
// — a pure function of footer and predicate, so prune counts are
// deterministic, simulate mode included). Pruning never changes results:
// a pruned segment's rows would all have been rejected by the same
// predicate one operator later.
func (s *ScanExec) survivors(ctx *cluster.Context) []*storage.Segment {
	segs := s.Table.Segments.Segments()
	prune := len(s.Prune) > 0
	out := make([]*storage.Segment, 0, len(segs))
	pruned := 0
	for _, seg := range segs {
		if prune && s.provablyEmpty(seg) {
			pruned++
			continue
		}
		if seg.Rows() > 0 {
			out = append(out, seg)
		}
	}
	if prune {
		ctx.Metrics.Add(cluster.SegmentsPruned, int64(pruned))
		choice := "scan-all"
		if pruned > 0 {
			choice = "prune"
		}
		ctx.Metrics.AddCostDecision(cluster.CostDecision{
			Site: "segment-prune", Choice: choice, Rows: s.Table.RowCount(), Selectivity: -1,
			Detail: fmt.Sprintf("%d/%d segments skipped", pruned, len(segs)),
		})
	}
	return out
}

// provablyEmpty reports whether any pushed predicate keeps no row of the
// segment, per its footer zone maps.
func (s *ScanExec) provablyEmpty(seg *storage.Segment) bool {
	sketch := seg.Sketch()
	for _, p := range s.Prune {
		if cost.ProvablyEmpty(p, sketch) {
			return true
		}
	}
	return false
}

// executeSegments runs a fused stage whose source is a segment-backed
// scan: the stage's one task round reads the segments, each morsel on the
// page path when the plan and its data allow, on the boxed path
// otherwise.
func (p *PipelineExec) executeSegments(ctx *cluster.Context, scan *ScanExec) (*cluster.Dataset, error) {
	// The boxed chain is compiled by the first morsel that needs it, so its
	// decode-at-scan gate is consulted (and recorded) only when it runs.
	var tailOnce sync.Once
	var tail ColumnarPartitionFn
	segs := scan.survivors(ctx)
	var pages []*segmentPages
	if ps := planPageScan(p.Ops, p.Sink, scan.Schema(), ctx.DecodeAtScan); ps != nil {
		pages = make([]*segmentPages, len(segs))
		for i, seg := range segs {
			pages[i] = ps.forSegment(seg)
		}
	}
	var stats *skyline.Stats
	if ctx.Metrics != nil {
		stats = &ctx.Metrics.Sky
	}
	out, err := scan.scanSegments(ctx, segs, morselSplittable(p.Ops), func(r *storage.Reader, i, lo, hi int) ([]types.Row, *skyline.Batch, error) {
		// Checked per task: the governor may drop sidecars mid-round, and
		// then no morsel may decode one.
		if pages != nil && !(pages[i].decodes() && ctx.SidecarsDropped()) {
			if rows, b, ok, err := pages[i].run(ctx, r, lo, hi, stats); err != nil || ok {
				return rows, b, err
			}
		}
		rows, err := r.Box(storage.Sel{Lo: lo, Hi: hi})
		if err != nil {
			return nil, nil, err
		}
		// The boxed morsel is the task's input, live while the chain runs.
		n := cluster.NewDataset(rows).MemSize()
		ctx.Metrics.Alloc(n)
		defer ctx.Metrics.Free(n)
		tailOnce.Do(func() { tail = p.tailFn(ctx) })
		return tail(i, rows, nil)
	})
	if err != nil {
		return nil, err
	}
	charge(ctx, out)
	return out, nil
}

// pageScan is the page-path plan of a fused stage over a segment scan.
type pageScan struct {
	// filters are the chain's predicates, in order, bound to the scan, each
	// split into its conjuncts.
	filters [][]conjunct
	// sky is the chain's local skyline; nil when the decode target is the
	// columnar exchange sink above the stage.
	sky *LocalSkylineExec
	// dimOrds is the scan column of each target dimension.
	dimOrds    []int
	dirs       []skyline.Dir
	incomplete bool
	tag        string
}

// planPageScan returns the page-path plan of a fused chain over the given
// scan schema, or nil when the chain is not filters ending in a local
// skyline (or, under a columnar sink, filters alone), a filter does not
// vectorize, or a dimension is not a plain MIN/MAX column. decode
// (Context.DecodeAtScan) gates the plans that decode a batch at the scan;
// a local skyline that tests dominance boxed (kernel off) decodes none —
// it reads its dimensions from the pages row by row into a BNL window —
// and needs no gate.
func planPageScan(ops []NarrowOperator, sink *DecodeSink, schema *types.Schema, decode bool) *pageScan {
	ps := &pageScan{}
	var dims []BoundDim
	for i, op := range ops {
		switch o := op.(type) {
		case *FilterExec:
			if !expr.CanVectorize(o.Cond, schema) {
				return nil
			}
			var conjs []conjunct
			for _, e := range expr.SplitConjuncts(o.Cond) {
				conjs = append(conjs, newConjunct(e))
			}
			ps.filters = append(ps.filters, conjs)
		case *LocalSkylineExec:
			if i != len(ops)-1 {
				return nil
			}
			ps.sky, dims, ps.incomplete, ps.tag = o, o.Dims, o.Incomplete, skyTag(o.Dims, o.Incomplete)
		default:
			return nil
		}
	}
	if ps.decodes() && !decode {
		return nil
	}
	if ps.sky == nil {
		if sink == nil {
			return nil
		}
		dims, ps.tag = sink.Dims, sink.Tag
	}
	for _, d := range dims {
		ref, ok := stripAlias(d.E).(*expr.BoundRef)
		if !ok || d.Dir == skyline.Diff {
			return nil
		}
		ps.dimOrds = append(ps.dimOrds, ref.Index)
	}
	ps.dirs = dirsOf(dims)
	return ps
}

// decodes reports whether the plan decodes a batch: every plan but a
// local skyline that tests dominance boxed.
func (ps *pageScan) decodes() bool { return ps.sky == nil || !ps.sky.DisableKernel }

// forSegment returns the page path of one segment: a conjunct the
// segment's zone maps prove true for every row is dropped
// (cost.ProvablyFull — a pure function of footer and conjunct, like the
// prune decision).
func (ps *pageScan) forSegment(seg *storage.Segment) *segmentPages {
	sp := &segmentPages{pageScan: ps}
	sketch := seg.Sketch()
	sp.live = make([][]conjunct, len(ps.filters))
	for f, conjs := range ps.filters {
		for _, cj := range conjs {
			if !cost.ProvablyFull(cj.e, sketch) {
				sp.live[f] = append(sp.live[f], cj)
			}
		}
	}
	return sp
}

// segmentPages is the page path of one segment: the stage's plan, and
// per filter the conjuncts the segment leaves to evaluate.
type segmentPages struct {
	*pageScan
	live [][]conjunct
}

// run executes the page path over rows [lo, hi) of the segment. ok=false
// with a nil error hands the morsel to the boxed path.
func (sp *segmentPages) run(ctx *cluster.Context, r *storage.Reader, lo, hi int, stats *skyline.Stats) (rows []types.Row, b *skyline.Batch, ok bool, err error) {
	sel := storage.Sel{Lo: lo, Hi: hi}
	for _, conjs := range sp.live {
		for i := range conjs {
			if sel, ok, err = conjs[i].narrow(ctx, r, sel); err != nil || !ok {
				return nil, nil, false, err
			}
		}
		ctx.Metrics.Add(cluster.VectorizedBatches, 1)
	}
	if sp.sky != nil && sp.sky.DisableKernel {
		// Boxed dominance: BNL over the dimension values of the rows that
		// passed, read from the pages one row at a time.
		at, err := r.Values(sp.dimOrds, sel)
		if err != nil {
			return nil, nil, false, err
		}
		keep, err := skyline.BNLFunc(sel.Len(), at, sp.dirs, sp.sky.Distinct, sp.sky.compare(), stats)
		if err != nil {
			return nil, nil, false, err
		}
		rows, err = r.Box(rowsAt(sel, keep))
		return rows, nil, err == nil, err
	}
	var readErr error
	b, ok = skyline.Gather(sel.Len(), sp.dirs, sp.incomplete, stats, func(d int, dst []float64, stride int, negate bool) (nulls []int, ok bool) {
		nulls, ok, readErr = r.Gather(sp.dimOrds[d], sel, dst, stride, negate)
		return nulls, ok
	})
	if readErr != nil || !ok {
		return nil, nil, false, readErr
	}
	b.Tag = sp.tag
	for d, ord := range sp.dimOrds {
		b.BindColumn(ord, d, sp.dirs[d] == skyline.Max)
	}
	ctx.Metrics.Alloc(b.MemSize())
	defer ctx.Metrics.Free(b.MemSize())
	var keep []int
	if sp.sky != nil {
		keep = sp.sky.kernel(b, stats)
	} else {
		keep = make([]int, b.Len())
		for i := range keep {
			keep[i] = i
		}
	}
	if rows, err = r.Box(rowsAt(sel, keep)); err != nil {
		return nil, nil, false, err
	}
	out := b.SelectRows(keep, rows)
	if sp.sky != nil && sp.sky.marksRun() {
		out.MarkRun(sp.sky.Distinct)
	}
	return rows, out, true, nil
}

// rowsAt is the selection of the given positions among the rows sel
// names.
func rowsAt(sel storage.Sel, pos []int) storage.Sel {
	idx := make([]int, len(pos))
	for j, k := range pos {
		idx[j] = sel.Row(k) - sel.Lo
	}
	return storage.Sel{Lo: sel.Lo, Idx: idx}
}

// conjunct is one conjunct of a filter on the page path: a comparison of
// a column with a constant (cmp: col op c, the constant on the right),
// which runs on the page bytes, or any other expression, which runs on
// the vectorized engine.
type conjunct struct {
	e   expr.Expr
	cmp bool
	col int
	op  expr.BinaryOp
	c   float64
}

// newConjunct classifies one conjunct of a vectorizable filter: a
// comparison of a column with a literal the engine would compare against
// in place (expr.ConstOperand) runs on the page bytes.
func newConjunct(e expr.Expr) conjunct {
	b, ok := stripAlias(e).(*expr.Binary)
	if !ok || !b.Op.IsComparison() {
		return conjunct{e: e}
	}
	if ref, ok := stripAlias(b.L).(*expr.BoundRef); ok {
		if c, ok := expr.ConstOperand(b.R); ok {
			return conjunct{e: e, cmp: true, col: ref.Index, op: b.Op, c: c}
		}
	}
	if ref, ok := stripAlias(b.R).(*expr.BoundRef); ok {
		if c, ok := expr.ConstOperand(b.L); ok {
			return conjunct{e: e, cmp: true, col: ref.Index, op: b.Op.Mirrored(), c: c}
		}
	}
	return conjunct{e: e}
}

// narrow keeps the selected rows the conjunct holds for. ok=false with a
// nil error when the pages cannot serve it exactly at those rows.
func (cj *conjunct) narrow(ctx *cluster.Context, r *storage.Reader, sel storage.Sel) (storage.Sel, bool, error) {
	if cj.cmp {
		return r.Filter(cj.col, cj.op, cj.c, sel)
	}
	cols := &pageColumns{r: r, sel: sel}
	ve := expr.NewVectorEvaluator(cols)
	keep, err := ve.EvalPredicate(cj.e)
	switch {
	case cols.err != nil:
		return storage.Sel{}, false, cols.err
	case err == expr.ErrNotVectorized:
		return storage.Sel{}, false, nil
	case err != nil:
		return storage.Sel{}, false, err
	}
	defer chargeScratch(ctx, ve, cols)()
	idx := sel.Idx[:0] // position k is read before anything at k or past it is written
	if sel.Idx == nil {
		idx = make([]int, 0, len(keep))
	}
	for k, ok := range keep {
		if ok {
			idx = append(idx, sel.Row(k)-sel.Lo)
		}
	}
	return storage.Sel{Lo: sel.Lo, Hi: sel.Hi, Idx: idx}, true, nil
}

// pageColumns serves one morsel's columns to the vectorized engine
// straight from the segment's pages, at the rows selected so far.
type pageColumns struct {
	r     *storage.Reader
	sel   storage.Sel
	vals  map[int][]float64
	nulls map[int][]bool
	bytes int64
	// err is the first read failure (I/O, checksum) behind a refused
	// column; the caller reports it instead of falling back.
	err error
}

func (c *pageColumns) NumRows() int { return c.sel.Len() }

func (c *pageColumns) gathered() int64 { return c.bytes }

func (c *pageColumns) Column(ord int) ([]float64, []bool, bool) {
	if v, ok := c.vals[ord]; ok {
		return v, c.nulls[ord], true
	}
	v, n, ok, err := c.r.Numeric(ord, c.sel)
	if err != nil && c.err == nil {
		c.err = err
	}
	if !ok {
		return nil, nil, false
	}
	if c.vals == nil {
		c.vals, c.nulls = make(map[int][]float64), make(map[int][]bool)
	}
	c.vals[ord], c.nulls[ord] = v, n
	c.bytes += int64(len(v))*8 + int64(len(n))
	return v, n, true
}
