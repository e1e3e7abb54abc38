package physical

// This file wires the vectorized expression engine into stage execution.
// Two pieces live here:
//
//   - batchColumns adapts a decoded skyline.Batch to the expr.ColumnSource
//     interface, caching materialized columns so predicates referencing the
//     same ordinal twice pay the strided gather once.
//
//   - planStageDecode decides, for one fused pipeline, whether the stage
//     can decode its columnar batch at the source (Context.DecodeAtScan):
//     it looks for a local skyline in the fused chain, rewrites its
//     dimension expressions backwards through the intervening projections
//     onto the source schema, and records which source ordinals the decoded
//     numeric columns serve. With the spec in place the pipeline closure
//     decodes each partition once at entry, the filters and projections
//     above run vectorized over the batch (or boxed with Batch.Select, when
//     an expression refuses), and the skyline reuses the batch by tag — the
//     whole narrow chain is decode-once.

import (
	"fmt"
	"sort"

	"skysql/internal/cluster"
	"skysql/internal/cost"
	"skysql/internal/expr"
	"skysql/internal/skyline"
	"skysql/internal/types"
)

// batchColumns serves a batch's dense columns to the vectorized engine,
// tracking the bytes of the gathered column buffers (Batch.Column
// materializes dimension columns out of the row-major storage) so callers
// can charge them alongside the evaluator's own scratch.
type batchColumns struct {
	b     *skyline.Batch
	vals  map[int][]float64
	nulls map[int][]bool
	bytes int64
}

func newBatchColumns(b *skyline.Batch) *batchColumns {
	return &batchColumns{b: b, vals: make(map[int][]float64), nulls: make(map[int][]bool)}
}

func (c *batchColumns) NumRows() int { return c.b.Len() }

func (c *batchColumns) gathered() int64 { return c.bytes }

func (c *batchColumns) Column(ord int) ([]float64, []bool, bool) {
	if v, ok := c.vals[ord]; ok {
		return v, c.nulls[ord], true
	}
	v, n, ok := c.b.Column(ord)
	if !ok {
		return nil, nil, false
	}
	c.vals[ord], c.nulls[ord] = v, n
	c.bytes += int64(len(v)) * 8
	c.bytes += int64(len(n))
	return v, n, true
}

// denseColumns is a column source that knows the bytes of the dense
// columns it materialized for the vectorized engine.
type denseColumns interface {
	expr.ColumnSource
	gathered() int64
}

// chargeScratch books one vectorized pass's buffers — the evaluator's
// scratch columns plus the columns the source materialized — against
// peak-bytes accounting for the duration of the returned release func.
func chargeScratch(ctx *cluster.Context, ve *expr.VectorEvaluator, cols denseColumns) func() {
	n := ve.Bytes + cols.gathered()
	if ctx.Metrics == nil || n == 0 {
		return func() {}
	}
	ctx.Metrics.Alloc(n)
	return func() { ctx.Metrics.Free(n) }
}

// vectorSelect evaluates a filter predicate on the vectorized engine over
// dense columns: the selection bitmap, with the pass's buffers charged
// until release is called. expr.ErrNotVectorized means the columns cannot
// serve the predicate exactly and the caller falls back to boxed rows.
func vectorSelect(ctx *cluster.Context, cond expr.Expr, cols denseColumns) (sel []bool, release func(), err error) {
	ve := expr.NewVectorEvaluator(cols)
	if sel, err = ve.EvalPredicate(cond); err != nil {
		return nil, nil, err
	}
	ctx.Metrics.AddVectorizedBatch()
	return sel, chargeScratch(ctx, ve, cols), nil
}

// stageDecode is the decode-at-source plan of one fused pipeline.
type stageDecode struct {
	// dims are the target skyline's dimensions rebased onto the source
	// schema (projections between source and skyline substituted in).
	dims       []BoundDim
	dirs       []skyline.Dir
	incomplete bool
	// tag is the target skyline's own sidecar tag, so the decoded batch is
	// reused by it without re-decoding.
	tag string
	// binds maps source-row ordinals onto decoded numeric columns, for the
	// rebased dimensions that are plain column references.
	binds []colBind
	// extra lists further source ordinals the chain's filter predicates and
	// projection expressions reference; they are materialized as computed
	// columns during the same decode pass, so a predicate on a
	// non-dimension column (WHERE c < 25 over a skyline of a, b) still
	// vectorizes.
	extra []int
	// filters are the chain's filter predicates rebased onto the source
	// schema, feeding the decode-at-scan cost gate.
	filters []expr.Expr
}

type colBind struct {
	ord, dim int
	negated  bool
}

// width is the number of dense columns the decode materializes — the
// numeric dimensions plus the extra referenced columns — i.e. the per-row
// decode cost in column touches.
func (s *stageDecode) width() int {
	n := len(s.extra)
	for _, d := range s.dirs {
		if d != skyline.Diff {
			n++
		}
	}
	return n
}

// planStageDecode inspects a fused chain (execution order) and returns the
// decode-at-source spec, or nil when the stage cannot (or need not) start
// columnar: no decode target (neither a local skyline in the chain nor a
// columnar sink above it), the kernel is disabled, an unknown narrow
// operator intervenes, or nothing at all runs between the source and the
// skyline (the skyline's own decode is already the stage entry in that
// case). A sink target (a partitioned exchange above the stage) is used
// only when the chain holds at least one filter or projection — otherwise
// the exchange's own decode is already optimal — and never for DIFF
// dimensions, which the columnar bucketing refuses anyway.
func planStageDecode(ops []NarrowOperator, sink *DecodeSink) *stageDecode {
	// subst maps the current ordinal space back onto source-schema
	// expressions; nil means identity.
	var subst []expr.Expr
	// refs collects the source ordinals the chain's expressions reference,
	// so non-dimension columns a vectorizable predicate needs are decoded
	// alongside the dimensions.
	refs := make(map[int]bool)
	var filters []expr.Expr
	hasWork := false
	// KindNull-typed refs are included: expr.CanVectorize resolves those
	// against the schema field type, so a numeric column behind one still
	// vectorizes — and extractColumn validates the values either way.
	addRefs := func(e expr.Expr, sub []expr.Expr) {
		expr.Walk(rebaseThrough(e, sub), func(n expr.Expr) {
			if ref, ok := n.(*expr.BoundRef); ok &&
				(ref.Typ == types.KindInt || ref.Typ == types.KindFloat || ref.Typ == types.KindNull) {
				refs[ref.Index] = true
			}
		})
	}
	// finish assembles the spec for the decode target's dimensions (bound
	// to the current ordinal space) under the target's own sidecar tag.
	finish := func(dims []BoundDim, incomplete bool, tag string) *stageDecode {
		spec := &stageDecode{
			dims:       make([]BoundDim, len(dims)),
			dirs:       dirsOf(dims),
			incomplete: incomplete,
			tag:        tag,
			filters:    filters,
		}
		bound := make(map[int]bool)
		numCol := 0
		for d, bd := range dims {
			e := rebaseThrough(bd.E, subst)
			spec.dims[d] = BoundDim{E: e, Dir: bd.Dir}
			if bd.Dir != skyline.Diff {
				if ref, ok := stripAlias(e).(*expr.BoundRef); ok && !bound[ref.Index] {
					spec.binds = append(spec.binds, colBind{ord: ref.Index, dim: numCol, negated: bd.Dir == skyline.Max})
					bound[ref.Index] = true
				}
				numCol++
			}
		}
		for ord := range refs {
			if !bound[ord] {
				spec.extra = append(spec.extra, ord)
			}
		}
		sort.Ints(spec.extra)
		return spec
	}
	for i, op := range ops {
		switch o := op.(type) {
		case *LocalLimitExec:
			// Row-preserving, expression-free.
		case *FilterExec:
			filters = append(filters, rebaseThrough(o.Cond, subst))
			hasWork = true
			addRefs(o.Cond, subst)
		case *ProjectExec:
			next := make([]expr.Expr, len(o.Exprs))
			for j, e := range o.Exprs {
				next[j] = rebaseThrough(stripAlias(e), subst)
				addRefs(e, subst)
			}
			subst = next
			hasWork = true
		case *LocalSkylineExec:
			if o.DisableKernel || i == 0 {
				return nil
			}
			return finish(o.Dims, o.Incomplete, skyTag(o.Dims, o.Incomplete))
		default:
			return nil
		}
	}
	if sink == nil || !hasWork {
		return nil
	}
	for _, d := range sink.Dims {
		if d.Dir == skyline.Diff {
			return nil
		}
	}
	return finish(sink.Dims, false, sink.Tag)
}

// gateStageDecode applies the cost model to a decode-at-source spec: with
// filters in the chain and a sketchable source, deferring the decode past
// a selective filter can beat decoding every pre-filter row. Returns nil
// to defer (the local skyline or the exchange then decodes the survivors,
// exactly as before decode-at-scan existed); results are bit-identical
// either way. The decision is recorded in Metrics.CostDecisions.
func gateStageDecode(ctx *cluster.Context, spec *stageDecode, source Operator) *stageDecode {
	if len(spec.filters) == 0 {
		// Nothing between the source and the decode target discards rows:
		// the eager decode is the target's own decode, merely moved.
		return spec
	}
	scan, ok := source.(*ScanExec)
	if !ok {
		return spec
	}
	sketch := scan.Sketch()
	sel := 1.0
	nodes := 0
	vectorizable := true
	for _, f := range spec.filters {
		sel *= cost.Selectivity(f, sketch)
		nodes += cost.PredicateNodes(f)
		if !expr.CanVectorize(f, scan.Schema()) {
			vectorizable = false
		}
	}
	width := spec.width()
	decode := cost.GateDecodeAtScan(sel, width, nodes, vectorizable)
	choice := "decode"
	if !decode {
		choice = "defer"
	}
	ctx.Metrics.AddCostDecision(cluster.CostDecision{
		Site: "decode-at-scan", Choice: choice, Rows: sketch.Rows, Selectivity: sel,
		Detail: fmt.Sprintf("width=%d, filter nodes=%d, vectorizable=%v", width, nodes, vectorizable),
	})
	if !decode {
		return nil
	}
	return spec
}

// rebaseThrough substitutes bound references through a projection mapping
// (nil = identity), rewriting an expression bound to the projection output
// into one bound to the projection input.
func rebaseThrough(e expr.Expr, subst []expr.Expr) expr.Expr {
	if subst == nil {
		return e
	}
	return expr.Transform(e, func(sub expr.Expr) expr.Expr {
		if ref, ok := sub.(*expr.BoundRef); ok && ref.Index >= 0 && ref.Index < len(subst) {
			return subst[ref.Index]
		}
		return sub
	})
}

// stripAlias unwraps projection aliases.
func stripAlias(e expr.Expr) expr.Expr {
	for {
		a, ok := e.(*expr.Alias)
		if !ok {
			return e
		}
		e = a.Child
	}
}

// decodeSourceBatch decodes one source partition under the spec: the
// rebased dimensions are evaluated once per row (the same boxed pass the
// skyline would pay after the filters) and the batch is stamped with the
// skyline's tag plus the source-ordinal column bindings. ok=false — an
// evaluation error on pre-filter rows or a kernel refusal — leaves the
// partition boxed; downstream operators behave exactly as before.
func (s *stageDecode) decodeSourceBatch(part []types.Row, stats *skyline.Stats) (*skyline.Batch, bool) {
	pts, err := evalPoints(part, s.dims)
	if err != nil {
		return nil, false
	}
	b, ok := skyline.DecodeBatch(pts, s.dirs, s.incomplete, stats)
	if !ok {
		return nil, false
	}
	b.Tag = s.tag
	for _, bind := range s.binds {
		b.BindColumn(bind.ord, bind.dim, bind.negated)
	}
	for _, ord := range s.extra {
		if vals, nulls, ok := extractColumn(part, ord); ok {
			b.AppendComputedColumn(ord, vals, nulls)
		}
	}
	return b, true
}

// extractColumn pulls one row ordinal into a dense column. ok=false when
// any value cannot be represented exactly under the vectorized comparison
// semantics (strings/bools, integers beyond ±2⁵³ where the boxed int-int
// comparison is finer than float64); NaN floats are fine — the vectorized
// comparisons replicate the boxed NaN total order.
func extractColumn(part []types.Row, ord int) (vals []float64, nulls []bool, ok bool) {
	vals = make([]float64, len(part))
	for i, row := range part {
		if ord >= len(row) {
			return nil, nil, false
		}
		v := row[ord]
		switch v.Kind() {
		case types.KindNull:
			if nulls == nil {
				nulls = make([]bool, len(part))
			}
			nulls[i] = true
		case types.KindInt:
			iv := v.AsInt()
			if iv > types.MaxExactFloatInt || iv < -types.MaxExactFloatInt {
				return nil, nil, false
			}
			vals[i] = float64(iv)
		case types.KindFloat:
			vals[i] = v.AsFloat()
		default:
			return nil, nil, false
		}
	}
	return vals, nulls, true
}

// bindDimColumns registers the ordinal→column bindings of a batch decoded
// directly from a skyline clause, for the dimensions that are plain column
// references — so the sidecar can serve vectorized expressions downstream.
func bindDimColumns(b *skyline.Batch, dims []BoundDim) {
	numCol := 0
	for _, d := range dims {
		if d.Dir == skyline.Diff {
			continue
		}
		if ref, ok := stripAlias(d.E).(*expr.BoundRef); ok {
			b.BindColumn(ref.Index, numCol, d.Dir == skyline.Max)
		}
		numCol++
	}
}
