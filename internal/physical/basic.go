package physical

import (
	"fmt"
	"sort"
	"sync"

	"skysql/internal/catalog"
	"skysql/internal/cluster"
	"skysql/internal/cost"
	"skysql/internal/expr"
	"skysql/internal/skyline"
	"skysql/internal/types"
)

// ScanExec reads a table, splitting it into one partition per executor
// (Spark's default even distribution, §5.5). Segment-backed tables stream
// their segments instead (segscan.go): each surviving segment is one
// partition (a natural morsel home) read inside the tasks of the round
// that consumes it, after the per-segment zone maps are consulted against
// the pushed-down filter predicates — a segment the predicates provably
// reject is skipped before any page is read.
type ScanExec struct {
	Table  *catalog.Table
	schema *types.Schema

	// Prune is the contiguous filter-predicate run sitting directly above
	// the scan, pushed down by the planner for zone-map pruning. The
	// filters themselves still execute — pruning only skips segments whose
	// zone maps prove a predicate keeps no row, so results are unchanged.
	Prune []expr.Expr

	sketchMu      sync.Mutex
	sketch        *cost.Table
	sketchVersion int64
}

// NewScanExec creates a table scan with the given (qualified) schema.
func NewScanExec(t *catalog.Table, schema *types.Schema) *ScanExec {
	return &ScanExec{Table: t, schema: schema}
}

func (s *ScanExec) Schema() *types.Schema { return s.schema }
func (s *ScanExec) Children() []Operator  { return nil }
func (s *ScanExec) String() string {
	kind := ""
	if s.Table.Segments != nil {
		kind = fmt.Sprintf(", %d segments", len(s.Table.Segments.Segments()))
	}
	return fmt.Sprintf("ScanExec %s (%d rows%s)", s.Table.Name, s.Table.RowCount(), kind)
}

// Sketch returns the column sketches of the scanned table — the
// cardinality/selectivity input of the cost model. For in-memory tables
// it is computed once per scan (a single cheap pass, a fraction of the
// decode the sketch gates) and recomputed when the table's version moved
// between executions, so a re-run plan over a grown or replaced table
// does not decide off a stale sketch. (Keying on version rather than row
// count also catches same-cardinality content changes.) Segment-backed
// tables answer from the persisted footer stats — merged zone maps plus
// histograms — without touching a single page.
func (s *ScanExec) Sketch() *cost.Table {
	if s.Table.Segments != nil {
		return s.Table.Segments.Sketch()
	}
	s.sketchMu.Lock()
	defer s.sketchMu.Unlock()
	// One consistent (rows, version) pair: sketching rows newer than the
	// recorded version would let a concurrent append poison the cache with
	// a stale key for fresh data.
	rows, v := s.Table.SnapshotVersion()
	if s.sketch == nil || s.sketchVersion != v {
		s.sketch = cost.Sketch(rows, s.schema.Len())
		s.sketchVersion = v
	}
	return s.sketch
}

func (s *ScanExec) Execute(ctx *cluster.Context) (*cluster.Dataset, error) {
	if s.Table.Segments != nil {
		return s.executeSegments(ctx)
	}
	in := cluster.NewDataset(s.Table.Snapshot())
	out, err := ctx.Exchange(in, cluster.Unspecified, nil)
	if err != nil {
		return nil, err
	}
	charge(ctx, out)
	return out, nil
}

// OneRowExec produces one empty row (FROM-less SELECT).
type OneRowExec struct{}

func (o *OneRowExec) Schema() *types.Schema { return types.NewSchema() }
func (o *OneRowExec) Children() []Operator  { return nil }
func (o *OneRowExec) String() string        { return "OneRowExec" }
func (o *OneRowExec) Execute(*cluster.Context) (*cluster.Dataset, error) {
	return cluster.NewDataset([]types.Row{{}}), nil
}

// FilterExec keeps rows satisfying the predicate.
type FilterExec struct {
	Cond  expr.Expr
	Child Operator
}

func (f *FilterExec) Schema() *types.Schema { return f.Child.Schema() }
func (f *FilterExec) Children() []Operator  { return []Operator{f.Child} }
func (f *FilterExec) String() string        { return "FilterExec " + f.Cond.String() }

// NarrowChild implements NarrowOperator: filtering is a pure per-partition
// pass, so it fuses into the enclosing stage.
func (f *FilterExec) NarrowChild() Operator { return f.Child }

// MorselSplittable implements the morsel-safety opt-in: a filter is a pure
// per-row pass, so range outputs concatenate to the whole-partition output.
func (f *FilterExec) MorselSplittable() bool { return true }

// PartitionTransformColumnar implements NarrowOperator. With an aligned
// sidecar and a vectorizable predicate the filter evaluates a selection
// bitmap over the batch's dense columns — no boxed Eval per row — and both
// the rows and the batch are reduced by the same selection, preserving the
// boxed row order bit for bit. Non-vectorizable predicates (or runtime
// refusals, expr.ErrNotVectorized) fall back to the boxed row loop but
// still carry the sidecar forward via Batch.Select.
func (f *FilterExec) PartitionTransformColumnar(ctx *cluster.Context) ColumnarPartitionFn {
	canVec := expr.CanVectorize(f.Cond, f.Child.Schema())
	return func(_ int, part []types.Row, b *skyline.Batch) ([]types.Row, *skyline.Batch, error) {
		if b != nil && b.Len() != len(part) {
			b = nil // misaligned sidecar: rows stay authoritative
		}
		if b != nil && canVec {
			sel, release, err := vectorSelect(ctx, f.Cond, newBatchColumns(b))
			if err == nil {
				var keep []types.Row
				for i, ok := range sel {
					if ok {
						keep = append(keep, part[i])
					}
				}
				nb := b.Filter(sel)
				release()
				return keep, nb, nil
			}
			if err != expr.ErrNotVectorized {
				return nil, nil, err
			}
		}
		var keep []types.Row
		var idx []int
		for i, row := range part {
			ok, err := expr.EvalPredicate(f.Cond, row)
			if err != nil {
				return nil, nil, err
			}
			if ok {
				keep = append(keep, row)
				if b != nil {
					idx = append(idx, i)
				}
			}
		}
		if b == nil {
			return keep, nil, nil
		}
		return keep, b.Select(idx), nil
	}
}

func (f *FilterExec) Execute(ctx *cluster.Context) (*cluster.Dataset, error) {
	return executeNarrow(ctx, f)
}

// ProjectExec evaluates projection expressions over each row.
type ProjectExec struct {
	Exprs  []expr.Expr
	Child  Operator
	schema *types.Schema
}

// NewProjectExec creates a projection with a precomputed output schema.
func NewProjectExec(exprs []expr.Expr, schema *types.Schema, child Operator) *ProjectExec {
	return &ProjectExec{Exprs: exprs, schema: schema, Child: child}
}

func (p *ProjectExec) Schema() *types.Schema { return p.schema }
func (p *ProjectExec) Children() []Operator  { return []Operator{p.Child} }
func (p *ProjectExec) String() string        { return "ProjectExec [" + exprStrings(p.Exprs) + "]" }

// NarrowChild implements NarrowOperator: projection is a pure
// per-partition pass, so it fuses into the enclosing stage.
func (p *ProjectExec) NarrowChild() Operator { return p.Child }

// MorselSplittable implements the morsel-safety opt-in: projection is a
// pure per-row pass, so range outputs concatenate to the whole-partition
// output.
func (p *ProjectExec) MorselSplittable() bool { return true }

// PartitionTransformColumnar implements NarrowOperator. With an aligned
// sidecar the projection keeps the batch alive across the row transform:
// the output rows replace the wrapped rows (Batch.WithRows), pass-through
// column references re-key their bindings into the output ordinal space,
// and computed numeric expressions evaluate on the vectorized engine —
// their result columns are both materialized into the output rows (boxed
// kinds preserved exactly) and appended to the batch for operators further
// up the chain. Expressions the engine refuses evaluate boxed, column by
// column, with identical results.
func (p *ProjectExec) PartitionTransformColumnar(ctx *cluster.Context) ColumnarPartitionFn {
	childSchema := p.Child.Schema()
	canVec := make([]bool, len(p.Exprs))
	passthrough := make([]int, len(p.Exprs)) // source ordinal, or -1
	for j, e := range p.Exprs {
		passthrough[j] = -1
		if ref, ok := stripAlias(e).(*expr.BoundRef); ok {
			passthrough[j] = ref.Index
			continue
		}
		canVec[j] = expr.CanVectorize(e, childSchema)
	}
	return func(_ int, part []types.Row, b *skyline.Batch) ([]types.Row, *skyline.Batch, error) {
		if b != nil && b.Len() != len(part) {
			b = nil // misaligned sidecar: rows stay authoritative
		}
		if b == nil {
			res := make([]types.Row, len(part))
			for ri, row := range part {
				nr := make(types.Row, len(p.Exprs))
				for i, e := range p.Exprs {
					v, err := e.Eval(row)
					if err != nil {
						return nil, nil, err
					}
					nr[i] = v
				}
				res[ri] = nr
			}
			return res, nil, nil
		}
		// Sidecar present: build the output column by column.
		res := make([]types.Row, len(part))
		for ri := range res {
			res[ri] = make(types.Row, len(p.Exprs))
		}
		cols := newBatchColumns(b)
		ve := expr.NewVectorEvaluator(cols)
		ordMap := make(map[int]int)
		type appended struct {
			ord   int
			vals  []float64
			nulls []bool
		}
		var computed []appended
		vectorized := false
		for j, e := range p.Exprs {
			if src := passthrough[j]; src >= 0 {
				for ri, row := range part {
					v, err := e.Eval(row)
					if err != nil {
						return nil, nil, err
					}
					res[ri][j] = v
				}
				ordMap[j] = src
				continue
			}
			if canVec[j] && !isBoolExpr(e) {
				vals, nulls, err := ve.EvalNumeric(e)
				if err == nil {
					vectorized = true
					for ri, v := range expr.MaterializeNumeric(e.DataType(), vals, nulls) {
						res[ri][j] = v
					}
					computed = append(computed, appended{ord: j, vals: vals, nulls: nulls})
					continue
				}
				if err != expr.ErrNotVectorized {
					return nil, nil, err
				}
			}
			for ri, row := range part {
				v, err := e.Eval(row)
				if err != nil {
					return nil, nil, err
				}
				res[ri][j] = v
			}
		}
		nb := b.WithRows(res, ordMap)
		for _, c := range computed {
			nb.AppendComputedColumn(c.ord, c.vals, c.nulls)
		}
		if vectorized {
			release := chargeScratch(ctx, ve, cols)
			ctx.Metrics.Add(cluster.VectorizedBatches, 1)
			release()
		}
		return res, nb, nil
	}
}

// isBoolExpr reports whether a projection output is boolean-class (those
// materialize boxed; only numeric results become batch columns).
func isBoolExpr(e expr.Expr) bool {
	return e.DataType() == types.KindBool
}

func (p *ProjectExec) Execute(ctx *cluster.Context) (*cluster.Dataset, error) {
	return executeNarrow(ctx, p)
}

// LimitExec keeps the first N rows (gathering to one partition).
type LimitExec struct {
	N     int64
	Child Operator
}

func (l *LimitExec) Schema() *types.Schema { return l.Child.Schema() }
func (l *LimitExec) Children() []Operator  { return []Operator{l.Child} }
func (l *LimitExec) String() string        { return fmt.Sprintf("LimitExec %d", l.N) }

func (l *LimitExec) Execute(ctx *cluster.Context) (*cluster.Dataset, error) {
	in, err := l.Child.Execute(ctx)
	if err != nil {
		return nil, err
	}
	rows := in.Gather()
	if int64(len(rows)) > l.N {
		rows = rows[:l.N]
	}
	out := cluster.NewDataset(rows)
	charge(ctx, out, in)
	return out, nil
}

// SortExec totally orders the input (gathering to one partition). ASC
// places NULLs first, DESC places them last, matching Spark defaults.
type SortExec struct {
	Orders []SortKey
	Child  Operator
}

// SortKey is one physical sort key.
type SortKey struct {
	E    expr.Expr
	Desc bool
}

func (s *SortExec) Schema() *types.Schema { return s.Child.Schema() }
func (s *SortExec) Children() []Operator  { return []Operator{s.Child} }
func (s *SortExec) String() string {
	parts := make([]string, len(s.Orders))
	for i, o := range s.Orders {
		dir := "ASC"
		if o.Desc {
			dir = "DESC"
		}
		parts[i] = o.E.String() + " " + dir
	}
	return "SortExec [" + joinStrings(parts) + "]"
}

func joinStrings(parts []string) string {
	out := ""
	for i, p := range parts {
		if i > 0 {
			out += ", "
		}
		out += p
	}
	return out
}

func (s *SortExec) Execute(ctx *cluster.Context) (*cluster.Dataset, error) {
	in, err := s.Child.Execute(ctx)
	if err != nil {
		return nil, err
	}
	rows := in.Gather()
	keys := make([][]types.Value, len(rows))
	for i, row := range rows {
		ks := make([]types.Value, len(s.Orders))
		for k, o := range s.Orders {
			v, err := o.E.Eval(row)
			if err != nil {
				return nil, err
			}
			ks[k] = v
		}
		keys[i] = ks
	}
	idx := make([]int, len(rows))
	for i := range idx {
		idx[i] = i
	}
	var sortErr error
	sort.SliceStable(idx, func(a, b int) bool {
		for k, o := range s.Orders {
			va, vb := keys[idx[a]][k], keys[idx[b]][k]
			c, comparable := compareWithNulls(va, vb, o.Desc)
			if !comparable {
				sortErr = fmt.Errorf("physical: cannot sort %s against %s", va.Kind(), vb.Kind())
				return false
			}
			if c != 0 {
				if o.Desc {
					return c > 0
				}
				return c < 0
			}
		}
		return false
	})
	if sortErr != nil {
		return nil, sortErr
	}
	sorted := make([]types.Row, len(rows))
	for i, j := range idx {
		sorted[i] = rows[j]
	}
	out := cluster.NewDataset(sorted)
	charge(ctx, out, in)
	return out, nil
}

// compareWithNulls orders values treating NULL as smallest (so NULLs come
// first ASC and last DESC).
func compareWithNulls(a, b types.Value, _ bool) (int, bool) {
	switch {
	case a.IsNull() && b.IsNull():
		return 0, true
	case a.IsNull():
		return -1, true
	case b.IsNull():
		return 1, true
	}
	return types.CompareValues(a, b)
}

// DistinctExec removes duplicate rows.
type DistinctExec struct {
	Child Operator
}

func (d *DistinctExec) Schema() *types.Schema { return d.Child.Schema() }
func (d *DistinctExec) Children() []Operator  { return []Operator{d.Child} }
func (d *DistinctExec) String() string        { return "DistinctExec" }

func (d *DistinctExec) Execute(ctx *cluster.Context) (*cluster.Dataset, error) {
	in, err := d.Child.Execute(ctx)
	if err != nil {
		return nil, err
	}
	seen := make(map[string]bool)
	var rows []types.Row
	for _, row := range in.Gather() {
		key := rowKey(row)
		if !seen[key] {
			seen[key] = true
			rows = append(rows, row)
		}
	}
	out := cluster.NewDataset(rows)
	charge(ctx, out, in)
	return out, nil
}

func rowKey(row types.Row) string {
	key := ""
	for _, v := range row {
		key += v.GroupKey() + "\x1f"
	}
	return key
}

// ExchangeExec repartitions its child under a distribution; it is the
// physical form of Spark's shuffle and carries the distributions the
// skyline operators require (§5.5, §5.7).
type ExchangeExec struct {
	Dist cluster.Distribution
	Keys []expr.Expr // for NullBitmap / Hash / Grid / Angle
	// Minimize flags the orientation of each key for the Grid and Angle
	// distributions (true = MIN dimension).
	Minimize []bool
	// SkyDims, when set on a Grid/Angle/Zorder exchange, are the skyline
	// dimensions behind Keys. They let the exchange bucket on decoded batch
	// columns (reusing an incoming sidecar, or decoding each input
	// partition once) instead of extracting boxed keys row by row — and the
	// bucketed output partitions then carry their batch slices downstream.
	SkyDims []BoundDim
	Child   Operator
}

func (e *ExchangeExec) Schema() *types.Schema { return e.Child.Schema() }
func (e *ExchangeExec) Children() []Operator  { return []Operator{e.Child} }
func (e *ExchangeExec) String() string {
	s := "ExchangeExec " + e.Dist.String()
	if len(e.Keys) > 0 {
		s += " [" + exprStrings(e.Keys) + "]"
	}
	return s
}

func (e *ExchangeExec) Execute(ctx *cluster.Context) (*cluster.Dataset, error) {
	in, err := e.Child.Execute(ctx)
	if err != nil {
		return nil, err
	}
	var key cluster.KeyFunc
	if len(e.Keys) > 0 {
		key = func(row types.Row) (types.Row, error) {
			out := make(types.Row, len(e.Keys))
			for i, k := range e.Keys {
				v, err := k.Eval(row)
				if err != nil {
					return nil, err
				}
				out[i] = v
			}
			return out, nil
		}
	}
	if e.Dist != cluster.Grid && e.Dist != cluster.Angle && e.Dist != cluster.Zorder {
		return ctx.Exchange(in, e.Dist, key)
	}
	if len(e.SkyDims) > 0 {
		cols, ok, err := e.executeColumnar(ctx, in)
		if err != nil {
			return nil, err
		}
		if ok {
			e.recordBucketing(ctx, in, "columnar")
			return cols, nil
		}
		e.recordBucketing(ctx, in, "boxed")
	}
	return ctx.ExchangePartitioned(in, e.Dist, key, e.Minimize)
}

// recordBucketing notes whether the partitioned exchange served its bucket
// computation from decoded columns or fell back to boxed key extraction.
func (e *ExchangeExec) recordBucketing(ctx *cluster.Context, in *cluster.Dataset, choice string) {
	ctx.Metrics.AddCostDecision(cluster.CostDecision{
		Site: "exchange-bucketing", Choice: choice, Rows: in.NumRows(), Selectivity: -1,
		Detail: e.Dist.String(),
	})
}

// executeColumnar buckets the Grid/Angle/Zorder exchange on decoded batch
// columns: input partitions already carrying a matching sidecar are reused
// as-is, the rest are decoded once here (the same decode the local skyline
// above would otherwise pay). ok=false falls back to the boxed KeyFunc
// source — taken when the data does not decode exactly or the clause has
// DIFF dimensions, which the numeric bucketing schemes cannot serve.
func (e *ExchangeExec) executeColumnar(ctx *cluster.Context, in *cluster.Dataset) (*cluster.Dataset, bool, error) {
	for _, d := range e.SkyDims {
		if d.Dir == skyline.Diff {
			return nil, false, nil
		}
	}
	pd := newPartitionDecode(e.SkyDims, false, false)
	var batches []*skyline.Batch
	// Fresh decodes are counted only once the columnar path commits: a
	// later partition refusing to decode abandons the whole path, and the
	// boxed fallback (plus the local skyline's own decode attempts) must
	// not see phantom decodes in BatchesDecoded.
	fresh := 0
	for i, part := range in.Parts {
		if len(part) == 0 {
			continue
		}
		side := in.BatchAt(i)
		b, _, err := pd.decode(part, side, nil)
		if err != nil {
			return nil, false, err
		}
		if b == nil {
			return nil, false, nil
		}
		if b != side {
			fresh++
		}
		batches = append(batches, b)
	}
	if len(batches) == 0 {
		return &cluster.Dataset{}, true, nil
	}
	merged, ok := skyline.MergeBatches(batches)
	if !ok {
		return nil, false, nil
	}
	if ctx.Metrics != nil {
		for ; fresh > 0; fresh-- {
			ctx.Metrics.Sky.AddBatchDecoded()
		}
	}
	out, err := ctx.ExchangePartitionedColumnar(in.Gather(), merged, e.Dist)
	if err != nil {
		return nil, false, err
	}
	return out, true, nil
}
