package physical

import (
	"fmt"

	"skysql/internal/cluster"
	"skysql/internal/cost"
	"skysql/internal/expr"
	"skysql/internal/skyline"
	"skysql/internal/types"
)

// BoundDim is a skyline dimension whose expression is bound to the child
// schema, paired with its optimization direction.
type BoundDim struct {
	E   expr.Expr
	Dir skyline.Dir
}

// DirOf converts the expression-level direction to the algorithm-level one.
func DirOf(d expr.SkylineDir) skyline.Dir {
	switch d {
	case expr.SkyMin:
		return skyline.Min
	case expr.SkyMax:
		return skyline.Max
	default:
		return skyline.Diff
	}
}

func dimStrings(dims []BoundDim) string {
	parts := make([]string, len(dims))
	for i, d := range dims {
		parts[i] = d.E.String() + " " + d.Dir.String()
	}
	return joinStrings(parts)
}

// evalPoints evaluates the dimension vectors of a batch of rows.
func evalPoints(rows []types.Row, dims []BoundDim) ([]skyline.Point, error) {
	pts := make([]skyline.Point, len(rows))
	for i, row := range rows {
		vec := make(types.Row, len(dims))
		for d, bd := range dims {
			v, err := bd.E.Eval(row)
			if err != nil {
				return nil, err
			}
			vec[d] = v
		}
		pts[i] = skyline.Point{Dims: vec, Row: row}
	}
	return pts, nil
}

// gatherDims decodes the dimensions of rows straight into a batch, one
// dimension at a time, evaluating each bound dimension expression per row
// (skyline.Gather), so no dimension vector is boxed per row. The batch
// carries no points. It returns nil, for the caller to take evalPoints +
// DecodeBatch instead, on DIFF dimensions (their intern keys need the
// boxed values), on what DecodeBatch refuses (non-numeric values, NaN,
// integers beyond ±2⁵³) and on an evaluation error, which that path then
// reports exactly as before: it evaluates row by row, this column by
// column.
func gatherDims(rows []types.Row, dims []BoundDim, dirs []skyline.Dir, incomplete bool, stats *skyline.Stats) *skyline.Batch {
	for _, d := range dirs {
		if d == skyline.Diff {
			return nil
		}
	}
	b, ok := skyline.Gather(len(rows), dirs, incomplete, stats, func(d int, dst []float64, stride int, negate bool) ([]int, bool) {
		e := dims[d].E
		var nulls []int
		for k, row := range rows {
			v, err := e.Eval(row)
			if err != nil {
				return nil, false
			}
			if v.IsNull() {
				nulls = append(nulls, k)
				continue
			}
			f, ok := v.OrderKey()
			if !ok {
				return nil, false
			}
			if negate {
				f = -f
			}
			dst[k*stride] = f
		}
		return nulls, true
	})
	if !ok {
		return nil
	}
	return b
}

func dirsOf(dims []BoundDim) []skyline.Dir {
	dirs := make([]skyline.Dir, len(dims))
	for i, d := range dims {
		dirs[i] = d.Dir
	}
	return dirs
}

// skyTag is the sidecar signature of a skyline clause: the dimension
// expressions, their directions, and the dominance definition. A batch is
// only ever reused by an operator whose own tag matches, so a sidecar
// decoded for one skyline clause can never serve a different one (e.g.
// stacked skylines over different dimensions).
func skyTag(dims []BoundDim, incomplete bool) string {
	return fmt.Sprintf("%s|incomplete=%v", dimStrings(dims), incomplete)
}

// SkyTag exposes the sidecar tag of a skyline clause to packages that
// rebuild batches outside the operators — the result cache's incremental
// maintenance re-decodes an upgraded entry's sidecar under the same tag
// the cold path would have produced, so the hit stays reuse-equivalent.
func SkyTag(dims []BoundDim, incomplete bool) string { return skyTag(dims, incomplete) }

// pickRows returns rows[j] for every j of idx, in order.
func pickRows(rows []types.Row, idx []int) []types.Row {
	out := make([]types.Row, len(idx))
	for i, j := range idx {
		out[i] = rows[j]
	}
	return out
}

func rowsOf(pts []skyline.Point) []types.Row {
	rows := make([]types.Row, len(pts))
	for i, p := range pts {
		rows[i] = p.Row
	}
	return rows
}

// LocalSkylineExec computes a skyline per partition with the BNL window
// algorithm (§5.6). It is the "local" physical node of the paper's
// Listing 8 and is shared by the complete and incomplete plans; for
// incomplete data the planner ensures the child is NullBitmap-partitioned
// so transitivity holds within each partition.
type LocalSkylineExec struct {
	Dims       []BoundDim
	Distinct   bool
	Incomplete bool // dominance definition used within partitions
	// DisableKernel forces the boxed CompareFunc path even when the
	// partition decodes into a columnar batch (Options.DisableColumnarKernel).
	DisableKernel bool
	Child         Operator
}

func (l *LocalSkylineExec) Schema() *types.Schema { return l.Child.Schema() }
func (l *LocalSkylineExec) Children() []Operator  { return []Operator{l.Child} }
func (l *LocalSkylineExec) String() string {
	mode := "complete"
	if l.Incomplete {
		mode = "incomplete"
	}
	return fmt.Sprintf("LocalSkylineExec(%s) [%s]", mode, dimStrings(l.Dims))
}

// NarrowChild implements NarrowOperator: the local skyline is computed
// independently per partition (the planner guarantees the partitioning —
// e.g. NullBitmap for incomplete data — before this node), so it fuses
// into the enclosing stage.
func (l *LocalSkylineExec) NarrowChild() Operator { return l.Child }

// MorselSplittable implements the morsel-safety opt-in. Complete dominance
// is transitive (NULL-aware dominance requires identical null masks), so
// each morsel's local skyline is the partition skyline restricted to its
// range plus extra locally-undominated points — a superset the global pass
// above reduces to exactly the whole-partition result, in the same order
// (both outputs are input-order subsequences containing every true skyline
// point). Incomplete dominance is not transitive, so an incomplete local
// skyline stays whole-partition.
func (l *LocalSkylineExec) MorselSplittable() bool { return !l.Incomplete }

// PartitionTransform returns the per-partition BNL closure without sidecar
// flow (NarrowOperator interface); the stage compiler and Execute use the
// columnar variant below.
func (l *LocalSkylineExec) PartitionTransform(ctx *cluster.Context) PartitionFn {
	cfn := l.PartitionTransformColumnar(ctx)
	return func(i int, part []types.Row) ([]types.Row, error) {
		rows, _, err := cfn(i, part, nil)
		return rows, err
	}
}

// PartitionTransformColumnar implements ColumnarOperator. A partition
// arriving with a matching batch sidecar (e.g. from a Grid/Angle/Zorder
// exchange that bucketed on decoded columns) is processed without
// re-evaluating or re-decoding anything; otherwise the partition is
// decoded once here, column by column (gatherDims), or — for DIFF
// dimensions and whatever that refuses — through boxed dimension vectors.
// Either way the surviving rows leave with their sidecar attached, marked
// as one run when the pass may vouch for it (marksRun), so the gather
// above and the global skyline after it stay decode-free and the global
// pass does not repeat this one. Partitions the kernel cannot represent
// exactly fall back to the boxed CompareFunc path transparently (no
// sidecar emitted).
func (l *LocalSkylineExec) PartitionTransformColumnar(ctx *cluster.Context) ColumnarPartitionFn {
	cmp := l.compare()
	var stats *skyline.Stats
	if ctx.Metrics != nil {
		stats = &ctx.Metrics.Sky
	}
	dirs := dirsOf(l.Dims)
	tag := skyTag(l.Dims, l.Incomplete)
	return func(_ int, part []types.Row, in *skyline.Batch) ([]types.Row, *skyline.Batch, error) {
		var b *skyline.Batch
		var pts []skyline.Point
		if !l.DisableKernel && in != nil && in.Tag == tag && in.Len() == len(part) {
			b = in
		} else if !l.DisableKernel {
			b = gatherDims(part, l.Dims, dirs, l.Incomplete, stats)
		}
		if b == nil {
			var err error
			pts, err = evalPoints(part, l.Dims)
			if err != nil {
				return nil, nil, err
			}
			if !l.DisableKernel {
				b, _ = skyline.DecodeBatch(pts, dirs, l.Incomplete, stats)
			}
		}
		if b != nil {
			if b != in {
				b.Tag = tag
				bindDimColumns(b, l.Dims)
			}
			idx := l.kernel(b, stats)
			// Emit from the authoritative partition rows (identical to the
			// batch's wrapped rows by the alignment invariant, but robust).
			keep := pickRows(part, idx)
			out := b.SelectRows(idx, keep)
			if l.marksRun() {
				out.MarkRun(l.Distinct)
			}
			return keep, out, nil
		}
		sky, err := skyline.BNL(pts, dirs, l.Distinct, cmp, stats)
		if err != nil {
			return nil, nil, err
		}
		return rowsOf(sky), nil, nil
	}
}

// marksRun reports whether the kernel pass's output is a run the global
// pass may trust (Batch.MarkRun): the complete-data BNL window emits a
// skyline of its input. An incomplete pass does not vouch for its output.
func (l *LocalSkylineExec) marksRun() bool { return !l.Incomplete }

// compare is the boxed dominance test of the skyline's definition.
func (l *LocalSkylineExec) compare() skyline.CompareFunc {
	if l.Incomplete {
		return skyline.CompareIncomplete
	}
	return skyline.Compare
}

// kernel runs the local skyline over a decoded batch: the batch indices
// of the survivors, in input order.
func (l *LocalSkylineExec) kernel(b *skyline.Batch, stats *skyline.Stats) []int {
	idx := b.BNL(l.Distinct)
	b.Flush(stats)
	return idx
}

func (l *LocalSkylineExec) Execute(ctx *cluster.Context) (*cluster.Dataset, error) {
	in, err := l.Child.Execute(ctx)
	if err != nil {
		return nil, err
	}
	mapFn := ctx.MapPartitionsColumnar
	if l.MorselSplittable() {
		mapFn = ctx.MapPartitionsSplittable
	}
	out, err := mapFn(in, l.PartitionTransformColumnar(ctx))
	if err != nil {
		return nil, err
	}
	charge(ctx, out, in)
	return out, nil
}

// GlobalSkylineExec computes the final skyline on a single executor. The
// planner places an AllTuples exchange below it (§5.5); the operator
// gathers defensively regardless. It runs the complete BNL window
// algorithm, or with Incomplete the pairwise-flag algorithm of §5.7.
type GlobalSkylineExec struct {
	Dims       []BoundDim
	Distinct   bool
	Incomplete bool // dominance definition, and with it the algorithm
	// DisableKernel forces the boxed CompareFunc path even when the input
	// decodes into a columnar batch (Options.DisableColumnarKernel).
	DisableKernel bool
	Child         Operator
}

func (g *GlobalSkylineExec) Schema() *types.Schema { return g.Child.Schema() }
func (g *GlobalSkylineExec) Children() []Operator  { return []Operator{g.Child} }
func (g *GlobalSkylineExec) String() string {
	algo := "bnl"
	if g.Incomplete {
		algo = "incomplete"
	}
	return fmt.Sprintf("GlobalSkylineExec(%s) [%s]", algo, dimStrings(g.Dims))
}

func (g *GlobalSkylineExec) Execute(ctx *cluster.Context) (*cluster.Dataset, error) {
	in, err := g.Child.Execute(ctx)
	if err != nil {
		return nil, err
	}
	var stats *skyline.Stats
	if ctx.Metrics != nil {
		stats = &ctx.Metrics.Sky
	}
	var rows []types.Row // gathered lazily: the sidecar path never needs it
	var pts []skyline.Point
	var b *skyline.Batch
	if !g.DisableKernel {
		b = g.sidecarBatch(in, in.NumRows())
	}
	if b == nil {
		// No reusable sidecar: decode once here, column by column, or
		// through boxed dimension vectors when that refuses. Non-decodable
		// inputs fall through to the boxed path.
		rows = in.Gather()
		if !g.DisableKernel {
			b = gatherDims(rows, g.Dims, dirsOf(g.Dims), g.Incomplete, stats)
		}
		if b == nil {
			if pts, err = evalPoints(rows, g.Dims); err != nil {
				return nil, err
			}
			if !g.DisableKernel {
				b, _ = skyline.DecodeBatch(pts, dirsOf(g.Dims), g.Incomplete, stats)
			}
		}
		if b != nil {
			b.Tag = skyTag(g.Dims, g.Incomplete)
		}
	}
	if b != nil {
		// Columnar kernel over the (merged sidecar or freshly decoded)
		// batch.
		idx, err := g.runKernelCtx(ctx, b, stats)
		if err != nil {
			return nil, err
		}
		var keep []types.Row
		if rows != nil {
			keep = pickRows(rows, idx)
		} else {
			keep = rowsOf(b.Points(idx))
		}
		out := cluster.NewDataset(keep)
		out.Batches = []*skyline.Batch{b.SelectRows(idx, keep)}
		charge(ctx, out, in)
		return out, nil
	}
	dirs := dirsOf(g.Dims)
	var sky []skyline.Point
	if g.Incomplete {
		sky, err = skyline.GlobalIncomplete(pts, dirs, g.Distinct, stats)
	} else {
		sky, err = skyline.BNL(pts, dirs, g.Distinct, skyline.Compare, stats)
	}
	if err != nil {
		return nil, err
	}
	out := cluster.NewDataset(rowsOf(sky))
	charge(ctx, out, in)
	return out, nil
}

// sidecarBatch returns the merged columnar sidecar of the gathered input
// when every non-empty partition carries one matching this operator's
// dimension signature and dominance definition — the decode-free path of
// the local→global hop. nil when the input has no (usable) sidecar.
func (g *GlobalSkylineExec) sidecarBatch(in *cluster.Dataset, totalRows int) *skyline.Batch {
	b, ok := in.MergedSidecar()
	if !ok || b.Tag != skyTag(g.Dims, g.Incomplete) || b.Len() != totalRows {
		return nil
	}
	return b
}

// runKernelCtx runs the global algorithm's morsel-parallel twin on a
// decoded columnar batch: with a chunk of 0 (morsel parallelism off, or
// the batch too small to split) a twin is its serial algorithm, and
// otherwise it emits the serial algorithm's exact index sequence
// (batch_parallel.go), so the chunk is purely a scheduling decision.
func (g *GlobalSkylineExec) runKernelCtx(ctx *cluster.Context, b *skyline.Batch, stats *skyline.Stats) (idx []int, err error) {
	chunk := g.parallelChunk(ctx, b.Len())
	if g.Incomplete {
		idx, err = b.GlobalIncompleteParallel(g.Distinct, chunk, ctx.RunMorsels)
	} else {
		idx, err = b.BNLParallel(g.Distinct, chunk, ctx.RunMorsels)
	}
	b.Flush(stats)
	return idx, err
}

// parallelChunk returns the morsel row target for the parallel global
// kernel, or 0 when the serial kernel should run (morsel parallelism off,
// or the batch too small to split).
func (g *GlobalSkylineExec) parallelChunk(ctx *cluster.Context, rows int) int {
	if !ctx.MorselParallel {
		return 0
	}
	target := ctx.MorselTargetRows
	if target <= 0 {
		target = cost.MorselTarget(rows, ctx.Executors)
	}
	if rows < 2*target {
		return 0
	}
	return target
}
