package physical

import (
	"fmt"
	"strings"

	"skysql/internal/cluster"
	"skysql/internal/skyline"
	"skysql/internal/types"
)

// This file implements exchange-bounded stage fusion, the engine's version
// of Spark's stage/DAG execution model that the paper's integration
// inherits (§5.5): maximal chains of narrow operators — operators that
// transform each partition independently, without repartitioning — are
// compiled into a single per-partition closure executed by one
// MapPartitions task round. Pipeline breakers (exchanges, global skylines,
// sorts, aggregates, joins, limits) cut the plan into stages exactly where
// a Spark shuffle would.

// PartitionFn is the per-partition row transform of a narrow operator:
// given the partition index and its rows it produces the operator's output
// rows for that partition.
type PartitionFn func(i int, part []types.Row) ([]types.Row, error)

// ColumnarPartitionFn is the batch-aware per-partition transform: it
// additionally receives the partition's columnar sidecar (nil when none)
// and may emit a sidecar index-aligned with its output rows. The stage
// compiler threads these sidecars through fused pipelines and across
// exchanges, which is how a batch decoded by a local skyline reaches the
// global skyline without a second decode.
type ColumnarPartitionFn func(i int, part []types.Row, b *skyline.Batch) ([]types.Row, *skyline.Batch, error)

// NarrowOperator is implemented by physical operators whose work is a pure
// per-partition pass (Spark's narrow transformations). The stage compiler
// fuses chains of them into one PipelineExec.
type NarrowOperator interface {
	Operator
	// NarrowChild returns the input the per-partition pass reads from.
	NarrowChild() Operator
	// PartitionTransform returns the operator's per-partition closure. It
	// is invoked once per stage execution, so implementations may capture
	// context-derived state (e.g. metric sinks) in the returned closure.
	PartitionTransform(ctx *cluster.Context) PartitionFn
}

// ColumnarOperator is a NarrowOperator that participates in the columnar
// data plane: its per-partition pass can consume an incoming batch sidecar
// (skipping its own decode) and/or produce one for the operators and
// exchanges above it.
type ColumnarOperator interface {
	NarrowOperator
	// PartitionTransformColumnar is PartitionTransform with sidecar flow.
	PartitionTransformColumnar(ctx *cluster.Context) ColumnarPartitionFn
}

// MorselSplittable is the opt-in interface of narrow operators whose
// partition transform satisfies the cluster's morsel-safety contract
// (cluster.MapPartitionsSplittable): the transform may run independently
// over contiguous row ranges of a partition, and concatenating the range
// outputs feeds downstream operators to the same final result as the
// whole-partition run. Pure per-row transforms (filter, project) qualify
// trivially; a complete-dominance local skyline qualifies by
// transitivity. Operators that do not implement the interface, or return
// false, keep whole-partition tasks — prefix semantics (LocalLimitExec)
// and incomplete dominance must stay unsplit.
type MorselSplittable interface {
	MorselSplittable() bool
}

// morselSplittable reports whether every operator of a fused chain opted
// into morsel splitting.
func morselSplittable(ops []NarrowOperator) bool {
	for _, op := range ops {
		m, ok := op.(MorselSplittable)
		if !ok || !m.MorselSplittable() {
			return false
		}
	}
	return true
}

// StageSource is implemented by pipeline breakers that can absorb the
// fused tail of the stage above them into their own final per-partition
// pass, saving one task round and one intermediate materialization.
type StageSource interface {
	Operator
	// ExecuteFused executes the operator with tail applied to every output
	// partition inside the operator's last MapPartitions round (sidecars
	// the tail emits are preserved on the output dataset). A nil tail must
	// behave exactly like Execute.
	ExecuteFused(ctx *cluster.Context, tail ColumnarPartitionFn) (*cluster.Dataset, error)
}

// PipelineExec is one fused stage: a maximal chain of narrow operators
// executed as a single per-partition closure over the source's partitions.
// Memory accounting is stage-scoped — only the stage input and the stage
// output are ever charged, never the fused intermediates — and the whole
// chain costs one scheduled task round instead of one per operator.
type PipelineExec struct {
	// Ops is the fused chain in execution order: Ops[0] consumes the
	// source partitions, Ops[len-1] produces the stage output. Stage
	// numbers are a rendering concern: FormatStages assigns them
	// consistently over the whole plan.
	Ops []NarrowOperator
	// Source feeds the stage: a scan, an exchange, or another breaker.
	Source Operator
	// Sink, when set, names the columnar consumer directly above the stage
	// (a Grid/Angle/Zorder exchange bucketing on skyline dimensions): the
	// stage may then decode at the source even without a local skyline in
	// the chain, so its filters run vectorized and the exchange reuses the
	// sidecar instead of extracting boxed keys row by row.
	Sink *DecodeSink
}

// DecodeSink describes the columnar consumer above a fused stage: the
// skyline dimensions it buckets on (bound to the stage output schema) and
// the sidecar tag it will accept.
type DecodeSink struct {
	Dims []BoundDim
	Tag  string
}

func (p *PipelineExec) Schema() *types.Schema { return p.Ops[len(p.Ops)-1].Schema() }
func (p *PipelineExec) Children() []Operator  { return []Operator{p.Source} }

func (p *PipelineExec) String() string {
	names := make([]string, len(p.Ops))
	for i, op := range p.Ops {
		names[i] = opName(op)
	}
	return fmt.Sprintf("PipelineExec [%s]", strings.Join(names, " -> "))
}

// tailFn composes the fused chain into one batch-aware per-partition
// closure. Columnar operators pass the sidecar along; plain narrow
// operators transform rows only, which invalidates index alignment, so the
// sidecar is dropped at that link.
//
// When the chain contains a local skyline reachable through filters/
// projections/limits and the context allows it (Context.DecodeAtScan), the
// closure additionally decodes each incoming partition ONCE at the stage
// entry — the same evaluation the skyline would pay later, moved below the
// filters — so the intervening operators run on the vectorized expression
// engine and the skyline reuses the batch by tag: the whole narrow chain is
// decode-once even with leading filters and computed dimensions.
func (p *PipelineExec) tailFn(ctx *cluster.Context) ColumnarPartitionFn {
	fns := make([]ColumnarPartitionFn, len(p.Ops))
	for i, op := range p.Ops {
		if c, ok := op.(ColumnarOperator); ok {
			fns[i] = c.PartitionTransformColumnar(ctx)
			continue
		}
		plain := op.PartitionTransform(ctx)
		fns[i] = func(i int, part []types.Row, _ *skyline.Batch) ([]types.Row, *skyline.Batch, error) {
			rows, err := plain(i, part)
			return rows, nil, err
		}
	}
	var spec *stageDecode
	if ctx.DecodeAtScan {
		spec = planStageDecode(p.Ops, p.Sink)
		if spec != nil && !ctx.DisableCostGate {
			spec = gateStageDecode(ctx, spec, p.Source)
		}
	}
	var stats *skyline.Stats
	if ctx.Metrics != nil {
		stats = &ctx.Metrics.Sky
	}
	return func(i int, part []types.Row, b *skyline.Batch) ([]types.Row, *skyline.Batch, error) {
		// Checked at call time, not plan time: the memory governor may drop
		// sidecars mid-run, and later tasks must then skip the eager decode.
		if spec != nil && b == nil && len(part) > 0 && !ctx.SidecarsDropped() {
			if db, ok := spec.decodeSourceBatch(part, stats); ok {
				b = db
				ctx.Metrics.Alloc(db.MemSize())
				defer ctx.Metrics.Free(db.MemSize())
			}
		}
		cur := part
		var err error
		for _, fn := range fns {
			cur, b, err = fn(i, cur, b)
			if err != nil {
				return nil, nil, err
			}
		}
		return cur, b, nil
	}
}

func (p *PipelineExec) Execute(ctx *cluster.Context) (*cluster.Dataset, error) {
	if scan, ok := p.Source.(*ScanExec); ok && scan.Table.Segments != nil {
		// The stage reads the segments itself (segscan.go).
		return p.executeSegments(ctx, scan)
	}
	tail := p.tailFn(ctx)
	if src, ok := p.Source.(StageSource); ok {
		// The breaker below runs the tail inside its own final pass; it
		// does the stage-scoped charging itself.
		return src.ExecuteFused(ctx, tail)
	}
	in, err := p.Source.Execute(ctx)
	if err != nil {
		return nil, err
	}
	// When every fused operator is morsel-safe the stage round may split
	// skewed partitions into morsels (per-morsel source decodes included:
	// the tail decodes whatever range it is handed).
	mapFn := ctx.MapPartitionsColumnar
	if morselSplittable(p.Ops) {
		mapFn = ctx.MapPartitionsSplittable
	}
	out, err := mapFn(in, tail)
	if err != nil {
		return nil, err
	}
	charge(ctx, out, in)
	return out, nil
}

// LocalLimitExec truncates every partition to its first N rows — the
// narrow half of Spark's LocalLimit/GlobalLimit split. The stage compiler
// inserts it below a LimitExec so that the final gather moves at most N
// rows per partition; because Gather concatenates partitions in order, the
// first N rows of the concatenation are unchanged by the truncation.
type LocalLimitExec struct {
	N     int64
	Child Operator
}

func (l *LocalLimitExec) Schema() *types.Schema { return l.Child.Schema() }
func (l *LocalLimitExec) Children() []Operator  { return []Operator{l.Child} }
func (l *LocalLimitExec) String() string        { return fmt.Sprintf("LocalLimitExec %d", l.N) }

func (l *LocalLimitExec) NarrowChild() Operator { return l.Child }

func (l *LocalLimitExec) PartitionTransform(*cluster.Context) PartitionFn {
	return func(_ int, part []types.Row) ([]types.Row, error) {
		if int64(len(part)) > l.N {
			part = part[:l.N]
		}
		return part, nil
	}
}

// PartitionTransformColumnar implements ColumnarOperator: truncation is a
// prefix, so the sidecar survives as a Batch.Slice of the same prefix.
func (l *LocalLimitExec) PartitionTransformColumnar(*cluster.Context) ColumnarPartitionFn {
	return func(_ int, part []types.Row, b *skyline.Batch) ([]types.Row, *skyline.Batch, error) {
		if b != nil && b.Len() != len(part) {
			b = nil // misaligned sidecar: rows stay authoritative
		}
		if int64(len(part)) > l.N {
			part = part[:l.N]
			if b != nil {
				b = b.Slice(0, int(l.N))
			}
		}
		return part, b, nil
	}
}

func (l *LocalLimitExec) Execute(ctx *cluster.Context) (*cluster.Dataset, error) {
	in, err := l.Child.Execute(ctx)
	if err != nil {
		return nil, err
	}
	out, err := ctx.MapPartitions(in, l.PartitionTransform(ctx))
	if err != nil {
		return nil, err
	}
	charge(ctx, out, in)
	return out, nil
}

// CompileStages rewrites a physical operator tree into its stage-fused
// form: every maximal chain of narrow operators becomes one PipelineExec,
// cut at pipeline breakers. The input tree is not mutated; shared subtrees
// are shallow-copied as needed. Compiling is idempotent in effect —
// executing the compiled tree is plan-for-plan result-identical to
// executing the original.
func CompileStages(root Operator) Operator {
	switch o := root.(type) {
	case *PipelineExec:
		// Already compiled; recompile beneath it only.
		cp := *o
		cp.Source = CompileStages(o.Source)
		return &cp
	case *LimitExec:
		// LocalLimit/GlobalLimit split: when the child is narrow the
		// truncation rides along in the fused stage for free.
		if _, narrow := o.Child.(NarrowOperator); narrow {
			return &LimitExec{N: o.N, Child: CompileStages(&LocalLimitExec{N: o.N, Child: o.Child})}
		}
		return &LimitExec{N: o.N, Child: CompileStages(o.Child)}
	case NarrowOperator:
		// Collect the maximal narrow chain, top-down.
		var chain []NarrowOperator
		cur := root
		for {
			n, ok := cur.(NarrowOperator)
			if !ok {
				break
			}
			chain = append(chain, n)
			cur = n.NarrowChild()
		}
		// Reverse into execution order (source side first).
		ops := make([]NarrowOperator, len(chain))
		for i, n := range chain {
			ops[len(chain)-1-i] = n
		}
		return &PipelineExec{Ops: ops, Source: CompileStages(cur)}
	case *ExchangeExec:
		cp := *o
		cp.Child = CompileStages(o.Child)
		// A partitioned exchange bucketing on skyline dimensions is a
		// columnar consumer: mark the fused stage below it as feeding a
		// decode sink, so a scan → filter chain under the exchange decodes
		// at the source (filters vectorize, the exchange reuses the
		// sidecar) instead of forcing the boxed key path.
		if (o.Dist == cluster.Grid || o.Dist == cluster.Angle || o.Dist == cluster.Zorder) &&
			len(o.SkyDims) > 0 && !o.DisableKernel {
			if pipe, ok := cp.Child.(*PipelineExec); ok {
				pc := *pipe
				pc.Sink = &DecodeSink{Dims: o.SkyDims, Tag: skyTag(o.SkyDims, false)}
				cp.Child = &pc
			}
		}
		return &cp
	case *SortExec:
		cp := *o
		cp.Child = CompileStages(o.Child)
		return &cp
	case *DistinctExec:
		cp := *o
		cp.Child = CompileStages(o.Child)
		return &cp
	case *AggregateExec:
		cp := *o
		cp.Child = CompileStages(o.Child)
		return &cp
	case *GlobalSkylineExec:
		cp := *o
		cp.Child = CompileStages(o.Child)
		return &cp
	case *ExtremumFilterExec:
		cp := *o
		cp.Child = CompileStages(o.Child)
		return &cp
	case *HashJoinExec:
		cp := *o
		cp.Left = CompileStages(o.Left)
		cp.Right = CompileStages(o.Right)
		return &cp
	case *NestedLoopJoinExec:
		cp := *o
		cp.Left = CompileStages(o.Left)
		cp.Right = CompileStages(o.Right)
		return &cp
	default:
		// Leaves (ScanExec, OneRowExec) and any future childless operator.
		return root
	}
}

// opName is the bare operator name used in fused-chain summaries.
func opName(op Operator) string {
	s := op.String()
	if i := strings.IndexByte(s, ' '); i > 0 {
		return s[:i]
	}
	return s
}

// CountStages returns the number of fused pipeline stages in a compiled
// plan (0 for an unfused tree).
func CountStages(root Operator) int {
	n := 0
	var rec func(Operator)
	rec = func(op Operator) {
		if _, ok := op.(*PipelineExec); ok {
			n++
		}
		for _, c := range op.Children() {
			rec(c)
		}
	}
	rec(root)
	return n
}

// FormatStages renders the exchange-bounded stage structure of a physical
// plan the way EXPLAIN presents it: every line is tagged with the stage
// that executes the operator, fused operators are marked with '*', and
// stage boundaries are called out at every pipeline breaker.
func FormatStages(root Operator) string {
	var sb strings.Builder
	next := 0
	newStage := func() int { next++; return next }
	var rec func(op Operator, depth, stage int)
	rec = func(op Operator, depth, stage int) {
		ind := strings.Repeat("  ", depth)
		switch o := op.(type) {
		case *PipelineExec:
			fmt.Fprintf(&sb, "%s[stage %d] pipeline (%d fused operators, 1 task round)\n", ind, stage, len(o.Ops))
			for i := len(o.Ops) - 1; i >= 0; i-- {
				fmt.Fprintf(&sb, "%s  * %s\n", ind, o.Ops[i].String())
			}
			// The source shares the stage only when it feeds the fused pass
			// directly: a leaf (scan), a StageSource absorbing the tail, or
			// an exchange (which allocates the producing stage itself).
			// Other breakers run their own task round: new stage.
			s := stage
			_, isExchange := o.Source.(*ExchangeExec)
			_, isFusedSource := o.Source.(StageSource)
			if !isExchange && !isFusedSource && len(o.Source.Children()) > 0 {
				s = newStage()
			}
			rec(o.Source, depth+1, s)
		case *ExchangeExec:
			// The exchange is the boundary itself; its producing side below
			// is a fresh stage.
			fmt.Fprintf(&sb, "%s---- stage boundary: %s ----\n", ind, o.String())
			rec(o.Child, depth+1, newStage())
		default:
			fmt.Fprintf(&sb, "%s[stage %d] %s\n", ind, stage, op.String())
			_, narrow := op.(NarrowOperator)
			for _, ch := range op.Children() {
				s := stage
				if !narrow {
					// Breakers cut a stage; an exchange child allocates its
					// own producing stage when it recurses.
					if _, isExchange := ch.(*ExchangeExec); !isExchange {
						s = newStage()
					}
				}
				rec(ch, depth+1, s)
			}
		}
	}
	rec(root, 0, newStage())
	return sb.String()
}
