package physical

import (
	"fmt"

	"skysql/internal/cluster"
	"skysql/internal/expr"
	"skysql/internal/plan"
	"skysql/internal/skyline"
	"skysql/internal/types"
)

// HashJoinExec is an equi-join: the right side is gathered and hashed
// (broadcast build side); left partitions probe in parallel. Supports
// inner and left-outer joins; other flavours are planned as nested-loop
// joins or via input swapping.
type HashJoinExec struct {
	Type      plan.JoinType
	Left      Operator
	Right     Operator
	LeftKeys  []expr.Expr // bound to the left schema
	RightKeys []expr.Expr // bound to the right schema
	Residual  expr.Expr   // bound to the combined schema; may be nil
	schema    *types.Schema
}

// NewHashJoinExec creates a hash join with a precomputed output schema.
func NewHashJoinExec(jt plan.JoinType, left, right Operator, lk, rk []expr.Expr, residual expr.Expr, schema *types.Schema) *HashJoinExec {
	return &HashJoinExec{Type: jt, Left: left, Right: right, LeftKeys: lk, RightKeys: rk, Residual: residual, schema: schema}
}

func (h *HashJoinExec) Schema() *types.Schema { return h.schema }
func (h *HashJoinExec) Children() []Operator  { return []Operator{h.Left, h.Right} }
func (h *HashJoinExec) String() string {
	s := fmt.Sprintf("HashJoinExec %s keys=[%s]=[%s]", h.Type, exprStrings(h.LeftKeys), exprStrings(h.RightKeys))
	if h.Residual != nil {
		s += " residual " + h.Residual.String()
	}
	return s
}

func evalKeys(keys []expr.Expr, row types.Row) (string, bool, error) {
	k := ""
	for _, e := range keys {
		v, err := e.Eval(row)
		if err != nil {
			return "", false, err
		}
		if v.IsNull() {
			return "", false, nil // NULL keys never match in equi joins
		}
		k += v.GroupKey() + "\x1f"
	}
	return k, true, nil
}

func (h *HashJoinExec) Execute(ctx *cluster.Context) (*cluster.Dataset, error) {
	return h.ExecuteFused(ctx, nil)
}

// ExecuteFused implements StageSource: the join is a pipeline breaker (the
// build side must be complete before any probe), but the probe itself is a
// narrow per-partition pass over the left input, so the fused tail of the
// stage above runs inside the probe's task round — a filter or projection
// over the join output costs no extra round and no intermediate
// materialization, the same trick ExtremumFilterExec plays with its second
// pass. Probe output rows are freshly combined, so no sidecar reaches the
// tail. A nil tail reproduces the plain probe exactly.
func (h *HashJoinExec) ExecuteFused(ctx *cluster.Context, tail ColumnarPartitionFn) (*cluster.Dataset, error) {
	left, err := h.Left.Execute(ctx)
	if err != nil {
		return nil, err
	}
	right, err := h.Right.Execute(ctx)
	if err != nil {
		return nil, err
	}
	// Build side: broadcast hash table of the right input.
	build := make(map[string][]types.Row)
	rightRows := right.Gather()
	ctx.Metrics.Add(cluster.RowsShuffled, int64(len(rightRows))*int64(ctx.Executors)) // broadcast cost
	for _, row := range rightRows {
		k, ok, err := evalKeys(h.RightKeys, row)
		if err != nil {
			return nil, err
		}
		if ok {
			build[k] = append(build[k], row)
		}
	}
	rightWidth := h.Right.Schema().Len()
	out, err := ctx.MapPartitionsColumnar(left, func(i int, part []types.Row, _ *skyline.Batch) ([]types.Row, *skyline.Batch, error) {
		var res []types.Row
		for _, lrow := range part {
			k, ok, err := evalKeys(h.LeftKeys, lrow)
			matched := false
			if err != nil {
				return nil, nil, err
			}
			if ok {
				for _, rrow := range build[k] {
					combined := append(append(make(types.Row, 0, len(lrow)+len(rrow)), lrow...), rrow...)
					if h.Residual != nil {
						pass, err := expr.EvalPredicate(h.Residual, combined)
						if err != nil {
							return nil, nil, err
						}
						if !pass {
							continue
						}
					}
					matched = true
					res = append(res, combined)
				}
			}
			if !matched && h.Type == plan.LeftOuterJoin {
				combined := append(append(make(types.Row, 0, len(lrow)+rightWidth), lrow...), make(types.Row, rightWidth)...)
				res = append(res, combined)
			}
		}
		if tail != nil {
			return tail(i, res, nil)
		}
		return res, nil, nil
	})
	if err != nil {
		return nil, err
	}
	charge(ctx, out, left, right)
	return out, nil
}

// NestedLoopJoinExec compares every left row against the broadcast right
// side. It executes cross joins, non-equi joins, and — crucially — the
// LeftSemi/LeftAnti joins into which the paper's plain-SQL reference
// queries (Listing 4's NOT EXISTS) decorrelate. The left side stays
// partitioned across executors, so the reference algorithm remains
// "somewhat distributed", matching the paper's observation in §6.4.
type NestedLoopJoinExec struct {
	Type   plan.JoinType
	Left   Operator
	Right  Operator
	Cond   expr.Expr // bound to the combined (left++right) schema; may be nil
	schema *types.Schema
}

// NewNestedLoopJoinExec creates a nested-loop join with a precomputed
// output schema.
func NewNestedLoopJoinExec(jt plan.JoinType, left, right Operator, cond expr.Expr, schema *types.Schema) *NestedLoopJoinExec {
	return &NestedLoopJoinExec{Type: jt, Left: left, Right: right, Cond: cond, schema: schema}
}

func (n *NestedLoopJoinExec) Schema() *types.Schema { return n.schema }
func (n *NestedLoopJoinExec) Children() []Operator  { return []Operator{n.Left, n.Right} }
func (n *NestedLoopJoinExec) String() string {
	s := fmt.Sprintf("NestedLoopJoinExec %s", n.Type)
	if n.Cond != nil {
		s += " ON " + n.Cond.String()
	}
	return s
}

func (n *NestedLoopJoinExec) Execute(ctx *cluster.Context) (*cluster.Dataset, error) {
	return n.ExecuteFused(ctx, nil)
}

// ExecuteFused implements StageSource, mirroring HashJoinExec: the
// broadcast right side is a barrier, but the left-side probe loop is a
// narrow per-partition pass, so the fused tail of the stage above runs
// inside the probe's task round — a filter or projection over the join
// output costs no extra round and no intermediate materialization. Probe
// output rows are freshly combined, so no sidecar reaches the tail. A nil
// tail reproduces the plain probe exactly.
func (n *NestedLoopJoinExec) ExecuteFused(ctx *cluster.Context, tail ColumnarPartitionFn) (*cluster.Dataset, error) {
	left, err := n.Left.Execute(ctx)
	if err != nil {
		return nil, err
	}
	right, err := n.Right.Execute(ctx)
	if err != nil {
		return nil, err
	}
	rightRows := right.Gather()
	ctx.Metrics.Add(cluster.RowsShuffled, int64(len(rightRows))*int64(ctx.Executors)) // broadcast cost
	rightWidth := n.Right.Schema().Len()
	out, err := ctx.MapPartitionsColumnar(left, func(pi int, part []types.Row, _ *skyline.Batch) ([]types.Row, *skyline.Batch, error) {
		var res []types.Row
		scratch := make(types.Row, 0, 64)
		for li, lrow := range part {
			if li%256 == 0 {
				if err := ctx.CheckCanceled(); err != nil {
					return nil, nil, err
				}
			}
			matched := false
			for _, rrow := range rightRows {
				scratch = scratch[:0]
				scratch = append(append(scratch, lrow...), rrow...)
				pass := true
				if n.Cond != nil {
					var err error
					pass, err = expr.EvalPredicate(n.Cond, scratch)
					if err != nil {
						return nil, nil, err
					}
				}
				if !pass {
					continue
				}
				matched = true
				switch n.Type {
				case plan.LeftSemiJoin, plan.LeftAntiJoin:
					// existence established; stop scanning
				default:
					res = append(res, append(types.Row(nil), scratch...))
				}
				if n.Type == plan.LeftSemiJoin || n.Type == plan.LeftAntiJoin {
					break
				}
			}
			switch n.Type {
			case plan.LeftSemiJoin:
				if matched {
					res = append(res, lrow)
				}
			case plan.LeftAntiJoin:
				if !matched {
					res = append(res, lrow)
				}
			case plan.LeftOuterJoin:
				if !matched {
					res = append(res, append(append(make(types.Row, 0, len(lrow)+rightWidth), lrow...), make(types.Row, rightWidth)...))
				}
			}
		}
		if tail != nil {
			return tail(pi, res, nil)
		}
		return res, nil, nil
	})
	if err != nil {
		return nil, err
	}
	charge(ctx, out, left, right)
	return out, nil
}
