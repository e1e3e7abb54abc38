// Package cost is the engine's light-weight cost model: column sketches
// (min/max/null-fraction, one pass over the rows, cached per scan) plus
// static predicate-shape heuristics feed a cardinality/selectivity
// estimator, and a handful of closed-form rules turn the estimates into
// the planning decisions that used to be hardcoded:
//
//   - GateDecodeAtScan decides whether a fused stage should decode its
//     columnar batch at the source (paying the decode on every pre-filter
//     row to run the filters vectorized) or defer the decode to the local
//     skyline (paying the boxed filter but decoding only the survivors).
//
//   - ExchangeTarget picks the rows-per-partition target of an adaptive
//     exchange from the observed upstream size and the executor count, so
//     tiny intermediates collapse into fewer tasks while large inputs
//     still fan out to every executor.
//
// Every consumer records its choice in cluster.Metrics.CostDecisions, so
// the decisions stay observable (EXPLAIN after a run, the shell's \s).
// The model is deliberately coarse — decisions must be
// deterministic and cheap, and every gated path is bit-identical to its
// ungated twin, so a wrong estimate costs time, never correctness.
package cost

import (
	"math"

	"skysql/internal/expr"
	"skysql/internal/types"
)

// Column is the sketch of one column: the numeric range and null fraction
// observed in a single pass. Numeric is false when any non-NULL value was
// non-numeric (no range-based estimates then).
type Column struct {
	Min, Max     float64
	NullFraction float64
	Numeric      bool
	// HasNaN records whether any NaN was observed. NaN sorts below every
	// number in the engine's total order, so it satisfies min-side
	// comparisons (< / <=) while sitting outside [Min, Max]; pruning must
	// know it is there.
	HasNaN bool
	// Hist is an optional equi-width histogram of the finite numeric
	// values over [Min, Max] (counts per bucket; segment footers persist
	// it). When present, rangeSelectivity interpolates the histogram mass
	// instead of assuming uniformity — the skewed-column fix.
	Hist []float64
}

// Table aggregates the column sketches of one relation.
type Table struct {
	Rows int
	Cols []Column
}

// Sketch builds the table sketch in one pass over rows. width is the
// schema width; short rows leave the missing columns non-numeric.
func Sketch(rows []types.Row, width int) *Table {
	t := &Table{Rows: len(rows), Cols: make([]Column, width)}
	nulls := make([]int, width)
	nonNum := make([]bool, width)
	for i := range t.Cols {
		t.Cols[i].Min, t.Cols[i].Max = math.Inf(1), math.Inf(-1)
	}
	for _, row := range rows {
		for d := 0; d < width && d < len(row); d++ {
			v := row[d]
			switch {
			case v.IsNull():
				nulls[d]++
			case v.IsNumeric():
				f := v.AsFloat()
				if math.IsNaN(f) {
					t.Cols[d].HasNaN = true
					continue
				}
				if f < t.Cols[d].Min {
					t.Cols[d].Min = f
				}
				if f > t.Cols[d].Max {
					t.Cols[d].Max = f
				}
			default:
				nonNum[d] = true
			}
		}
	}
	for d := range t.Cols {
		c := &t.Cols[d]
		c.Numeric = !nonNum[d] && c.Min <= c.Max
		if t.Rows > 0 {
			c.NullFraction = float64(nulls[d]) / float64(t.Rows)
		}
	}
	return t
}

// Textbook default selectivities for predicate shapes the sketch cannot
// resolve, and the clamp bounds keeping compound estimates sane.
const (
	defaultSelectivity = 1.0 / 3
	eqSelectivity      = 0.1
	minSelectivity     = 0.001
)

// Selectivity estimates the fraction of rows a predicate keeps, from the
// sketch plus predicate-shape heuristics: range comparisons against
// literals interpolate the sketched min/max, AND multiplies, OR adds with
// the overlap subtracted, NOT complements, IS [NOT] NULL reads the null
// fraction, and anything else falls back to the textbook 1/3. The result
// is clamped to [minSelectivity, 1]. t may be nil (everything defaults).
func Selectivity(e expr.Expr, t *Table) float64 {
	return clamp(selectivity(e, t))
}

func clamp(s float64) float64 {
	if s < minSelectivity {
		return minSelectivity
	}
	if s > 1 {
		return 1
	}
	return s
}

func selectivity(e expr.Expr, t *Table) float64 {
	switch n := e.(type) {
	case *expr.Alias:
		return selectivity(n.Child, t)
	case *expr.Not:
		return 1 - clamp(selectivity(n.Child, t))
	case *expr.IsNull:
		if c, ok := sketchCol(n.Child, t); ok {
			if n.Negated {
				return 1 - c.NullFraction
			}
			return c.NullFraction
		}
		return defaultSelectivity
	case *expr.Literal:
		if n.Value.Kind() == types.KindBool {
			if n.Value.AsBool() {
				return 1
			}
			return 0
		}
	case *expr.Binary:
		switch n.Op {
		case expr.OpAnd:
			return clamp(selectivity(n.L, t)) * clamp(selectivity(n.R, t))
		case expr.OpOr:
			l, r := clamp(selectivity(n.L, t)), clamp(selectivity(n.R, t))
			return l + r - l*r
		case expr.OpEq:
			return eqSelectivity
		case expr.OpNeq:
			return 1 - eqSelectivity
		case expr.OpLt, expr.OpLeq, expr.OpGt, expr.OpGeq:
			return rangeSelectivity(n, t)
		}
	}
	return defaultSelectivity
}

// rangeSelectivity interpolates a comparison between a sketched column and
// a constant over the column's [min, max] range, assuming uniformity (the
// standard System R estimate). Non-resolvable shapes default.
func rangeSelectivity(b *expr.Binary, t *Table) float64 {
	col, op, lit, ok := columnVsLiteral(b, t)
	if !ok || !col.Numeric {
		return defaultSelectivity
	}
	span := col.Max - col.Min
	if span <= 0 || math.IsInf(span, 0) || math.IsNaN(span) {
		return defaultSelectivity
	}
	frac := histFraction(col, lit)
	if frac < 0 { // no histogram: System R uniform interpolation
		frac = (lit - col.Min) / span
	}
	if frac < 0 {
		frac = 0
	}
	if frac > 1 {
		frac = 1
	}
	keep := 1 - col.NullFraction // NULL comparisons never pass a WHERE
	switch op {
	case expr.OpLt, expr.OpLeq:
		return frac * keep
	default: // OpGt, OpGeq
		return (1 - frac) * keep
	}
}

// histFraction estimates the fraction of the column's finite values
// strictly below lit from the equi-width histogram, interpolating
// linearly inside the bucket lit falls in. Returns -1 when the column
// carries no histogram (caller falls back to uniform interpolation).
func histFraction(col Column, lit float64) float64 {
	if len(col.Hist) == 0 {
		return -1
	}
	total := 0.0
	for _, n := range col.Hist {
		total += n
	}
	if total <= 0 {
		return -1
	}
	if lit <= col.Min {
		return 0
	}
	if lit >= col.Max {
		return 1
	}
	bw := (col.Max - col.Min) / float64(len(col.Hist))
	below := 0.0
	for b, n := range col.Hist {
		lo := col.Min + float64(b)*bw
		hi := lo + bw
		switch {
		case lit >= hi:
			below += n
		case lit > lo:
			below += n * (lit - lo) / bw
		}
	}
	return below / total
}

// ulpMargin is how many units-in-the-last-place the pruning tests widen
// both the zone bounds and the literal by. Zone maps store float64;
// int64 values beyond ±2⁵³ round when sketched, and a literal may round
// the other way — two ulps on each side covers both roundings, so a
// prune decision is conservative even at the edge of exact-integer
// range.
const ulpMargin = 2

func widenDown(f float64) float64 {
	for i := 0; i < ulpMargin; i++ {
		f = math.Nextafter(f, math.Inf(-1))
	}
	return f
}

func widenUp(f float64) float64 {
	for i := 0; i < ulpMargin; i++ {
		f = math.Nextafter(f, math.Inf(1))
	}
	return f
}

// ProvablyEmpty reports whether the sketch proves the predicate keeps no
// row — the zone-map pruning test. It is deliberately one-sided: a true
// return is a guarantee (safe to skip the rows entirely), a false return
// means nothing. Soundness leans on three engine facts: NULL comparisons
// evaluate to NULL and never pass a WHERE; NaN sorts below every number
// in the total order (so NaN passes < / <= against any numeric literal
// while sitting outside [Min, Max] — min-side rules require HasNaN ==
// false); and zone bounds plus literals are widened by ulpMargin so
// float64 rounding of large integers can never flip a decision. The
// decision is a pure function of (predicate, sketch) — no clocks, no
// randomness — so prune counters are deterministic;
// TestSegmentPruneCountersDeterministic (internal/physical) holds them
// equal across runs and runners.
func ProvablyEmpty(e expr.Expr, t *Table) bool {
	if t == nil {
		return false
	}
	switch n := e.(type) {
	case *expr.Alias:
		return ProvablyEmpty(n.Child, t)
	case *expr.Literal:
		return n.Value.Kind() == types.KindBool && !n.Value.AsBool()
	case *expr.IsNull:
		if c, ok := sketchCol(n.Child, t); ok {
			if n.Negated {
				return c.NullFraction >= 1
			}
			return c.NullFraction <= 0 && t.Rows > 0
		}
		return false
	case *expr.Binary:
		switch n.Op {
		case expr.OpAnd:
			// A conjunction is empty when either side is.
			return ProvablyEmpty(n.L, t) || ProvablyEmpty(n.R, t)
		case expr.OpOr:
			return ProvablyEmpty(n.L, t) && ProvablyEmpty(n.R, t)
		case expr.OpEq, expr.OpLt, expr.OpLeq, expr.OpGt, expr.OpGeq:
			return rangeEmpty(n, t)
		}
	}
	return false
}

// rangeEmpty tests one comparison against the zone map, in column-op-
// literal orientation.
func rangeEmpty(b *expr.Binary, t *Table) bool {
	col, op, lit, ok := columnVsLiteral(b, t)
	if !ok {
		return false
	}
	if col.NullFraction >= 1 && t.Rows > 0 {
		// Every value is NULL: no comparison ever passes.
		return true
	}
	if !col.Numeric || math.IsNaN(lit) || t.Rows == 0 {
		// Rows == 0 is vacuously empty but uninteresting; non-numeric
		// columns disable range reasoning (and comparing them could even
		// error, which pruning must preserve).
		return false
	}
	zoneLo, zoneHi := widenDown(col.Min), widenUp(col.Max)
	litLo, litHi := widenDown(lit), widenUp(lit)
	switch op {
	case expr.OpLt:
		// NaN < lit is true in the total order, so a NaN-bearing segment
		// can never be skipped on a min-side test.
		return !col.HasNaN && zoneLo >= litHi
	case expr.OpLeq:
		return !col.HasNaN && zoneLo > litHi
	case expr.OpGt:
		// NaN > lit is always false, so max-side tests ignore HasNaN.
		return zoneHi <= litLo
	case expr.OpGeq:
		return zoneHi < litLo
	case expr.OpEq:
		// NaN never equals a non-NaN literal, so equality only needs the
		// literal provably outside the finite range.
		return litHi < zoneLo || litLo > zoneHi
	}
	return false
}

// ProvablyFull reports whether the sketch proves the predicate keeps every
// row — the twin of ProvablyEmpty, used to drop a conjunct a segment's
// zone maps already decide. It is one-sided the same way (true is a
// guarantee, false means nothing) and leans on the same facts, with the
// roles of the bounds swapped: a column with any NULL never passes every
// comparison; NaN passes < / <= / <> against any numeric literal, so only
// the max-side rules (> / >= / =) require HasNaN == false; and zone bounds
// and literal are widened by ulpMargin, so a rounded int64 beyond ±2⁵³
// cannot flip a decision.
func ProvablyFull(e expr.Expr, t *Table) bool {
	if t == nil {
		return false
	}
	switch n := e.(type) {
	case *expr.Alias:
		return ProvablyFull(n.Child, t)
	case *expr.Literal:
		return n.Value.Kind() == types.KindBool && n.Value.AsBool()
	case *expr.IsNull:
		if c, ok := sketchCol(n.Child, t); ok && t.Rows > 0 {
			if n.Negated {
				return c.NullFraction <= 0
			}
			return c.NullFraction >= 1
		}
		return false
	case *expr.Binary:
		switch n.Op {
		case expr.OpAnd:
			return ProvablyFull(n.L, t) && ProvablyFull(n.R, t)
		case expr.OpOr:
			return ProvablyFull(n.L, t) || ProvablyFull(n.R, t)
		case expr.OpEq, expr.OpNeq, expr.OpLt, expr.OpLeq, expr.OpGt, expr.OpGeq:
			return rangeFull(n, t)
		}
	}
	return false
}

// rangeFull tests one comparison against the zone map, in column-op-
// literal orientation, for every row passing.
func rangeFull(b *expr.Binary, t *Table) bool {
	col, op, lit, ok := columnVsLiteral(b, t)
	if !ok {
		return false
	}
	if !col.Numeric || col.NullFraction > 0 || math.IsNaN(lit) || t.Rows == 0 {
		return false
	}
	zoneLo, zoneHi := widenDown(col.Min), widenUp(col.Max)
	litLo, litHi := widenDown(lit), widenUp(lit)
	switch op {
	case expr.OpLt:
		// NaN < lit holds in the total order, so NaN rows pass.
		return zoneHi < litLo
	case expr.OpLeq:
		return zoneHi <= litLo
	case expr.OpGt:
		return !col.HasNaN && zoneLo > litHi
	case expr.OpGeq:
		return !col.HasNaN && zoneLo >= litHi
	case expr.OpNeq:
		// NaN <> lit holds; every finite value must miss the literal.
		return litHi < zoneLo || litLo > zoneHi
	case expr.OpEq:
		// Every row equal to the literal: a constant column, exactly
		// representable, so no rounding hides a different value.
		return !col.HasNaN && col.Min == col.Max && col.Min == lit &&
			math.Abs(lit) < float64(types.MaxExactFloatInt)
	}
	return false
}

// columnVsLiteral normalizes a comparison between a sketched column and a
// numeric literal to column-op-literal orientation: ok=false for any
// other shape.
func columnVsLiteral(b *expr.Binary, t *Table) (col Column, op expr.BinaryOp, lit float64, ok bool) {
	col, colOK := sketchCol(b.L, t)
	lit, litOK := literalValue(b.R)
	if colOK && litOK {
		return col, b.Op, lit, true
	}
	col, colOK = sketchCol(b.R, t)
	lit, litOK = literalValue(b.L)
	return col, b.Op.Mirrored(), lit, colOK && litOK
}

// sketchCol resolves an expression to the sketch of the column it
// references (through aliases), ok=false for anything but a bound ref.
func sketchCol(e expr.Expr, t *Table) (Column, bool) {
	if t == nil {
		return Column{}, false
	}
	for {
		a, ok := e.(*expr.Alias)
		if !ok {
			break
		}
		e = a.Child
	}
	ref, ok := e.(*expr.BoundRef)
	if !ok || ref.Index < 0 || ref.Index >= len(t.Cols) {
		return Column{}, false
	}
	return t.Cols[ref.Index], true
}

// literalValue resolves a numeric literal (through unary minus).
func literalValue(e expr.Expr) (float64, bool) {
	neg := false
	for {
		if n, ok := e.(*expr.Negate); ok {
			neg = !neg
			e = n.Child
			continue
		}
		if a, ok := e.(*expr.Alias); ok {
			e = a.Child
			continue
		}
		break
	}
	lit, ok := e.(*expr.Literal)
	if !ok || !lit.Value.IsNumeric() {
		return 0, false
	}
	v := lit.Value.AsFloat()
	if neg {
		v = -v
	}
	return v, true
}

// PredicateNodes counts the evaluation-bearing nodes of a predicate —
// comparisons, arithmetic, boolean connectives, null tests — the unit the
// per-row evaluation cost constants below are expressed in.
func PredicateNodes(e expr.Expr) int {
	n := 0
	expr.Walk(e, func(sub expr.Expr) {
		switch sub.(type) {
		case *expr.Binary, *expr.Not, *expr.IsNull, *expr.Negate:
			n++
		}
	})
	if n < 1 {
		n = 1
	}
	return n
}

// Per-row evaluation costs in units of "one decoded column touch": the
// boxed row loop pays Value boxing and interface dispatch per predicate
// node, the vectorized engine amortizes the dispatch over the whole
// column. The ratios are coarse by design; only the crossover matters.
const (
	boxedPredCost = 2.0
	vecPredCost   = 0.25
)

// GateDecodeAtScan decides whether a fused stage should decode its batch
// at the source. width is the number of dense columns the decode
// materializes, predNodes the filter cost in predicate nodes, sel the
// estimated filter selectivity, and vectorizable whether the filters would
// actually run on the vectorized engine after an eager decode.
//
//	eager (decode at scan):  width + filters at vectorized cost
//	lazy  (decode after):    filters at boxed cost + sel × width
//
// Eager wins when the filter keeps enough rows that the decode is paid
// either way; lazy wins when a selective filter would make the stage
// decode mostly-discarded rows (the correlated-workload gap).
func GateDecodeAtScan(sel float64, width, predNodes int, vectorizable bool) bool {
	if width <= 0 {
		return true
	}
	eager := float64(width)
	if vectorizable {
		eager += float64(predNodes) * vecPredCost
	} else {
		// Filters refuse vectorization: eager decoding still pays the boxed
		// loop on every row, so it can only lose.
		eager += float64(predNodes) * boxedPredCost
	}
	lazy := float64(predNodes)*boxedPredCost + sel*float64(width)
	return eager <= lazy
}

// MinPartitionRows is the smallest partition an adaptive exchange will
// schedule as its own task: below it the per-task overhead (Spark pays
// milliseconds per task; the harness models 1ms) dominates the work.
const MinPartitionRows = 2048

// MinMorselRows is the smallest morsel the work-stealing runtime will cut
// out of a partition: below it the scheduling overhead of one more task
// outweighs the balance it buys. It is deliberately smaller than
// MinPartitionRows — morsels exist to split partitions that are already
// worth a task of their own.
const MinMorselRows = 512

// MorselTarget picks the rows-per-morsel for one stage of rows rows (a
// task round's total over all its partitions, or one batch the global
// kernel splits) under the given parallelism budget, ExchangeTarget-style:
// the stage splits into about four morsels per executor — enough slack
// that work stealing can rebalance a skewed partition across idle workers
// — floored at MinMorselRows so tiny stages stay whole. The budget is per
// stage, not per partition: every extra cut adds its local skyline to
// what the global pass must merge. The target depends only on (rows,
// executors), never on the machine's real core count, so morsel counts
// are deterministic; TestMorselBudgetIsPerStage (internal/cluster) pins
// them.
func MorselTarget(rows, executors int) int {
	if executors < 1 {
		executors = 1
	}
	morsels := 4 * executors
	per := (rows + morsels - 1) / morsels
	if per < MinMorselRows {
		per = MinMorselRows
	}
	return per
}

// ExchangeTarget picks the adaptive rows-per-partition target for an
// exchange observing rows upstream rows under the given executor count:
// an even split across the executors, floored at MinPartitionRows. Large
// inputs keep every executor busy (ceil(rows/target) == executors); tiny
// intermediates collapse into the few tasks that amortize their overhead.
func ExchangeTarget(rows, executors int) int {
	if executors < 1 {
		executors = 1
	}
	per := (rows + executors - 1) / executors
	if per < MinPartitionRows {
		per = MinPartitionRows
	}
	return per
}

// DegradedFanoutRows is the rows-per-partition target the memory governor
// collapses exchanges to: large enough that partition count (and with it
// the number of concurrently-live shuffle buffers) drops well below the
// executor count, small enough that a single task's working set stays
// bounded.
const DegradedFanoutRows = 64 * 1024

// DegradedFanout picks the post-exchange partition count under memory
// degradation: one partition per DegradedFanoutRows rows, minimum one.
// Parallelism is sacrificed for footprint — callers additionally clamp to
// the executor count.
func DegradedFanout(rows int) int {
	n := (rows + DegradedFanoutRows - 1) / DegradedFanoutRows
	if n < 1 {
		n = 1
	}
	return n
}
