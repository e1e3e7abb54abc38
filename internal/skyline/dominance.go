// Package skyline implements the skyline (Pareto front) algorithms the
// physical operators execute:
//
//   - Compare / CompareIncomplete — the dominance-check utility of paper
//     §5.5, matching Definition 3.1 and its incomplete-data variant.
//   - BNL — the Block-Nested-Loop window algorithm of §5.6, used for local
//     skylines and for the global skyline over complete data.
//   - GlobalIncomplete — the pairwise flag-based algorithm of §5.7 and
//     Appendix A that tolerates cyclic dominance relationships.
//   - NullBitmap — the IsNull-based partitioning key of §5.7.
//   - Batch / DecodeBatch / CompareDecoded — the columnar dominance
//     kernel: a partition's points are decoded ONCE into dense,
//     direction-normalized float64 vectors (plus a null bitmask and
//     interned DIFF keys), after which every dominance test is pure index
//     arithmetic with no Value boxing, no error returns, and batch-local
//     cost counters. Every window algorithm has a batch-index twin
//     (Batch.BNL, Batch.GlobalIncomplete) that emits the same rows in the same
//     order as its boxed counterpart; inputs the kernel cannot represent
//     exactly are refused at decode and served by the boxed path.
//
// The package is deliberately independent of plans and expressions: it
// operates on Points, i.e. tuples whose skyline-dimension values have
// already been evaluated into a vector.
package skyline

import (
	"fmt"
	"sync/atomic"

	"skysql/internal/types"
)

// Dir is the optimization direction of one skyline dimension.
type Dir int8

// Dimension directions (Definition 3.1).
const (
	Min Dir = iota
	Max
	Diff
)

// String returns the SQL keyword for the direction.
func (d Dir) String() string {
	switch d {
	case Min:
		return "MIN"
	case Max:
		return "MAX"
	case Diff:
		return "DIFF"
	}
	return fmt.Sprintf("Dir(%d)", int8(d))
}

// Point is a tuple prepared for skyline computation: the evaluated skyline
// dimension vector plus the original payload row.
type Point struct {
	Dims types.Row // values of the skyline dimensions, in clause order
	Row  types.Row // the full tuple, passed through to the output
}

// Stats collects machine-independent cost counters. All methods are safe
// for concurrent use; local skylines on different partitions share one
// Stats. The dominance-test inner loops never touch Stats directly: they
// accumulate into a plain Counters and merge once per algorithm invocation
// (or once per decoded batch), so the O(n²) hot path performs no atomic
// operations.
type Stats struct {
	dominanceTests atomic.Int64
	comparisons    atomic.Int64
	batchesDecoded atomic.Int64
}

// Counters is the batch-local, non-atomic accumulator threaded through the
// dominance tests of one algorithm invocation. A nil *Counters disables
// counting. Merge the result into a shared Stats once at the end.
type Counters struct {
	Tests       int64
	Comparisons int64
}

// AddTests records n dominance tests.
func (c *Counters) AddTests(n int64) {
	if c != nil {
		c.Tests += n
	}
}

// AddComparisons records n scalar comparisons.
func (c *Counters) AddComparisons(n int64) {
	if c != nil {
		c.Comparisons += n
	}
}

// AddTests records n dominance tests.
func (s *Stats) AddTests(n int64) {
	if s != nil {
		s.dominanceTests.Add(n)
	}
}

// AddComparisons records n scalar comparisons.
func (s *Stats) AddComparisons(n int64) {
	if s != nil {
		s.comparisons.Add(n)
	}
}

// Merge flushes batch-local counters into the shared stats: two atomic
// adds per algorithm invocation instead of two per dominance test.
func (s *Stats) Merge(c *Counters) {
	if s == nil || c == nil {
		return
	}
	if c.Tests != 0 {
		s.dominanceTests.Add(c.Tests)
	}
	if c.Comparisons != 0 {
		s.comparisons.Add(c.Comparisons)
	}
}

// DominanceTests returns the number of dominance tests recorded.
func (s *Stats) DominanceTests() int64 {
	if s == nil {
		return 0
	}
	return s.dominanceTests.Load()
}

// Comparisons returns the number of scalar comparisons recorded.
func (s *Stats) Comparisons() int64 {
	if s == nil {
		return 0
	}
	return s.comparisons.Load()
}

// AddBatchDecoded records one successful DecodeBatch. Decoding happens once
// per partition (never in the O(n²) loop), so this counter is updated
// atomically at the decode site rather than batched through Counters.
func (s *Stats) AddBatchDecoded() {
	if s != nil {
		s.batchesDecoded.Add(1)
	}
}

// BatchesDecoded returns the number of columnar batches decoded. On a plan
// whose exchanges carry the columnar sidecar through to the global skyline,
// it equals the number of input partitions — the assertable form of
// "decode-free" downstream execution.
func (s *Stats) BatchesDecoded() int64 {
	if s == nil {
		return 0
	}
	return s.batchesDecoded.Load()
}

// Relation is the outcome of a dominance test between two points.
type Relation int8

// Dominance test outcomes.
const (
	Incomparable Relation = iota // neither dominates; not equal
	LeftDominates
	RightDominates
	Equal // identical in every skyline dimension (relevant for DISTINCT)
)

// Compare classifies the dominance relationship between dimension vectors
// a and b under the complete-data Definition 3.1:
// a ≺ b iff a is equal on all DIFF dims, at least as good on all MIN/MAX
// dims, and strictly better in at least one MIN/MAX dim.
//
// Values in corresponding positions must be mutually comparable; an error
// is returned otherwise. NULLs make a pair incomparable under the complete
// definition, which callers avoid by routing nullable inputs to the
// incomplete algorithms.
//
// counters is the invocation-local accumulator (may be nil); callers
// running many tests merge it into a shared Stats once at the end.
func Compare(a, b types.Row, dirs []Dir, counters *Counters) (Relation, error) {
	counters.AddTests(1)
	aBetter, bBetter := false, false
	for i, dir := range dirs {
		av, bv := a[i], b[i]
		if dir == Diff {
			if !av.Equal(bv) {
				return Incomparable, nil
			}
			continue
		}
		if av.IsNull() || bv.IsNull() {
			// Complete algorithm applied to data with NULLs: treat the
			// pair as incomparable in this dimension. (Algorithm
			// selection routes genuinely incomplete data elsewhere.)
			if av.IsNull() != bv.IsNull() {
				aBetter, bBetter = true, true
			}
			continue
		}
		c, ok := types.CompareValues(av, bv)
		counters.AddComparisons(1)
		if !ok {
			return Incomparable, fmt.Errorf("skyline: incomparable kinds %s and %s in dimension %d", av.Kind(), bv.Kind(), i)
		}
		if dir == Max {
			c = -c
		}
		switch {
		case c < 0:
			aBetter = true
		case c > 0:
			bBetter = true
		}
		if aBetter && bBetter {
			return Incomparable, nil
		}
	}
	switch {
	case aBetter && !bBetter:
		return LeftDominates, nil
	case bBetter && !aBetter:
		return RightDominates, nil
	case !aBetter && !bBetter:
		return Equal, nil
	}
	return Incomparable, nil
}

// CompareIncomplete classifies dominance under the incomplete-data
// definition (§3): every comparison is restricted to dimensions where both
// tuples are non-NULL. Transitivity is NOT guaranteed; callers must use
// cycle-safe algorithms (GlobalIncomplete).
func CompareIncomplete(a, b types.Row, dirs []Dir, counters *Counters) (Relation, error) {
	counters.AddTests(1)
	aBetter, bBetter := false, false
	sameNullPattern := true
	for i, dir := range dirs {
		av, bv := a[i], b[i]
		if av.IsNull() != bv.IsNull() {
			sameNullPattern = false
		}
		if av.IsNull() || bv.IsNull() {
			continue // dimension is skipped entirely
		}
		if dir == Diff {
			if !av.Equal(bv) {
				return Incomparable, nil
			}
			continue
		}
		c, ok := types.CompareValues(av, bv)
		counters.AddComparisons(1)
		if !ok {
			return Incomparable, fmt.Errorf("skyline: incomparable kinds %s and %s in dimension %d", av.Kind(), bv.Kind(), i)
		}
		if dir == Max {
			c = -c
		}
		switch {
		case c < 0:
			aBetter = true
		case c > 0:
			bBetter = true
		}
		if aBetter && bBetter {
			return Incomparable, nil
		}
	}
	switch {
	case aBetter && !bBetter:
		return LeftDominates, nil
	case bBetter && !aBetter:
		return RightDominates, nil
	case sameNullPattern:
		return Equal, nil
	default:
		// Neither strictly better, but differing NULL patterns: the
		// tuples are incomparable, not duplicates.
		return Incomparable, nil
	}
}

// NullBitmap computes the partitioning key of §5.7: bit i is set iff
// dimension i is NULL. All tuples with equal bitmaps share a partition, so
// inside a partition the incomplete dominance definition degenerates to the
// complete one on the non-null dimensions and transitivity holds.
func NullBitmap(dims types.Row) uint64 {
	var b uint64
	for i, v := range dims {
		if v.IsNull() {
			b |= 1 << uint(i%64)
		}
	}
	return b
}
