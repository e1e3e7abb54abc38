// Package storage implements the paged columnar segment format — the
// engine's out-of-core tier. A segment is the on-disk (or in-memory)
// serialization of a bounded run of rows in the layout skyline.Batch
// already implicitly defines: per-column dense pages (float64 / int64
// values plus a null bitmap, dictionary-interned strings with id 0 =
// NULL — the DIFF intern-table analog, bit-packed bools) with a boxed
// per-value fallback for columns no dense page represents exactly. Every
// value round-trips bit-identically, so a segment-backed scan is
// result-identical to the in-memory scan it replaces.
//
// Each segment carries a footer with per-column zone maps — min/max,
// null/NaN counts, and an equi-width histogram — the row count, and the
// page directory: each column page's encoding, length and CRC-32C. The
// header and footer carry a CRC of their own, so a flipped bit anywhere
// in a segment is an error, never a different answer (segment.go has the
// byte layout, format version 2). Footers serve three consumers without
// touching the pages:
//
//   - ScanExec feeds its cost sketch from the merged footer stats instead
//     of a re-scan pass, and consults per-segment zone maps against the
//     plan's filter predicates (cost.ProvablyEmpty) to skip whole
//     segments before any page is read.
//
//   - A Reader reads only the pages a query asks for, verifies each once,
//     and serves from the same pages, in place: selections narrowed by a
//     comparison with a constant (Filter — the first stage's filters),
//     numeric columns written straight into a caller's row-major batch
//     storage (Gather — the skyline dimensions), dense float64 columns
//     (Numeric — any other filter conjunct), and boxed values by row
//     number (the rows that leave the stage, and the dimensions a boxed
//     dominance test reads). A file-backed Reader reads into buffers from
//     a package-level pool and returns them at Close; nothing it returns
//     aliases a buffer, so the only rule is that nothing reads through a
//     Reader after Close (SetBufferPoison makes a violation visible).
//     In-memory segments serve their pages without copying them.
//
//   - The memory governor's spill tier writes gather buffers out as
//     temporary segments and re-streams them through Segment.Decode, so
//     budgeted queries complete out-of-core instead of degrading.
//
// Segments are immutable once written; a Store is an ordered list of
// segments plus the schema, standing in for a table's materialized rows.
package storage

import (
	"fmt"
	"math"

	"skysql/internal/cost"
	"skysql/internal/types"
)

// DefaultSegmentRows is the row capacity of one segment when the writer
// is not told otherwise: large enough to amortize the footer, small
// enough that one segment is a natural morsel home and a bounded
// streaming buffer.
const DefaultSegmentRows = 1 << 16

// HistBuckets is the bucket count of the equi-width histogram each
// footer carries per numeric column. Coarse by design: the histogram
// refines the selectivity estimate on skewed columns, it does not try to
// be exact.
const HistBuckets = 16

// ColumnStats is the zone map of one column within one segment: the
// exact null/NaN/non-numeric counts and the min/max plus equi-width
// histogram over the finite numeric values. Min/Max are +Inf/-Inf when
// the segment holds no finite numeric value in the column.
type ColumnStats struct {
	Name     string
	Kind     types.Kind
	Nullable bool
	// NullCount, NaNCount, and NonNumeric partition the rows that the
	// [Min, Max] range says nothing about: NULLs fail every comparison,
	// NaNs sort below every number (the boxed total order), non-numeric
	// values disable range reasoning entirely.
	NullCount  int64
	NaNCount   int64
	NonNumeric int64
	Min, Max   float64
	// Hist counts the finite numeric values in HistBuckets equi-width
	// buckets over [Min, Max]; nil when Max <= Min (a constant or empty
	// column needs no histogram).
	Hist []int64
}

// Numeric reports whether range-based estimates apply: no non-numeric
// value observed and at least one finite numeric value present. The
// definition matches cost.Sketch.
func (c *ColumnStats) Numeric() bool {
	return c.NonNumeric == 0 && c.Min <= c.Max
}

// Footer is the self-describing tail of a segment: the row count, the
// per-column zone maps (which double as the schema record, so a segment
// directory opens without side metadata) and the page directory a Reader
// finds and verifies each column page by.
type Footer struct {
	Rows int
	Cols []ColumnStats

	pages []pageRef
}

// Schema reconstructs the table schema recorded in the footer.
func (f *Footer) Schema() *types.Schema {
	fields := make([]types.Field, len(f.Cols))
	for i, c := range f.Cols {
		fields[i] = types.Field{Name: c.Name, Type: c.Kind, Nullable: c.Nullable}
	}
	return types.NewSchema(fields...)
}

// Sketch converts the footer's zone maps into a cost sketch, so the
// selectivity estimator and the segment pruner reuse the predicate-shape
// machinery of internal/cost unchanged.
func (f *Footer) Sketch() *cost.Table {
	t := &cost.Table{Rows: f.Rows, Cols: make([]cost.Column, len(f.Cols))}
	for i := range f.Cols {
		t.Cols[i] = f.Cols[i].costColumn(f.Rows)
	}
	return t
}

func (c *ColumnStats) costColumn(rows int) cost.Column {
	col := cost.Column{Min: c.Min, Max: c.Max, Numeric: c.Numeric(), HasNaN: c.NaNCount > 0}
	if !col.Numeric {
		col.Min, col.Max = math.Inf(1), math.Inf(-1)
	}
	if rows > 0 {
		col.NullFraction = float64(c.NullCount) / float64(rows)
	}
	if len(c.Hist) > 0 {
		col.Hist = make([]float64, len(c.Hist))
		for b, n := range c.Hist {
			col.Hist[b] = float64(n)
		}
	}
	return col
}

// statsCollector accumulates the zone map of one column while a segment
// is encoded. The histogram needs the final [min, max], so values are
// bucketed in a second pass over the already-buffered chunk.
type statsCollector struct {
	stats ColumnStats
}

func newStatsCollector(f types.Field) *statsCollector {
	return &statsCollector{stats: ColumnStats{
		Name: f.Name, Kind: f.Type, Nullable: f.Nullable,
		Min: math.Inf(1), Max: math.Inf(-1),
	}}
}

func (s *statsCollector) observe(v types.Value) {
	switch {
	case v.IsNull():
		s.stats.NullCount++
	case v.IsNumeric():
		f := v.AsFloat()
		if math.IsNaN(f) {
			s.stats.NaNCount++
			return
		}
		if f < s.stats.Min {
			s.stats.Min = f
		}
		if f > s.stats.Max {
			s.stats.Max = f
		}
	default:
		s.stats.NonNumeric++
	}
}

// finish computes the histogram over the buffered column values and
// returns the completed stats. Bucketing is a pure function of the value
// and the final [min, max] — no clocks, no randomness — so zone maps
// (and every prune decision made from them) are deterministic.
func (s *statsCollector) finish(rows []types.Row, col int) ColumnStats {
	if s.stats.Numeric() && s.stats.Max > s.stats.Min {
		hist := make([]int64, HistBuckets)
		span := s.stats.Max - s.stats.Min
		for _, r := range rows {
			if col >= len(r) {
				continue
			}
			v := r[col]
			if v.IsNull() || !v.IsNumeric() {
				continue
			}
			f := v.AsFloat()
			if math.IsNaN(f) {
				continue
			}
			b := int(float64(HistBuckets) * (f - s.stats.Min) / span)
			if b < 0 {
				b = 0
			}
			if b >= HistBuckets {
				b = HistBuckets - 1
			}
			hist[b]++
		}
		s.stats.Hist = hist
	}
	return s.stats
}

// MergeStats folds per-segment column stats into one store-level zone
// map over total rows. Histograms are re-bucketed onto the merged
// [min, max] range by proportional overlap, so a store-level sketch
// keeps the per-segment shape information.
func MergeStats(segs []*Footer, width int) *cost.Table {
	t := &cost.Table{Cols: make([]cost.Column, width)}
	nulls := make([]int64, width)
	nonNum := make([]int64, width)
	for i := range t.Cols {
		t.Cols[i].Min, t.Cols[i].Max = math.Inf(1), math.Inf(-1)
	}
	for _, f := range segs {
		t.Rows += f.Rows
		for i := 0; i < width && i < len(f.Cols); i++ {
			c := &f.Cols[i]
			nulls[i] += c.NullCount
			nonNum[i] += c.NonNumeric
			if c.NaNCount > 0 {
				t.Cols[i].HasNaN = true
			}
			if c.Min < t.Cols[i].Min {
				t.Cols[i].Min = c.Min
			}
			if c.Max > t.Cols[i].Max {
				t.Cols[i].Max = c.Max
			}
		}
	}
	for i := range t.Cols {
		col := &t.Cols[i]
		col.Numeric = nonNum[i] == 0 && col.Min <= col.Max
		if t.Rows > 0 {
			col.NullFraction = float64(nulls[i]) / float64(t.Rows)
		}
		if !col.Numeric || col.Max <= col.Min {
			continue
		}
		hist := make([]float64, HistBuckets)
		span := col.Max - col.Min
		for _, f := range segs {
			if i >= len(f.Cols) {
				continue
			}
			c := &f.Cols[i]
			if len(c.Hist) == 0 {
				// Constant column in this segment: the whole mass sits at
				// Min (== Max); NullCount/NaN already excluded.
				n := int64(f.Rows) - c.NullCount - c.NaNCount - c.NonNumeric
				if n > 0 && c.Min <= c.Max {
					hist[bucketOf(c.Min, col.Min, span)] += float64(n)
				}
				continue
			}
			segSpan := (c.Max - c.Min) / float64(len(c.Hist))
			for b, n := range c.Hist {
				if n == 0 {
					continue
				}
				lo := c.Min + float64(b)*segSpan
				hi := lo + segSpan
				spread(hist, float64(n), lo, hi, col.Min, span)
			}
		}
		col.Hist = hist
	}
	return t
}

// bucketOf maps a value onto the merged histogram's bucket index.
func bucketOf(v, min, span float64) int {
	b := int(float64(HistBuckets) * (v - min) / span)
	if b < 0 {
		b = 0
	}
	if b >= HistBuckets {
		b = HistBuckets - 1
	}
	return b
}

// spread distributes one source bucket's count over the merged buckets
// it overlaps, proportionally to the overlap width.
func spread(hist []float64, n, lo, hi, min, span float64) {
	if hi <= lo {
		hist[bucketOf(lo, min, span)] += n
		return
	}
	bw := span / float64(len(hist))
	for b := range hist {
		blo := min + float64(b)*bw
		bhi := blo + bw
		olo, ohi := math.Max(lo, blo), math.Min(hi, bhi)
		if ohi > olo {
			hist[b] += n * (ohi - olo) / (hi - lo)
		}
	}
}

func errCorrupt(format string, args ...any) error {
	return fmt.Errorf("storage: corrupt segment: "+format, args...)
}
