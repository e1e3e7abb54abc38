package skyline

// This file gives a decoded Batch a second role: besides feeding the
// dominance kernel, its dense columns can serve the vectorized expression
// engine. A column binding maps an input-row ordinal onto the decoded
// storage — either a direction-normalized numeric dimension column (with
// the MAX negation undone on materialization, an exact operation) or an
// appended computed column produced by a vectorized projection. Batch.Filter
// is the selection-vector form used by vectorized filters: a boolean
// selection bitmap is reduced to the kept indices and routed through the
// Select index machinery, so the filtered batch shares all the guarantees
// of the exchange re-slicing primitives.

import "skysql/internal/types"

// colBinding locates the storage serving one input-row ordinal: a decoded
// numeric dimension column (dim >= 0, neg true when stored negated) or an
// appended computed column (comp >= 0).
type colBinding struct {
	dim  int
	neg  bool
	comp int
}

// computedColumn is one appended raw column: vals dense, nulls optional.
type computedColumn struct {
	vals  []float64
	nulls []bool
}

// BindColumn records that input-row ordinal ord is served by decoded
// numeric dimension column dim (an index among the MIN/MAX dimensions, in
// clause order); negated marks MAX columns, whose stored values are the
// negation of the row values. Bindings must be registered at construction
// time, before the batch is shared through Slice.
func (b *Batch) BindColumn(ord, dim int, negated bool) {
	if dim < 0 || dim >= b.numStride {
		return
	}
	if b.bindings == nil {
		b.bindings = make(map[int]colBinding)
	}
	b.bindings[ord] = colBinding{dim: dim, neg: negated, comp: -1}
}

// AppendComputedColumn extends the batch with a computed column (len must
// equal Len; nulls may be nil) bound to input-row ordinal ord — the batch
// form of a projection output.
func (b *Batch) AppendComputedColumn(ord int, vals []float64, nulls []bool) {
	if len(vals) != b.n {
		return
	}
	if b.bindings == nil {
		b.bindings = make(map[int]colBinding)
	}
	b.bindings[ord] = colBinding{dim: -1, comp: len(b.computed)}
	b.computed = append(b.computed, computedColumn{vals: vals, nulls: nulls})
}

// HasColumn reports whether input-row ordinal ord has a dense column.
func (b *Batch) HasColumn(ord int) bool {
	_, ok := b.bindings[ord]
	return ok
}

// Column materializes the raw (row-value) dense column of input-row
// ordinal ord with its null mask (nil when the column holds no NULLs).
// Decoded dimension columns are gathered out of the row-major storage and
// MAX columns un-negated — both exact — so the returned values are
// bit-identical to evaluating the bound expression per row. ok=false when
// the ordinal has no binding.
func (b *Batch) Column(ord int) (vals []float64, nulls []bool, ok bool) {
	bind, ok := b.bindings[ord]
	if !ok {
		return nil, nil, false
	}
	if bind.comp >= 0 {
		c := b.computed[bind.comp]
		return c.vals, c.nulls, true
	}
	s := b.numStride
	vals = make([]float64, b.n)
	for i := range vals {
		v := b.num[i*s+bind.dim]
		if bind.neg {
			v = -v
		}
		vals[i] = v
	}
	if b.anyNull {
		bit := b.numMask[bind.dim]
		any := false
		mask := make([]bool, b.n)
		for i, n := range b.nulls {
			if n&bit != 0 {
				mask[i] = true
				any = true
			}
		}
		if any {
			nulls = mask
		}
	}
	return vals, nulls, true
}

// Filter returns the sub-batch of the points whose selection bit is set —
// the selection-vector form of Select, used by vectorized filters.
func (b *Batch) Filter(sel []bool) *Batch {
	idx := make([]int, 0, len(sel))
	for i, keep := range sel {
		if keep {
			idx = append(idx, i)
		}
	}
	return b.Select(idx)
}

// WithRows returns a copy of the batch whose points wrap the given rows
// (index-aligned with the batch) — how a projection keeps a sidecar alive
// across a row transform. The points keep their dimension vectors when
// the batch has points, and carry none when it was gathered without. ordMap re-keys the column bindings into the new
// ordinal space (new ordinal -> old ordinal); unmapped bindings are
// dropped, computed-column storage is shared.
func (b *Batch) WithRows(rows []types.Row, ordMap map[int]int) *Batch {
	if len(rows) != b.n {
		return nil
	}
	cp := *b
	cp.pts = make([]Point, len(rows))
	for i := range rows {
		cp.pts[i].Row = rows[i]
		if b.pts != nil {
			cp.pts[i].Dims = b.pts[i].Dims
		}
	}
	cp.bindings, cp.runs = nil, nil
	for newOrd, oldOrd := range ordMap {
		if bind, ok := b.bindings[oldOrd]; ok {
			if cp.bindings == nil {
				cp.bindings = make(map[int]colBinding)
			}
			cp.bindings[newOrd] = bind
		}
	}
	cp.counters = Counters{}
	return &cp
}

// WithoutPoints returns a copy of the batch fit to outlive the query that
// decoded it: the decoded columns are shared, the points — a row header and
// a boxed dimension vector each, which no batch algorithm reads once the
// columns exist and which MemSize does not count — are let go. The copy
// returns the same indices as the batch; a holder that keeps the rows
// beside it maps them back (SelectRows attaches rows when it needs points).
func (b *Batch) WithoutPoints() *Batch {
	cp := *b
	cp.pts = nil
	cp.runs = nil
	cp.counters = Counters{}
	return &cp
}

// MemSize estimates the decoded storage of the batch in bytes (the rows the
// points wrap are accounted separately by the dataset). Views produced by
// Slice share backing arrays with their parent; their sizes reflect the
// view lengths, mirroring how sliced row partitions are accounted.
func (b *Batch) MemSize() int64 {
	n := int64(len(b.num))*8 + int64(len(b.keys))*4 + int64(len(b.nulls))*8
	for _, c := range b.computed {
		n += int64(len(c.vals))*8 + int64(len(c.nulls))
	}
	return n
}
