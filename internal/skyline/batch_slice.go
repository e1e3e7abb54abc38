package skyline

// This file implements batch re-slicing: the index arithmetic that lets a
// decoded Batch flow through exchanges instead of dying at them. A
// partition's batch can be cut into contiguous ranges (Slice), re-bucketed
// by arbitrary index lists (Select), and partitions gathered by an exchange
// can be concatenated back into one batch (MergeBatches) — all without
// re-boxing or re-decoding a single Value. DIFF equality ids are the only
// state that is batch-local; MergeBatches re-maps them through the decode
// time reverse intern tables (string lookups on the distinct values, not on
// the rows), so merged batches compare exactly like a fresh decode of the
// same points.

// NumDims returns the number of MIN/MAX dimensions of the batch.
func (b *Batch) NumDims() int { return b.numStride }

// KeyDims returns the number of DIFF dimensions of the batch.
func (b *Batch) KeyDims() int { return b.keyStride }

// Dirs returns the dimension directions the batch was decoded under. The
// returned slice is shared; callers must not modify it.
func (b *Batch) Dirs() []Dir { return b.dirs }

// NumRow returns point i's direction-normalized numeric vector (MAX
// dimensions negated at decode, NULL slots holding 0). The slice aliases
// the batch storage; callers must not modify it.
func (b *Batch) NumRow(i int) []float64 {
	s := b.numStride
	return b.num[i*s : i*s+s]
}

// NullBits returns the null bitmask of point i (bit d set iff dimension d
// is NULL).
func (b *Batch) NullBits(i int) uint64 {
	if !b.anyNull {
		return 0
	}
	return b.nulls[i]
}

// HasNulls reports whether any point has a NULL dimension.
func (b *Batch) HasNulls() bool { return b.anyNull }

// Slice returns the [lo, hi) contiguous sub-batch as a view sharing the
// decoded storage — no copying, no re-decoding. Point j of the slice is
// point lo+j of b.
func (b *Batch) Slice(lo, hi int) *Batch {
	ns, ks := b.numStride, b.keyStride
	out := &Batch{
		pts:        b.pts[lo:hi],
		incomplete: b.incomplete,
		dirs:       b.dirs,
		Tag:        b.Tag,
		num:        b.num[lo*ns : hi*ns],
		numStride:  ns,
		numMask:    b.numMask,
		keyStride:  ks,
		diffMask:   b.diffMask,
		diffIntern: b.diffIntern,
	}
	if ks > 0 {
		out.keys = b.keys[lo*ks : hi*ks]
	}
	if b.anyNull {
		out.nulls = b.nulls[lo:hi]
		out.anyNull = anyBitSet(out.nulls)
	}
	if len(b.computed) > 0 {
		out.computed = make([]computedColumn, len(b.computed))
		for k, c := range b.computed {
			out.computed[k] = computedColumn{vals: c.vals[lo:hi]}
			if c.nulls != nil {
				out.computed[k].nulls = c.nulls[lo:hi]
			}
		}
	}
	out.bindings = b.bindings // read-only after construction
	return out
}

// Select returns the sub-batch of the points at the given batch indices, in
// order — the gather primitive exchanges use to re-bucket a partition. The
// decoded vectors are copied by index arithmetic; intern ids stay valid
// because the id space is shared with b.
func (b *Batch) Select(idx []int) *Batch {
	ns, ks := b.numStride, b.keyStride
	out := &Batch{
		pts:        b.Points(idx),
		incomplete: b.incomplete,
		dirs:       b.dirs,
		Tag:        b.Tag,
		num:        make([]float64, ns*len(idx)),
		numStride:  ns,
		numMask:    b.numMask,
		keyStride:  ks,
		diffMask:   b.diffMask,
		diffIntern: b.diffIntern,
	}
	for i, j := range idx {
		copy(out.num[i*ns:(i+1)*ns], b.num[j*ns:(j+1)*ns])
	}
	if ks > 0 {
		out.keys = make([]uint32, ks*len(idx))
		for i, j := range idx {
			copy(out.keys[i*ks:(i+1)*ks], b.keys[j*ks:(j+1)*ks])
		}
	}
	if b.anyNull {
		nulls := make([]uint64, len(idx))
		any := false
		for i, j := range idx {
			nulls[i] = b.nulls[j]
			any = any || nulls[i] != 0
		}
		if any {
			out.nulls, out.anyNull = nulls, true
		}
	}
	if len(b.computed) > 0 {
		out.computed = make([]computedColumn, len(b.computed))
		for k, c := range b.computed {
			vals := make([]float64, len(idx))
			for i, j := range idx {
				vals[i] = c.vals[j]
			}
			nc := computedColumn{vals: vals}
			if c.nulls != nil {
				nc.nulls = make([]bool, len(idx))
				for i, j := range idx {
					nc.nulls[i] = c.nulls[j]
				}
			}
			out.computed[k] = nc
		}
	}
	out.bindings = b.bindings // read-only after construction
	return out
}

// MergeBatches concatenates batches (in order) into one batch equivalent to
// decoding the concatenated points fresh. ok=false when the batches are not
// mergeable: different dimension signatures (Tag), directions, or dominance
// definitions. DIFF equality ids are re-mapped into a shared id space via
// the reverse intern tables (only the ids some point references); numeric
// vectors and null masks concatenate untouched. Column bindings and
// computed columns are batch-local and do not survive the merge (merged
// batches feed the global skyline, which reads only the decoded dimension
// storage).
func MergeBatches(batches []*Batch) (*Batch, bool) {
	if len(batches) == 0 {
		return nil, false
	}
	first := batches[0]
	if first == nil {
		return nil, false
	}
	if len(batches) == 1 {
		return first, true
	}
	n := 0
	anyNull := false
	for _, b := range batches {
		if b == nil || !sameShape(first, b) {
			return nil, false
		}
		n += len(b.pts)
		anyNull = anyNull || b.anyNull
	}
	ns, ks := first.numStride, first.keyStride
	out := &Batch{
		pts:        make([]Point, 0, n),
		incomplete: first.incomplete,
		dirs:       first.dirs,
		Tag:        first.Tag,
		num:        make([]float64, 0, ns*n),
		numStride:  ns,
		numMask:    first.numMask,
		keyStride:  ks,
		diffMask:   first.diffMask,
		anyNull:    anyNull,
	}
	for _, b := range batches {
		out.pts = append(out.pts, b.pts...)
		out.num = append(out.num, b.num...)
	}
	if anyNull {
		out.nulls = make([]uint64, 0, n)
		for _, b := range batches {
			if b.anyNull {
				out.nulls = append(out.nulls, b.nulls...)
			} else {
				out.nulls = append(out.nulls, make([]uint64, len(b.pts))...)
			}
		}
	}
	if ks > 0 {
		// Ids are re-assigned per column in first-reference order, the order
		// a fresh decode of the concatenated points interns them in, and only
		// for keys a point still references: intern entries orphaned by
		// Select (points an exchange bucketed elsewhere, cached skyline rows
		// an append evicted) are dropped here instead of accumulating from
		// merge to merge.
		out.keys = make([]uint32, 0, ks*n)
		out.diffIntern = make([][]string, ks)
		global := make([]map[string]uint32, ks)
		for k := range global {
			global[k] = make(map[string]uint32)
		}
		for _, b := range batches {
			remap := make([][]uint32, ks) // [column][old id] -> new id; 0 = unmapped, and NULL (old id 0) stays 0
			for k := range remap {
				remap[k] = make([]uint32, len(b.diffIntern[k])+1)
			}
			for pos, old := range b.keys { // row-major: column = pos % ks
				k := pos % ks
				id := remap[k][old]
				if id == 0 && old != 0 {
					key := b.diffIntern[k][old-1]
					if id = global[k][key]; id == 0 { // ids start at 1: 0 is "not interned yet"
						out.diffIntern[k] = append(out.diffIntern[k], key)
						id = uint32(len(out.diffIntern[k]))
						global[k][key] = id
					}
					remap[k][old] = id
				}
				out.keys = append(out.keys, id)
			}
		}
	}
	return out, true
}

// sameShape reports whether two batches were decoded under the same
// dimension signature and dominance definition, i.e. can be merged.
func sameShape(a, b *Batch) bool {
	if a.incomplete != b.incomplete || a.Tag != b.Tag || len(a.dirs) != len(b.dirs) {
		return false
	}
	for i, d := range a.dirs {
		if b.dirs[i] != d {
			return false
		}
	}
	return true
}

func anyBitSet(bits []uint64) bool {
	for _, b := range bits {
		if b != 0 {
			return true
		}
	}
	return false
}
