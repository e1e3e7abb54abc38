package skyline

// This file implements the columnar dominance kernel: a Batch decodes a
// partition's points ONCE into dense, direction-normalized float64 vectors
// (MAX negated to MIN at decode time), a per-point null bitmask, and
// interned equality keys for DIFF dimensions. After decoding, CompareDecoded
// classifies dominance with pure index arithmetic — no Value boxing, no
// kind switches, no error returns (type mismatches are caught once at
// decode) — and cost counters accumulate batch-locally, flushed to the
// shared atomic Stats once per batch instead of twice per test.
//
// Decoding is column-at-a-time (one pass per dimension), but the decoded
// numeric values are stored row-major: the O(n²) dominance loop compares
// two points across all dimensions, so keeping each point's vector
// contiguous turns the inner loop into a linear scan of two short slices.
//
// The kernel is exact: DecodeBatch refuses (ok=false) any input whose
// dominance semantics it cannot reproduce bit-for-bit against the boxed
// Compare/CompareIncomplete path — non-numeric or NaN MIN/MAX values,
// integers beyond ±2⁵³ (where float64 conversion loses order), DIFF
// columns mixing big integers with floats, or more than 64 dimensions.
// Callers fall back to the boxed CompareFunc path on refusal.

import (
	"math"
	"strconv"

	"skysql/internal/types"
)

// maxExactInt is the largest magnitude whose int64→float64 conversion is
// exact; beyond it the boxed int-int comparison (exact) and a float compare
// can disagree, so decoding falls back. It is the same bound
// Value.OrderKey applies to the MIN/MAX dimensions.
const maxExactInt = types.MaxExactFloatInt

// Batch is a partition of points decoded for the columnar dominance kernel.
type Batch struct {
	// n is the number of points. pts holds them, or is nil for a batch
	// gathered from columns whose points carry no rows yet (Gather).
	n          int
	pts        []Point
	incomplete bool  // dominance definition CompareDecoded implements
	dirs       []Dir // dimension directions the batch was decoded under

	// Tag is an opaque caller-set signature of the decoded dimensions
	// (expressions + directions + dominance definition). Operators receiving
	// a batch through an exchange sidecar only reuse it when the tag matches
	// their own, so a batch decoded for one skyline clause can never serve a
	// different one. Slice/Select propagate it; MergeBatches requires equal
	// tags.
	Tag string

	// num holds the MIN/MAX dimensions in clause order, row-major with
	// stride numStride, direction-normalized: MAX values are negated so
	// every comparison is "smaller is better". NULL slots hold 0 (masked
	// by nulls).
	num       []float64
	numStride int
	// numMask[c] is the null-bitmask bit of numeric dimension c's original
	// clause position.
	numMask []uint64

	// keys holds the DIFF dimensions in clause order, row-major with
	// stride keyStride, as interned equality ids. Id 0 is reserved for
	// NULL, so equal ids reproduce the boxed Value.Equal semantics
	// (NULL = NULL under the complete definition).
	keys      []uint32
	keyStride int
	// diffMask[k] is the null-bitmask bit of DIFF dimension k's original
	// clause position.
	diffMask []uint64
	// diffIntern[k][id-1] is the intern key string behind equality id of
	// DIFF dimension k (id 0, NULL, has no entry). It is the reverse of the
	// decode-time intern map and lets MergeBatches re-map ids from different
	// batches into one id space without re-decoding any Value.
	diffIntern [][]string

	// nulls[i] has bit d set iff dimension d of point i is NULL. It is
	// allocated lazily on the first NULL seen, so fully complete batches
	// (the common case) never pay for it; nil while anyNull is false.
	nulls   []uint64
	anyNull bool

	// bindings maps input-row ordinals onto dense columns (decoded numeric
	// dimensions or appended computed columns) for the vectorized expression
	// engine; computed holds the appended columns. See batch_cols.go.
	bindings map[int]colBinding
	computed []computedColumn

	// runs are the lengths of consecutive index ranges, in order and
	// covering the batch, each of which a local skyline proved a skyline of
	// itself (MarkRun); nil when the batch records none. runsDistinct says
	// they were produced under DISTINCT, so no two points of a run are
	// Equal either. Only MarkRun sets them and only MergeBatches keeps
	// them; every other derivation drops them.
	runs         []int
	runsDistinct bool

	// Batch-local cost counters; Flush merges them into a shared Stats.
	counters Counters

	// gridPolicy pins the window passes' use of the cell index (grid.go)
	// and of BNL's dominance screen. Only tests set it; batches are built
	// with gridAuto.
	gridPolicy gridPolicy
}

// dense reports whether every point is purely numeric and complete — the
// batches the specialized window passes and the cell index serve.
func (b *Batch) dense() bool { return !b.anyNull && b.keyStride == 0 }

// DecodeBatch decodes points into a columnar batch implementing the
// complete (incomplete=false) or incomplete (incomplete=true) dominance
// definition. ok=false means the kernel cannot reproduce the boxed
// semantics exactly for this data and the caller must use the boxed
// CompareFunc path; nothing is partially decoded in that case. Successful
// decodes are counted on stats (may be nil), making decode-freeness of
// downstream operators assertable.
func DecodeBatch(points []Point, dirs []Dir, incomplete bool, stats *Stats) (*Batch, bool) {
	if len(dirs) == 0 || len(dirs) > 64 {
		return nil, false
	}
	for _, p := range points {
		if len(p.Dims) != len(dirs) {
			return nil, false
		}
	}
	nNum, nDiff := 0, 0
	for _, dir := range dirs {
		if dir == Diff {
			nDiff++
		} else {
			nNum++
		}
	}
	b := &Batch{
		n:          len(points),
		pts:        points,
		incomplete: incomplete,
		dirs:       append([]Dir(nil), dirs...),
		num:        make([]float64, nNum*len(points)),
		numStride:  nNum,
		keyStride:  nDiff,
	}
	if nDiff > 0 {
		b.keys = make([]uint32, nDiff*len(points))
	}
	kc := 0
	for d, dir := range dirs {
		bit := uint64(1) << uint(d)
		if dir == Diff {
			if !b.decodeDiffColumn(points, d, kc, bit) {
				return nil, false
			}
			b.diffMask = append(b.diffMask, bit)
			kc++
			continue
		}
		b.numMask = append(b.numMask, bit)
	}
	if !b.decodeNumeric(points, dirs) {
		return nil, false
	}
	b.anyNull = b.nulls != nil
	stats.AddBatchDecoded()
	return b, true
}

// Fill writes MIN/MAX dimension d of n points straight into a batch's
// row-major storage: point k's raw value goes to dst[k*stride], negated
// when negate is set (a MAX dimension), except for NULL points, whose
// slots it leaves alone and whose positions it returns in increasing
// order (nil when there are none). ok=false refuses the batch.
type Fill func(d int, dst []float64, stride int, negate bool) (nulls []int, ok bool)

// laneBits[d] is the null-bitmask bit of dimension d.
var laneBits = func() (m [64]uint64) {
	for d := range m {
		m[d] = 1 << uint(d)
	}
	return m
}()

// Gather builds the batch DecodeBatch would build for n points whose
// MIN/MAX dimensions fill writes straight into its storage, one dimension
// at a time, instead of decoding them from boxed vectors. It refuses
// (ok=false) what DecodeBatch refuses on numeric input — NaN, more than 64
// dimensions — what fill refuses, and DIFF dimensions, whose intern keys
// need the boxed values. The batch keeps dirs, which the caller must not
// modify, and carries no rows and no points: SelectRows attaches rows to
// the points that are kept, so a scan boxes only those.
func Gather(n int, dirs []Dir, incomplete bool, stats *Stats, fill Fill) (*Batch, bool) {
	if len(dirs) == 0 || len(dirs) > 64 {
		return nil, false
	}
	s := len(dirs)
	b := &Batch{
		n:          n,
		incomplete: incomplete,
		dirs:       dirs,
		num:        make([]float64, s*n),
		numStride:  s,
		numMask:    laneBits[:s:s],
	}
	for d, dir := range dirs {
		if dir == Diff {
			return nil, false
		}
		if n == 0 {
			continue
		}
		nulls, ok := fill(d, b.num[d:], s, dir == Max)
		if !ok {
			return nil, false
		}
		for _, k := range nulls {
			b.setNull(k, laneBits[d])
		}
	}
	// NULL slots hold 0, so a NaN anywhere is a value the batch refuses.
	for _, f := range b.num {
		if f != f {
			return nil, false
		}
	}
	b.anyNull = b.nulls != nil
	stats.AddBatchDecoded()
	return b, true
}

// setNull marks dimension bit of point i as NULL, allocating the bitmask
// on first use.
func (b *Batch) setNull(i int, bit uint64) {
	if b.nulls == nil {
		b.nulls = make([]uint64, b.n)
	}
	b.nulls[i] |= bit
}

// decodeNumeric decodes every MIN/MAX dimension in ONE pass over the
// points — each point's Dims slice is loaded once and its normalized
// vector written contiguously — recording NULL positions as it goes.
// Value.OrderKey performs the exactness-checked float64 conversion inline.
func (b *Batch) decodeNumeric(points []Point, dirs []Dir) bool {
	// Precompute the numeric slots: original dimension position and sign.
	pos := make([]int, 0, b.numStride)
	sign := make([]float64, 0, b.numStride)
	for d, dir := range dirs {
		if dir == Diff {
			continue
		}
		pos = append(pos, d)
		if dir == Max {
			sign = append(sign, -1)
		} else {
			sign = append(sign, 1)
		}
	}
	s := b.numStride
	for i := range points {
		dims := points[i].Dims
		row := b.num[i*s : i*s+s]
		for c, d := range pos {
			v := dims[d]
			if v.IsNull() {
				b.setNull(i, uint64(1)<<uint(d))
				continue // slot stays 0; masked at compare time
			}
			f, ok := v.OrderKey()
			if !ok {
				return false
			}
			row[c] = sign[c] * f
		}
	}
	return true
}

// decodeDiffColumn interns one DIFF dimension into slot k of the row-major
// equality-key vectors, reproducing Value.Equal exactly: NULLs share id 0,
// numeric values equate cross-kind (1 = 1.0), values of different kind
// classes never equate. A key is a function of its value alone, so batches
// decoded apart intern equal values under equal keys and MergeBatches can
// re-map their ids through the keys.
func (b *Batch) decodeDiffColumn(points []Point, d, k int, bit uint64) bool {
	// Pre-scan: big integers are exact under the boxed int-int comparison
	// but collide after float64 conversion; they are interned by their
	// decimal form, which is incompatible with cross-kind numeric equality,
	// so a column mixing them with floats is refused.
	hasFloat, hasBigInt := false, false
	for _, p := range points {
		switch v := p.Dims[d]; v.Kind() {
		case types.KindFloat:
			hasFloat = true
		case types.KindInt:
			if iv := v.AsInt(); iv > maxExactInt || iv < -maxExactInt {
				hasBigInt = true
			}
		}
	}
	if hasFloat && hasBigInt {
		return false
	}
	intern := make(map[string]uint32)
	var rev []string // id-1 -> intern key, the reverse table MergeBatches re-maps through
	var buf [9]byte
	for i, p := range points {
		v := p.Dims[d]
		var key string
		switch v.Kind() {
		case types.KindNull:
			b.setNull(i, bit)
			continue // id 0 ≡ NULL
		case types.KindInt:
			if iv := v.AsInt(); iv > maxExactInt || iv < -maxExactInt {
				key = "i" + strconv.FormatInt(iv, 10)
			} else {
				key = floatKey(float64(iv), &buf)
			}
		case types.KindFloat:
			key = floatKey(v.AsFloat(), &buf)
		case types.KindString:
			key = "s" + v.AsString()
		case types.KindBool:
			if v.AsBool() {
				key = "b1"
			} else {
				key = "b0"
			}
		default:
			return false
		}
		id, ok := intern[key]
		if !ok {
			id = uint32(len(intern)) + 1 // 0 reserved for NULL
			intern[key] = id
			rev = append(rev, key)
		}
		b.keys[i*b.keyStride+k] = id
	}
	b.diffIntern = append(b.diffIntern, rev)
	return true
}

// floatKey renders a float into an exact intern key, canonicalizing the
// two cases where distinct bit patterns compare equal: -0 = +0 and
// NaN = NaN (CompareValues orders all NaNs together).
func floatKey(f float64, buf *[9]byte) string {
	if f == 0 {
		f = 0
	}
	if math.IsNaN(f) {
		f = math.NaN()
	}
	bits := math.Float64bits(f)
	buf[0] = 'f'
	for i := 0; i < 8; i++ {
		buf[1+i] = byte(bits >> (8 * i))
	}
	return string(buf[:])
}

// mayEqualBigInt reports whether a DIFF intern key is a float at or beyond
// 2⁵³: the only floats a big integer, keyed by its decimal form, can equal
// under the boxed cross-kind comparison.
func mayEqualBigInt(key string) bool {
	if key[0] != 'f' {
		return false
	}
	var bits uint64
	for i := 0; i < 8; i++ {
		bits |= uint64(key[1+i]) << (8 * i)
	}
	return math.Abs(math.Float64frombits(bits)) >= float64(maxExactInt)
}

// Len returns the number of points in the batch.
func (b *Batch) Len() int { return b.n }

// Incomplete reports which dominance definition CompareDecoded implements.
func (b *Batch) Incomplete() bool { return b.incomplete }

// Points materializes the points at the given batch indices, in order. A
// gathered batch has no points before SelectRows.
func (b *Batch) Points(idx []int) []Point {
	out := make([]Point, len(idx))
	for i, j := range idx {
		out[i] = b.pts[j]
	}
	return out
}

// Flush merges the batch-local cost counters into stats and resets them.
func (b *Batch) Flush(stats *Stats) {
	stats.Merge(&b.counters)
	b.counters = Counters{}
}

// CompareDecoded classifies the dominance relationship between points i
// and j under the batch's dominance definition. It is the columnar twin of
// Compare/CompareIncomplete: identical outcomes, no boxing, no errors.
func (b *Batch) CompareDecoded(i, j int) Relation {
	b.counters.Tests++
	if !b.anyNull || b.nulls[i]|b.nulls[j] == 0 {
		// With no NULLs in either point the two definitions coincide, so
		// the dense path serves both (incomplete Equal needs identical null
		// patterns, trivially true here).
		return b.compareDense(i, j)
	}
	if b.incomplete {
		return b.compareIncomplete(i, j)
	}
	return b.compareCompleteNulls(i, j)
}

// compareDense is the hot path: both points complete in every dimension.
// The per-point vectors are contiguous, so the whole test is two linear
// slice scans with no null masking.
func (b *Batch) compareDense(i, j int) Relation {
	if s := b.keyStride; s > 0 {
		ka := b.keys[i*s : i*s+s]
		kb := b.keys[j*s : j*s+s]
		for k, id := range ka {
			if id != kb[k] {
				return Incomparable
			}
		}
	}
	s := b.numStride
	rel, comps := denseCompare(b.num[i*s:i*s+s], b.num[j*s:j*s+s])
	b.counters.Comparisons += comps
	return rel
}

// denseCompare classifies w against t on direction-normalized vectors with
// no NULLs, returning the relation and the lanes an early-exit scan would
// have compared, from the lane masks (masks.go). It serves CompareDecoded's
// dense case; the window passes and the cross-chunk filter take the masks
// themselves and decide from them without building a Relation.
func denseCompare(wv, tv []float64) (Relation, int64) {
	lt, gt := laneMasks(wv, tv)
	n := lanesCompared(lt, gt, len(wv))
	switch {
	case lt != 0 && gt != 0:
		return Incomparable, n
	case lt != 0:
		return LeftDominates, n
	case gt != 0:
		return RightDominates, n
	}
	return Equal, n
}

// compareCompleteNulls applies the complete-data definition when either
// point has NULLs: a one-sided NULL in a MIN/MAX dimension marks both
// sides better (⇒ incomparable), NULL = NULL holds in DIFF dimensions,
// and dimensions where both are NULL are skipped.
func (b *Batch) compareCompleteNulls(i, j int) Relation {
	na, nb := b.nulls[i], b.nulls[j]
	if s := b.keyStride; s > 0 {
		ka := b.keys[i*s : i*s+s]
		kb := b.keys[j*s : j*s+s]
		for k, id := range ka {
			// NULL is interned as id 0, so the plain id comparison
			// reproduces Equal's NULL = NULL; a one-sided NULL yields 0 ≠ id.
			if id != kb[k] {
				return Incomparable
			}
		}
	}
	s := b.numStride
	a := b.num[i*s : i*s+s]
	c := b.num[j*s : j*s+s]
	aBetter, bBetter := false, false
	comps := 0
	for k, x := range a {
		bit := b.numMask[k]
		ni, nj := na&bit != 0, nb&bit != 0
		if ni || nj {
			if ni != nj {
				// Both flags set under the boxed definition; with DIFF
				// dimensions already equal the outcome is fixed.
				b.counters.Comparisons += int64(comps)
				return Incomparable
			}
			continue
		}
		y := c[k]
		comps++
		if x < y {
			if bBetter {
				b.counters.Comparisons += int64(comps)
				return Incomparable
			}
			aBetter = true
		} else if x > y {
			if aBetter {
				b.counters.Comparisons += int64(comps)
				return Incomparable
			}
			bBetter = true
		}
	}
	b.counters.Comparisons += int64(comps)
	switch {
	case aBetter:
		return LeftDominates
	case bBetter:
		return RightDominates
	}
	return Equal
}

// compareIncomplete applies the incomplete-data definition (§3): every
// comparison is restricted to dimensions where both points are non-NULL,
// and only identical null patterns can be Equal.
func (b *Batch) compareIncomplete(i, j int) Relation {
	na, nb := b.nulls[i], b.nulls[j]
	either := na | nb
	if s := b.keyStride; s > 0 {
		ka := b.keys[i*s : i*s+s]
		kb := b.keys[j*s : j*s+s]
		for k, id := range ka {
			if either&b.diffMask[k] != 0 {
				continue // dimension skipped entirely
			}
			if id != kb[k] {
				return Incomparable
			}
		}
	}
	s := b.numStride
	a := b.num[i*s : i*s+s]
	c := b.num[j*s : j*s+s]
	aBetter, bBetter := false, false
	comps := 0
	for k, x := range a {
		if either&b.numMask[k] != 0 {
			continue
		}
		y := c[k]
		comps++
		if x < y {
			if bBetter {
				b.counters.Comparisons += int64(comps)
				return Incomparable
			}
			aBetter = true
		} else if x > y {
			if aBetter {
				b.counters.Comparisons += int64(comps)
				return Incomparable
			}
			bBetter = true
		}
	}
	b.counters.Comparisons += int64(comps)
	switch {
	case aBetter:
		return LeftDominates
	case bBetter:
		return RightDominates
	case na == nb:
		return Equal
	}
	return Incomparable
}
