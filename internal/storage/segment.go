package storage

// The segment wire format, version 2. One segment file (or in-memory page
// run) is:
//
//	magic "SKYSEG2\x00"
//	uint32 rows | uint32 cols
//	the column pages, back to back in column order (payload bytes only)
//	footer payload: uint32 rows | uint32 cols, then per column its zone
//	    map followed by its page entry: uint8 encoding | uint64 page
//	    length | uint32 CRC-32C of the page
//	uint32 CRC-32C of the 16 header bytes followed by the footer payload
//	uint32 footer length | magic "SEGF"
//
// The tail lets a reader load the footer — row count, zone maps and the
// page directory — without touching a single column page, which is what
// makes footer-fed sketches and pre-decode pruning cheap, and what lets a
// scan read only the pages of the columns a query references. Every byte
// is covered by a checksum: the header, footer and tail by the footer CRC
// (a damaged length or magic fails before it), each page by its own CRC,
// verified when the page is first read. All integers are little-endian;
// floats are IEEE-754 bit patterns, so every value (NaN payloads, -0,
// ±Inf, int64 beyond ±2⁵³) round-trips bit-identically.
//
// Version 1 (magic "SKYSEG1\x00") had no checksums and interleaved page
// headers with the pages; it is refused with an error naming the version.

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math"
	"slices"

	"skysql/internal/expr"
	"skysql/internal/types"
)

var (
	segMagic   = "SKYSEG2\x00"
	segMagicV1 = "SKYSEG1\x00"
	tailMagic  = "SEGF"
	castagnoli = crc32.MakeTable(crc32.Castagnoli)
)

const (
	headerLen = 16 // magic, rows, cols
	tailLen   = 12 // footer CRC, footer length, tail magic
	// minColumnFooter is the smallest footer record of one column: an
	// empty name, kind, nullable, five 8-byte stats, an empty histogram and
	// the page entry. It bounds the column count a footer can claim.
	minColumnFooter = 1 + 2 + 5*8 + 1 + 1 + 8 + 4
)

// Column encodings. The encoder picks the dense page matching the
// column's single non-null kind; columns mixing kinds fall back to the
// boxed per-value encoding, mirroring the batch decoder's refusal rules
// (a column the dominance kernel would refuse still stores exactly).
const (
	encBoxed = iota // per value: kind tag + payload
	encFloat        // null bitmap + float64 page
	encInt          // null bitmap + int64 page
	encDict         // intern table + uint32 ids (0 = NULL)
	encBool         // null bitmap + value bitmap
)

// pageRef is one column's entry in the footer's page directory. off is
// not stored: pages are back to back after the header, so it is implied
// by the lengths before it.
type pageRef struct {
	enc byte
	off int64
	len int64
	crc uint32
}

// encodeSegment serializes one bounded run of rows plus its footer. The
// writer validates row width against the schema (catalog.NewTable does),
// so short rows only arise from spill buffers and pad with NULLs.
func encodeSegment(rows []types.Row, schema *types.Schema) ([]byte, Footer, error) {
	width := schema.Len()
	if width == 0 && len(rows) > 0 {
		return nil, Footer{}, fmt.Errorf("storage: a segment needs at least one column")
	}
	footer := Footer{Rows: len(rows), Cols: make([]ColumnStats, width), pages: make([]pageRef, width)}
	buf := append([]byte{}, segMagic...)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(rows)))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(width))
	for col := 0; col < width; col++ {
		sc := newStatsCollector(schema.Fields[col])
		enc := chooseEncoding(rows, col)
		payload := encodeColumn(rows, col, enc, sc)
		footer.Cols[col] = sc.finish(rows, col)
		footer.pages[col] = pageRef{enc: byte(enc), off: int64(len(buf)), len: int64(len(payload)),
			crc: crc32.Checksum(payload, castagnoli)}
		buf = append(buf, payload...)
	}
	ft := encodeFooter(&footer)
	sum := crc32.Update(crc32.Checksum(buf[:headerLen], castagnoli), castagnoli, ft)
	buf = append(buf, ft...)
	buf = binary.LittleEndian.AppendUint32(buf, sum)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(ft)))
	buf = append(buf, tailMagic...)
	return buf, footer, nil
}

// chooseEncoding scans the column for its non-null kind set: a single
// kind gets its dense page, anything mixed stays boxed.
func chooseEncoding(rows []types.Row, col int) int {
	kind := types.KindNull
	for _, r := range rows {
		if col >= len(r) || r[col].IsNull() {
			continue
		}
		k := r[col].Kind()
		if kind == types.KindNull {
			kind = k
		} else if kind != k {
			return encBoxed
		}
	}
	switch kind {
	case types.KindFloat:
		return encFloat
	case types.KindInt:
		return encInt
	case types.KindString:
		return encDict
	case types.KindBool:
		return encBool
	}
	return encBoxed
}

func encodeColumn(rows []types.Row, col, enc int, sc *statsCollector) []byte {
	var buf []byte
	switch enc {
	case encFloat, encInt, encBool:
		nulls := make([]byte, (len(rows)+7)/8)
		for i, r := range rows {
			if col >= len(r) || r[col].IsNull() {
				nulls[i/8] |= 1 << (i % 8)
			}
		}
		buf = append(buf, nulls...)
	}
	switch enc {
	case encFloat:
		for _, r := range rows {
			v := valueAt(r, col)
			sc.observe(v)
			var bits uint64
			if !v.IsNull() {
				bits = math.Float64bits(v.AsFloat())
			}
			buf = binary.LittleEndian.AppendUint64(buf, bits)
		}
	case encInt:
		for _, r := range rows {
			v := valueAt(r, col)
			sc.observe(v)
			var n int64
			if !v.IsNull() {
				n = v.AsInt()
			}
			buf = binary.LittleEndian.AppendUint64(buf, uint64(n))
		}
	case encBool:
		vals := make([]byte, (len(rows)+7)/8)
		for i, r := range rows {
			v := valueAt(r, col)
			sc.observe(v)
			if !v.IsNull() && v.AsBool() {
				vals[i/8] |= 1 << (i % 8)
			}
		}
		buf = append(buf, vals...)
	case encDict:
		// Intern table: first-appearance order, id 0 reserved for NULL —
		// the same convention as the batch kernel's DIFF intern tables.
		intern := map[string]uint32{}
		var dict []string
		ids := make([]uint32, len(rows))
		for i, r := range rows {
			v := valueAt(r, col)
			sc.observe(v)
			if v.IsNull() {
				continue
			}
			s := v.AsString()
			id, ok := intern[s]
			if !ok {
				dict = append(dict, s)
				id = uint32(len(dict))
				intern[s] = id
			}
			ids[i] = id
		}
		buf = binary.AppendUvarint(buf, uint64(len(dict)))
		for _, s := range dict {
			buf = binary.AppendUvarint(buf, uint64(len(s)))
			buf = append(buf, s...)
		}
		for _, id := range ids {
			buf = binary.LittleEndian.AppendUint32(buf, id)
		}
	default: // encBoxed
		for _, r := range rows {
			v := valueAt(r, col)
			sc.observe(v)
			buf = append(buf, byte(v.Kind()))
			switch v.Kind() {
			case types.KindInt:
				buf = binary.LittleEndian.AppendUint64(buf, uint64(v.AsInt()))
			case types.KindFloat:
				buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(v.AsFloat()))
			case types.KindString:
				s := v.AsString()
				buf = binary.AppendUvarint(buf, uint64(len(s)))
				buf = append(buf, s...)
			case types.KindBool:
				if v.AsBool() {
					buf = append(buf, 1)
				} else {
					buf = append(buf, 0)
				}
			}
		}
	}
	return buf
}

func valueAt(r types.Row, col int) types.Value {
	if col >= len(r) {
		return types.Null
	}
	return r[col]
}

// page is one verified column page, parsed just far enough that any row
// can be read from it by index: the dense encodings are read in place,
// dictionaries are split into their strings and id array, and a boxed page
// — variable-width, so not indexable — is decoded once, whole.
type page struct {
	enc   byte
	rows  int
	p     []byte        // dense encodings: null bitmap, then the values
	dict  []string      // encDict: id-1 → string
	boxed []types.Value // encBoxed: every value of the column
}

// parsePage validates a checksum-verified page against the row count
// before anything proportional to that count is allocated: dense pages
// must have exactly the size the count implies, a dictionary may not
// claim more entries than it has bytes and every id must name one, and a
// boxed page needs at least one byte per value.
func parsePage(enc byte, p []byte, rows int) (*page, error) {
	pg := &page{enc: enc, rows: rows, p: p}
	nb := (rows + 7) / 8
	switch enc {
	case encFloat, encInt:
		if len(p) != nb+rows*8 {
			return nil, errCorrupt("numeric page size %d for %d rows", len(p), rows)
		}
	case encBool:
		if len(p) != 2*nb {
			return nil, errCorrupt("bool page size %d for %d rows", len(p), rows)
		}
	case encDict:
		dictLen, n := binary.Uvarint(p)
		if n <= 0 || dictLen > uint64(len(p)-n) {
			return nil, errCorrupt("dict length")
		}
		p = p[n:]
		pg.dict = make([]string, dictLen)
		for d := range pg.dict {
			sl, n := binary.Uvarint(p)
			if n <= 0 || sl > uint64(len(p)-n) {
				return nil, errCorrupt("dict entry")
			}
			pg.dict[d] = string(p[n : n+int(sl)])
			p = p[n+int(sl):]
		}
		if len(p) != rows*4 {
			return nil, errCorrupt("dict id page size %d for %d rows", len(p), rows)
		}
		for i := 0; i < rows; i++ {
			if id := binary.LittleEndian.Uint32(p[i*4:]); uint64(id) > dictLen {
				return nil, errCorrupt("dict id %d out of range (%d entries)", id, dictLen)
			}
		}
		pg.p = p
	case encBoxed:
		if rows > len(p) {
			return nil, errCorrupt("boxed page of %d bytes for %d rows", len(p), rows)
		}
		vals, err := decodeBoxed(p, rows)
		if err != nil {
			return nil, err
		}
		pg.boxed = vals
	default:
		return nil, errCorrupt("unknown encoding %d", enc)
	}
	return pg, nil
}

func decodeBoxed(p []byte, rows int) ([]types.Value, error) {
	out := make([]types.Value, rows)
	for i := range out {
		if len(p) < 1 {
			return nil, errCorrupt("boxed value truncated")
		}
		kind := types.Kind(p[0])
		p = p[1:]
		switch kind {
		case types.KindNull:
		case types.KindInt:
			if len(p) < 8 {
				return nil, errCorrupt("boxed int truncated")
			}
			out[i] = types.Int(int64(binary.LittleEndian.Uint64(p)))
			p = p[8:]
		case types.KindFloat:
			if len(p) < 8 {
				return nil, errCorrupt("boxed float truncated")
			}
			out[i] = types.Float(math.Float64frombits(binary.LittleEndian.Uint64(p)))
			p = p[8:]
		case types.KindString:
			sl, n := binary.Uvarint(p)
			if n <= 0 || sl > uint64(len(p)-n) {
				return nil, errCorrupt("boxed string truncated")
			}
			out[i] = types.Str(string(p[n : n+int(sl)]))
			p = p[n+int(sl):]
		case types.KindBool:
			if len(p) < 1 {
				return nil, errCorrupt("boxed bool truncated")
			}
			out[i] = types.Bool(p[0] != 0)
			p = p[1:]
		default:
			return nil, errCorrupt("unknown boxed kind %d", kind)
		}
	}
	if len(p) != 0 {
		return nil, errCorrupt("boxed page has %d trailing bytes", len(p))
	}
	return out, nil
}

// isNull reads row i's bit of a dense page's null bitmap.
func (pg *page) isNull(i int) bool { return pg.p[i>>3]&(1<<(i&7)) != 0 }

// bits reads row i's 8-byte value of a float or int page.
func (pg *page) bits(i int) uint64 {
	return binary.LittleEndian.Uint64(pg.p[(pg.rows+7)/8+i*8:])
}

// box writes the values of the selected rows into column col of a
// row-major backing array of the given width.
func (pg *page) box(sel Sel, backing []types.Value, col, width int) {
	for k, n := 0, sel.Len(); k < n; k++ {
		backing[k*width+col] = pg.value(sel.Row(k))
	}
}

// value reads row i's value.
func (pg *page) value(i int) types.Value {
	switch pg.enc {
	case encFloat:
		if !pg.isNull(i) {
			return types.Float(math.Float64frombits(pg.bits(i)))
		}
	case encInt:
		if !pg.isNull(i) {
			return types.Int(int64(pg.bits(i)))
		}
	case encBool:
		if !pg.isNull(i) {
			return types.Bool(pg.p[(pg.rows+7)/8+i/8]&(1<<(i%8)) != 0)
		}
	case encDict:
		if id := binary.LittleEndian.Uint32(pg.p[i*4:]); id != 0 {
			return types.Str(pg.dict[id-1])
		}
	default: // encBoxed
		return pg.boxed[i]
	}
	return types.Null
}

// numeric reads the selected rows as float64 under the vectorized
// engine's exactness rules: ok=false when the page holds strings or bools
// at those rows, or an integer beyond ±2⁵³ (where the boxed int-int
// comparison is finer than float64). NaN is returned as is. nulls is nil
// when no selected row is NULL.
func (pg *page) numeric(sel Sel) (vals []float64, nulls []bool, ok bool) {
	n := sel.Len()
	vals = make([]float64, n)
	pos, ok := pg.gather(sel, vals, 1, false)
	if !ok {
		return nil, nil, false
	}
	if pos != nil {
		nulls = make([]bool, n)
		for _, k := range pos {
			nulls[k] = true
		}
	}
	return vals, nulls, true
}

// cmpMask is a comparison with a non-NaN constant c as the outcomes it
// accepts, 1 for accepted: x < c, x == c, x > c, and x NaN (which sorts
// below c but fails every comparison the hardware does).
type cmpMask struct{ lt, eq, gt, nan int }

func newCmpMask(op expr.BinaryOp) cmpMask {
	switch op {
	case expr.OpEq:
		return cmpMask{eq: 1}
	case expr.OpNeq:
		return cmpMask{lt: 1, gt: 1, nan: 1}
	case expr.OpLt:
		return cmpMask{lt: 1, nan: 1}
	case expr.OpLeq:
		return cmpMask{lt: 1, eq: 1, nan: 1}
	case expr.OpGt:
		return cmpMask{gt: 1}
	case expr.OpGeq:
		return cmpMask{gt: 1, eq: 1}
	}
	return cmpMask{}
}

// holds is 1 when x satisfies the comparison, 0 otherwise. It is written
// without branches: on filter columns the outcome is close to a coin flip,
// and a mispredicted branch per row costs more than the whole test.
func (m cmpMask) holds(x, c float64) int {
	return m.lt&b2i(x < c) | m.eq&b2i(x == c) | m.gt&b2i(x > c) | m.nan&b2i(x != x)
}

func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

// filter appends to out the offsets from sel.Lo of the selected rows whose
// non-NULL value satisfies m against c, under numeric's exactness rules:
// ok=false when the page holds strings or bools at those rows, or an
// integer beyond ±2⁵³. out may alias sel.Idx: the k-th offset is read
// before anything at or past position k is written.
func (pg *page) filter(m cmpMask, c float64, sel Sel, out []int) ([]int, bool) {
	n := sel.Len()
	at := len(out)
	out = slices.Grow(out, n)[:at+n]
	switch pg.enc {
	case encFloat, encInt:
		nb := (pg.rows + 7) / 8
		nulls, vals := pg.p[:nb], pg.p[nb:]
		isInt := pg.enc == encInt
		lo, idx := sel.Lo, sel.Idx
		for k := 0; k < n; k++ {
			i := lo + k
			if idx != nil {
				i = lo + idx[k]
			}
			bits := binary.LittleEndian.Uint64(vals[i*8:])
			x := math.Float64frombits(bits)
			if isInt {
				iv := int64(bits)
				if iv > types.MaxExactFloatInt || iv < -types.MaxExactFloatInt {
					return nil, false
				}
				x = float64(iv)
			}
			out[at] = i - lo
			at += m.holds(x, c) &^ int(nulls[i>>3]>>(i&7)&1)
		}
	case encBoxed:
		for k := 0; k < n; k++ {
			i := sel.Row(k)
			x, null, ok := boxedNumber(pg.boxed[i])
			if !ok {
				return nil, false
			}
			out[at] = i - sel.Lo
			at += m.holds(x, c) &^ b2i(null)
		}
	default:
		return nil, false
	}
	return out[:at], true
}

// gather writes the selected rows' values, negated when negate is set,
// to dst[k*stride], and returns the positions k of the NULL rows instead,
// under numeric's exactness rules.
func (pg *page) gather(sel Sel, dst []float64, stride int, negate bool) (nulls []int, ok bool) {
	n := sel.Len()
	sign := 1.0
	if negate {
		sign = -1
	}
	switch pg.enc {
	case encFloat, encInt:
		nb := (pg.rows + 7) / 8
		nullBits, vals := pg.p[:nb], pg.p[nb:]
		isInt := pg.enc == encInt
		lo, idx := sel.Lo, sel.Idx
		for k := 0; k < n; k++ {
			i := lo + k
			if idx != nil {
				i = lo + idx[k]
			}
			if nullBits[i>>3]&(1<<(i&7)) != 0 {
				nulls = append(nulls, k)
				continue
			}
			bits := binary.LittleEndian.Uint64(vals[i*8:])
			x := math.Float64frombits(bits)
			if isInt {
				iv := int64(bits)
				if iv > types.MaxExactFloatInt || iv < -types.MaxExactFloatInt {
					return nil, false
				}
				x = float64(iv)
			}
			dst[k*stride] = sign * x
		}
	case encBoxed:
		for k := 0; k < n; k++ {
			x, isNull, ok := boxedNumber(pg.boxed[sel.Row(k)])
			switch {
			case !ok:
				return nil, false
			case isNull:
				nulls = append(nulls, k)
			default:
				dst[k*stride] = sign * x
			}
		}
	default:
		return nil, false
	}
	return nulls, true
}

// boxedNumber reads a boxed page value as numeric does: ok=false for a
// string, a bool or an integer beyond ±2⁵³.
func boxedNumber(v types.Value) (x float64, null, ok bool) {
	switch v.Kind() {
	case types.KindNull:
		return 0, true, true
	case types.KindFloat:
		return v.AsFloat(), false, true
	case types.KindInt:
		iv := v.AsInt()
		return float64(iv), false, iv <= types.MaxExactFloatInt && iv >= -types.MaxExactFloatInt
	}
	return 0, false, false
}

// encodeFooter serializes the footer with the same binary primitives as
// the pages (JSON cannot carry ±Inf min/max exactly).
func encodeFooter(f *Footer) []byte {
	var buf []byte
	buf = binary.LittleEndian.AppendUint32(buf, uint32(f.Rows))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(f.Cols)))
	for i := range f.Cols {
		c := &f.Cols[i]
		buf = binary.AppendUvarint(buf, uint64(len(c.Name)))
		buf = append(buf, c.Name...)
		buf = append(buf, byte(c.Kind))
		if c.Nullable {
			buf = append(buf, 1)
		} else {
			buf = append(buf, 0)
		}
		buf = binary.LittleEndian.AppendUint64(buf, uint64(c.NullCount))
		buf = binary.LittleEndian.AppendUint64(buf, uint64(c.NaNCount))
		buf = binary.LittleEndian.AppendUint64(buf, uint64(c.NonNumeric))
		buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(c.Min))
		buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(c.Max))
		buf = append(buf, byte(len(c.Hist)))
		for _, n := range c.Hist {
			buf = binary.LittleEndian.AppendUint64(buf, uint64(n))
		}
		pr := &f.pages[i]
		buf = append(buf, pr.enc)
		buf = binary.LittleEndian.AppendUint64(buf, uint64(pr.len))
		buf = binary.LittleEndian.AppendUint32(buf, pr.crc)
	}
	return buf
}

// decodeFooter parses a footer payload. Page offsets are left for
// parseSegmentFooter, which knows where the pages start.
func decodeFooter(p []byte) (Footer, error) {
	var f Footer
	if len(p) < 8 {
		return f, errCorrupt("footer truncated")
	}
	f.Rows = int(binary.LittleEndian.Uint32(p))
	cols := int(binary.LittleEndian.Uint32(p[4:]))
	p = p[8:]
	if cols > len(p)/minColumnFooter {
		return f, errCorrupt("footer claims %d columns in %d bytes", cols, len(p))
	}
	f.Cols = make([]ColumnStats, cols)
	f.pages = make([]pageRef, cols)
	for i := range f.Cols {
		c := &f.Cols[i]
		nl, n := binary.Uvarint(p)
		if n <= 0 || nl > uint64(len(p)-n) {
			return f, errCorrupt("footer column name")
		}
		c.Name = string(p[n : n+int(nl)])
		p = p[n+int(nl):]
		if len(p) < 2+5*8+1 {
			return f, errCorrupt("footer column stats")
		}
		c.Kind = types.Kind(p[0])
		c.Nullable = p[1] != 0
		c.NullCount = int64(binary.LittleEndian.Uint64(p[2:]))
		c.NaNCount = int64(binary.LittleEndian.Uint64(p[10:]))
		c.NonNumeric = int64(binary.LittleEndian.Uint64(p[18:]))
		c.Min = math.Float64frombits(binary.LittleEndian.Uint64(p[26:]))
		c.Max = math.Float64frombits(binary.LittleEndian.Uint64(p[34:]))
		hl := int(p[42])
		p = p[43:]
		if len(p) < hl*8+13 {
			return f, errCorrupt("footer histogram or page entry")
		}
		if hl > 0 {
			c.Hist = make([]int64, hl)
			for b := range c.Hist {
				c.Hist[b] = int64(binary.LittleEndian.Uint64(p[b*8:]))
			}
			p = p[hl*8:]
		}
		plen := binary.LittleEndian.Uint64(p[1:])
		if plen > math.MaxInt32 {
			return f, errCorrupt("page length %d", plen)
		}
		f.pages[i] = pageRef{enc: p[0], len: int64(plen), crc: binary.LittleEndian.Uint32(p[9:])}
		p = p[13:]
	}
	if len(p) != 0 {
		return f, errCorrupt("footer has %d trailing bytes", len(p))
	}
	return f, nil
}

// parseSegmentFooter checks a segment's header and footer against each
// other and against the footer checksum, and lays the page directory
// over the pageBytes bytes between them. Nothing proportional to a count
// the bytes claim is allocated before that count is bounded by the bytes
// that are actually there.
func parseSegmentFooter(head, foot []byte, sum uint32, pageBytes int64) (Footer, error) {
	if err := checkMagic(head); err != nil {
		return Footer{}, err
	}
	if crc32.Update(crc32.Checksum(head, castagnoli), castagnoli, foot) != sum {
		return Footer{}, errCorrupt("footer checksum mismatch")
	}
	f, err := decodeFooter(foot)
	if err != nil {
		return Footer{}, err
	}
	rows := int(binary.LittleEndian.Uint32(head[8:]))
	cols := int(binary.LittleEndian.Uint32(head[12:]))
	if rows != f.Rows || cols != len(f.Cols) {
		return Footer{}, errCorrupt("header says %d rows × %d columns, footer %d × %d", rows, cols, f.Rows, len(f.Cols))
	}
	if cols == 0 && rows > 0 {
		return Footer{}, errCorrupt("%d rows in no columns", rows)
	}
	off := int64(headerLen)
	for i := range f.pages {
		pr := &f.pages[i]
		if pr.len > headerLen+pageBytes-off {
			return Footer{}, errCorrupt("page directory overruns the page region")
		}
		pr.off = off
		off += pr.len
		if min := minPageLen(pr.enc, rows); pr.len < min {
			return Footer{}, errCorrupt("column %d page of %d bytes cannot hold %d rows", i, pr.len, rows)
		}
	}
	if off != headerLen+pageBytes {
		return Footer{}, errCorrupt("page directory covers %d of %d page bytes", off-headerLen, pageBytes)
	}
	return f, nil
}

// minPageLen is the fewest bytes a page of the encoding needs for rows
// rows. Checking it at open bounds the row count by the file size, so no
// later allocation sized by rows can outgrow the bytes behind it.
func minPageLen(enc byte, rows int) int64 {
	r := int64(rows)
	switch enc {
	case encFloat, encInt:
		return (r+7)/8 + 8*r
	case encBool:
		return 2 * ((r + 7) / 8)
	case encDict:
		return 1 + 4*r
	}
	return r
}

func checkMagic(head []byte) error {
	switch string(head[:len(segMagic)]) {
	case segMagic:
		return nil
	case segMagicV1:
		return fmt.Errorf("storage: segment format v1 is not readable: this version reads v2 (per-page checksums); rewrite the segments (datagen -segments)")
	}
	return errCorrupt("bad magic")
}

// footerOf extracts and verifies the footer of a whole serialized
// segment, using the tail.
func footerOf(data []byte) (Footer, error) {
	if len(data) >= len(segMagic) {
		if err := checkMagic(data); err != nil {
			return Footer{}, err
		}
	}
	if len(data) < headerLen+tailLen {
		return Footer{}, errCorrupt("%d bytes is too short for a segment", len(data))
	}
	end := len(data) - tailLen
	if string(data[len(data)-4:]) != tailMagic {
		return Footer{}, errCorrupt("bad tail magic")
	}
	flen := int(binary.LittleEndian.Uint32(data[end+4:]))
	if flen > end-headerLen {
		return Footer{}, errCorrupt("footer length out of range")
	}
	sum := binary.LittleEndian.Uint32(data[end:])
	return parseSegmentFooter(data[:headerLen], data[end-flen:end], sum, int64(end-flen-headerLen))
}
