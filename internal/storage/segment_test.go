package storage

import (
	"encoding/binary"
	"hash/crc32"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"skysql/internal/types"
)

// wideSchema covers every page encoding: dense int and float pages (with
// NULL, NaN, ±Inf and -0), a dictionary, a bool bitmap, an int page
// holding a value beyond 2⁵³, and a boxed page mixing kinds.
func wideSchema() *types.Schema {
	return types.NewSchema(
		types.Field{Name: "id", Type: types.KindInt},
		types.Field{Name: "f", Type: types.KindFloat, Nullable: true},
		types.Field{Name: "s", Type: types.KindString, Nullable: true},
		types.Field{Name: "b", Type: types.KindBool, Nullable: true},
		types.Field{Name: "big", Type: types.KindInt},
		types.Field{Name: "m", Type: types.KindNull, Nullable: true},
	)
}

func wideRows(n int) []types.Row {
	floats := []types.Value{types.Float(0.25), types.Null, types.Float(math.NaN()),
		types.Float(math.Inf(1)), types.Float(math.Inf(-1)), types.Float(math.Copysign(0, -1))}
	strs := []types.Value{types.Str("a"), types.Str("skyline"), types.Null, types.Str("")}
	mixed := []types.Value{types.Int(7), types.Float(1.5), types.Str("x"), types.Null, types.Bool(true)}
	rows := make([]types.Row, n)
	for i := range rows {
		b := types.Value(types.Bool(i%3 == 0))
		if i%5 == 4 {
			b = types.Null
		}
		rows[i] = types.Row{
			types.Int(int64(i)),
			floats[i%len(floats)],
			strs[i%len(strs)],
			b,
			types.Int(types.MaxExactFloatInt + int64(i)),
			mixed[i%len(mixed)],
		}
	}
	return rows
}

func wideSegment(t testing.TB, n int) []byte {
	t.Helper()
	data, _, err := encodeSegment(wideRows(n), wideSchema())
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// oomHeader is 16 bytes of a v1 header claiming 2³²-1 rows of 65535
// columns. The v1 decoder allocated rows×cols values from it before
// validating anything: fatal error: runtime: out of memory.
var oomHeader = []byte("SKYSEG1\x00\xff\xff\xff\xff\xff\xff\x00\x00")

// TestCorruptSegmentCountsFailWithoutAllocating is the regression test
// for a segment whose header or footer claims counts its bytes cannot
// hold: it must be an error, decided before anything sized by those
// counts is allocated — whatever the magic says and wherever the file
// comes from.
func TestCorruptSegmentCountsFailWithoutAllocating(t *testing.T) {
	v2 := append([]byte(segMagic), oomHeader[8:]...)
	// A v2 segment whose footer claims 2³²-1 columns in a few bytes.
	hugeFooter := binary.LittleEndian.AppendUint32(nil, 1)
	hugeFooter = binary.LittleEndian.AppendUint32(hugeFooter, math.MaxUint32)
	withFooter := append([]byte(segMagic), 1, 0, 0, 0, 1, 0, 0, 0)
	withFooter = append(withFooter, hugeFooter...)
	sum := crc32.Update(crc32.Checksum(withFooter[:headerLen], castagnoli), castagnoli, hugeFooter)
	withFooter = binary.LittleEndian.AppendUint32(withFooter, sum)
	withFooter = binary.LittleEndian.AppendUint32(withFooter, uint32(len(hugeFooter)))
	withFooter = append(withFooter, tailMagic...)

	dir := t.TempDir()
	for name, in := range map[string][]byte{"v1": oomHeader, "v2": v2, "footer": withFooter} {
		var err error
		alloc := allocated(func() { _, err = (&Segment{data: in}).Decode() })
		if err == nil {
			t.Errorf("%s: Decode accepted %q", name, in)
		}
		if alloc > 1<<20 {
			t.Errorf("%s: Decode allocated %d bytes for a %d-byte input", name, alloc, len(in))
		}
		path := filepath.Join(dir, name+".seg")
		if err := os.WriteFile(path, in, 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := OpenDir(dir); err == nil {
			t.Errorf("%s: OpenDir accepted %q", name, in)
		}
		os.Remove(path)
	}
}

// allocated returns the bytes f allocates on the heap.
func allocated(f func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// TestSegmentEveryFlippedBitIsAnError flips every bit of a small segment,
// one at a time: each damaged copy must fail to open or to decode — a
// checksum or a structure check — and never come back as different rows.
func TestSegmentEveryFlippedBitIsAnError(t *testing.T) {
	data := wideSegment(t, 13)
	if _, err := (&Segment{data: data}).Decode(); err != nil {
		t.Fatalf("pristine segment: %v", err)
	}
	bad := make([]byte, len(data))
	for i := range data {
		for bit := 0; bit < 8; bit++ {
			copy(bad, data)
			bad[i] ^= 1 << bit
			if rows, err := (&Segment{data: bad}).Decode(); err == nil {
				t.Fatalf("byte %d bit %d flipped: decoded %d rows without an error", i, bit, len(rows))
			}
		}
	}
}

// TestSegmentProjectedReadVerifiesItsPages: a scan reads pages through a
// Reader opened with the footer it trusts. A damaged page fails the read
// of its own column and only of its column — pages a query does not read
// are not read, so not verified.
func TestSegmentProjectedReadVerifiesItsPages(t *testing.T) {
	data := wideSegment(t, 40)
	footer, err := footerOf(data)
	if err != nil {
		t.Fatal(err)
	}
	for col, pr := range footer.pages {
		bad := append([]byte(nil), data...)
		bad[pr.off+pr.len/2] ^= 0x10
		r := (&Segment{Footer: footer, data: bad}).NewReader(nil)
		for other := range footer.pages {
			_, _, _, err := r.Numeric(other, Sel{Hi: footer.Rows})
			if other == col && (err == nil || !strings.Contains(err.Error(), "checksum")) {
				t.Errorf("column %d damaged: read returned %v, want a checksum error", col, err)
			}
			if other != col && err != nil {
				t.Errorf("column %d damaged: read of column %d failed: %v", col, other, err)
			}
		}
		if _, err := r.Box(Sel{Lo: 3, Idx: []int{0, 5}}); err == nil {
			t.Errorf("column %d damaged: boxing rows read it without an error", col)
		}
		r.Close()
	}
}

// TestSegmentReaderServesColumnsAndRows: the reader's outputs agree with
// the rows the segment was written from — dense columns where the page
// can serve them exactly, refusals where it cannot, and boxed rows by
// row number, bit for bit.
func TestSegmentReaderServesColumnsAndRows(t *testing.T) {
	rows := wideRows(29)
	store, err := FromRows(rows, wideSchema(), t.TempDir(), "t", 100)
	if err != nil {
		t.Fatal(err)
	}
	var held int64
	r := store.Segments()[0].NewReader(func(d int64) { held += d })
	sel := Sel{Lo: 2, Hi: 29, Idx: []int{0, 3, 4, 9, 26}}

	got, err := r.Box(sel)
	if err != nil {
		t.Fatal(err)
	}
	want := make([]types.Row, sel.Len())
	for k := range want {
		want[k] = rows[sel.Row(k)]
	}
	if err := sameRows(want, got); err != nil {
		t.Fatal(err)
	}
	for col, served := range []bool{true, true, false, false, false, false} {
		vals, nulls, ok, err := r.Numeric(col, sel)
		if err != nil {
			t.Fatal(err)
		}
		if ok != served {
			t.Fatalf("column %d: Numeric ok=%v, want %v", col, ok, served)
		}
		for k := 0; ok && k < sel.Len(); k++ {
			v := rows[sel.Row(k)][col]
			isNull := nulls != nil && nulls[k]
			if v.IsNull() != isNull {
				t.Fatalf("column %d row %d: null %v, want %v", col, sel.Row(k), isNull, v.IsNull())
			}
			if f, _ := v.OrderKey(); !v.IsNull() && v.Kind() == types.KindInt && vals[k] != f {
				t.Fatalf("column %d row %d: %v, want %v", col, sel.Row(k), vals[k], f)
			}
			if !v.IsNull() && v.Kind() == types.KindFloat && math.Float64bits(vals[k]) != math.Float64bits(v.AsFloat()) {
				t.Fatalf("column %d row %d: %v, want %v", col, sel.Row(k), vals[k], v.AsFloat())
			}
		}
	}
	if held <= 0 {
		t.Fatalf("a file-backed reader charged %d bytes for the pages it read", held)
	}
	r.Close()
	if held != 0 {
		t.Fatalf("Close left %d bytes charged", held)
	}
}

// v1Segment is a one-row, one-column segment in the checksum-less v1
// layout: page headers inline, no page directory.
func v1Segment() []byte {
	buf := []byte(segMagicV1)
	buf = binary.LittleEndian.AppendUint32(buf, 1)
	buf = binary.LittleEndian.AppendUint32(buf, 1)
	page := binary.LittleEndian.AppendUint64([]byte{0}, math.Float64bits(1.5))
	buf = append(buf, encFloat)
	buf = binary.LittleEndian.AppendUint64(buf, uint64(len(page)))
	buf = append(buf, page...)
	foot := binary.LittleEndian.AppendUint32(nil, 1)
	foot = binary.LittleEndian.AppendUint32(foot, 1)
	foot = append(foot, 1, 'a', byte(types.KindFloat), 0)
	for _, v := range []uint64{0, 0, 0, math.Float64bits(1.5), math.Float64bits(1.5)} {
		foot = binary.LittleEndian.AppendUint64(foot, v)
	}
	foot = append(foot, 0)
	buf = append(buf, foot...)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(foot)))
	return append(buf, tailMagic...)
}

// TestV1SegmentRefusedByVersion: a segment written by the v1 format is
// refused by name, both when a directory is opened and when one is
// decoded, instead of reading as corrupt or, worse, as rows.
func TestV1SegmentRefusedByVersion(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "t-00000.seg"), v1Segment(), 0o644); err != nil {
		t.Fatal(err)
	}
	_, openErr := OpenDir(dir)
	_, decodeErr := (&Segment{data: v1Segment()}).Decode()
	for _, err := range []error{openErr, decodeErr} {
		if err == nil || !strings.Contains(err.Error(), "v1") {
			t.Errorf("v1 segment: error %v, want one naming format v1", err)
		}
	}
}

// reseal recomputes every checksum of data where its structure allows, so
// the fuzzer's mutations reach the structure checks behind them.
func reseal(data []byte) []byte {
	out := append([]byte(nil), data...)
	if len(out) < headerLen+tailLen {
		return out
	}
	end := len(out) - tailLen
	flen := int(binary.LittleEndian.Uint32(out[end+4:]))
	if flen > end-headerLen {
		return out
	}
	foot := out[end-flen : end]
	if f, err := decodeFooter(foot); err == nil {
		off := int64(headerLen)
		for i := range f.pages {
			pr := &f.pages[i]
			if off+pr.len <= int64(end-flen) {
				pr.crc = crc32.Checksum(out[off:off+pr.len], castagnoli)
			}
			off += pr.len
		}
		foot = encodeFooter(&f)
	}
	sealed := append(append([]byte(nil), out[:end-flen]...), foot...)
	sum := crc32.Update(crc32.Checksum(sealed[:headerLen], castagnoli), castagnoli, foot)
	sealed = binary.LittleEndian.AppendUint32(sealed, sum)
	sealed = binary.LittleEndian.AppendUint32(sealed, uint32(len(foot)))
	return append(sealed, tailMagic...)
}

// readAll sends data through every read path a segment has: footer parse,
// projected column reads and boxing by row number through a Reader, and
// Segment.Decode. It returns the decoded rows, or nil on any error.
func readAll(t *testing.T, data []byte) []types.Row {
	footer, err := footerOf(data)
	if err != nil {
		return nil
	}
	r := (&Segment{Footer: footer, data: data}).NewReader(nil)
	defer r.Close()
	all := Sel{Hi: footer.Rows}
	for col := range footer.Cols {
		if vals, _, ok, err := r.Numeric(col, all); err == nil && ok && len(vals) != footer.Rows {
			t.Fatalf("column %d: %d values for %d rows", col, len(vals), footer.Rows)
		}
	}
	if footer.Rows > 0 {
		r.Box(Sel{Lo: footer.Rows / 2, Idx: []int{0}})
	}
	rows, err := (&Segment{data: data}).Decode()
	if err != nil {
		return nil
	}
	if len(rows) != footer.Rows {
		t.Fatalf("decoded %d rows, footer says %d", len(rows), footer.Rows)
	}
	for _, row := range rows {
		if len(row) != len(footer.Cols) {
			t.Fatalf("decoded a %d-wide row from a %d-column segment", len(row), len(footer.Cols))
		}
	}
	return rows
}

// FuzzSegmentOpen sends arbitrary bytes — as given, and resealed so the
// checksums hold — through every read path of a segment. Each must return
// an error or rows, never panic, and allocate at most 64× its input plus
// the rows it returns: a count in the bytes is never trusted further than
// the bytes behind it. The committed corpus (testdata/fuzz) holds the v1
// out-of-memory header, a truncated page, a dictionary id out of range, a
// v1 segment and a valid segment of every encoding.
func FuzzSegmentOpen(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, in := range [][]byte{data, reseal(data)} {
			var rows []types.Row
			alloc := allocated(func() { rows = readAll(t, in) })
			limit := uint64(64*len(in)) + 1<<20
			for _, row := range rows {
				limit += uint64(row.MemSize())
			}
			if alloc > limit {
				t.Fatalf("reading %d bytes allocated %d (limit %d)", len(in), alloc, limit)
			}
		}
	})
}
