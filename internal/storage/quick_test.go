package storage

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"skysql/internal/types"
)

// segmentCase is a quick.Generator producing random segment payloads:
// varying row counts, column mixes that hit every encoding (dense float
// and int pages, dictionaries, bool bitmaps, and the boxed fallback for
// mixed-kind columns), NULL sprinkles, and adversarial numerics — NaN,
// ±Inf, -0, and integers at the ±2⁵³ exactness boundary.
type segmentCase struct {
	schema *types.Schema
	rows   []types.Row
}

// Generate implements quick.Generator.
func (segmentCase) Generate(rng *rand.Rand, size int) reflect.Value {
	nCols := 1 + rng.Intn(4)
	nRows := rng.Intn(50)
	fields := make([]types.Field, nCols)
	kinds := make([]int, nCols)
	for c := range fields {
		kinds[c] = rng.Intn(5) // 0 int, 1 float, 2 string, 3 bool, 4 mixed
		kind := types.KindInt
		switch kinds[c] {
		case 1:
			kind = types.KindFloat
		case 2:
			kind = types.KindString
		case 3:
			kind = types.KindBool
		}
		fields[c] = types.Field{Name: fmt.Sprintf("c%d", c), Type: kind, Nullable: true}
	}
	rows := make([]types.Row, nRows)
	for i := range rows {
		row := make(types.Row, nCols)
		for c := range row {
			if rng.Float64() < 0.15 {
				row[c] = types.Null
				continue
			}
			k := kinds[c]
			if k == 4 {
				k = rng.Intn(4) // mixed column: any kind per value
			}
			switch k {
			case 0:
				switch rng.Intn(4) {
				case 0:
					row[c] = types.Int(int64(rng.Intn(100)))
				case 1:
					row[c] = types.Int(types.MaxExactFloatInt + int64(rng.Intn(3)))
				case 2:
					row[c] = types.Int(-types.MaxExactFloatInt - int64(rng.Intn(3)))
				default:
					row[c] = types.Int(rng.Int63() - rng.Int63())
				}
			case 1:
				switch rng.Intn(5) {
				case 0:
					row[c] = types.Float(math.NaN())
				case 1:
					row[c] = types.Float(math.Inf(1))
				case 2:
					row[c] = types.Float(math.Inf(-1))
				case 3:
					row[c] = types.Float(math.Copysign(0, -1))
				default:
					row[c] = types.Float(rng.NormFloat64())
				}
			case 2:
				// Small alphabet so dictionaries repeat ids; occasional long
				// or empty strings stress the varint paths.
				words := []string{"", "a", "b", "skyline", "ανti", "x\x00y"}
				row[c] = types.Str(words[rng.Intn(len(words))])
			case 3:
				row[c] = types.Bool(rng.Intn(2) == 0)
			}
		}
		rows[i] = row
	}
	return reflect.ValueOf(segmentCase{schema: types.NewSchema(fields...), rows: rows})
}

// sameValue compares values bit-exactly: floats by their IEEE bit
// pattern (so NaN == NaN and -0 != +0), everything else by kind and
// payload.
func sameValue(a, b types.Value) bool {
	if a.Kind() != b.Kind() {
		return false
	}
	switch a.Kind() {
	case types.KindNull:
		return true
	case types.KindInt:
		return a.AsInt() == b.AsInt()
	case types.KindFloat:
		return math.Float64bits(a.AsFloat()) == math.Float64bits(b.AsFloat())
	case types.KindString:
		return a.AsString() == b.AsString()
	case types.KindBool:
		return a.AsBool() == b.AsBool()
	}
	return false
}

func sameRows(a, b []types.Row) error {
	if len(a) != len(b) {
		return fmt.Errorf("row count %d != %d", len(a), len(b))
	}
	for i := range a {
		if len(a[i]) != len(b[i]) {
			return fmt.Errorf("row %d width %d != %d", i, len(a[i]), len(b[i]))
		}
		for c := range a[i] {
			if !sameValue(a[i][c], b[i][c]) {
				return fmt.Errorf("row %d col %d: %v != %v", i, c, a[i][c], b[i][c])
			}
		}
	}
	return nil
}

// TestQuickSegmentRoundTrip: encode → decode must reproduce every value
// bit-exactly, whatever mix of kinds, NULLs, and adversarial numerics the
// generator draws.
func TestQuickSegmentRoundTrip(t *testing.T) {
	f := func(sc segmentCase) bool {
		data, footer, err := encodeSegment(sc.rows, sc.schema)
		if err != nil {
			t.Logf("encode: %v", err)
			return false
		}
		if footer.Rows != len(sc.rows) {
			t.Logf("footer rows %d != %d", footer.Rows, len(sc.rows))
			return false
		}
		got, err := (&Segment{data: data}).Decode()
		if err != nil {
			t.Logf("decode: %v", err)
			return false
		}
		if err := sameRows(sc.rows, got); err != nil {
			t.Log(err)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// TestQuickFooterRoundTrip: the binary footer must survive its own
// round-trip — including ±Inf min/max on empty or all-NULL columns and
// the histogram payload — and footerOf must read it back from the tail
// without touching the column pages.
func TestQuickFooterRoundTrip(t *testing.T) {
	f := func(sc segmentCase) bool {
		data, footer, err := encodeSegment(sc.rows, sc.schema)
		if err != nil {
			t.Logf("encode: %v", err)
			return false
		}
		tail, err := footerOf(data)
		if err != nil {
			t.Logf("footerOf: %v", err)
			return false
		}
		if !reflect.DeepEqual(footer, tail) {
			t.Logf("footer mismatch:\nencoded %+v\ndecoded %+v", footer, tail)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// TestQuickStoreRoundTrip: the same property through the public Writer /
// Store path with small segment sizes, so rows cross segment boundaries —
// in memory and on disk (footers re-read via OpenDir).
func TestQuickStoreRoundTrip(t *testing.T) {
	f := func(sc segmentCase) bool {
		store, err := FromRows(sc.rows, sc.schema, "", "t", 7)
		if err != nil {
			t.Logf("FromRows: %v", err)
			return false
		}
		if store.Rows() != len(sc.rows) {
			t.Logf("store rows %d != %d", store.Rows(), len(sc.rows))
			return false
		}
		got, err := store.Decode()
		if err != nil {
			t.Logf("decode: %v", err)
			return false
		}
		if err := sameRows(sc.rows, got); err != nil {
			t.Log(err)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Error(err)
	}
}
