package types

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"math"
	"testing"
)

// box is the reflected twin of a row: what skysqld handed encoding/json
// before AppendRowsJSON existed, and what benchmark/verify.go still does.
func box(rows []Row) [][]interface{} {
	out := make([][]interface{}, len(rows))
	for i, r := range rows {
		rec := make([]interface{}, len(r))
		for j, v := range r {
			switch v.Kind() {
			case KindInt:
				rec[j] = v.AsInt()
			case KindFloat:
				rec[j] = v.AsFloat()
			case KindString:
				rec[j] = v.AsString()
			case KindBool:
				rec[j] = v.AsBool()
			}
		}
		out[i] = rec
	}
	return out
}

// checkAgainstEncodingJSON holds AppendRowsJSON to json.Marshal of the
// boxed rows: the same bytes, or — on a non-finite DOUBLE, which Marshal
// refuses too — an error naming the first such cell, with dst untouched.
func checkAgainstEncodingJSON(t *testing.T, rows []Row) {
	t.Helper()
	prefix := []byte("rows:")
	got, err := AppendRowsJSON(append([]byte(nil), prefix...), rows)
	want, jerr := json.Marshal(box(rows))
	if jerr != nil {
		var nf *NonFiniteError
		if !errors.As(err, &nf) {
			t.Fatalf("encoding/json refused (%v) but AppendRowsJSON returned %v", jerr, err)
		}
		if !bytes.Equal(got, prefix) {
			t.Fatalf("dst after a refusal = %q, want it unextended", got)
		}
		for i, r := range rows {
			for j, v := range r {
				if v.Kind() == KindFloat && (math.IsNaN(v.AsFloat()) || math.IsInf(v.AsFloat(), 0)) {
					if nf.Row != i || nf.Col != j {
						t.Fatalf("refusal names cell (%d,%d), first non-finite is (%d,%d)", nf.Row, nf.Col, i, j)
					}
					return
				}
			}
		}
		t.Fatalf("refused rows without a non-finite DOUBLE: %v", rows)
	}
	if err != nil {
		t.Fatalf("AppendRowsJSON: %v (encoding/json wrote %s)", err, want)
	}
	if !bytes.HasPrefix(got, prefix) || !bytes.Equal(got[len(prefix):], want) {
		t.Fatalf("rows %v:\n got  %s\n want %s", rows, got[len(prefix):], want)
	}
}

func TestAppendRowsJSONGolden(t *testing.T) {
	cases := []struct {
		name string
		rows []Row
		want string
	}{
		{"zero rows", nil, `[]`},
		{"zero columns", []Row{{}, {}}, `[[],[]]`},
		{"null and booleans", []Row{{Null, Bool(true), Bool(false)}}, `[[null,true,false]]`},
		{"integers", []Row{{Int(0), Int(-1), Int(math.MinInt64), Int(math.MaxInt64)}},
			`[[0,-1,-9223372036854775808,9223372036854775807]]`},
		{"integers around 2^53", []Row{{Int(1<<53 - 1), Int(1 << 53), Int(1<<53 + 1), Int(-(1 << 53) - 1)}},
			`[[9007199254740991,9007199254740992,9007199254740993,-9007199254740993]]`},
		{"doubles around 2^53", []Row{{Float(1<<53 - 1), Float(1 << 53), Float(1<<53 + 2), Float(-(1 << 53))}},
			`[[9007199254740991,9007199254740992,9007199254740994,-9007199254740992]]`},
		{"zeros", []Row{{Float(0), Float(math.Copysign(0, -1))}}, `[[0,-0]]`},
		{"f to e at 1e21", []Row{{Float(math.Nextafter(1e21, 0)), Float(1e21), Float(-1e21)}},
			`[[999999999999999900000,1e+21,-1e+21]]`},
		{"f to e at 1e-6", []Row{{Float(1e-6), Float(math.Nextafter(1e-6, 0)), Float(1e-7), Float(-1.5e-9)}},
			`[[0.000001,9.999999999999997e-7,1e-7,-1.5e-9]]`},
		{"two-digit exponents keep both digits", []Row{{Float(1e-10), Float(1.25e-100), Float(1e100)}},
			`[[1e-10,1.25e-100,1e+100]]`},
		{"extremes", []Row{{Float(5e-324), Float(math.MaxFloat64), Float(0.1), Float(1.0 / 3)}},
			`[[5e-324,1.7976931348623157e+308,0.1,0.3333333333333333]]`},
		{"strings", []Row{{Str(""), Str("plain"), Str("naïve ☃ 𝄞")}}, `[["","plain","naïve ☃ 𝄞"]]`},
		{"quoting", []Row{{Str(`a"b\c`), Str("<b>&</b>")}}, `[["a\"b\\c","\u003cb\u003e\u0026\u003c/b\u003e"]]`},
		{"control characters", []Row{{Str("\b\f\n\r\t"), Str("\x00\x1f\x7f")}}, `[["\b\f\n\r\t","\u0000\u001f` + "\x7f" + `"]]`},
		{"separators", []Row{{Str("a\u2028b\u2029c")}}, `[["a\u2028b\u2029c"]]`},
		{"invalid utf-8", []Row{{Str("a\xffb"), Str("\xe2\x80"), Str("\xc0\xaf")}}, `[["a\ufffdb","\ufffd\ufffd","\ufffd\ufffd"]]`},
	}
	for _, tc := range cases {
		got, err := AppendRowsJSON(nil, tc.rows)
		if err != nil {
			t.Errorf("%s: %v", tc.name, err)
			continue
		}
		if string(got) != tc.want {
			t.Errorf("%s:\n got  %s\n want %s", tc.name, got, tc.want)
		}
		checkAgainstEncodingJSON(t, tc.rows)
	}
}

func TestAppendRowsJSONRefusesNonFinite(t *testing.T) {
	for _, f := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		rows := []Row{{Float(1), Int(2)}, {Float(3), Float(f), Float(math.NaN())}}
		got, err := AppendRowsJSON([]byte("kept"), rows)
		var nf *NonFiniteError
		if !errors.As(err, &nf) || nf.Row != 1 || nf.Col != 1 {
			t.Fatalf("%v: err = %v, want a NonFiniteError at row 1 column 1", f, err)
		}
		if string(got) != "kept" {
			t.Errorf("%v: dst = %q, want it unextended", f, got)
		}
		checkAgainstEncodingJSON(t, rows)
	}
}

// fuzzFloats are the DOUBLEs a byte mutator is unlikely to hit: the edges
// of every branch of the number form.
var fuzzFloats = []float64{
	0, math.Copysign(0, -1), 1 << 53, 1<<53 + 2, -(1 << 53), 1e21, math.Nextafter(1e21, 0),
	1e-6, math.Nextafter(1e-6, 0), 1e-7, 1e-9, 1e-10, 5e-324, math.MaxFloat64, -math.MaxFloat64,
	math.NaN(), math.Inf(1), math.Inf(-1),
}

// fuzzRows reads rows of cols cells off data. A cell is a tag byte (mod
// 6: NULL, BIGINT, DOUBLE from bits, STRING, BOOLEAN, DOUBLE from
// fuzzFloats) and its payload; a short payload is zero-padded.
func fuzzRows(cols uint8, data []byte) []Row {
	width := int(cols % 8)
	if width == 0 {
		return make([]Row, len(data)%5)
	}
	take := func(n int) []byte {
		out := make([]byte, n)
		data = data[copy(out, data):]
		return out
	}
	var rows []Row
	for len(data) > 0 {
		if len(rows) == 0 || len(rows[len(rows)-1]) == width {
			rows = append(rows, Row{})
		}
		var v Value
		switch tag := take(1)[0]; tag % 6 {
		case 1:
			v = Int(int64(binary.BigEndian.Uint64(take(8))))
		case 2:
			v = Float(math.Float64frombits(binary.BigEndian.Uint64(take(8))))
		case 3:
			n := int(take(1)[0])
			if n > len(data) {
				n = len(data)
			}
			v = Str(string(take(n)))
		case 4:
			v = Bool(take(1)[0]&1 == 1)
		case 5:
			v = Float(fuzzFloats[int(take(1)[0])%len(fuzzFloats)])
		}
		rows[len(rows)-1] = append(rows[len(rows)-1], v)
	}
	return rows
}

// FuzzAppendRowsJSON: bytes → rows; AppendRowsJSON ≡ json.Marshal of the
// boxed rows, refusals included. The committed corpus under
// testdata/fuzz/FuzzAppendRowsJSON runs as part of `go test`.
func FuzzAppendRowsJSON(f *testing.F) {
	f.Add(uint8(0), []byte{1, 2, 3})
	f.Add(uint8(3), []byte{0, 4, 1, 3, 2, '<', 0xff, 5, 1})
	f.Fuzz(func(t *testing.T, cols uint8, data []byte) {
		checkAgainstEncodingJSON(t, fuzzRows(cols, data))
	})
}
