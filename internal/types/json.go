package types

import (
	"fmt"
	"math"
	"strconv"
	"unicode/utf8"
)

// The JSON form of values and rows, appended straight into a byte slice.
// The text is byte-identical to what encoding/json writes (HTML escaping
// on, as json.NewEncoder and json.Marshal have it) for the boxed twin of
// the value — nil, int64, float64, string, bool — so a served result can
// be compared byte for byte with a reflected encoding of the same rows.
// FuzzAppendRowsJSON holds the two together.

// NonFiniteError reports a DOUBLE that JSON cannot carry (NaN, ±Inf).
type NonFiniteError struct {
	Row, Col int
	Value    float64
}

func (e *NonFiniteError) Error() string {
	return fmt.Sprintf("row %d column %d: %v has no JSON form", e.Row, e.Col,
		strconv.FormatFloat(e.Value, 'g', -1, 64))
}

// AppendRowsJSON appends rows as a JSON array of arrays. On a non-finite
// DOUBLE it returns dst unextended and a *NonFiniteError naming the cell.
func AppendRowsJSON(dst []byte, rows []Row) ([]byte, error) {
	start := len(dst)
	dst = append(dst, '[')
	for i, r := range rows {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = append(dst, '[')
		for j, v := range r {
			if j > 0 {
				dst = append(dst, ',')
			}
			var ok bool
			if dst, ok = v.AppendJSON(dst); !ok {
				return dst[:start], &NonFiniteError{Row: i, Col: j, Value: v.f}
			}
		}
		dst = append(dst, ']')
	}
	return append(dst, ']'), nil
}

// AppendJSON appends the value's JSON form: null, an integer, a number in
// ES6 number-to-string form, a string, or true/false. ok=false, with dst
// unextended, for a non-finite DOUBLE.
func (v Value) AppendJSON(dst []byte) ([]byte, bool) {
	switch v.kind {
	case KindNull:
		return append(dst, "null"...), true
	case KindInt:
		return strconv.AppendInt(dst, v.i, 10), true
	case KindFloat:
		return appendJSONFloat(dst, v.f)
	case KindString:
		return appendJSONString(dst, v.s), true
	case KindBool:
		return strconv.AppendBool(dst, v.b), true
	}
	return appendJSONString(dst, v.String()), true // no such kind; as the shell would print it
}

// appendJSONFloat follows encoding/json's floatEncoder: 'f' form inside
// [1e-6, 1e21), 'e' form outside it with the exponent's padding zero
// removed (e-09 → e-9).
func appendJSONFloat(dst []byte, f float64) ([]byte, bool) {
	if math.IsInf(f, 0) || math.IsNaN(f) {
		return dst, false
	}
	abs := math.Abs(f)
	if abs == 0 || (abs >= 1e-6 && abs < 1e21) {
		return strconv.AppendFloat(dst, f, 'f', -1, 64), true
	}
	dst = strconv.AppendFloat(dst, f, 'e', -1, 64)
	if n := len(dst); n >= 4 && dst[n-4] == 'e' && dst[n-3] == '-' && dst[n-2] == '0' {
		dst[n-2] = dst[n-1]
		dst = dst[:n-1]
	}
	return dst, true
}

const hexDigits = "0123456789abcdef"

// appendJSONString follows encoding/json's appendString with HTML
// escaping: the short escapes for \\ \" \b \f \n \r \t, \u00XX for the
// other control characters and for < > &, the replacement character's
// escape for invalid UTF-8, and the escapes of U+2028 and U+2029, the two
// separators JSONP cannot carry.
func appendJSONString(dst []byte, s string) []byte {
	dst = append(dst, '"')
	start := 0
	for i := 0; i < len(s); {
		b := s[i]
		if b < utf8.RuneSelf {
			if b >= 0x20 && b != '"' && b != '\\' && b != '<' && b != '>' && b != '&' {
				i++
				continue
			}
			dst = append(dst, s[start:i]...)
			switch b {
			case '\\', '"':
				dst = append(dst, '\\', b)
			case '\b':
				dst = append(dst, '\\', 'b')
			case '\f':
				dst = append(dst, '\\', 'f')
			case '\n':
				dst = append(dst, '\\', 'n')
			case '\r':
				dst = append(dst, '\\', 'r')
			case '\t':
				dst = append(dst, '\\', 't')
			default:
				dst = append(dst, '\\', 'u', '0', '0', hexDigits[b>>4], hexDigits[b&0xF])
			}
			i++
			start = i
			continue
		}
		c, size := utf8.DecodeRuneInString(s[i:])
		switch {
		case c == utf8.RuneError && size == 1:
			dst = append(dst, s[start:i]...)
			dst = append(dst, `\ufffd`...)
			start = i + size
		case c == '\u2028' || c == '\u2029':
			dst = append(dst, s[start:i]...)
			dst = append(dst, '\\', 'u', '2', '0', '2', hexDigits[c&0xF])
			start = i + size
		}
		i += size
	}
	dst = append(dst, s[start:]...)
	return append(dst, '"')
}
