package types

import (
	"fmt"
	"math"
	"strings"
)

// Row is one tuple of values. Rows are positional; names live in the Schema.
type Row []Value

// Clone returns a copy of the row that does not alias the receiver.
func (r Row) Clone() Row {
	out := make(Row, len(r))
	copy(out, r)
	return out
}

// MemSize estimates the in-memory footprint of the row in bytes.
func (r Row) MemSize() int64 {
	var n int64 = 24 // slice header
	for _, v := range r {
		n += v.MemSize()
	}
	return n
}

// String renders the row as a pipe-separated record for debugging.
func (r Row) String() string {
	parts := make([]string, len(r))
	for i, v := range r {
		parts[i] = v.String()
	}
	return "[" + strings.Join(parts, " | ") + "]"
}

// CheckRow holds a row to the schema: one value per column, each of the
// column's declared kind (any kind where the type is unknown, KindNull),
// and NULL only in a nullable column. A BIGINT value in a DOUBLE column,
// and a DOUBLE value holding an integer in a BIGINT column, are converted
// when the conversion is exact — magnitudes up to 2⁵³ — and refused
// beyond. It returns nil when the row is fit to store as it is, and a
// converted copy otherwise; r itself is never written.
func (s *Schema) CheckRow(r Row) (Row, error) {
	if len(r) != len(s.Fields) {
		return nil, fmt.Errorf("has %d values, schema has %d columns", len(r), len(s.Fields))
	}
	var out Row
	for j, v := range r {
		f := s.Fields[j]
		if v.kind == KindNull {
			if f.Nullable {
				continue
			}
			return nil, fmt.Errorf("column %q: NULL in NOT NULL column", f.Name)
		}
		if v.kind == f.Type || f.Type == KindNull {
			continue
		}
		c, ok := convertExact(v, f.Type)
		if !ok {
			return nil, fmt.Errorf("column %q: %s value %s does not fit a %s column", f.Name, v.kind, v, f.Type)
		}
		if out == nil {
			out = r.Clone()
		}
		out[j] = c
	}
	return out, nil
}

// convertExact converts a BIGINT to a DOUBLE, or a DOUBLE to a BIGINT,
// when the value survives the round trip — magnitudes up to 2⁵³, and no
// fraction.
func convertExact(v Value, to Kind) (Value, bool) {
	const limit = float64(MaxExactFloatInt)
	switch {
	case v.kind == KindInt && to == KindFloat && v.i >= -MaxExactFloatInt && v.i <= MaxExactFloatInt:
		return Float(float64(v.i)), true
	case v.kind == KindFloat && to == KindInt && v.f >= -limit && v.f <= limit && v.f == math.Trunc(v.f):
		return Int(int64(v.f)), true
	}
	return Null, false
}

// Field describes one column of a schema.
type Field struct {
	Name      string // column name, lower-cased by the parser
	Qualifier string // table alias or name; empty when unqualified
	Type      Kind   // declared type; KindNull when unknown
	Nullable  bool   // whether NULLs may appear; drives algorithm selection
}

// QualifiedName returns "qualifier.name" or just the name.
func (f Field) QualifiedName() string {
	if f.Qualifier == "" {
		return f.Name
	}
	return f.Qualifier + "." + f.Name
}

// Schema is an ordered list of fields.
type Schema struct {
	Fields []Field
}

// NewSchema builds a schema from fields.
func NewSchema(fields ...Field) *Schema { return &Schema{Fields: fields} }

// Len returns the number of columns.
func (s *Schema) Len() int { return len(s.Fields) }

// Resolve finds the ordinal of a (possibly qualified) column reference.
// It returns an error when the name is unknown or ambiguous.
func (s *Schema) Resolve(qualifier, name string) (int, error) {
	found := -1
	for i, f := range s.Fields {
		if !strings.EqualFold(f.Name, name) {
			continue
		}
		if qualifier != "" && !strings.EqualFold(f.Qualifier, qualifier) {
			continue
		}
		if found >= 0 {
			return 0, fmt.Errorf("ambiguous column reference %q", Field{Name: name, Qualifier: qualifier}.QualifiedName())
		}
		found = i
	}
	if found < 0 {
		return 0, fmt.Errorf("column %q not found in %s", Field{Name: name, Qualifier: qualifier}.QualifiedName(), s)
	}
	return found, nil
}

// IndexOf returns the ordinal of the first field named name (unqualified
// match), or -1.
func (s *Schema) IndexOf(name string) int {
	for i, f := range s.Fields {
		if strings.EqualFold(f.Name, name) {
			return i
		}
	}
	return -1
}

// WithQualifier returns a copy of the schema with every field's qualifier
// replaced. Used when a subquery or table is aliased.
func (s *Schema) WithQualifier(q string) *Schema {
	out := &Schema{Fields: make([]Field, len(s.Fields))}
	copy(out.Fields, s.Fields)
	for i := range out.Fields {
		out.Fields[i].Qualifier = q
	}
	return out
}

// Concat returns a schema with the receiver's fields followed by o's.
func (s *Schema) Concat(o *Schema) *Schema {
	out := &Schema{Fields: make([]Field, 0, len(s.Fields)+len(o.Fields))}
	out.Fields = append(out.Fields, s.Fields...)
	out.Fields = append(out.Fields, o.Fields...)
	return out
}

// String renders the schema as "name:TYPE, ...".
func (s *Schema) String() string {
	parts := make([]string, len(s.Fields))
	for i, f := range s.Fields {
		n := f.QualifiedName()
		null := ""
		if f.Nullable {
			null = "?"
		}
		parts[i] = fmt.Sprintf("%s:%s%s", n, f.Type, null)
	}
	return "(" + strings.Join(parts, ", ") + ")"
}
