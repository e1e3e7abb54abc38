package expr

import (
	"fmt"
	"math"
	"strings"

	"skysql/internal/types"
)

// Func is a call to a built-in scalar function. Function names are stored
// lower-cased.
type Func struct {
	Name string
	Args []Expr
}

// NewFunc creates a scalar function call.
func NewFunc(name string, args ...Expr) *Func {
	return &Func{Name: strings.ToLower(name), Args: args}
}

// scalarFuncs maps function name to arity (-1 = variadic, min 1).
var scalarFuncs = map[string]int{
	"ifnull":   2,
	"coalesce": -1,
	"abs":      1,
	"least":    -1,
	"greatest": -1,
	"sqrt":     1,
	"floor":    1,
	"ceil":     1,
	"round":    1,
	"length":   1,
	"lower":    1,
	"upper":    1,
	"pow":      2,
	"exp":      1,
	"ln":       1,
	"log10":    1,
	"sign":     1,
	"concat":   -1,
	"substr":   3,
	"trim":     1,
}

// CheckArity validates the argument count for a scalar function.
func (f *Func) CheckArity() error {
	want, ok := scalarFuncs[f.Name]
	if !ok {
		return fmt.Errorf("expr: unknown function %q", f.Name)
	}
	if want == -1 {
		if len(f.Args) < 1 {
			return fmt.Errorf("expr: %s requires at least one argument", f.Name)
		}
		return nil
	}
	if len(f.Args) != want {
		return fmt.Errorf("expr: %s requires %d arguments, got %d", f.Name, want, len(f.Args))
	}
	return nil
}

func (f *Func) Eval(row types.Row) (types.Value, error) {
	args := make([]types.Value, len(f.Args))
	for i, a := range f.Args {
		v, err := a.Eval(row)
		if err != nil {
			return types.Null, err
		}
		args[i] = v
	}
	switch f.Name {
	case "ifnull":
		if args[0].IsNull() {
			return args[1], nil
		}
		return args[0], nil
	case "coalesce":
		for _, a := range args {
			if !a.IsNull() {
				return a, nil
			}
		}
		return types.Null, nil
	case "abs":
		if args[0].IsNull() {
			return types.Null, nil
		}
		switch args[0].Kind() {
		case types.KindInt:
			v := args[0].AsInt()
			if v < 0 {
				v = -v
			}
			return types.Int(v), nil
		case types.KindFloat:
			return types.Float(math.Abs(args[0].AsFloat())), nil
		}
		return types.Null, fmt.Errorf("expr: abs on %s", args[0].Kind())
	case "least", "greatest":
		var best types.Value
		for _, a := range args {
			if a.IsNull() {
				return types.Null, nil
			}
			if best.IsNull() {
				best = a
				continue
			}
			c, ok := types.CompareValues(a, best)
			if !ok {
				return types.Null, fmt.Errorf("expr: %s on incomparable kinds", f.Name)
			}
			if (f.Name == "least" && c < 0) || (f.Name == "greatest" && c > 0) {
				best = a
			}
		}
		return best, nil
	case "sqrt":
		if args[0].IsNull() {
			return types.Null, nil
		}
		return types.Float(math.Sqrt(args[0].AsFloat())), nil
	case "floor":
		if args[0].IsNull() {
			return types.Null, nil
		}
		return types.Float(math.Floor(args[0].AsFloat())), nil
	case "ceil":
		if args[0].IsNull() {
			return types.Null, nil
		}
		return types.Float(math.Ceil(args[0].AsFloat())), nil
	case "round":
		if args[0].IsNull() {
			return types.Null, nil
		}
		return types.Float(math.Round(args[0].AsFloat())), nil
	case "length":
		if args[0].IsNull() {
			return types.Null, nil
		}
		return types.Int(int64(len(args[0].AsString()))), nil
	case "lower":
		if args[0].IsNull() {
			return types.Null, nil
		}
		return types.Str(strings.ToLower(args[0].AsString())), nil
	case "upper":
		if args[0].IsNull() {
			return types.Null, nil
		}
		return types.Str(strings.ToUpper(args[0].AsString())), nil
	case "pow":
		if args[0].IsNull() || args[1].IsNull() {
			return types.Null, nil
		}
		return types.Float(math.Pow(args[0].AsFloat(), args[1].AsFloat())), nil
	case "exp":
		if args[0].IsNull() {
			return types.Null, nil
		}
		return types.Float(math.Exp(args[0].AsFloat())), nil
	case "ln":
		if args[0].IsNull() {
			return types.Null, nil
		}
		return types.Float(math.Log(args[0].AsFloat())), nil
	case "log10":
		if args[0].IsNull() {
			return types.Null, nil
		}
		return types.Float(math.Log10(args[0].AsFloat())), nil
	case "sign":
		if args[0].IsNull() {
			return types.Null, nil
		}
		f := args[0].AsFloat()
		switch {
		case f > 0:
			return types.Int(1), nil
		case f < 0:
			return types.Int(-1), nil
		}
		return types.Int(0), nil
	case "concat":
		var sb strings.Builder
		for _, a := range args {
			if a.IsNull() {
				return types.Null, nil
			}
			sb.WriteString(a.String())
		}
		return types.Str(sb.String()), nil
	case "substr":
		if args[0].IsNull() || args[1].IsNull() || args[2].IsNull() {
			return types.Null, nil
		}
		s := args[0].AsString()
		start := int(args[1].AsInt()) - 1 // SQL substr is 1-based
		n := int(args[2].AsInt())
		if start < 0 {
			start = 0
		}
		if start > len(s) {
			start = len(s)
		}
		end := start + n
		if n < 0 || end > len(s) {
			end = len(s)
		}
		return types.Str(s[start:end]), nil
	case "trim":
		if args[0].IsNull() {
			return types.Null, nil
		}
		return types.Str(strings.TrimSpace(args[0].AsString())), nil
	}
	return types.Null, fmt.Errorf("expr: unknown function %q", f.Name)
}

func (f *Func) String() string {
	parts := make([]string, len(f.Args))
	for i, a := range f.Args {
		parts[i] = a.String()
	}
	return f.Name + "(" + strings.Join(parts, ", ") + ")"
}

func (f *Func) Children() []Expr { return f.Args }
func (f *Func) WithChildren(c []Expr) Expr {
	return &Func{Name: f.Name, Args: c}
}
func (f *Func) Resolved() bool { return allResolved(f.Args) }

func (f *Func) DataType() types.Kind {
	switch f.Name {
	case "sqrt", "floor", "ceil", "round", "pow", "exp", "ln", "log10":
		return types.KindFloat
	case "length", "sign":
		return types.KindInt
	case "lower", "upper", "concat", "substr", "trim":
		return types.KindString
	case "abs", "ifnull", "coalesce", "least", "greatest":
		if len(f.Args) > 0 {
			return f.Args[0].DataType()
		}
	}
	return types.KindNull
}

func (f *Func) Nullable() bool {
	switch f.Name {
	case "ifnull", "coalesce":
		// Non-null if any argument is non-nullable.
		for _, a := range f.Args {
			if !a.Nullable() {
				return false
			}
		}
		return true
	}
	for _, a := range f.Args {
		if a.Nullable() {
			return true
		}
	}
	return false
}
