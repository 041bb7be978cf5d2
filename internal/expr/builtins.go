package expr

import (
	"fmt"
	"math"
	"strings"

	"repro/internal/value"
)

// arithOp is one arithmetic operator: INT op INT stays integral, any other
// numeric mix (FLOAT, DATE) computes in float64.
type arithOp struct {
	name   string
	ints   func(a, b int64) (int64, error)
	floats func(a, b float64) (float64, error)
}

var errDivisionByZero = fmt.Errorf("division by zero")

var arithmetic = map[string]arithOp{
	"+": {"+",
		func(a, b int64) (int64, error) { return a + b, nil },
		func(a, b float64) (float64, error) { return a + b, nil }},
	"-": {"-",
		func(a, b int64) (int64, error) { return a - b, nil },
		func(a, b float64) (float64, error) { return a - b, nil }},
	"*": {"*",
		func(a, b int64) (int64, error) { return a * b, nil },
		func(a, b float64) (float64, error) { return a * b, nil }},
	"/": {"/",
		func(a, b int64) (int64, error) {
			if b == 0 {
				return 0, errDivisionByZero
			}
			return a / b, nil
		},
		func(a, b float64) (float64, error) {
			if b == 0 {
				return 0, errDivisionByZero
			}
			return a / b, nil
		}},
	"%": {"%",
		func(a, b int64) (int64, error) {
			if b == 0 {
				return 0, errDivisionByZero
			}
			return a % b, nil
		},
		func(a, b float64) (float64, error) {
			if b == 0 {
				return 0, errDivisionByZero
			}
			return math.Mod(a, b), nil
		}},
}

func (op arithOp) apply(l, r value.Value) (value.Value, error) {
	if l.IsNull() || r.IsNull() {
		return value.NewNull(), nil
	}
	if !l.IsNumeric() || !r.IsNumeric() {
		return value.Value{}, fmt.Errorf("operator %q requires numbers, got %s and %s", op.name, l.K, r.K)
	}
	if l.K == value.Int && r.K == value.Int {
		n, err := op.ints(l.I, r.I)
		if err != nil {
			return value.Value{}, err
		}
		return value.NewInt(n), nil
	}
	f, err := op.floats(l.Num(), r.Num())
	if err != nil {
		return value.Value{}, err
	}
	return value.NewFloat(f), nil
}

// scalarFn is a built-in scalar function over already evaluated arguments.
type scalarFn func(args []value.Value) (value.Value, error)

// builtin returns the scalar function of that (upper-case) name; an
// unknown name yields a function that reports it.
func builtin(name string) scalarFn {
	b, ok := builtins[name]
	if !ok {
		return func([]value.Value) (value.Value, error) {
			return value.Value{}, fmt.Errorf("unknown function %s", name)
		}
	}
	if b.arity < 0 {
		return b.fn
	}
	return func(args []value.Value) (value.Value, error) {
		if len(args) != b.arity {
			return value.Value{}, fmt.Errorf("%s expects %d argument(s), got %d", name, b.arity, len(args))
		}
		return b.fn(args)
	}
}

// nullIn wraps a function whose result is NULL when its first argument is.
func nullIn(fn scalarFn) scalarFn {
	return func(args []value.Value) (value.Value, error) {
		if args[0].IsNull() {
			return args[0], nil
		}
		return fn(args)
	}
}

// float1 lifts a float64 function to a one-argument NULL-propagating
// built-in.
func float1(fn func(float64) float64) scalarFn {
	return nullIn(func(args []value.Value) (value.Value, error) {
		return value.NewFloat(fn(args[0].Num())), nil
	})
}

// text1 lifts a string function likewise.
func text1(fn func(string) string) scalarFn {
	return nullIn(func(args []value.Value) (value.Value, error) {
		return value.NewText(fn(args[0].String())), nil
	})
}

// builtins maps each function name to its argument count (-1: the function
// checks for itself) and implementation.
var builtins = map[string]struct {
	arity int
	fn    scalarFn
}{
	"ABS":       {1, abs},
	"ROUND":     {1, float1(math.Round)},
	"FLOOR":     {1, float1(math.Floor)},
	"CEIL":      {1, float1(math.Ceil)},
	"CEILING":   {1, float1(math.Ceil)},
	"SQRT":      {1, float1(math.Sqrt)},
	"POWER":     {2, power},
	"POW":       {2, power},
	"LENGTH":    {1, length},
	"LEN":       {1, length},
	"LOWER":     {1, text1(strings.ToLower)},
	"UPPER":     {1, text1(strings.ToUpper)},
	"TRIM":      {1, text1(strings.TrimSpace)},
	"SUBSTR":    {-1, substr},
	"SUBSTRING": {-1, substr},
	"LEFT":      {2, nullIn(left)},
	"COALESCE":  {-1, coalesce},
	"NULLIF":    {2, nullIf},
}

func abs(args []value.Value) (value.Value, error) {
	v := args[0]
	switch v.K {
	case value.Null:
		return v, nil
	case value.Int:
		if v.I < 0 {
			return value.NewInt(-v.I), nil
		}
		return v, nil
	case value.Float:
		return value.NewFloat(math.Abs(v.F)), nil
	}
	return value.Value{}, fmt.Errorf("ABS requires a number")
}

func power(args []value.Value) (value.Value, error) {
	if args[0].IsNull() || args[1].IsNull() {
		return value.NewNull(), nil
	}
	return value.NewFloat(math.Pow(args[0].Num(), args[1].Num())), nil
}

var length = nullIn(func(args []value.Value) (value.Value, error) {
	return value.NewInt(int64(len(args[0].String()))), nil
})

func substr(args []value.Value) (value.Value, error) {
	if len(args) != 2 && len(args) != 3 {
		return value.Value{}, fmt.Errorf("SUBSTR expects 2 or 3 arguments")
	}
	if args[0].IsNull() {
		return args[0], nil
	}
	s := args[0].String()
	start := int(args[1].Num()) - 1 // SQL is 1-based
	if start < 0 {
		start = 0
	}
	if start > len(s) {
		start = len(s)
	}
	end := len(s)
	if len(args) == 3 {
		end = start + int(args[2].Num())
		if end > len(s) {
			end = len(s)
		}
		if end < start {
			end = start
		}
	}
	return value.NewText(s[start:end]), nil
}

func left(args []value.Value) (value.Value, error) {
	s := args[0].String()
	n := int(args[1].Num())
	if n < 0 {
		n = 0
	}
	if n > len(s) {
		n = len(s)
	}
	return value.NewText(s[:n]), nil
}

func coalesce(args []value.Value) (value.Value, error) {
	for _, a := range args {
		if !a.IsNull() {
			return a, nil
		}
	}
	return value.NewNull(), nil
}

func nullIf(args []value.Value) (value.Value, error) {
	if cmp, ok := value.Compare(args[0], args[1]); ok && cmp == 0 {
		return value.NewNull(), nil
	}
	return args[0], nil
}
