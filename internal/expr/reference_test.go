package expr

import (
	"fmt"
	"math"
	"strings"

	"repro/internal/ast"
	"repro/internal/value"
)

// reference is the interpretive evaluator the compiled programs replaced:
// it walks the AST per call, resolves every column by name through env and
// dispatches operators by string comparison. It lives on in the tests as
// the differential oracle — compiled evaluation must return the same value,
// or fail with the same message, on every expression and row.
type reference struct {
	Runner SubqueryRunner
	Params []value.Value
}

// Eval computes e under env.
func (ev *reference) Eval(e ast.Expr, env Env) (value.Value, error) {
	switch x := e.(type) {
	case *ast.Literal:
		return x.Val, nil

	case *ast.Param:
		if x.Index < 0 || x.Index >= len(ev.Params) {
			return value.Value{}, fmt.Errorf("parameter $%d is not bound (statement has %d argument(s))",
				x.Index+1, len(ev.Params))
		}
		return ev.Params[x.Index], nil

	case *ast.Column:
		if v, ok := env.Col(x.Table, x.Name); ok {
			return v, nil
		}
		return value.Value{}, fmt.Errorf("unknown column %s", x.SQL())

	case *ast.Star:
		return value.Value{}, fmt.Errorf("'*' is not a scalar expression")

	case *ast.Unary:
		return ev.evalUnary(x, env)

	case *ast.Binary:
		return ev.evalBinary(x, env)

	case *ast.IsNull:
		v, err := ev.Eval(x.X, env)
		if err != nil {
			return value.Value{}, err
		}
		return value.NewBool(v.IsNull() != x.Not), nil

	case *ast.InList:
		return ev.evalInList(x, env)

	case *ast.InSelect:
		return ev.evalInSelect(x, env)

	case *ast.Between:
		v, err := ev.Eval(x.X, env)
		if err != nil {
			return value.Value{}, err
		}
		lo, err := ev.Eval(x.Lo, env)
		if err != nil {
			return value.Value{}, err
		}
		hi, err := ev.Eval(x.Hi, env)
		if err != nil {
			return value.Value{}, err
		}
		c1, ok1 := value.Compare(v, lo)
		c2, ok2 := value.Compare(v, hi)
		if !ok1 || !ok2 {
			return value.NewNull(), nil
		}
		in := c1 >= 0 && c2 <= 0
		return value.NewBool(in != x.Not), nil

	case *ast.Like:
		v, err := ev.Eval(x.X, env)
		if err != nil {
			return value.Value{}, err
		}
		pat, err := ev.Eval(x.Pattern, env)
		if err != nil {
			return value.Value{}, err
		}
		if v.IsNull() || pat.IsNull() {
			return value.NewNull(), nil
		}
		if v.K != value.Text || pat.K != value.Text {
			return value.Value{}, fmt.Errorf("LIKE requires text operands")
		}
		return value.NewBool(likeMatch(v.S, pat.S) != x.Not), nil

	case *ast.Exists:
		if ev.Runner == nil {
			return value.Value{}, fmt.Errorf("subqueries not supported in this context")
		}
		rows, err := ev.Runner.Subquery(limitOne(x.Sub), env)
		if err != nil {
			return value.Value{}, err
		}
		return value.NewBool((len(rows) > 0) != x.Not), nil

	case *ast.ScalarSub:
		if ev.Runner == nil {
			return value.Value{}, fmt.Errorf("subqueries not supported in this context")
		}
		rows, err := ev.Runner.Subquery(x.Sub, env)
		if err != nil {
			return value.Value{}, err
		}
		if len(rows) == 0 {
			return value.NewNull(), nil
		}
		if len(rows) > 1 || len(rows[0]) != 1 {
			return value.Value{}, fmt.Errorf("scalar subquery returned %d rows", len(rows))
		}
		return rows[0][0], nil

	case *ast.Case:
		return ev.evalCase(x, env)

	case *ast.FuncCall:
		if v, handled, err := env.Func(x); handled || err != nil {
			return v, err
		}
		return ev.evalBuiltin(x, env)
	}
	return value.Value{}, fmt.Errorf("cannot evaluate %T", e)
}

// EvalBool evaluates a predicate: UNKNOWN (NULL) filters like FALSE.
func (ev *reference) EvalBool(e ast.Expr, env Env) (bool, error) {
	v, err := ev.Eval(e, env)
	if err != nil {
		return false, err
	}
	if v.IsNull() {
		return false, nil
	}
	if v.K != value.Bool {
		return false, fmt.Errorf("expected boolean condition, got %s", v.K)
	}
	return v.IsTrue(), nil
}

func (ev *reference) evalUnary(x *ast.Unary, env Env) (value.Value, error) {
	v, err := ev.Eval(x.X, env)
	if err != nil {
		return value.Value{}, err
	}
	switch x.Op {
	case "NOT":
		if v.IsNull() {
			return value.NewNull(), nil
		}
		if v.K != value.Bool {
			return value.Value{}, fmt.Errorf("NOT requires a boolean")
		}
		return value.NewBool(!v.IsTrue()), nil
	case "-":
		switch v.K {
		case value.Null:
			return v, nil
		case value.Int:
			return value.NewInt(-v.I), nil
		case value.Float:
			return value.NewFloat(-v.F), nil
		}
		return value.Value{}, fmt.Errorf("unary - requires a number")
	}
	return value.Value{}, fmt.Errorf("unknown unary op %q", x.Op)
}

func (ev *reference) evalBinary(x *ast.Binary, env Env) (value.Value, error) {
	// Short-circuiting three-valued AND/OR.
	if x.Op == "AND" || x.Op == "OR" {
		l, err := ev.Eval(x.L, env)
		if err != nil {
			return value.Value{}, err
		}
		if !l.IsNull() && l.K != value.Bool {
			return value.Value{}, fmt.Errorf("%s requires boolean operands", x.Op)
		}
		if x.Op == "AND" && !l.IsNull() && !l.IsTrue() {
			return value.NewBool(false), nil
		}
		if x.Op == "OR" && l.IsTrue() {
			return value.NewBool(true), nil
		}
		r, err := ev.Eval(x.R, env)
		if err != nil {
			return value.Value{}, err
		}
		if !r.IsNull() && r.K != value.Bool {
			return value.Value{}, fmt.Errorf("%s requires boolean operands", x.Op)
		}
		switch x.Op {
		case "AND":
			if !r.IsNull() && !r.IsTrue() {
				return value.NewBool(false), nil
			}
			if l.IsNull() || r.IsNull() {
				return value.NewNull(), nil
			}
			return value.NewBool(true), nil
		default: // OR
			if r.IsTrue() {
				return value.NewBool(true), nil
			}
			if l.IsNull() || r.IsNull() {
				return value.NewNull(), nil
			}
			return value.NewBool(false), nil
		}
	}

	l, err := ev.Eval(x.L, env)
	if err != nil {
		return value.Value{}, err
	}
	r, err := ev.Eval(x.R, env)
	if err != nil {
		return value.Value{}, err
	}

	switch x.Op {
	case "=", "<>", "<", "<=", ">", ">=":
		c, ok := value.Compare(l, r)
		if !ok {
			return value.NewNull(), nil
		}
		var b bool
		switch x.Op {
		case "=":
			b = c == 0
		case "<>":
			b = c != 0
		case "<":
			b = c < 0
		case "<=":
			b = c <= 0
		case ">":
			b = c > 0
		case ">=":
			b = c >= 0
		}
		return value.NewBool(b), nil

	case "||":
		if l.IsNull() || r.IsNull() {
			return value.NewNull(), nil
		}
		return value.NewText(l.String() + r.String()), nil

	case "+", "-", "*", "/", "%":
		return refArith(x.Op, l, r)
	}
	return value.Value{}, fmt.Errorf("unknown operator %q", x.Op)
}

func refArith(op string, l, r value.Value) (value.Value, error) {
	if l.IsNull() || r.IsNull() {
		return value.NewNull(), nil
	}
	if !l.IsNumeric() || !r.IsNumeric() {
		return value.Value{}, fmt.Errorf("operator %q requires numbers, got %s and %s", op, l.K, r.K)
	}
	if l.K == value.Int && r.K == value.Int {
		a, b := l.I, r.I
		switch op {
		case "+":
			return value.NewInt(a + b), nil
		case "-":
			return value.NewInt(a - b), nil
		case "*":
			return value.NewInt(a * b), nil
		case "/":
			if b == 0 {
				return value.Value{}, fmt.Errorf("division by zero")
			}
			return value.NewInt(a / b), nil
		case "%":
			if b == 0 {
				return value.Value{}, fmt.Errorf("division by zero")
			}
			return value.NewInt(a % b), nil
		}
	}
	a, b := l.Num(), r.Num()
	switch op {
	case "+":
		return value.NewFloat(a + b), nil
	case "-":
		return value.NewFloat(a - b), nil
	case "*":
		return value.NewFloat(a * b), nil
	case "/":
		if b == 0 {
			return value.Value{}, fmt.Errorf("division by zero")
		}
		return value.NewFloat(a / b), nil
	case "%":
		if b == 0 {
			return value.Value{}, fmt.Errorf("division by zero")
		}
		return value.NewFloat(math.Mod(a, b)), nil
	}
	return value.Value{}, fmt.Errorf("unknown operator %q", op)
}

func (ev *reference) evalInList(x *ast.InList, env Env) (value.Value, error) {
	v, err := ev.Eval(x.X, env)
	if err != nil {
		return value.Value{}, err
	}
	if v.IsNull() {
		return value.NewNull(), nil
	}
	sawNull := false
	for _, item := range x.List {
		w, err := ev.Eval(item, env)
		if err != nil {
			return value.Value{}, err
		}
		if w.IsNull() {
			sawNull = true
			continue
		}
		if c, ok := value.Compare(v, w); ok && c == 0 {
			return value.NewBool(!x.Not), nil
		}
	}
	if sawNull {
		return value.NewNull(), nil
	}
	return value.NewBool(x.Not), nil
}

func (ev *reference) evalInSelect(x *ast.InSelect, env Env) (value.Value, error) {
	if ev.Runner == nil {
		return value.Value{}, fmt.Errorf("subqueries not supported in this context")
	}
	v, err := ev.Eval(x.X, env)
	if err != nil {
		return value.Value{}, err
	}
	if v.IsNull() {
		return value.NewNull(), nil
	}
	rows, err := ev.Runner.Subquery(x.Sub, env)
	if err != nil {
		return value.Value{}, err
	}
	sawNull := false
	for _, row := range rows {
		if len(row) != 1 {
			return value.Value{}, fmt.Errorf("IN subquery must return one column")
		}
		if row[0].IsNull() {
			sawNull = true
			continue
		}
		if c, ok := value.Compare(v, row[0]); ok && c == 0 {
			return value.NewBool(!x.Not), nil
		}
	}
	if sawNull {
		return value.NewNull(), nil
	}
	return value.NewBool(x.Not), nil
}

func (ev *reference) evalCase(x *ast.Case, env Env) (value.Value, error) {
	var operand value.Value
	if x.Operand != nil {
		v, err := ev.Eval(x.Operand, env)
		if err != nil {
			return value.Value{}, err
		}
		operand = v
	}
	for _, w := range x.Whens {
		wv, err := ev.Eval(w.When, env)
		if err != nil {
			return value.Value{}, err
		}
		var match bool
		if x.Operand != nil {
			c, ok := value.Compare(operand, wv)
			match = ok && c == 0
		} else {
			match = wv.IsTrue()
		}
		if match {
			return ev.Eval(w.Then, env)
		}
	}
	if x.Else != nil {
		return ev.Eval(x.Else, env)
	}
	return value.NewNull(), nil
}

func (ev *reference) evalBuiltin(fc *ast.FuncCall, env Env) (value.Value, error) {
	args := make([]value.Value, len(fc.Args))
	for i, a := range fc.Args {
		v, err := ev.Eval(a, env)
		if err != nil {
			return value.Value{}, err
		}
		args[i] = v
	}
	name := strings.ToUpper(fc.Name)
	need := func(n int) error {
		if len(args) != n {
			return fmt.Errorf("%s expects %d argument(s), got %d", name, n, len(args))
		}
		return nil
	}
	switch name {
	case "ABS":
		if err := need(1); err != nil {
			return value.Value{}, err
		}
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
	case "ROUND":
		if err := need(1); err != nil {
			return value.Value{}, err
		}
		if args[0].IsNull() {
			return args[0], nil
		}
		return value.NewFloat(math.Round(args[0].Num())), nil
	case "FLOOR":
		if err := need(1); err != nil {
			return value.Value{}, err
		}
		if args[0].IsNull() {
			return args[0], nil
		}
		return value.NewFloat(math.Floor(args[0].Num())), nil
	case "CEIL", "CEILING":
		if err := need(1); err != nil {
			return value.Value{}, err
		}
		if args[0].IsNull() {
			return args[0], nil
		}
		return value.NewFloat(math.Ceil(args[0].Num())), nil
	case "SQRT":
		if err := need(1); err != nil {
			return value.Value{}, err
		}
		if args[0].IsNull() {
			return args[0], nil
		}
		return value.NewFloat(math.Sqrt(args[0].Num())), nil
	case "POWER", "POW":
		if err := need(2); err != nil {
			return value.Value{}, err
		}
		if args[0].IsNull() || args[1].IsNull() {
			return value.NewNull(), nil
		}
		return value.NewFloat(math.Pow(args[0].Num(), args[1].Num())), nil
	case "LENGTH", "LEN":
		if err := need(1); err != nil {
			return value.Value{}, err
		}
		if args[0].IsNull() {
			return args[0], nil
		}
		return value.NewInt(int64(len(args[0].String()))), nil
	case "LOWER":
		if err := need(1); err != nil {
			return value.Value{}, err
		}
		if args[0].IsNull() {
			return args[0], nil
		}
		return value.NewText(strings.ToLower(args[0].String())), nil
	case "UPPER":
		if err := need(1); err != nil {
			return value.Value{}, err
		}
		if args[0].IsNull() {
			return args[0], nil
		}
		return value.NewText(strings.ToUpper(args[0].String())), nil
	case "TRIM":
		if err := need(1); err != nil {
			return value.Value{}, err
		}
		if args[0].IsNull() {
			return args[0], nil
		}
		return value.NewText(strings.TrimSpace(args[0].String())), nil
	case "SUBSTR", "SUBSTRING":
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
	case "LEFT":
		if err := need(2); err != nil {
			return value.Value{}, err
		}
		if args[0].IsNull() {
			return args[0], nil
		}
		s := args[0].String()
		n := int(args[1].Num())
		if n < 0 {
			n = 0
		}
		if n > len(s) {
			n = len(s)
		}
		return value.NewText(s[:n]), nil
	case "COALESCE":
		for _, a := range args {
			if !a.IsNull() {
				return a, nil
			}
		}
		return value.NewNull(), nil
	case "NULLIF":
		if err := need(2); err != nil {
			return value.Value{}, err
		}
		if c, ok := value.Compare(args[0], args[1]); ok && c == 0 {
			return value.NewNull(), nil
		}
		return args[0], nil
	}
	return value.Value{}, fmt.Errorf("unknown function %s", name)
}
