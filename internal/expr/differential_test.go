package expr

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"sync"
	"testing"

	"repro/internal/ast"
	"repro/internal/parser"
	"repro/internal/value"
)

// The differential pits compiled programs against the interpretive
// reference evaluator (reference_test.go) over generated expressions and
// rows: same value, or both fail with the same message. The two sides
// share nothing but the AST — the reference resolves every column by name
// through the environments below, which keep the pre-compilation lookup
// rules (linear search, case-folded, first match wins, inner scope before
// outer).

// nameEnv is the by-name row scope the engine used before columns were
// bound to slots.
type nameEnv struct {
	cols  []Col
	row   value.Row
	outer Env
}

func (e *nameEnv) Col(table, name string) (value.Value, bool) {
	for i, c := range e.cols {
		if !strings.EqualFold(c.Name, name) {
			continue
		}
		if table != "" && !strings.EqualFold(c.Qual, table) {
			continue
		}
		return e.row[i], true
	}
	if e.outer != nil {
		return e.outer.Col(table, name)
	}
	return value.Value{}, false
}

func (e *nameEnv) Func(fc *ast.FuncCall) (value.Value, bool, error) {
	if e.outer != nil {
		return e.outer.Func(fc)
	}
	return value.Value{}, false, nil
}

// aliasEnv is the old ORDER BY rule: an unqualified name tries the
// projection's output columns first, then the source row.
type aliasEnv struct {
	primary, fallback Env
}

func (d *aliasEnv) Col(table, name string) (value.Value, bool) {
	if table == "" {
		if v, ok := d.primary.Col(table, name); ok {
			return v, true
		}
	}
	return d.fallback.Col(table, name)
}

func (d *aliasEnv) Func(fc *ast.FuncCall) (value.Value, bool, error) {
	if v, handled, err := d.primary.Func(fc); handled || err != nil {
		return v, handled, err
	}
	return d.fallback.Func(fc)
}

// outerEnv stands for the enclosing statement: two columns only it knows,
// and the interception of LEVEL (a value) and TOP (an error).
type outerEnv struct{ vals MapEnv }

func (o outerEnv) Col(table, name string) (value.Value, bool) { return o.vals.Col(table, name) }

func (o outerEnv) Func(fc *ast.FuncCall) (value.Value, bool, error) {
	switch strings.ToUpper(fc.Name) {
	case "LEVEL":
		return value.NewInt(int64(len(fc.Args))), true, nil
	case "TOP":
		return value.Value{}, false, fmt.Errorf("TOP expects one attribute argument")
	}
	return value.Value{}, false, nil
}

// probeRunner is a subquery runner whose answer is a function of what the
// correlation environment resolves: one single-column row per probe name
// the environment knows, then one more if it intercepts LEVEL. A wrong
// environment therefore shows as a different row set.
type probeRunner struct{}

func (probeRunner) Subquery(sel *ast.Select, env Env) ([]value.Row, error) {
	var rows []value.Row
	for _, name := range []string{"a", "s", "dup", "o1", "nosuch"} {
		if v, ok := env.Col("", name); ok {
			rows = append(rows, value.Row{v})
		}
	}
	if v, ok := env.Col("t", "b"); ok {
		rows = append(rows, value.Row{v})
	}
	if v, handled, _ := env.Func(&ast.FuncCall{Name: "LEVEL"}); handled {
		rows = append(rows, value.Row{v})
	}
	if sel.Limit >= 0 && int64(len(rows)) > sel.Limit {
		rows = rows[:sel.Limit]
	}
	return rows, nil
}

// diffScope is the inner scope of the generated expressions. `dup` is
// there twice (first match wins), `o1` and `o2` resolve only in the outer
// environment, `nosuch` nowhere.
var diffScope = []Col{
	{Qual: "t", Name: "a"}, {Qual: "t", Name: "b"}, {Qual: "t", Name: "f"},
	{Qual: "t", Name: "s"}, {Qual: "t", Name: "flag"}, {Qual: "t", Name: "d"},
	{Qual: "t", Name: "dup"}, {Qual: "u", Name: "dup"}, {Qual: "u", Name: "n"},
}

// diffAliases are projection outputs for the ORDER BY scope: `a` shadows
// the source column for unqualified references, `total` exists only here.
var diffAliases = []Col{{Name: "total"}, {Name: "a"}}

type exprGen struct{ rng *rand.Rand }

func (g *exprGen) value() value.Value {
	switch g.rng.Intn(9) {
	case 0:
		return value.NewNull()
	case 1:
		return value.NewInt(int64(g.rng.Intn(7) - 3))
	case 2:
		return value.NewInt(0)
	case 3:
		return value.NewFloat(float64(g.rng.Intn(9)-4) / 2)
	case 4:
		return value.NewText([]string{"", "a", "abc", "a%c", "h_llo", "hello", "1"}[g.rng.Intn(7)])
	case 5:
		return value.NewBool(g.rng.Intn(2) == 0)
	case 6:
		return value.NewDate(1999, 7, 1+g.rng.Intn(5))
	case 7:
		return value.NewFloat(math.Inf(1))
	}
	return value.NewInt(int64(g.rng.Intn(100)))
}

func (g *exprGen) row(n int) value.Row {
	r := make(value.Row, n)
	for i := range r {
		r[i] = g.value()
	}
	return r
}

func (g *exprGen) column() *ast.Column {
	refs := []ast.Column{
		{Name: "a"}, {Name: "A"}, {Table: "t", Name: "b"}, {Table: "T", Name: "f"}, {Name: "s"},
		{Name: "flag"}, {Name: "d"}, {Name: "dup"}, {Table: "u", Name: "dup"}, {Name: "n"},
		{Name: "o1"}, {Table: "outer", Name: "o2"}, {Name: "nosuch"}, {Table: "x", Name: "a"},
		{Name: "total"},
	}
	c := refs[g.rng.Intn(len(refs))]
	return &c
}

var (
	genBinaryOps = []string{"=", "<>", "<", "<=", ">", ">=", "+", "-", "*", "/", "%", "AND", "OR", "||", "^"}
	genFuncs     = []string{"ABS", "ROUND", "FLOOR", "CEIL", "CEILING", "SQRT", "POWER", "POW", "LENGTH", "LEN",
		"lower", "UPPER", "TRIM", "SUBSTR", "SUBSTRING", "LEFT", "COALESCE", "NULLIF", "NOSUCHFN", "LEVEL", "TOP"}
	genSub = &ast.Select{Limit: -1}
)

func (g *exprGen) expr(depth int) ast.Expr {
	if depth <= 0 {
		switch g.rng.Intn(5) {
		case 0, 1:
			return g.column()
		case 2:
			return &ast.Param{Index: g.rng.Intn(5) - 1} // -1 and 3 are out of range
		}
		return &ast.Literal{Val: g.value()}
	}
	sub := func() ast.Expr { return g.expr(depth - 1 - g.rng.Intn(2)) }
	switch g.rng.Intn(16) {
	case 0:
		return &ast.Unary{Op: []string{"NOT", "-", "~"}[g.rng.Intn(3)], X: sub()}
	case 1, 2, 3, 4:
		return &ast.Binary{Op: genBinaryOps[g.rng.Intn(len(genBinaryOps))], L: sub(), R: sub()}
	case 5:
		return &ast.IsNull{X: sub(), Not: g.rng.Intn(2) == 0}
	case 6:
		list := make([]ast.Expr, g.rng.Intn(4))
		for i := range list {
			list[i] = sub()
		}
		return &ast.InList{X: sub(), List: list, Not: g.rng.Intn(2) == 0}
	case 7:
		return &ast.Between{X: sub(), Lo: sub(), Hi: sub(), Not: g.rng.Intn(2) == 0}
	case 8:
		return &ast.Like{X: sub(), Pattern: sub(), Not: g.rng.Intn(2) == 0}
	case 9:
		c := &ast.Case{}
		if g.rng.Intn(2) == 0 {
			c.Operand = sub()
		}
		for i := g.rng.Intn(3); i >= 0; i-- {
			c.Whens = append(c.Whens, ast.WhenClause{When: sub(), Then: sub()})
		}
		if g.rng.Intn(2) == 0 {
			c.Else = sub()
		}
		return c
	case 10, 11:
		args := make([]ast.Expr, g.rng.Intn(4))
		for i := range args {
			args[i] = sub()
		}
		return &ast.FuncCall{Name: genFuncs[g.rng.Intn(len(genFuncs))], Args: args}
	case 12:
		return &ast.Exists{Sub: genSub, Not: g.rng.Intn(2) == 0}
	case 13:
		return &ast.ScalarSub{Sub: &ast.Select{Limit: int64(g.rng.Intn(3))}}
	case 14:
		return &ast.InSelect{X: sub(), Sub: genSub, Not: g.rng.Intn(2) == 0}
	}
	return &ast.Star{}
}

// sameValue is representation equality: kinds, payloads, and NaN == NaN.
func sameValue(a, b value.Value) bool {
	if a.K != b.K || a.I != b.I || a.S != b.S {
		return false
	}
	return a.F == b.F || (math.IsNaN(a.F) && math.IsNaN(b.F))
}

// diffCase is one evaluation context: the rows, parameters and
// environments both evaluators see.
type diffCase struct {
	row, aliasRow value.Row
	params        []value.Value
	outer         Env
	runner        SubqueryRunner
}

func (g *exprGen) diffCase() diffCase {
	dc := diffCase{row: g.row(len(diffScope)), aliasRow: g.row(len(diffAliases))}
	dc.params = g.row(g.rng.Intn(4))
	if g.rng.Intn(4) > 0 {
		dc.outer = outerEnv{vals: MapEnv{"o1": g.value(), "outer.o2": g.value(), "a": g.value()}}
	}
	if g.rng.Intn(4) > 0 {
		dc.runner = probeRunner{}
	}
	return dc
}

// check evaluates e both ways in the plain row scope and in the ORDER BY
// (alias) scope and reports the first disagreement.
func (dc diffCase) check(e ast.Expr) error {
	ref := &reference{Runner: dc.runner, Params: dc.params}
	rt := &Runtime{Params: dc.params, Runner: dc.runner, Outer: dc.outer}

	source := &nameEnv{cols: diffScope, row: dc.row, outer: dc.outer}
	want, wantErr := ref.Eval(e, source)
	prog := Compile(e, Scope{Cols: diffScope})
	got, gotErr := prog.Eval(rt, dc.row)
	if err := agree("row scope", want, wantErr, got, gotErr); err != nil {
		return err
	}
	got, gotErr = prog.Bind(rt)(dc.row)
	if err := agree("row scope, bound", want, wantErr, got, gotErr); err != nil {
		return err
	}

	byAlias := &aliasEnv{primary: &nameEnv{cols: diffAliases, row: dc.aliasRow}, fallback: source}
	want, wantErr = ref.Eval(e, byAlias)
	both := append(append(value.Row{}, dc.aliasRow...), dc.row...)
	scope := Scope{Cols: append(append([]Col{}, diffAliases...), diffScope...), Aliases: len(diffAliases)}
	got, gotErr = Compile(e, scope).Eval(rt, both)
	return agree("alias scope", want, wantErr, got, gotErr)
}

func agree(where string, want value.Value, wantErr error, got value.Value, gotErr error) error {
	switch {
	case wantErr != nil && gotErr != nil:
		if wantErr.Error() != gotErr.Error() {
			return fmt.Errorf("%s: error text differs: reference %q, compiled %q", where, wantErr, gotErr)
		}
	case wantErr != nil || gotErr != nil:
		return fmt.Errorf("%s: reference (%v, %v), compiled (%v, %v)", where, want, wantErr, got, gotErr)
	case !sameValue(want, got):
		return fmt.Errorf("%s: reference %#v, compiled %#v", where, want, got)
	}
	return nil
}

func TestCompiledMatchesReference(t *testing.T) {
	g := &exprGen{rng: rand.New(rand.NewSource(20020820))}
	failures := 0
	for i := 0; i < 30000 && failures < 10; i++ {
		e := g.expr(1 + g.rng.Intn(4))
		for r := 0; r < 3; r++ {
			if err := g.diffCase().check(e); err != nil {
				t.Errorf("%s\n  %v", e.SQL(), err)
				failures++
				break
			}
		}
	}
}

// TestShortCircuitHidesErrors pins the cases the issue names: an operand
// that would fail is never reached behind a decisive left operand, at
// compile time or at run time.
func TestShortCircuitHidesErrors(t *testing.T) {
	cases := map[string]ast.Expr{}
	for _, src := range []string{
		"NOT (FALSE AND nosuch = 1)",
		"TRUE OR nosuch = 1",
		"NOT (FALSE AND (SELECT 1) = 1)",
		"TRUE OR NOSUCHFN(1)",
		"NOT (FALSE AND $9 = 1)",
		"a IS NULL OR 1 / 0 = 1",
		"NOT (NOT (a IS NULL) AND 1 % 0 = 1)",
	} {
		sel, err := parser.ParseSelect("SELECT " + src)
		if err != nil {
			t.Fatalf("%s: %v", src, err)
		}
		cases[src] = sel.Items[0].Expr
	}
	// `*` as a scalar does not parse; the untaken CASE arm is built by hand.
	yes := &ast.Literal{Val: value.NewBool(true)}
	cases["CASE WHEN TRUE THEN TRUE ELSE * END"] = &ast.Case{
		Whens: []ast.WhenClause{{When: yes, Then: yes}}, Else: &ast.Star{}}

	row := make(value.Row, len(diffScope)) // all NULL
	for src, e := range cases {
		got, err := Compile(e, Scope{Cols: diffScope}).EvalBool(nil, row)
		if err != nil || !got {
			t.Errorf("%s = %v, %v; want TRUE", src, got, err)
		}
	}
}

// TestProgramSharedAcrossGoroutines runs one compiled program from many
// goroutines at once, each with its own runtime (parameters) and rows —
// what a cached plan and the parallel BMO workers do. Run under -race.
func TestProgramSharedAcrossGoroutines(t *testing.T) {
	sel, err := parser.ParseSelect(
		"SELECT CASE WHEN a + ? > b THEN UPPER(s) || '!' ELSE COALESCE(s, 'none') END FROM t WHERE a BETWEEN ? AND 90 AND s LIKE 'r%'")
	if err != nil {
		t.Fatal(err)
	}
	scope := Scope{Cols: diffScope}
	item, where := Compile(sel.Items[0].Expr, scope), Compile(sel.Where, scope)

	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rt := &Runtime{Params: []value.Value{value.NewInt(int64(w)), value.NewInt(int64(10 * w))}}
			ref := &reference{Params: rt.Params}
			g := &exprGen{rng: rand.New(rand.NewSource(int64(w)))}
			for i := 0; i < 2000; i++ {
				row := g.row(len(diffScope))
				row[0], row[3] = value.NewInt(int64(g.rng.Intn(100))), value.NewText([]string{"road", "rail", "sea"}[g.rng.Intn(3)])
				env := &nameEnv{cols: diffScope, row: row}
				for _, p := range []struct {
					prog *Program
					e    ast.Expr
				}{{item, sel.Items[0].Expr}, {where, sel.Where}} {
					want, wantErr := ref.Eval(p.e, env)
					got, gotErr := p.prog.Eval(rt, row)
					if err := agree("shared program", want, wantErr, got, gotErr); err != nil {
						t.Errorf("worker %d: %v", w, err)
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
}

// FuzzCompiledVsReference feeds parsed SQL expressions (rather than
// generated ASTs) through the same comparison; the seed picks rows,
// parameters and environments.
func FuzzCompiledVsReference(f *testing.F) {
	for _, s := range []string{
		"a + b * 2", "a = 1 AND s LIKE 'a%'", "FALSE AND nosuch = 1", "dup + u.dup", "t.a BETWEEN $1 AND ?",
		"CASE a WHEN 1 THEN 'one' WHEN NULL THEN s ELSE o1 END", "s IN ('a', NULL, s || 'c')", "1 / (a - a)",
		"SUBSTR(s, a, 2)", "NOT flag OR d < d + 1", "LEVEL(a) + TOP(b)", "EXISTS (SELECT 1 FROM t) AND a IN (SELECT a FROM t)",
		"-s", "ABS(f, 1)", "total + a", "COALESCE()", "(SELECT b FROM t) % 3", "outer.o2 || x.a",
	} {
		f.Add(s, int64(len(s)))
	}
	f.Fuzz(func(t *testing.T, src string, seed int64) {
		if strings.Contains(src, ";") {
			return // would split the carrier statement
		}
		sel, err := parser.ParseSelect("SELECT " + src)
		if err != nil || len(sel.Items) != 1 {
			return
		}
		g := &exprGen{rng: rand.New(rand.NewSource(seed))}
		for r := 0; r < 4; r++ {
			if err := g.diffCase().check(sel.Items[0].Expr); err != nil {
				t.Fatalf("%s\n  %v", src, err)
			}
		}
	})
}
