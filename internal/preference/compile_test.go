package preference

import (
	"strings"
	"testing"

	"repro/internal/ast"
	"repro/internal/parser"
	"repro/internal/value"
)

// parsePref extracts the PREFERRING term of a parsed query.
func parsePref(t *testing.T, term string) ast.Pref {
	t.Helper()
	sel, err := parser.ParseSelect("SELECT * FROM t PREFERRING " + term)
	if err != nil {
		t.Fatalf("parse %q: %v", term, err)
	}
	return sel.Preferring
}

// oldtimerBinder binds (ident, color, age) rows.
func oldtimerBinder() *ColBinder {
	return &ColBinder{Cols: []string{"ident", "color", "age"}}
}

func oldtimerRows() []value.Row {
	mk := func(ident, color string, age int64) value.Row {
		return value.Row{value.NewText(ident), value.NewText(color), value.NewInt(age)}
	}
	return []value.Row{
		mk("Maggie", "white", 19),
		mk("Homer", "yellow", 35),
		mk("Selma", "red", 40),
	}
}

func compilePref(t *testing.T, term string) Preference {
	t.Helper()
	reg := NewRegistry()
	p, err := Compile(parsePref(t, term), oldtimerBinder(), reg)
	if err != nil {
		t.Fatalf("compile %q: %v", term, err)
	}
	return p
}

func TestCompileAround(t *testing.T) {
	p := compilePref(t, "age AROUND 40")
	rows := oldtimerRows()
	if o, _ := p.Compare(rows[2], rows[1]); o != Better {
		t.Errorf("Selma (40) should beat Homer (35): %v", o)
	}
	s, ok := p.(Scored)
	if !ok || s.Attr() != "age" {
		t.Errorf("attr: %v", p)
	}
}

func TestCompileBetween(t *testing.T) {
	p := compilePref(t, "age BETWEEN 30, 45")
	s := p.(Scored)
	if sc, _ := s.Score(oldtimerRows()[0]); sc != 11 {
		t.Errorf("Maggie (19) distance to 30: %v", sc)
	}
	if sc, _ := s.Score(oldtimerRows()[1]); sc != 0 {
		t.Errorf("Homer (35) inside: %v", sc)
	}
}

func TestCompileBetweenBadBounds(t *testing.T) {
	_, err := Compile(parsePref(t, "age BETWEEN 45, 30"), oldtimerBinder(), nil)
	if err == nil || !strings.Contains(err.Error(), "out of order") {
		t.Errorf("want bounds error, got %v", err)
	}
}

func TestCompileLowestHighest(t *testing.T) {
	lo := compilePref(t, "LOWEST(age)")
	hi := compilePref(t, "HIGHEST(age)")
	rows := oldtimerRows()
	if o, _ := lo.Compare(rows[0], rows[2]); o != Better {
		t.Error("19 lower than 40")
	}
	if o, _ := hi.Compare(rows[0], rows[2]); o != Worse {
		t.Error("19 not higher than 40")
	}
}

func TestCompilePosNegAndRegistry(t *testing.T) {
	reg := NewRegistry()
	p, err := Compile(parsePref(t, "color IN ('white', 'yellow') AND age AROUND 40"), oldtimerBinder(), reg)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := p.(*Pareto); !ok {
		t.Fatalf("not pareto: %T", p)
	}
	if _, ok := reg.Lookup("color"); !ok {
		t.Error("color not registered")
	}
	if _, ok := reg.Lookup("age"); !ok {
		t.Error("age not registered")
	}
	neg, err := Compile(parsePref(t, "color <> 'red'"), oldtimerBinder(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if s, _ := neg.(Scored).Score(oldtimerRows()[2]); s != 1 {
		t.Error("red is disliked")
	}
}

func TestCompileContains(t *testing.T) {
	p := compilePref(t, "ident CONTAINS ('mag')")
	s := p.(Scored)
	if sc, _ := s.Score(oldtimerRows()[0]); sc != 0 {
		t.Errorf("Maggie contains 'mag' (case-insensitive): %v", sc)
	}
	if sc, _ := s.Score(oldtimerRows()[1]); sc != 1 {
		t.Errorf("Homer misses 'mag': %v", sc)
	}
}

func TestCompileLayered(t *testing.T) {
	p := compilePref(t, "color = 'white' ELSE color = 'yellow'")
	lay, ok := p.(*Layered)
	if !ok || len(lay.Layers) != 2 {
		t.Fatalf("layered: %T", p)
	}
	if s, _ := lay.Score(oldtimerRows()[2]); s != 2 {
		t.Error("red at bottom layer")
	}
}

func TestCompileLayeredRejectsLowest(t *testing.T) {
	_, err := Compile(parsePref(t, "color = 'white' ELSE LOWEST(age)"), oldtimerBinder(), nil)
	if err == nil || !strings.Contains(err.Error(), "perfect match") {
		t.Errorf("want layering error, got %v", err)
	}
}

func TestCompileExplicit(t *testing.T) {
	p := compilePref(t, "EXPLICIT(color, 'white' > 'yellow', 'yellow' > 'red')")
	ex, ok := p.(*Explicit)
	if !ok {
		t.Fatalf("explicit: %T", p)
	}
	rows := oldtimerRows()
	if o, _ := ex.Compare(rows[0], rows[2]); o != Better {
		t.Error("white beats red via closure")
	}
}

func TestCompileExplicitCycle(t *testing.T) {
	_, err := Compile(parsePref(t, "EXPLICIT(color, 'a' > 'b', 'b' > 'a')"), oldtimerBinder(), nil)
	if err == nil || !strings.Contains(err.Error(), "cycle") {
		t.Errorf("want cycle error, got %v", err)
	}
}

func TestCompileBoolCondition(t *testing.T) {
	p := compilePref(t, "age <= 30")
	s := p.(Scored)
	if sc, _ := s.Score(oldtimerRows()[0]); sc != 0 {
		t.Error("Maggie satisfies age <= 30")
	}
	if sc, _ := s.Score(oldtimerRows()[2]); sc != 1 {
		t.Error("Selma violates age <= 30")
	}
}

func TestCompileCascade(t *testing.T) {
	p := compilePref(t, "LOWEST(age) CASCADE color = 'red'")
	if _, ok := p.(*Cascade); !ok {
		t.Fatalf("cascade: %T", p)
	}
}

func TestCompileDateTargets(t *testing.T) {
	// AROUND with a date string target coerces to day numbers.
	b := &ColBinder{Cols: []string{"start_day"}}
	p, err := Compile(parsePref(t, "start_day AROUND '1999/7/3'"), b, nil)
	if err != nil {
		t.Fatal(err)
	}
	d1, _ := value.ParseDate("1999/7/1")
	d2, _ := value.ParseDate("1999/7/4")
	o, err := p.Compare(value.Row{d2}, value.Row{d1})
	if err != nil || o != Better {
		t.Errorf("july 4 closer to july 3 than july 1: %v %v", o, err)
	}
}

func TestCompileErrors(t *testing.T) {
	b := oldtimerBinder()
	bad := []string{
		"nonexistent AROUND 4",      // unknown column
		"age AROUND 'not-a-number'", // non-numeric target
		"color IN (age)",            // non-literal values for ColBinder
	}
	for _, term := range bad {
		if _, err := Compile(parsePref(t, term), b, nil); err == nil {
			t.Errorf("compile %q should fail", term)
		}
	}
}

func TestColBinderCond(t *testing.T) {
	b := oldtimerBinder()
	for _, tt := range []struct {
		cond string
		row  int
		want bool
	}{
		{"age < 30", 0, true},
		{"age < 30", 2, false},
		{"age >= 40", 2, true},
		{"age <= 19", 0, true},
		{"age > 100", 1, false},
	} {
		pref := parsePref(t, tt.cond).(*ast.PrefBool)
		cond, err := b.Cond(pref.Cond)
		if err != nil {
			t.Fatalf("%s: %v", tt.cond, err)
		}
		got, err := cond(oldtimerRows()[tt.row])
		if err != nil || got != tt.want {
			t.Errorf("%s on row %d = %v (%v), want %v", tt.cond, tt.row, got, err, tt.want)
		}
	}
}

func TestColBinderErrors(t *testing.T) {
	b := oldtimerBinder()
	if _, err := b.Getter(&ast.FuncCall{Name: "ABS"}); err == nil {
		t.Error("function getter should fail in ColBinder")
	}
	if _, err := b.Const(&ast.Column{Name: "age"}); err == nil {
		t.Error("column as const should fail")
	}
	if _, err := b.Cond(&ast.IsNull{X: &ast.Column{Name: "age"}}); err == nil {
		t.Error("non-binary cond should fail in ColBinder")
	}
	if _, err := b.Cond(&ast.Binary{Op: "+", L: &ast.Column{Name: "age"}, R: &ast.Literal{Val: value.NewInt(1)}}); err == nil {
		t.Error("a binary operator that is no comparison should fail in ColBinder")
	}
	// a qualifier is ignored: the layout has names only
	if q, err := b.Getter(&ast.Column{Table: "cars", Name: "AGE"}); err != nil {
		t.Errorf("qualified column: %v", err)
	} else if v, _ := q(oldtimerRows()[0]); v.I != 19 {
		t.Errorf("cars.AGE on row 0 = %v, want 19", v)
	}
	// getter on short rows errors at evaluation time
	g, err := b.Getter(&ast.Column{Name: "age"})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := g(value.Row{value.NewText("only-one")}); err == nil {
		t.Error("short row should fail")
	}
}
