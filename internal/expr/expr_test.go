package expr

import (
	"strings"
	"testing"

	"repro/internal/ast"
	"repro/internal/parser"
	"repro/internal/value"
)

// evalStr parses `SELECT <e>` and evaluates the single select item.
func evalStr(t *testing.T, src string, env Env) (value.Value, error) {
	t.Helper()
	sel, err := parser.ParseSelect("SELECT " + src)
	if err != nil {
		t.Fatalf("parse %q: %v", src, err)
	}
	if env == nil {
		env = MapEnv{}
	}
	var ev Evaluator
	return ev.Eval(sel.Items[0].Expr, env)
}

func mustEval(t *testing.T, src string, env Env) value.Value {
	t.Helper()
	v, err := evalStr(t, src, env)
	if err != nil {
		t.Fatalf("eval %q: %v", src, err)
	}
	return v
}

func TestArithmetic(t *testing.T) {
	tests := []struct {
		src  string
		want string
	}{
		{"1 + 2", "3"},
		{"7 - 10", "-3"},
		{"6 * 7", "42"},
		{"7 / 2", "3"},     // integer division
		{"7.0 / 2", "3.5"}, // float promotes
		{"7 % 3", "1"},
		{"2 + 3 * 4", "14"}, // precedence
		{"(2 + 3) * 4", "20"},
		{"-5 + 2", "-3"},
		{"1.5 + 1", "2.5"},
		{"ABS(-4)", "4"},
		{"ABS(-4.5)", "4.5"},
		{"ROUND(2.6)", "3"},
		{"FLOOR(2.6)", "2"},
		{"CEIL(2.1)", "3"},
		{"POWER(2, 10)", "1024"},
	}
	for _, tt := range tests {
		if got := mustEval(t, tt.src, nil); got.String() != tt.want {
			t.Errorf("%s = %s, want %s", tt.src, got, tt.want)
		}
	}
}

func TestDivisionByZero(t *testing.T) {
	for _, src := range []string{"1 / 0", "1 % 0", "1.0 / 0"} {
		if _, err := evalStr(t, src, nil); err == nil {
			t.Errorf("%s should fail", src)
		}
	}
}

func TestComparisons(t *testing.T) {
	tests := []struct {
		src  string
		want bool
	}{
		{"1 < 2", true}, {"2 < 1", false}, {"2 <= 2", true},
		{"3 > 2", true}, {"3 >= 4", false}, {"1 = 1", true},
		{"1 <> 1", false}, {"'a' < 'b'", true}, {"'a' = 'a'", true},
		{"1 = 1.0", true},
	}
	for _, tt := range tests {
		if got := mustEval(t, tt.src, nil); got.IsTrue() != tt.want {
			t.Errorf("%s = %v, want %v", tt.src, got, tt.want)
		}
	}
}

func TestThreeValuedLogic(t *testing.T) {
	null := func(src string) {
		t.Helper()
		if v := mustEval(t, src, nil); !v.IsNull() {
			t.Errorf("%s should be NULL, got %v", src, v)
		}
	}
	boolean := func(src string, want bool) {
		t.Helper()
		v := mustEval(t, src, nil)
		if v.IsNull() || v.IsTrue() != want {
			t.Errorf("%s = %v, want %v", src, v, want)
		}
	}
	null("NULL = NULL")
	null("1 = NULL")
	null("NULL < 1")
	null("NOT (1 = NULL)")
	null("1 = NULL OR 2 = NULL")
	null("TRUE AND (1 = NULL)")
	boolean("FALSE AND (1 = NULL)", false) // false dominates AND
	boolean("TRUE OR (1 = NULL)", true)    // true dominates OR
	null("NULL + 1")
	null("NULL BETWEEN 1 AND 2")
	boolean("NULL IS NULL", true)
	boolean("1 IS NULL", false)
	boolean("1 IS NOT NULL", true)
}

func TestInList(t *testing.T) {
	tests := []struct {
		src    string
		want   bool
		isNull bool
	}{
		{"2 IN (1, 2, 3)", true, false},
		{"5 IN (1, 2, 3)", false, false},
		{"5 NOT IN (1, 2, 3)", true, false},
		{"2 NOT IN (1, 2, 3)", false, false},
		{"5 IN (1, NULL)", false, true}, // unknown
		{"1 IN (1, NULL)", true, false}, // found despite null
	}
	for _, tt := range tests {
		v := mustEval(t, tt.src, nil)
		if tt.isNull {
			if !v.IsNull() {
				t.Errorf("%s should be NULL, got %v", tt.src, v)
			}
			continue
		}
		if v.IsNull() || v.IsTrue() != tt.want {
			t.Errorf("%s = %v, want %v", tt.src, v, tt.want)
		}
	}
}

func TestBetween(t *testing.T) {
	if !mustEval(t, "5 BETWEEN 1 AND 10", nil).IsTrue() {
		t.Error("5 between 1 and 10")
	}
	if mustEval(t, "0 BETWEEN 1 AND 10", nil).IsTrue() {
		t.Error("0 not between 1 and 10")
	}
	if !mustEval(t, "0 NOT BETWEEN 1 AND 10", nil).IsTrue() {
		t.Error("not between")
	}
}

func TestLike(t *testing.T) {
	tests := []struct {
		s, pat string
		want   bool
	}{
		{"hello", "hello", true},
		{"hello", "h%", true},
		{"hello", "%o", true},
		{"hello", "%ell%", true},
		{"hello", "h_llo", true},
		{"hello", "h_go", false},
		{"hello", "", false},
		{"", "%", true},
		{"abc", "a%c", true},
		{"abc", "a%b", false},
		{"aXbXc", "a%b%c", true},
		{"mississippi", "%iss%ppi", true},
	}
	for _, tt := range tests {
		if got := likeMatch(tt.s, tt.pat); got != tt.want {
			t.Errorf("likeMatch(%q, %q) = %v, want %v", tt.s, tt.pat, got, tt.want)
		}
	}
	if !mustEval(t, "'cheap hotel' LIKE '%hotel%'", nil).IsTrue() {
		t.Error("LIKE through evaluator")
	}
}

func TestStringFunctions(t *testing.T) {
	tests := []struct {
		src, want string
	}{
		{"LOWER('AbC')", "abc"},
		{"UPPER('AbC')", "ABC"},
		{"LENGTH('hello')", "5"},
		{"TRIM('  x  ')", "x"},
		{"SUBSTR('hello', 2, 3)", "ell"},
		{"SUBSTR('hello', 2)", "ello"},
		{"SUBSTR('hello', 99)", ""},
		{"LEFT('hello', 2)", "he"},
		{"'a' || 'b' || 'c'", "abc"},
		{"COALESCE(NULL, NULL, 'x')", "x"},
		{"NULLIF(1, 2)", "1"},
	}
	for _, tt := range tests {
		if got := mustEval(t, tt.src, nil); got.String() != tt.want {
			t.Errorf("%s = %q, want %q", tt.src, got.String(), tt.want)
		}
	}
	if !mustEval(t, "NULLIF(1, 1)", nil).IsNull() {
		t.Error("NULLIF(1,1) should be NULL")
	}
}

func TestCase(t *testing.T) {
	env := MapEnv{"Make": value.NewText("Audi")}
	v := mustEval(t, "CASE WHEN Make = 'Audi' THEN 1 ELSE 2 END", env)
	if v.I != 1 {
		t.Errorf("case: %v", v)
	}
	env["Make"] = value.NewText("BMW")
	v = mustEval(t, "CASE WHEN Make = 'Audi' THEN 1 ELSE 2 END", env)
	if v.I != 2 {
		t.Errorf("case: %v", v)
	}
	v = mustEval(t, "CASE 2 WHEN 1 THEN 'one' WHEN 2 THEN 'two' END", nil)
	if v.String() != "two" {
		t.Errorf("simple case: %v", v)
	}
	if !mustEval(t, "CASE WHEN FALSE THEN 1 END", nil).IsNull() {
		t.Error("case without else should be NULL")
	}
}

func TestColumnResolution(t *testing.T) {
	env := MapEnv{"a": value.NewInt(10), "t.b": value.NewInt(20)}
	if v := mustEval(t, "a + 1", env); v.I != 11 {
		t.Errorf("a+1 = %v", v)
	}
	if v := mustEval(t, "t.b", env); v.I != 20 {
		t.Errorf("t.b = %v", v)
	}
	if _, err := evalStr(t, "missing_col", env); err == nil {
		t.Error("unknown column should error")
	}
}

func TestRowEnvShadowsOuter(t *testing.T) {
	outer := MapEnv{"a": value.NewInt(99), "b": value.NewInt(2)}
	env := &RowEnv{Scope: Scope{Cols: []Col{{Qual: "t", Name: "A"}}}, Row: value.Row{value.NewInt(1)}, Outer: outer}
	if v, ok := env.Col("T", "a"); !ok || v.I != 1 {
		t.Error("qualified reference should resolve case-insensitively")
	}
	if v, _ := env.Col("", "a"); v.I != 1 {
		t.Error("inner should shadow outer")
	}
	if v, ok := env.Col("", "b"); !ok || v.I != 2 {
		t.Error("outer fallback failed")
	}
	if _, ok := env.Col("", "c"); ok {
		t.Error("c should not resolve")
	}
}

func TestFuncEnvInterception(t *testing.T) {
	env := funcEnv{MapEnv{}}
	v := mustEval(t, "LEVEL(color)", env)
	if v.I != 7 {
		t.Errorf("intercepted LEVEL = %v", v)
	}
}

type funcEnv struct{ MapEnv }

func (f funcEnv) Func(fc *ast.FuncCall) (value.Value, bool, error) {
	if fc.Name == "LEVEL" {
		return value.NewInt(7), true, nil
	}
	return value.Value{}, false, nil
}

func TestSubqueryWithoutRunnerFails(t *testing.T) {
	for _, src := range []string{
		"EXISTS (SELECT 1 FROM t)",
		"(SELECT a FROM t)",
		"1 IN (SELECT a FROM t)",
	} {
		if _, err := evalStr(t, src, nil); err == nil || !strings.Contains(err.Error(), "subquer") {
			t.Errorf("%s should report missing subquery support, got %v", src, err)
		}
	}
}

func TestErrorsPropagate(t *testing.T) {
	bad := []string{
		"'a' + 1",
		"NOT 5",
		"-'x'",
		"UNKNOWN_FUNC(1)",
		"ABS('x')",
		"ABS(1, 2)",
		"1 LIKE 2",
	}
	for _, src := range bad {
		if _, err := evalStr(t, src, nil); err == nil {
			t.Errorf("%s should fail", src)
		}
	}
}

func TestDateComparisonAndArithmetic(t *testing.T) {
	env := MapEnv{
		"d1": mustDate(t, "1999/7/1"),
		"d2": mustDate(t, "1999/7/3"),
	}
	if !mustEval(t, "d1 < d2", env).IsTrue() {
		t.Error("date compare")
	}
	if v := mustEval(t, "d2 - d1", env); v.Num() != 2 {
		t.Errorf("date difference: %v", v)
	}
}

func mustDate(t *testing.T, s string) value.Value {
	t.Helper()
	v, err := value.ParseDate(s)
	if err != nil {
		t.Fatal(err)
	}
	return v
}

func TestMoreMathFunctions(t *testing.T) {
	tests := []struct {
		src, want string
	}{
		{"SQRT(16)", "4"},
		{"POW(3, 2)", "9"},
		{"CEILING(1.2)", "2"},
		{"LEN('abc')", "3"},
	}
	for _, tt := range tests {
		if got := mustEval(t, tt.src, nil); got.String() != tt.want {
			t.Errorf("%s = %q, want %q", tt.src, got.String(), tt.want)
		}
	}
	// NULL propagation through scalar functions
	for _, src := range []string{"SQRT(NULL)", "LOWER(NULL)", "LENGTH(NULL)", "ROUND(NULL)", "FLOOR(NULL)", "CEIL(NULL)", "TRIM(NULL)", "UPPER(NULL)", "SUBSTR(NULL, 1)", "LEFT(NULL, 2)", "POWER(NULL, 2)"} {
		if v := mustEval(t, src, nil); !v.IsNull() {
			t.Errorf("%s should be NULL, got %v", src, v)
		}
	}
}

func TestConcatCoercesToText(t *testing.T) {
	if got := mustEval(t, "'n=' || 42", nil); got.String() != "n=42" {
		t.Errorf("concat: %q", got.String())
	}
}

func TestSubstrEdgeCases(t *testing.T) {
	tests := []struct {
		src, want string
	}{
		{"SUBSTR('hello', 0)", "hello"},   // clamped to start
		{"SUBSTR('hello', 1, 0)", ""},     // zero length
		{"SUBSTR('hello', 3, 99)", "llo"}, // overlong
		{"LEFT('hi', 99)", "hi"},
		{"LEFT('hi', -1)", ""},
	}
	for _, tt := range tests {
		if got := mustEval(t, tt.src, nil); got.String() != tt.want {
			t.Errorf("%s = %q, want %q", tt.src, got.String(), tt.want)
		}
	}
	if _, err := evalStr(t, "SUBSTR('x')", nil); err == nil {
		t.Error("SUBSTR/1 should fail")
	}
}

func TestUnaryMinusOnColumns(t *testing.T) {
	env := MapEnv{"x": value.NewInt(5), "f": value.NewFloat(2.5)}
	if v := mustEval(t, "-x", env); v.I != -5 {
		t.Errorf("-x = %v", v)
	}
	if v := mustEval(t, "-f", env); v.F != -2.5 {
		t.Errorf("-f = %v", v)
	}
	if v := mustEval(t, "0 - x", env); v.I != -5 {
		t.Errorf("0-x = %v", v)
	}
}

func TestBooleanOperandTypeErrors(t *testing.T) {
	for _, src := range []string{"1 AND TRUE", "FALSE OR 3"} {
		if _, err := evalStr(t, src, nil); err == nil {
			t.Errorf("%s should fail", src)
		}
	}
	// but short-circuit avoids evaluating the right side
	if v := mustEval(t, "FALSE AND (1 / 0 = 1)", nil); v.IsTrue() {
		t.Error("short circuit AND")
	}
	if v := mustEval(t, "TRUE OR (1 / 0 = 1)", nil); !v.IsTrue() {
		t.Error("short circuit OR")
	}
}

func TestNullIfAndCoalesceWithAllNull(t *testing.T) {
	if !mustEval(t, "COALESCE(NULL, NULL)", nil).IsNull() {
		t.Error("all-null coalesce")
	}
	if !mustEval(t, "NULLIF(NULL, 1)", nil).IsNull() {
		t.Error("NULLIF(NULL, x)")
	}
}
