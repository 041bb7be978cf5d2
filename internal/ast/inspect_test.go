package ast

import (
	goast "go/ast"
	"go/parser"
	"go/token"
	"reflect"
	"sort"
	"testing"

	"repro/internal/value"
)

// exprTypeNames parses this package's source for every type with an
// exprNode method: the full set of expression node types.
func exprTypeNames(t *testing.T) []string {
	t.Helper()
	f, err := parser.ParseFile(token.NewFileSet(), "ast.go", nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, d := range f.Decls {
		fn, ok := d.(*goast.FuncDecl)
		if !ok || fn.Recv == nil || fn.Name.Name != "exprNode" {
			continue
		}
		star := fn.Recv.List[0].Type.(*goast.StarExpr)
		names = append(names, star.X.(*goast.Ident).Name)
	}
	sort.Strings(names)
	return names
}

var exprIface = reflect.TypeOf((*Expr)(nil)).Elem()

// countExprs counts the expression nodes reachable from v by reflection
// over every field, stopping at nested query blocks — the ground truth
// Inspect's hand-written traversal must match.
func countExprs(v reflect.Value) int {
	switch v.Kind() {
	case reflect.Interface:
		if v.IsNil() {
			return 0
		}
		return countExprs(v.Elem())
	case reflect.Ptr:
		if v.IsNil() || v.Type() == reflect.TypeOf(&Select{}) {
			return 0
		}
		n := countExprs(v.Elem())
		if v.Type().Implements(exprIface) {
			n++
		}
		return n
	case reflect.Struct:
		n := 0
		for i := 0; i < v.NumField(); i++ {
			n += countExprs(v.Field(i))
		}
		return n
	case reflect.Slice:
		n := 0
		for i := 0; i < v.Len(); i++ {
			n += countExprs(v.Index(i))
		}
		return n
	}
	return 0
}

// TestInspectReachesEveryExprType builds one tree holding every
// expression node type, each with all operand slots filled, and checks
// that Inspect visits every type and exactly the nodes a reflective walk
// finds — so a new node type, or a new operand of an existing one, cannot
// be skipped silently.
func TestInspectReachesEveryExprType(t *testing.T) {
	one := func() Expr { return &Literal{Val: value.NewInt(1)} }
	sub := &Select{Items: []SelectItem{{Expr: &Column{Name: "hidden"}}}}
	tree := &FuncCall{Name: "F", Args: []Expr{
		&Unary{Op: "-", X: &Param{Index: 0}},
		&Binary{Op: "+", L: &Column{Name: "a"}, R: &Star{}},
		&IsNull{X: one()},
		&InList{X: one(), List: []Expr{one(), one()}},
		&InSelect{X: one(), Sub: sub},
		&Between{X: one(), Lo: one(), Hi: one()},
		&Like{X: one(), Pattern: one()},
		&Exists{Sub: sub},
		&ScalarSub{Sub: sub},
		&Case{Operand: one(), Whens: []WhenClause{{When: one(), Then: one()}}, Else: one()},
	}}

	seen := map[string]bool{}
	visits := 0
	Inspect(tree, func(e Expr) bool {
		visits++
		seen[reflect.TypeOf(e).Elem().Name()] = true
		if c, ok := e.(*Column); ok && c.Name == "hidden" {
			t.Error("Inspect entered a nested query block")
		}
		return true
	})
	for _, name := range exprTypeNames(t) {
		if !seen[name] {
			t.Errorf("Inspect never visited a %s node (add it to Inspect and to this tree)", name)
		}
	}
	if want := countExprs(reflect.ValueOf(tree)); visits != want {
		t.Errorf("Inspect visited %d nodes, the tree has %d", visits, want)
	}

	// Returning false prunes the subtree.
	visits = 0
	Inspect(tree, func(Expr) bool { visits++; return false })
	if visits != 1 {
		t.Errorf("pruned inspection visited %d nodes, want 1", visits)
	}
}

// TestInspectSelectCoversEveryClause checks that the block walker reaches
// every clause's expressions, join ON conditions and derived tables
// included, but not expression subqueries.
func TestInspectSelectCoversEveryClause(t *testing.T) {
	c := func(name string) *Column { return &Column{Name: name} }
	sel := &Select{
		Items: []SelectItem{{Expr: c("item")}},
		From: []TableRef{&Join{Type: InnerJoin, Left: &BaseTable{Name: "t"},
			Right: &SubqueryTable{Sel: &Select{Where: c("derived")}, Alias: "d"}, On: c("on")}},
		Where:       &Exists{Sub: &Select{Where: c("hidden")}},
		Preferring:  &PrefLowest{X: c("pref")},
		Grouping:    []*Column{c("grouping")},
		ButOnly:     c("butonly"),
		GroupBy:     []Expr{c("groupby")},
		Having:      c("having"),
		OrderBy:     []OrderItem{{Expr: c("orderby")}},
		Limit:       -1,
		LimitParam:  &Param{Index: 0},
		OffsetParam: &Param{Index: 1},
	}
	var got []string
	params := 0
	InspectSelect(sel, func(e Expr) bool {
		switch x := e.(type) {
		case *Column:
			got = append(got, x.Name)
		case *Param:
			params++
		}
		return true
	})
	sort.Strings(got)
	want := []string{"butonly", "derived", "groupby", "grouping", "having", "item", "on", "orderby", "pref"}
	if !reflect.DeepEqual(got, want) || params != 2 {
		t.Errorf("visited columns %v and %d params, want %v and 2", got, params, want)
	}
}
