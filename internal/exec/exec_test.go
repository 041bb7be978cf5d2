package exec

import (
	"fmt"
	"sync"
	"testing"

	"repro/internal/ast"
	"repro/internal/bmo"
	"repro/internal/expr"
	"repro/internal/plan"
	"repro/internal/preference"
	"repro/internal/storage"
	"repro/internal/value"
)

// Operator-level tests: plans are assembled from hand-built ASTs and plan
// nodes, executed with Build/Drain, and checked row by row.

func col(table, name string) *ast.Column { return &ast.Column{Table: table, Name: name} }
func lit(v value.Value) *ast.Literal     { return &ast.Literal{Val: v} }
func param(i int) *ast.Param             { return &ast.Param{Index: i} }
func bin(op string, l, r ast.Expr) *ast.Binary {
	return &ast.Binary{Op: op, L: l, R: r}
}
func star() []ast.SelectItem { return []ast.SelectItem{{Expr: &ast.Star{}}} }

func ints(vs ...int64) value.Row {
	r := make(value.Row, len(vs))
	for i, v := range vs {
		r[i] = value.NewInt(v)
	}
	return r
}

// jobsCatalog holds jobs(id INT, region TEXT, salary INT, exp INT): 40
// rows, region cycling over four names with every tenth NULL, and an index
// on region and on id.
func jobsCatalog(t *testing.T) (*storage.Catalog, *storage.Table) {
	t.Helper()
	cat := storage.NewCatalog()
	jobs := storage.NewTable("jobs", storage.Schema{Cols: []storage.Column{
		{Name: "id", Kind: value.Int}, {Name: "region", Kind: value.Text},
		{Name: "salary", Kind: value.Int}, {Name: "exp", Kind: value.Int},
	}})
	if err := cat.CreateTable(jobs); err != nil {
		t.Fatal(err)
	}
	regions := []string{"north", "south", "east", "west"}
	for i := 0; i < 40; i++ {
		region := value.NewText(regions[i%4])
		if i%10 == 9 {
			region = value.NewNull()
		}
		row := value.Row{value.NewInt(int64(i)), region, value.NewInt(int64(1000 + 37*i%900)), value.NewInt(int64(i % 7))}
		if err := jobs.Insert(row); err != nil {
			t.Fatal(err)
		}
	}
	for name, c := range map[string]string{"jobs_region": "region", "jobs_id": "id"} {
		if _, err := jobs.CreateIndex(name, []string{c}); err != nil {
			t.Fatal(err)
		}
	}
	return cat, jobs
}

func planJobs(t *testing.T, cat *storage.Catalog, where ast.Expr) plan.Node {
	t.Helper()
	p := &plan.Planner{Catalog: cat}
	node, err := p.PlanSource([]ast.TableRef{&ast.BaseTable{Name: "jobs"}}, where, false)
	if err != nil {
		t.Fatal(err)
	}
	return node
}

func run(t *testing.T, n plan.Node, env *Env) []value.Row {
	t.Helper()
	op, err := Build(n, env)
	if err != nil {
		t.Fatal(err)
	}
	rows, err := Drain(op)
	if err != nil {
		t.Fatal(err)
	}
	return rows
}

func ids(rows []value.Row) string {
	s := ""
	for _, r := range rows {
		s += fmt.Sprint(r[0].I, " ")
	}
	return s
}

func TestSeqScanResidualFilter(t *testing.T) {
	cat, jobs := jobsCatalog(t)
	// exp has no index: salary < $1 AND exp = 3 stays a filtered scan.
	node := planJobs(t, cat, bin("AND", bin("<", col("", "salary"), param(0)), bin("=", col("jobs", "EXP"), lit(value.NewInt(3)))))
	if _, ok := node.(*plan.SeqScan); !ok {
		t.Fatalf("want a SeqScan, got %s", node.Explain())
	}
	env := &Env{Rt: &expr.Runtime{Params: ints(1500)}}
	want := ""
	for _, r := range jobs.Rows() {
		if r[2].I < 1500 && r[3].I == 3 {
			want += fmt.Sprint(r[0].I, " ")
		}
	}
	if got := ids(run(t, node, env)); got != want || got == "" {
		t.Errorf("scan emitted ids %q, want %q", got, want)
	}
	if env.Stats.RowsScanned != 40 {
		t.Errorf("rows scanned %d, want the whole table", env.Stats.RowsScanned)
	}
	// An unbound parameter fails the statement, with the evaluator's text.
	op, _ := Build(node, &Env{Rt: &expr.Runtime{}})
	if _, err := Drain(op); err == nil || err.Error() != "parameter $1 is not bound (statement has 0 argument(s))" {
		t.Errorf("unbound parameter: %v", err)
	}
}

func TestIndexScanProbeAndFallbacks(t *testing.T) {
	cat, _ := jobsCatalog(t)
	byRegion := planJobs(t, cat, bin("AND", bin("=", col("", "region"), param(0)), bin(">=", col("", "id"), lit(value.NewInt(20)))))
	if _, ok := byRegion.(*plan.IndexScan); !ok {
		t.Fatalf("want an IndexScan, got %s", byRegion.Explain())
	}
	for _, tt := range []struct {
		name            string
		node            plan.Node
		key             value.Value
		want            string
		probes, scanned int64
	}{
		// The probe yields the region's bucket; the residual keeps id >= 20.
		{"probe + residual", byRegion, value.NewText("east"), "22 26 30 34 38 ", 1, 10},
		// region = NULL is UNKNOWN for every row: nothing is scanned at all.
		{"NULL key", byRegion, value.NewNull(), "", 0, 0},
		// A key the INT index cannot represent exactly ('abc') falls back to
		// the full scan; the residual equality then rejects every row.
		{"uncoercible key", planJobs(t, cat, bin("=", col("", "id"), param(0))), value.NewText("abc"), "", 0, 40},
		// A float key is coerced and probes.
		{"coerced key", planJobs(t, cat, bin("=", col("", "id"), param(0))), value.NewFloat(7), "7 ", 1, 1},
	} {
		env := &Env{Rt: &expr.Runtime{Params: value.Row{tt.key}}}
		if got := ids(run(t, tt.node, env)); got != tt.want {
			t.Errorf("%s: ids %q, want %q", tt.name, got, tt.want)
		}
		if st := env.count(); st.IndexProbes != tt.probes || st.RowsScanned != tt.scanned {
			t.Errorf("%s: %d probes, %d rows scanned; want %d, %d", tt.name, st.IndexProbes, st.RowsScanned, tt.probes, tt.scanned)
		}
	}
}

func TestFilterOverValues(t *testing.T) {
	vals := &plan.Values{Name: "v", Cols: plan.Schema{{Qual: "v", Name: "x"}, {Qual: "v", Name: "y"}},
		Rows: []value.Row{ints(1, 10), ints(2, 20), {value.NewInt(3), value.NewNull()}, ints(4, 40)}}
	// y > 15 is UNKNOWN on the NULL row, which drops it like FALSE.
	f := &plan.Filter{Child: vals, Conds: []ast.Expr{bin(">", col("", "y"), lit(value.NewInt(15))), bin("<>", col("v", "x"), lit(value.NewInt(4)))}}
	if got := ids(run(t, f, &Env{})); got != "2 " {
		t.Errorf("filter kept %q, want row 2 only", got)
	}
	// A non-boolean conjunct is an error, not a silent drop.
	bad := &plan.Filter{Child: vals, Conds: []ast.Expr{bin("+", col("", "x"), col("", "y"))}}
	op, _ := Build(bad, &Env{})
	if _, err := Drain(op); err == nil || err.Error() != "expected boolean condition, got INTEGER" {
		t.Errorf("non-boolean condition: %v", err)
	}
}

// outerRow is the enclosing statement's current row, as a subquery's
// operators see it.
type outerRow map[string]value.Value

func (o outerRow) Col(_, name string) (value.Value, bool) { v, ok := o[name]; return v, ok }
func (o outerRow) Func(*ast.FuncCall) (value.Value, bool, error) {
	return value.Value{}, false, nil
}

func TestNestedLoopJoinWithOuterCorrelation(t *testing.T) {
	l := &plan.Values{Name: "l", Cols: plan.Schema{{Qual: "l", Name: "a"}}, Rows: []value.Row{ints(1), ints(2), ints(3)}}
	r := &plan.Values{Name: "r", Cols: plan.Schema{{Qual: "r", Name: "b"}}, Rows: []value.Row{ints(2), ints(3), ints(4)}}
	// l.a + k < r.b — k resolves in neither input, only in the outer scope.
	on := bin("<", bin("+", col("l", "a"), col("", "k")), col("r", "b"))
	pairs := func(rows []value.Row) string {
		s := ""
		for _, row := range rows {
			s += row.String() + " "
		}
		return s
	}
	inner := plan.NewJoin(l, r, ast.InnerJoin, on, -1, -1)
	env := &Env{Rt: &expr.Runtime{Outer: outerRow{"k": value.NewInt(1)}}}
	if got := pairs(run(t, inner, env)); got != "(1, 3) (1, 4) (2, 4) " {
		t.Errorf("inner join rows %s", got)
	}
	// The same plan under another outer row: programs hold no outer state.
	env = &Env{Rt: &expr.Runtime{Outer: outerRow{"k": value.NewInt(0)}}}
	if got := pairs(run(t, inner, env)); got != "(1, 2) (1, 3) (1, 4) (2, 3) (2, 4) (3, 4) " {
		t.Errorf("inner join rows under k=0: %s", got)
	}
	// LEFT JOIN pads the unmatched driving row with NULLs.
	left := plan.NewJoin(l, r, ast.LeftJoin, on, -1, -1)
	env = &Env{Rt: &expr.Runtime{Outer: outerRow{"k": value.NewInt(1)}}}
	if got := pairs(run(t, left, env)); got != "(1, 3) (1, 4) (2, 4) (3, NULL) " {
		t.Errorf("left join rows %s", got)
	}
	// Without the outer scope the column is unknown.
	op, _ := Build(inner, &Env{})
	if _, err := Drain(op); err == nil || err.Error() != "unknown column k" {
		t.Errorf("uncorrelated run: %v", err)
	}
}

func TestProjectionOrderByAliasThenSource(t *testing.T) {
	vals := &plan.Values{Name: "t", Cols: plan.Schema{{Qual: "t", Name: "x"}, {Qual: "t", Name: "y"}},
		Rows: []value.Row{ints(1, 30), ints(2, 10), ints(3, 20), ints(4, 10)}}
	// SELECT y AS x, x AS orig  ORDER BY x, t.x DESC: the unqualified x
	// is the alias (= y); t.x is the source column and breaks the tie.
	items := []ast.SelectItem{{Expr: col("", "y"), Alias: "x"}, {Expr: col("", "x"), Alias: "orig"}}
	order := []ast.OrderItem{{Expr: col("", "x")}, {Expr: col("t", "x"), Desc: true}}
	rows := run(t, plan.NewProject(vals, items, order), &Env{})
	got := ""
	for _, r := range rows {
		got += r.String() + " "
	}
	if got != "(10, 4) (10, 2) (20, 3) (30, 1) " {
		t.Errorf("sorted projection %s", got)
	}
}

func TestBMOOverPassThroughProjection(t *testing.T) {
	cat, jobs := jobsCatalog(t)
	src := planJobs(t, cat, bin("=", col("", "region"), lit(value.NewText("north"))))
	proj := plan.NewProject(src, star(), nil)
	pref := &preference.Pareto{Parts: []preference.Preference{
		&preference.Lowest{Get: func(r value.Row) (value.Value, error) { return r[2], nil }, Label: "salary"},
		&preference.Highest{Get: func(r value.Row) (value.Value, error) { return r[3], nil }, Label: "exp"},
	}}
	env := &Env{Rec: NewNodeRec()}
	winners := run(t, plan.NewBMO(proj, pref, bmo.BlockNestedLoop, false, 0), env)
	if len(winners) == 0 {
		t.Fatal("empty skyline")
	}
	// Under the BMO the projection hands the table's own rows through…
	heap := map[*value.Value]bool{}
	for _, r := range jobs.Rows() {
		heap[&r[0]] = true
	}
	for _, w := range winners {
		if !heap[&w[0]] {
			t.Fatalf("winner %s was copied on its way through Project(*)", w)
		}
	}
	if ns := env.Rec.Lookup(proj); ns == nil || ns.Snapshot().Rows != 10 {
		t.Errorf("the projection node still records its rows: %+v", ns.Snapshot())
	}
	// …but on its own (the plan of a plain SELECT *) it copies, and so does
	// the final SELECT-list projection: mutating a result row leaves the
	// table alone.
	before := jobs.Rows()[0].String()
	for _, r := range run(t, proj, &Env{}) {
		if heap[&r[0]] {
			t.Fatal("a root projection must not emit the table's rows")
		}
		r[1] = value.NewText("clobbered")
	}
	out, err := proj.Projection().Row(nil, winners[0])
	if err != nil {
		t.Fatal(err)
	}
	out[1] = value.NewText("clobbered")
	if got := jobs.Rows()[0].String(); got != before || winners[0][1].S != "north" {
		t.Errorf("table row changed through a result row: %s -> %s", before, got)
	}
}

// TestCachedPlanRunsConcurrently executes one plan — and therefore one set
// of compiled programs — from eight goroutines with different parameters.
// Run under -race: the plan nodes' lazily compiled programs are the shared
// state.
func TestCachedPlanRunsConcurrently(t *testing.T) {
	cat, jobs := jobsCatalog(t)
	src := planJobs(t, cat, bin("AND", bin("=", col("", "region"), param(0)), bin("<", col("", "salary"), param(1))))
	items := []ast.SelectItem{{Expr: col("", "id")}, {Expr: bin("*", col("", "salary"), param(2)), Alias: "scaled"}}
	node := plan.NewProject(src, items, []ast.OrderItem{{Expr: col("", "scaled"), Desc: true}})

	regions := []string{"north", "south", "east", "west"}
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			region, cutoff, scale := regions[w%4], int64(1200+100*w), int64(w+1)
			want := map[int64]int64{}
			for _, r := range jobs.Rows() {
				if r[1].S == region && r[1].K == value.Text && r[2].I < cutoff {
					want[r[0].I] = r[2].I * scale
				}
			}
			for i := 0; i < 50; i++ {
				op, err := Build(node, &Env{Rt: &expr.Runtime{Params: value.Row{value.NewText(region), value.NewInt(cutoff), value.NewInt(scale)}}})
				if err != nil {
					t.Error(err)
					return
				}
				rows, err := Drain(op)
				if err != nil || len(rows) != len(want) {
					t.Errorf("worker %d: %d rows, %v; want %d", w, len(rows), err, len(want))
					return
				}
				for j, r := range rows {
					if want[r[0].I] != r[1].I || (j > 0 && rows[j-1][1].I < r[1].I) {
						t.Errorf("worker %d: row %s out of place or wrong", w, r)
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
}
