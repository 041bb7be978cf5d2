package plan

import (
	"strings"
	"testing"

	"repro/internal/ast"
	"repro/internal/bmo"
	"repro/internal/expr"
	"repro/internal/preference"
	"repro/internal/storage"
	"repro/internal/value"
)

// The statements here are built as ASTs, not SQL text: the tests pin what
// the planner and the plan nodes do with them, not the parser.

func col(table, name string) *ast.Column { return &ast.Column{Table: table, Name: name} }
func lit(v value.Value) *ast.Literal     { return &ast.Literal{Val: v} }
func bin(op string, l, r ast.Expr) *ast.Binary {
	return &ast.Binary{Op: op, L: l, R: r}
}
func star() []ast.SelectItem { return []ast.SelectItem{{Expr: &ast.Star{}}} }

// testCatalog holds jobs(id, region, salary) with an index on region and
// regions(name, tax), unindexed.
func testCatalog(t *testing.T) *storage.Catalog {
	t.Helper()
	cat := storage.NewCatalog()
	jobs := storage.NewTable("jobs", storage.Schema{Cols: []storage.Column{
		{Name: "id", Kind: value.Int}, {Name: "region", Kind: value.Text}, {Name: "salary", Kind: value.Int},
	}})
	regions := storage.NewTable("regions", storage.Schema{Cols: []storage.Column{
		{Name: "name", Kind: value.Text}, {Name: "tax", Kind: value.Int},
	}})
	for _, tbl := range []*storage.Table{jobs, regions} {
		if err := cat.CreateTable(tbl); err != nil {
			t.Fatal(err)
		}
	}
	for i, r := range []string{"north", "south", "north", "east"} {
		if err := jobs.Insert(value.Row{value.NewInt(int64(i)), value.NewText(r), value.NewInt(int64(1000 * (i + 1)))}); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := jobs.CreateIndex("jobs_region", []string{"region"}); err != nil {
		t.Fatal(err)
	}
	return cat
}

func TestSchemaResolution(t *testing.T) {
	s := Schema{{Qual: "j", Name: "id"}, {Qual: "r", Name: "ID"}, {Qual: "r", Name: "tax"}}
	if idx, n := s.ColIndex("", "Id"); idx != 0 || n != 2 {
		t.Errorf("ambiguous unqualified id: idx %d, %d matches; want first match 0 of 2", idx, n)
	}
	if idx, n := s.ColIndex("R", "id"); idx != 1 || n != 1 {
		t.Errorf("r.id: idx %d, %d matches", idx, n)
	}
	// The scope programs compile against resolves the same way.
	if slot, ok := s.Scope().Resolve("", "ID"); !ok || slot != 0 {
		t.Errorf("scope resolves id to slot %d, %v", slot, ok)
	}
	if _, ok := s.Scope().Resolve("j", "tax"); ok {
		t.Error("j.tax must not resolve")
	}
}

func TestPlanSourcePushdownAndIndexChoice(t *testing.T) {
	p := &Planner{Catalog: testCatalog(t)}
	from := []ast.TableRef{&ast.BaseTable{Name: "jobs", Alias: "j"}, &ast.BaseTable{Name: "regions", Alias: "r"}}
	where := bin("AND", bin("AND",
		bin("=", col("j", "region"), &ast.Param{Index: 0}), // pushed into jobs, becomes the probe
		bin("<", col("", "tax"), lit(value.NewInt(30)))),   // pushed into regions
		bin("=", col("j", "region"), col("r", "name"))) // spans both: the hash-join condition
	node, err := p.PlanSource(from, where, false)
	if err != nil {
		t.Fatal(err)
	}
	join, ok := node.(*Join)
	if !ok || join.LCol != 1 || join.RCol != 0 {
		t.Fatalf("want a hash join on j.region = r.name, got %s", Format(node))
	}
	idx, ok := join.Left.(*IndexScan)
	if !ok || idx.Col != 1 || len(idx.Filter) != 1 {
		t.Fatalf("left input: want an index scan keeping its equality as residual, got %s", join.Left.Explain())
	}
	scan, ok := join.Right.(*SeqScan)
	if !ok || len(scan.Filter) != 1 {
		t.Fatalf("right input: want a filtered scan, got %s", join.Right.Explain())
	}

	// An equality whose key reads the scanned table itself is no probe.
	node, err = p.PlanSource(from[:1], bin("=", col("", "region"), col("j", "region")), false)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := node.(*SeqScan); !ok {
		t.Errorf("self-referencing equality must stay a scan, got %s", node.Explain())
	}
	// A key that is an outer correlation is one.
	node, err = p.PlanSource(from[:1], bin("=", col("j", "region"), col("outer", "wanted")), false)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := node.(*IndexScan); !ok {
		t.Errorf("outer-correlated key should probe, got %s", node.Explain())
	}
}

func TestCompiledProgramsAreMemoizedPerNode(t *testing.T) {
	p := &Planner{Catalog: testCatalog(t)}
	node, err := p.PlanSource([]ast.TableRef{&ast.BaseTable{Name: "jobs"}},
		bin("=", col("", "region"), &ast.Param{Index: 0}), false)
	if err != nil {
		t.Fatal(err)
	}
	idx := node.(*IndexScan)
	if c1, c2 := idx.Cond(), idx.Cond(); len(c1) != 1 || c1[0] != c2[0] {
		t.Error("Cond must compile once per node")
	}
	if idx.KeyProg() != idx.KeyProg() {
		t.Error("KeyProg must compile once per node")
	}
	// The program is bound to the scan's slots: region is column 1.
	rt := &expr.Runtime{Params: []value.Value{value.NewText("south")}}
	row := value.Row{value.NewInt(7), value.NewText("south"), value.NewInt(1)}
	if ok, err := idx.Cond().Match(rt, row); err != nil || !ok {
		t.Errorf("residual on a matching row: %v, %v", ok, err)
	}
	if key, err := idx.KeyProg().Eval(rt, nil); err != nil || key.S != "south" {
		t.Errorf("probe key: %v, %v", key, err)
	}
}

func TestProjectSchemaAndSortScope(t *testing.T) {
	cat := testCatalog(t)
	jobs, _ := cat.Table("jobs")
	scan := NewSeqScan(jobs, "j")

	through := NewProject(scan, star(), nil)
	if !through.PassThrough() || len(through.Schema()) != 3 || through.Schema()[1] != (ColRef{Qual: "j", Name: "region"}) {
		t.Errorf("SELECT *: pass-through %v, schema %v", through.PassThrough(), through.Schema())
	}
	if NewProject(scan, star(), []ast.OrderItem{{Expr: col("", "id")}}).PassThrough() {
		t.Error("a sorting projection is not pass-through")
	}
	if NewProject(scan, []ast.SelectItem{{Expr: &ast.Star{Table: "j"}}}, nil).PassThrough() {
		t.Error("a qualified star is not the identity in general")
	}

	// SELECT salary / 2 AS id, j.*, region  ORDER BY id, j.id
	items := []ast.SelectItem{
		{Expr: bin("/", col("", "salary"), lit(value.NewInt(2))), Alias: "id"},
		{Expr: &ast.Star{Table: "J"}},
		{Expr: col("", "region")},
	}
	proj := NewProject(scan, items, []ast.OrderItem{{Expr: col("", "id")}, {Expr: col("j", "id")}})
	if got := strings.Join(proj.Schema().Names(), ","); got != "id,id,region,salary,region" {
		t.Errorf("schema names %s", got)
	}
	src := value.Row{value.NewInt(7), value.NewText("east"), value.NewInt(5000)}
	out, err := proj.Projection().Row(nil, src)
	if err != nil {
		t.Fatal(err)
	}
	if out.String() != (value.Row{value.NewInt(2500), value.NewInt(7), value.NewText("east"), value.NewInt(5000), value.NewText("east")}).String() {
		t.Errorf("projected row %s", out)
	}
	// Unqualified `id` is the alias (2500); `j.id` skips the aliases and
	// finds the source column (7).
	both := append(append(value.Row{}, out...), src...)
	keys := proj.SortKeys()
	if k0, _ := keys[0].Eval(nil, both); k0.I != 2500 {
		t.Errorf("ORDER BY id = %v, want the alias", k0)
	}
	if k1, _ := keys[1].Eval(nil, both); k1.I != 7 {
		t.Errorf("ORDER BY j.id = %v, want the source column", k1)
	}
}

func TestPushBMOKeepsPassThroughProjection(t *testing.T) {
	cat := testCatalog(t)
	jobs, _ := cat.Table("jobs")
	regions, _ := cat.Table("regions")
	join := NewJoin(NewSeqScan(jobs, "j"), NewSeqScan(regions, "r"), ast.InnerJoin,
		bin("=", col("j", "region"), col("r", "name")), 1, 0)
	pref := &preference.Lowest{Get: func(r value.Row) (value.Value, error) { return r[2], nil }, Label: "j.salary"}
	root := NewBMO(NewProject(join, star(), nil), pref, bmo.Auto, false, 0)

	pushed := PushBMO(root)
	proj, ok := pushed.(*Project)
	if !ok || !proj.PassThrough() {
		t.Fatalf("whole-preference pushdown should leave the pass-through projection on top:\n%s", Format(pushed))
	}
	if len(proj.Schema()) != 5 {
		t.Errorf("rebuilt projection schema %v", proj.Schema())
	}
	if b, ok := proj.Child.(*Join).Left.(*BMO); !ok || b.Pushdown != "left" || b.SemiSource == nil {
		t.Errorf("left input should be the pushed BMO with its partner filter:\n%s", Format(pushed))
	}
	if root.Child.(*Project).Child != Node(join) {
		t.Error("the rewrite must not mutate the unpushed tree")
	}
}
