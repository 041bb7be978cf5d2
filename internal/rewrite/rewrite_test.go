package rewrite_test

import (
	"math"
	"sort"
	"strings"
	"testing"

	"repro/internal/ast"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/parser"
	"repro/internal/rewrite"
	"repro/internal/value"
)

func mustParse(t *testing.T, sql string) *ast.Select {
	t.Helper()
	sel, err := parser.ParseSelect(sql)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	return sel
}

// runPlan executes setup, query and teardown against the engine.
func runPlan(t *testing.T, db *engine.DB, plan *rewrite.Plan) *engine.Result {
	t.Helper()
	for _, s := range plan.Setup {
		if _, err := db.ExecStmt(s); err != nil {
			t.Fatalf("setup %s: %v", s.SQL(), err)
		}
	}
	res, err := db.ExecStmt(plan.Query)
	if err != nil {
		t.Fatalf("query %s: %v", plan.Query.SQL(), err)
	}
	for _, s := range plan.Teardown {
		if _, err := db.ExecStmt(s); err != nil {
			t.Fatalf("teardown: %v", err)
		}
	}
	return res
}

func carsDB(t *testing.T) *engine.DB {
	t.Helper()
	db := engine.New()
	if _, err := db.Exec(`CREATE TABLE Cars (
		Identifier INTEGER, Make VARCHAR, Model VARCHAR,
		Price INTEGER, Mileage INTEGER, Airbag VARCHAR, Diesel VARCHAR);
	INSERT INTO Cars VALUES
		(1, 'Audi', 'A6', 40000, 15000, 'yes', 'no'),
		(2, 'BMW', '5 series', 35000, 30000, 'yes', 'yes'),
		(3, 'Volkswagen', 'Beetle', 20000, 10000, 'yes', 'no')`); err != nil {
		t.Fatal(err)
	}
	return db
}

var carsCols = []string{"Identifier", "Make", "Model", "Price", "Mileage", "Airbag", "Diesel"}

// The paper's §3.2 example end to end: PREFERRING Make='Audi' AND
// Diesel='yes' rewrites to the Aux view + NOT EXISTS and returns the
// Pareto-optimal cars {1, 2}.
func TestPaperCarsRewrite(t *testing.T) {
	sel := mustParse(t, "SELECT * FROM Cars PREFERRING Make = 'Audi' AND Diesel = 'yes'")
	plan, err := rewrite.Rewrite(sel, carsCols)
	if err != nil {
		t.Fatal(err)
	}
	script := plan.Script()
	for _, want := range []string{"CREATE VIEW", "NOT EXISTS", "CASE WHEN", "DROP VIEW"} {
		if !strings.Contains(script, want) {
			t.Errorf("script lacks %q:\n%s", want, script)
		}
	}
	res := runPlan(t, carsDB(t), plan)
	if len(res.Rows) != 2 {
		t.Fatalf("result size %d: %v", len(res.Rows), res.Rows)
	}
	ids := map[int64]bool{res.Rows[0][0].I: true, res.Rows[1][0].I: true}
	if !ids[1] || !ids[2] {
		t.Errorf("ids: %v", ids)
	}
	// star projection must not leak level columns
	if len(res.Columns) != len(carsCols) {
		t.Errorf("columns leak: %v", res.Columns)
	}
}

func TestRewriteRequiresPreference(t *testing.T) {
	sel := mustParse(t, "SELECT * FROM Cars")
	if _, err := rewrite.Rewrite(sel, carsCols); err == nil {
		t.Fatal("want error")
	}
}

func TestLowestRewrite(t *testing.T) {
	sel := mustParse(t, "SELECT Identifier FROM Cars PREFERRING LOWEST(Price)")
	plan, err := rewrite.Rewrite(sel, carsCols)
	if err != nil {
		t.Fatal(err)
	}
	res := runPlan(t, carsDB(t), plan)
	if len(res.Rows) != 1 || res.Rows[0][0].I != 3 {
		t.Fatalf("lowest price: %v", res.Rows)
	}
}

func TestAroundRewrite(t *testing.T) {
	sel := mustParse(t, "SELECT Identifier FROM Cars PREFERRING Price AROUND 34000")
	plan, err := rewrite.Rewrite(sel, carsCols)
	if err != nil {
		t.Fatal(err)
	}
	res := runPlan(t, carsDB(t), plan)
	if len(res.Rows) != 1 || res.Rows[0][0].I != 2 {
		t.Fatalf("around 34000: %v", res.Rows)
	}
}

func TestCascadeRewriteStages(t *testing.T) {
	// HIGHEST(Price) CASCADE LOWEST(Mileage): Audi wins stage 1 alone.
	sel := mustParse(t, "SELECT Identifier FROM Cars PREFERRING HIGHEST(Price) CASCADE LOWEST(Mileage)")
	plan, err := rewrite.Rewrite(sel, carsCols)
	if err != nil {
		t.Fatal(err)
	}
	if len(plan.Setup) != 3 { // aux + 2 stages
		t.Errorf("setup statements: %d", len(plan.Setup))
	}
	res := runPlan(t, carsDB(t), plan)
	if len(res.Rows) != 1 || res.Rows[0][0].I != 1 {
		t.Fatalf("cascade: %v", res.Rows)
	}
}

func TestCascadeTieBrokenBySecondStage(t *testing.T) {
	db := carsDB(t)
	if _, err := db.Exec("INSERT INTO Cars VALUES (4, 'Opel', 'GT', 40000, 5000, 'yes', 'no')"); err != nil {
		t.Fatal(err)
	}
	sel := mustParse(t, "SELECT Identifier FROM Cars PREFERRING HIGHEST(Price) CASCADE LOWEST(Mileage)")
	plan, err := rewrite.Rewrite(sel, carsCols)
	if err != nil {
		t.Fatal(err)
	}
	res := runPlan(t, db, plan)
	if len(res.Rows) != 1 || res.Rows[0][0].I != 4 {
		t.Fatalf("tie break: %v", res.Rows)
	}
}

func TestButOnlyRewrite(t *testing.T) {
	sel := mustParse(t, `SELECT Identifier FROM Cars
		PREFERRING Price AROUND 30000 BUT ONLY DISTANCE(Price) <= 1000`)
	plan, err := rewrite.Rewrite(sel, carsCols)
	if err != nil {
		t.Fatal(err)
	}
	res := runPlan(t, carsDB(t), plan)
	// best is BMW at distance 5000 > 1000: result must be empty
	if len(res.Rows) != 0 {
		t.Fatalf("but only should empty the result: %v", res.Rows)
	}
}

func TestQualityFunctionsInSelect(t *testing.T) {
	sel := mustParse(t, `SELECT Identifier, LEVEL(Make), DISTANCE(Price), TOP(Make) FROM Cars
		PREFERRING Make = 'Audi' AND Price AROUND 40000`)
	plan, err := rewrite.Rewrite(sel, carsCols)
	if err != nil {
		t.Fatal(err)
	}
	res := runPlan(t, carsDB(t), plan)
	if len(res.Rows) != 1 {
		t.Fatalf("rows: %v", res.Rows)
	}
	row := res.Rows[0]
	if row[0].I != 1 || row[1].I != 1 || row[2].Num() != 0 || !row[3].IsTrue() {
		t.Errorf("quality row: %v", row)
	}
}

func TestRelativeDistanceForLowest(t *testing.T) {
	sel := mustParse(t, `SELECT Identifier, DISTANCE(Price) FROM Cars PREFERRING LOWEST(Price)`)
	plan, err := rewrite.Rewrite(sel, carsCols)
	if err != nil {
		t.Fatal(err)
	}
	res := runPlan(t, carsDB(t), plan)
	if len(res.Rows) != 1 || res.Rows[0][1].Num() != 0 {
		t.Fatalf("relative distance at optimum should be 0: %v", res.Rows)
	}
}

func TestGroupingRewrite(t *testing.T) {
	sel := mustParse(t, `SELECT Identifier FROM Cars PREFERRING LOWEST(Price) GROUPING Diesel`)
	plan, err := rewrite.Rewrite(sel, carsCols)
	if err != nil {
		t.Fatal(err)
	}
	res := runPlan(t, carsDB(t), plan)
	// groups: Diesel=no -> VW(3) cheapest; Diesel=yes -> BMW(2)
	if len(res.Rows) != 2 {
		t.Fatalf("grouped: %v", res.Rows)
	}
}

func TestLayeredElseRewrite(t *testing.T) {
	db := engine.New()
	if _, err := db.Exec(`CREATE TABLE car2 (id INT, category VARCHAR);
		INSERT INTO car2 VALUES (1, 'passenger'), (2, 'suv'), (3, 'truck')`); err != nil {
		t.Fatal(err)
	}
	sel := mustParse(t, `SELECT id FROM car2
		PREFERRING category = 'roadster' ELSE category <> 'passenger'`)
	plan, err := rewrite.Rewrite(sel, []string{"id", "category"})
	if err != nil {
		t.Fatal(err)
	}
	res := runPlan(t, db, plan)
	// no roadster: suv and truck (level 1) beat passenger (level 2)
	if len(res.Rows) != 2 {
		t.Fatalf("layered: %v", res.Rows)
	}
}

func TestExplicitRewrite(t *testing.T) {
	db := engine.New()
	if _, err := db.Exec(`CREATE TABLE t (id INT, color VARCHAR);
		INSERT INTO t VALUES (1, 'red'), (2, 'blue'), (3, 'green'), (4, 'purple')`); err != nil {
		t.Fatal(err)
	}
	sel := mustParse(t, `SELECT id, LEVEL(color) FROM t
		PREFERRING EXPLICIT(color, 'red' > 'blue', 'blue' > 'green')`)
	plan, err := rewrite.Rewrite(sel, []string{"id", "color"})
	if err != nil {
		t.Fatal(err)
	}
	res := runPlan(t, db, plan)
	if len(res.Rows) != 1 || res.Rows[0][0].I != 1 || res.Rows[0][1].I != 1 {
		t.Fatalf("explicit: %v", res.Rows)
	}
}

func TestExplicitIncomparableChainsBothSurvive(t *testing.T) {
	db := engine.New()
	if _, err := db.Exec(`CREATE TABLE t (id INT, color VARCHAR);
		INSERT INTO t VALUES (1, 'red'), (2, 'yellow'), (3, 'green')`); err != nil {
		t.Fatal(err)
	}
	// red > green, yellow > green: red and yellow are incomparable maxima.
	sel := mustParse(t, `SELECT id FROM t
		PREFERRING EXPLICIT(color, 'red' > 'green', 'yellow' > 'green')`)
	plan, err := rewrite.Rewrite(sel, []string{"id", "color"})
	if err != nil {
		t.Fatal(err)
	}
	res := runPlan(t, db, plan)
	if len(res.Rows) != 2 {
		t.Fatalf("incomparable maxima: %v", res.Rows)
	}
}

func TestContainsRewrite(t *testing.T) {
	db := engine.New()
	if _, err := db.Exec(`CREATE TABLE docs (id INT, body VARCHAR);
		INSERT INTO docs VALUES
		(1, 'Preference SQL extends database systems'),
		(2, 'a database paper'),
		(3, 'cooking recipes')`); err != nil {
		t.Fatal(err)
	}
	sel := mustParse(t, `SELECT id FROM docs PREFERRING body CONTAINS ('database', 'preference')`)
	plan, err := rewrite.Rewrite(sel, []string{"id", "body"})
	if err != nil {
		t.Fatal(err)
	}
	res := runPlan(t, db, plan)
	if len(res.Rows) != 1 || res.Rows[0][0].I != 1 {
		t.Fatalf("contains: %v", res.Rows)
	}
}

func TestNestedCascadeInsideParetoRejected(t *testing.T) {
	sel := mustParse(t, `SELECT * FROM Cars PREFERRING (LOWEST(Price) CASCADE LOWEST(Mileage)) AND HIGHEST(Price)`)
	if _, err := rewrite.Rewrite(sel, carsCols); err == nil {
		t.Fatal("nested cascade should be rejected by the rewriter")
	}
}

func TestDateAroundRewrite(t *testing.T) {
	db := engine.New()
	if _, err := db.Exec(`CREATE TABLE trips (id INT, start_day DATE);
		INSERT INTO trips VALUES (1, '1999-07-01'), (2, '1999-07-04'), (3, '1999-08-01')`); err != nil {
		t.Fatal(err)
	}
	sel := mustParse(t, `SELECT id FROM trips PREFERRING start_day AROUND '1999/7/3'`)
	plan, err := rewrite.Rewrite(sel, []string{"id", "start_day"})
	if err != nil {
		t.Fatal(err)
	}
	res := runPlan(t, db, plan)
	if len(res.Rows) != 1 || res.Rows[0][0].I != 2 {
		t.Fatalf("date around: %v", res.Rows)
	}
}

func TestNullsLoseToValues(t *testing.T) {
	db := engine.New()
	if _, err := db.Exec(`CREATE TABLE t (id INT, x INT);
		INSERT INTO t VALUES (1, 5), (2, NULL)`); err != nil {
		t.Fatal(err)
	}
	sel := mustParse(t, `SELECT id FROM t PREFERRING x AROUND 5`)
	plan, err := rewrite.Rewrite(sel, []string{"id", "x"})
	if err != nil {
		t.Fatal(err)
	}
	res := runPlan(t, db, plan)
	if len(res.Rows) != 1 || res.Rows[0][0].I != 1 {
		t.Fatalf("null should lose: %v", res.Rows)
	}
}

func TestOrderByAfterPreference(t *testing.T) {
	db := carsDB(t)
	if _, err := db.Exec("INSERT INTO Cars VALUES (4, 'Seat', 'Ibiza', 20000, 99000, 'no', 'no')"); err != nil {
		t.Fatal(err)
	}
	sel := mustParse(t, "SELECT Identifier FROM Cars PREFERRING LOWEST(Price) ORDER BY Identifier DESC")
	plan, err := rewrite.Rewrite(sel, carsCols)
	if err != nil {
		t.Fatal(err)
	}
	res := runPlan(t, db, plan)
	if len(res.Rows) != 2 || res.Rows[0][0].I != 4 || res.Rows[1][0].I != 3 {
		t.Fatalf("ordered BMO: %v", res.Rows)
	}
}

func TestUniqueViewNamesAcrossRewrites(t *testing.T) {
	sel := mustParse(t, "SELECT * FROM Cars PREFERRING LOWEST(Price)")
	p1, err := rewrite.Rewrite(sel, carsCols)
	if err != nil {
		t.Fatal(err)
	}
	p2, err := rewrite.Rewrite(sel, carsCols)
	if err != nil {
		t.Fatal(err)
	}
	n1 := p1.Setup[0].(*ast.CreateView).Name
	n2 := p2.Setup[0].(*ast.CreateView).Name
	if n1 == n2 {
		t.Fatalf("view names collide: %s", n1)
	}
}

// Every emitted script must itself parse: the rewriter's output is valid
// SQL of our own dialect (and plain SQL92 by construction).
func TestEmittedScriptsParse(t *testing.T) {
	queries := []string{
		"SELECT * FROM Cars PREFERRING Make = 'Audi' AND Diesel = 'yes'",
		"SELECT Identifier FROM Cars PREFERRING LOWEST(Price) CASCADE HIGHEST(Mileage)",
		"SELECT Identifier, LEVEL(Make) FROM Cars PREFERRING Make = 'Audi' ELSE Make = 'BMW'",
		"SELECT Identifier FROM Cars PREFERRING Price BETWEEN 20000, 30000 AND Mileage AROUND 15000",
		"SELECT Identifier FROM Cars PREFERRING EXPLICIT(Make, 'Audi' > 'BMW') GROUPING Diesel",
		"SELECT Identifier, DISTANCE(Price) FROM Cars PREFERRING LOWEST(Price) BUT ONLY DISTANCE(Price) <= 5000",
		"SELECT Identifier FROM Cars PREFERRING Model CONTAINS ('series')",
	}
	for _, q := range queries {
		sel := mustParse(t, q)
		plan, err := rewrite.Rewrite(sel, carsCols)
		if err != nil {
			t.Fatalf("%s: %v", q, err)
		}
		if _, err := parser.ParseAll(plan.Script()); err != nil {
			t.Errorf("emitted script does not parse for %q:\n%s\nerror: %v", q, plan.Script(), err)
		}
	}
}

// The rewritten scripts for these queries must also RUN and agree with
// each other across repeated plan generations (fresh view names).
func TestPlansAreReusableAndIsolated(t *testing.T) {
	db := carsDB(t)
	sel := mustParse(t, "SELECT Identifier FROM Cars PREFERRING LOWEST(Price)")
	for i := 0; i < 3; i++ {
		plan, err := rewrite.Rewrite(sel, carsCols)
		if err != nil {
			t.Fatal(err)
		}
		res := runPlan(t, db, plan)
		if len(res.Rows) != 1 || res.Rows[0][0].I != 3 {
			t.Fatalf("iteration %d: %v", i, res.Rows)
		}
	}
	// no views left behind
	if n := len(db.Catalog().ViewNames()); n != 0 {
		t.Errorf("%d views leaked", n)
	}
}

func TestButOnlyWithLevelOnLayered(t *testing.T) {
	db := engine.New()
	if _, err := db.Exec(`CREATE TABLE t (id INT, color VARCHAR);
		INSERT INTO t VALUES (1, 'red'), (2, 'yellow')`); err != nil {
		t.Fatal(err)
	}
	// no white exists: best is yellow at level 2; BUT ONLY LEVEL <= 1 empties
	sel := mustParse(t, `SELECT id FROM t
		PREFERRING color = 'white' ELSE color = 'yellow'
		BUT ONLY LEVEL(color) <= 1`)
	plan, err := rewrite.Rewrite(sel, []string{"id", "color"})
	if err != nil {
		t.Fatal(err)
	}
	res := runPlan(t, db, plan)
	if len(res.Rows) != 0 {
		t.Fatalf("level threshold: %v", res.Rows)
	}
}

func TestRewriteTopFunction(t *testing.T) {
	sel := mustParse(t, `SELECT Identifier, TOP(Price) FROM Cars PREFERRING Price AROUND 20000`)
	plan, err := rewrite.Rewrite(sel, carsCols)
	if err != nil {
		t.Fatal(err)
	}
	res := runPlan(t, carsDB(t), plan)
	if len(res.Rows) != 1 || !res.Rows[0][1].IsTrue() {
		t.Fatalf("top: %v", res.Rows)
	}
}

// TestHighestOverBoolean: HIGHEST over a BOOLEAN column ranks TRUE above
// FALSE natively; the rewrite must give the same answer, quality
// functions included, although `-` does not accept booleans.
func TestHighestOverBoolean(t *testing.T) {
	db := core.Open()
	if _, err := db.Exec(`CREATE TABLE t (id INT, b BOOLEAN, n INT, f FLOAT, d DATE);
		INSERT INTO t VALUES (1, FALSE, 0, 1.0, '1970-01-02'), (2, TRUE, 1, 0.0, '1970-01-01'),
			(3, NULL, 2, 1.0, '1999-07-03'), (4, TRUE, NULL, -0.0, NULL)`); err != nil {
		t.Fatal(err)
	}
	native, rw := db.NewSession(), db.NewSession()
	rw.SetMode(core.ModeRewrite)
	for _, q := range []string{
		`SELECT id FROM t PREFERRING HIGHEST(b)`,
		`SELECT id, DISTANCE(b), TOP(b), LEVEL(b) FROM t PREFERRING HIGHEST(b)`,
		`SELECT id FROM t PREFERRING HIGHEST(b) AND HIGHEST(n)`,
		`SELECT id, DISTANCE(n) FROM t PREFERRING HIGHEST(n)`,
		`SELECT id, DISTANCE(f) FROM t PREFERRING HIGHEST(f)`,
		`SELECT id, DISTANCE(d) FROM t PREFERRING HIGHEST(d)`,
		`SELECT id FROM t PREFERRING HIGHEST(b) BUT ONLY DISTANCE(b) <= 0`,
	} {
		want, err := native.Query(q)
		if err != nil {
			t.Fatal(err)
		}
		got, err := rw.Query(q)
		if err != nil {
			t.Fatalf("%s: %v", q, err)
		}
		if g, w := rowStrings(got.Rows), rowStrings(want.Rows); g != w {
			t.Errorf("%s: rewrite %s, native %s", q, g, w)
		}
	}

	// A FLOAT NaN, which natively fails HIGHEST, compares equal to TRUE
	// and FALSE alike; its rewrite level stays 0 - NaN, as LOWEST(0 - f)
	// has it, rather than TRUE's -1.
	if _, err := db.Exec(`CREATE TABLE n (id INT, f FLOAT); INSERT INTO n VALUES (1, 0.5), (2, 0.0)`); err != nil {
		t.Fatal(err)
	}
	tbl, _ := db.Engine().Catalog().Table("n")
	if err := tbl.Insert(value.Row{value.NewInt(3), value.NewFloat(math.NaN())}); err != nil {
		t.Fatal(err)
	}
	high, err := rw.Query(`SELECT id FROM n PREFERRING HIGHEST(f)`)
	if err != nil {
		t.Fatal(err)
	}
	low, err := rw.Query(`SELECT id FROM n PREFERRING LOWEST(0 - f)`)
	if err != nil {
		t.Fatal(err)
	}
	if g, w := rowStrings(high.Rows), rowStrings(low.Rows); g != w || g != "(1) (3)" {
		t.Errorf("HIGHEST(f) with a NaN: rewrite %s, LOWEST(0 - f) %s, want (1) (3)", g, w)
	}
}

// TestExplicitNamingNullRewrite: an EXPLICIT whose graph names NULL
// ranks NULL as a mentioned value. The rewrite matches it with IS NULL,
// since `c = NULL` never holds and `c NOT IN (…, NULL)` is never TRUE,
// and must give native's answer, LEVEL and TOP included.
func TestExplicitNamingNullRewrite(t *testing.T) {
	db := core.Open()
	if _, err := db.Exec(`CREATE TABLE g (id INT PRIMARY KEY, grade VARCHAR(2));
		INSERT INTO g VALUES (1, 'A'), (2, NULL), (3, 'B'), (4, 'D')`); err != nil {
		t.Fatal(err)
	}
	native, rw := db.NewSession(), db.NewSession()
	rw.SetMode(core.ModeRewrite)
	for q, want := range map[string]string{
		`SELECT id FROM g PREFERRING EXPLICIT(grade, NULL > 'B', 'A' > 'C')`:                                        "(1) (2)",
		`SELECT id, LEVEL(grade), TOP(grade) FROM g PREFERRING EXPLICIT(grade, NULL > 'B', 'A' > 'C')`:              "(1, 1, TRUE) (2, 1, TRUE)",
		`SELECT id, LEVEL(grade), TOP(grade) FROM g WHERE id > 2 PREFERRING EXPLICIT(grade, NULL > 'B', 'A' > 'C')`: "(3, 2, FALSE)",
		`SELECT id FROM g WHERE id <> 1 PREFERRING EXPLICIT(grade, 'A' > NULL)`:                                     "(2)",
	} {
		nat, err := native.Query(q)
		if err != nil {
			t.Fatal(err)
		}
		got, err := rw.Query(q)
		if err != nil {
			t.Fatalf("%s: %v", q, err)
		}
		if g, n := rowStrings(got.Rows), rowStrings(nat.Rows); g != n || n != want {
			t.Errorf("%s: rewrite %s, native %s, want %s", q, g, n, want)
		}
	}
}

// rowStrings renders rows as a sorted set.
func rowStrings(rows []value.Row) string {
	out := make([]string, len(rows))
	for i, r := range rows {
		out[i] = r.String()
	}
	sort.Strings(out)
	return strings.Join(out, " ")
}
