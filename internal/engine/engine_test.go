package engine

import (
	"context"
	"errors"
	"strings"
	"testing"

	"repro/internal/ast"
	"repro/internal/expr"
	"repro/internal/parser"
	"repro/internal/value"
)

// newCarsDB builds the 3-row Cars relation from §3.2 of the paper.
func newCarsDB(t *testing.T) *DB {
	t.Helper()
	db := New()
	mustExec(t, db, `CREATE TABLE Cars (
		Identifier INTEGER PRIMARY KEY, Make VARCHAR, Model VARCHAR,
		Price INTEGER, Mileage INTEGER, Airbag VARCHAR, Diesel VARCHAR)`)
	mustExec(t, db, `INSERT INTO Cars VALUES
		(1, 'Audi', 'A6', 40000, 15000, 'yes', 'no'),
		(2, 'BMW', '5 series', 35000, 30000, 'yes', 'yes'),
		(3, 'Volkswagen', 'Beetle', 20000, 10000, 'yes', 'no')`)
	return db
}

func mustExec(t *testing.T, db *DB, sql string) *Result {
	t.Helper()
	res, err := db.Exec(sql)
	if err != nil {
		t.Fatalf("exec %q: %v", sql, err)
	}
	return res
}

func mustQuery(t *testing.T, db *DB, sql string) *Result {
	t.Helper()
	return mustExec(t, db, sql)
}

func TestCreateInsertSelect(t *testing.T) {
	db := newCarsDB(t)
	res := mustQuery(t, db, "SELECT * FROM Cars")
	if len(res.Rows) != 3 || len(res.Columns) != 7 {
		t.Fatalf("rows=%d cols=%d", len(res.Rows), len(res.Columns))
	}
	if res.Columns[1] != "Make" {
		t.Errorf("columns: %v", res.Columns)
	}
}

func TestWhereFilter(t *testing.T) {
	db := newCarsDB(t)
	res := mustQuery(t, db, "SELECT Make FROM Cars WHERE Price < 36000")
	if len(res.Rows) != 2 {
		t.Fatalf("rows: %d", len(res.Rows))
	}
}

func TestProjectionExpressionsAndAliases(t *testing.T) {
	db := newCarsDB(t)
	res := mustQuery(t, db, "SELECT Make, Price / 1000 AS kprice FROM Cars WHERE Identifier = 1")
	if res.Columns[1] != "kprice" {
		t.Errorf("columns: %v", res.Columns)
	}
	if res.Rows[0][1].I != 40 {
		t.Errorf("kprice: %v", res.Rows[0][1])
	}
}

func TestOrderBy(t *testing.T) {
	db := newCarsDB(t)
	res := mustQuery(t, db, "SELECT Make FROM Cars ORDER BY Price DESC")
	want := []string{"Audi", "BMW", "Volkswagen"}
	for i, w := range want {
		if res.Rows[i][0].S != w {
			t.Errorf("row %d = %s, want %s", i, res.Rows[i][0].S, w)
		}
	}
	// order by alias
	res = mustQuery(t, db, "SELECT Make, Price / 1000 AS kp FROM Cars ORDER BY kp")
	if res.Rows[0][0].S != "Volkswagen" {
		t.Errorf("order by alias: %v", res.Rows[0])
	}
}

func TestOrderByMultipleKeysStable(t *testing.T) {
	db := New()
	mustExec(t, db, "CREATE TABLE t (a INT, b INT)")
	mustExec(t, db, "INSERT INTO t VALUES (1, 2), (1, 1), (0, 9)")
	res := mustQuery(t, db, "SELECT a, b FROM t ORDER BY a, b DESC")
	if res.Rows[0][0].I != 0 || res.Rows[1][1].I != 2 || res.Rows[2][1].I != 1 {
		t.Errorf("rows: %v", res.Rows)
	}
}

func TestLimitOffset(t *testing.T) {
	db := newCarsDB(t)
	res := mustQuery(t, db, "SELECT Identifier FROM Cars ORDER BY Identifier LIMIT 1 OFFSET 1")
	if len(res.Rows) != 1 || res.Rows[0][0].I != 2 {
		t.Fatalf("rows: %v", res.Rows)
	}
	res = mustQuery(t, db, "SELECT Identifier FROM Cars LIMIT 99 OFFSET 99")
	if len(res.Rows) != 0 {
		t.Fatal("offset past end should be empty")
	}
}

func TestDistinct(t *testing.T) {
	db := newCarsDB(t)
	res := mustQuery(t, db, "SELECT DISTINCT Airbag FROM Cars")
	if len(res.Rows) != 1 {
		t.Fatalf("distinct rows: %d", len(res.Rows))
	}
}

func TestAggregatesWholeTable(t *testing.T) {
	db := newCarsDB(t)
	res := mustQuery(t, db, "SELECT COUNT(*), SUM(Price), AVG(Price), MIN(Price), MAX(Price) FROM Cars")
	row := res.Rows[0]
	if row[0].I != 3 || row[1].I != 95000 || row[3].I != 20000 || row[4].I != 40000 {
		t.Errorf("aggregates: %v", row)
	}
	if row[2].Num() < 31666 || row[2].Num() > 31667 {
		t.Errorf("avg: %v", row[2])
	}
}

func TestAggregatesOnEmptyInput(t *testing.T) {
	db := newCarsDB(t)
	res := mustQuery(t, db, "SELECT COUNT(*), SUM(Price) FROM Cars WHERE Price > 999999")
	if res.Rows[0][0].I != 0 || !res.Rows[0][1].IsNull() {
		t.Errorf("empty aggregates: %v", res.Rows[0])
	}
}

func TestGroupByHaving(t *testing.T) {
	db := New()
	mustExec(t, db, "CREATE TABLE sales (region VARCHAR, amount INT)")
	mustExec(t, db, `INSERT INTO sales VALUES
		('north', 10), ('north', 20), ('south', 5), ('east', 100)`)
	res := mustQuery(t, db, `SELECT region, SUM(amount) AS total FROM sales
		GROUP BY region HAVING SUM(amount) > 10 ORDER BY total DESC`)
	if len(res.Rows) != 2 {
		t.Fatalf("groups: %v", res.Rows)
	}
	if res.Rows[0][0].S != "east" || res.Rows[0][1].I != 100 {
		t.Errorf("first group: %v", res.Rows[0])
	}
	if res.Rows[1][0].S != "north" || res.Rows[1][1].I != 30 {
		t.Errorf("second group: %v", res.Rows[1])
	}
}

func TestCountDistinct(t *testing.T) {
	db := New()
	mustExec(t, db, "CREATE TABLE t (a INT)")
	mustExec(t, db, "INSERT INTO t VALUES (1), (1), (2), (NULL)")
	res := mustQuery(t, db, "SELECT COUNT(a), COUNT(DISTINCT a) FROM t")
	if res.Rows[0][0].I != 3 || res.Rows[0][1].I != 2 {
		t.Errorf("counts: %v", res.Rows[0])
	}
}

func TestCrossProductAndQualifiedColumns(t *testing.T) {
	db := New()
	mustExec(t, db, "CREATE TABLE a (x INT)")
	mustExec(t, db, "CREATE TABLE b (y INT)")
	mustExec(t, db, "INSERT INTO a VALUES (1), (2)")
	mustExec(t, db, "INSERT INTO b VALUES (10), (20)")
	res := mustQuery(t, db, "SELECT a.x, b.y FROM a, b ORDER BY a.x, b.y")
	if len(res.Rows) != 4 {
		t.Fatalf("cross rows: %d", len(res.Rows))
	}
	if res.Rows[3][0].I != 2 || res.Rows[3][1].I != 20 {
		t.Errorf("last row: %v", res.Rows[3])
	}
}

func TestInnerJoin(t *testing.T) {
	db := New()
	mustExec(t, db, "CREATE TABLE emp (id INT, dept INT, name VARCHAR)")
	mustExec(t, db, "CREATE TABLE dept (id INT, dname VARCHAR)")
	mustExec(t, db, "INSERT INTO emp VALUES (1, 10, 'ann'), (2, 20, 'bob'), (3, 99, 'zoe')")
	mustExec(t, db, "INSERT INTO dept VALUES (10, 'eng'), (20, 'ops')")
	res := mustQuery(t, db, "SELECT name, dname FROM emp JOIN dept ON emp.dept = dept.id ORDER BY name")
	if len(res.Rows) != 2 {
		t.Fatalf("join rows: %v", res.Rows)
	}
	if res.Rows[0][0].S != "ann" || res.Rows[0][1].S != "eng" {
		t.Errorf("row: %v", res.Rows[0])
	}
}

func TestLeftJoinPadsNulls(t *testing.T) {
	db := New()
	mustExec(t, db, "CREATE TABLE emp (id INT, dept INT)")
	mustExec(t, db, "CREATE TABLE dept (id INT, dname VARCHAR)")
	mustExec(t, db, "INSERT INTO emp VALUES (1, 10), (2, 99)")
	mustExec(t, db, "INSERT INTO dept VALUES (10, 'eng')")
	res := mustQuery(t, db, "SELECT emp.id, dname FROM emp LEFT JOIN dept ON emp.dept = dept.id ORDER BY emp.id")
	if len(res.Rows) != 2 {
		t.Fatalf("rows: %v", res.Rows)
	}
	if !res.Rows[1][1].IsNull() {
		t.Errorf("unmatched row should be NULL-padded: %v", res.Rows[1])
	}
}

func TestNonEquiJoinFallsBackToNestedLoop(t *testing.T) {
	db := New()
	mustExec(t, db, "CREATE TABLE a (x INT)")
	mustExec(t, db, "CREATE TABLE b (y INT)")
	mustExec(t, db, "INSERT INTO a VALUES (1), (5)")
	mustExec(t, db, "INSERT INTO b VALUES (3), (4)")
	res := mustQuery(t, db, "SELECT x, y FROM a JOIN b ON a.x < b.y ORDER BY x, y")
	if len(res.Rows) != 2 {
		t.Fatalf("rows: %v", res.Rows)
	}
}

func TestViews(t *testing.T) {
	db := newCarsDB(t)
	mustExec(t, db, "CREATE VIEW cheap AS SELECT * FROM Cars WHERE Price < 36000")
	res := mustQuery(t, db, "SELECT COUNT(*) FROM cheap")
	if res.Rows[0][0].I != 2 {
		t.Errorf("view count: %v", res.Rows[0])
	}
	// view with alias
	res = mustQuery(t, db, "SELECT c.Make FROM cheap c WHERE c.Price = 20000")
	if len(res.Rows) != 1 || res.Rows[0][0].S != "Volkswagen" {
		t.Errorf("aliased view: %v", res.Rows)
	}
}

func TestDerivedTable(t *testing.T) {
	db := newCarsDB(t)
	res := mustQuery(t, db, `SELECT m FROM (SELECT Make AS m, Price FROM Cars) sub WHERE sub.Price > 30000 ORDER BY m`)
	if len(res.Rows) != 2 || res.Rows[0][0].S != "Audi" {
		t.Errorf("derived: %v", res.Rows)
	}
}

// The paper's §3.2 rewritten skyline query must run on the plain engine.
func TestPaperNotExistsSkylineQuery(t *testing.T) {
	db := newCarsDB(t)
	mustExec(t, db, `CREATE VIEW Aux AS
		SELECT Identifier, Make, Model, Price, Mileage, Airbag, Diesel,
		CASE WHEN Make = 'Audi' THEN 1 ELSE 2 END AS Makelevel,
		CASE WHEN Diesel = 'yes' THEN 1 ELSE 2 END AS Diesellevel
		FROM Cars`)
	res := mustQuery(t, db, `SELECT Identifier, Make FROM Aux A1
		WHERE NOT EXISTS (SELECT 1 FROM Aux A2
			WHERE A2.Makelevel <= A1.Makelevel AND
			      A2.Diesellevel <= A1.Diesellevel AND
			      (A2.Makelevel < A1.Makelevel OR A2.Diesellevel < A1.Diesellevel))
		ORDER BY Identifier`)
	if len(res.Rows) != 2 {
		t.Fatalf("skyline size: %d (%v)", len(res.Rows), res.Rows)
	}
	if res.Rows[0][1].S != "Audi" || res.Rows[1][1].S != "BMW" {
		t.Errorf("skyline: %v", res.Rows)
	}
}

func TestCorrelatedExists(t *testing.T) {
	db := New()
	mustExec(t, db, "CREATE TABLE o (id INT)")
	mustExec(t, db, "CREATE TABLE i (oid INT)")
	mustExec(t, db, "INSERT INTO o VALUES (1), (2), (3)")
	mustExec(t, db, "INSERT INTO i VALUES (1), (3)")
	res := mustQuery(t, db, "SELECT id FROM o WHERE EXISTS (SELECT 1 FROM i WHERE i.oid = o.id) ORDER BY id")
	if len(res.Rows) != 2 || res.Rows[1][0].I != 3 {
		t.Errorf("exists: %v", res.Rows)
	}
}

func TestInSubquery(t *testing.T) {
	db := New()
	mustExec(t, db, "CREATE TABLE o (id INT)")
	mustExec(t, db, "CREATE TABLE i (oid INT)")
	mustExec(t, db, "INSERT INTO o VALUES (1), (2), (3)")
	mustExec(t, db, "INSERT INTO i VALUES (2)")
	res := mustQuery(t, db, "SELECT id FROM o WHERE id NOT IN (SELECT oid FROM i) ORDER BY id")
	if len(res.Rows) != 2 || res.Rows[0][0].I != 1 {
		t.Errorf("not in: %v", res.Rows)
	}
}

func TestScalarSubquery(t *testing.T) {
	db := newCarsDB(t)
	res := mustQuery(t, db, "SELECT Make FROM Cars WHERE Price = (SELECT MAX(Price) FROM Cars)")
	if len(res.Rows) != 1 || res.Rows[0][0].S != "Audi" {
		t.Errorf("scalar sub: %v", res.Rows)
	}
}

func TestUpdateDelete(t *testing.T) {
	db := newCarsDB(t)
	res := mustExec(t, db, "UPDATE Cars SET Price = Price - 5000 WHERE Make = 'Audi'")
	if res.Affected != 1 {
		t.Fatalf("affected: %d", res.Affected)
	}
	q := mustQuery(t, db, "SELECT Price FROM Cars WHERE Make = 'Audi'")
	if q.Rows[0][0].I != 35000 {
		t.Errorf("price: %v", q.Rows[0][0])
	}
	res = mustExec(t, db, "DELETE FROM Cars WHERE Diesel = 'no'")
	if res.Affected != 2 {
		t.Fatalf("deleted: %d", res.Affected)
	}
	if mustQuery(t, db, "SELECT * FROM Cars").Rows[0][1].S != "BMW" {
		t.Error("wrong survivor")
	}
}

func TestInsertColumnSubset(t *testing.T) {
	db := New()
	mustExec(t, db, "CREATE TABLE t (a INT, b VARCHAR, c FLOAT)")
	mustExec(t, db, "INSERT INTO t (b, a) VALUES ('x', 1)")
	res := mustQuery(t, db, "SELECT a, b, c FROM t")
	if res.Rows[0][0].I != 1 || res.Rows[0][1].S != "x" || !res.Rows[0][2].IsNull() {
		t.Errorf("row: %v", res.Rows[0])
	}
}

func TestInsertSelect(t *testing.T) {
	db := newCarsDB(t)
	mustExec(t, db, `CREATE TABLE Max (Identifier INTEGER, Make VARCHAR, Model VARCHAR,
		Price INTEGER, Mileage INTEGER, Airbag VARCHAR, Diesel VARCHAR)`)
	res := mustExec(t, db, "INSERT INTO Max SELECT * FROM Cars WHERE Price > 30000")
	if res.Affected != 2 {
		t.Fatalf("inserted: %d", res.Affected)
	}
}

func TestCreateIndexAndDrop(t *testing.T) {
	db := newCarsDB(t)
	mustExec(t, db, "CREATE INDEX idx_make ON Cars (Make)")
	res := mustQuery(t, db, "SELECT Model FROM Cars WHERE Make = 'BMW'")
	if len(res.Rows) != 1 || res.Rows[0][0].S != "5 series" {
		t.Errorf("index query: %v", res.Rows)
	}
	mustExec(t, db, "DROP INDEX idx_make")
	mustExec(t, db, "DROP TABLE IF EXISTS nonexistent")
	if _, err := db.Exec("DROP TABLE nonexistent"); err == nil {
		t.Error("drop missing table should fail")
	}
}

func TestSelectWithoutFrom(t *testing.T) {
	db := New()
	res := mustQuery(t, db, "SELECT 1 + 2 AS x, 'hi'")
	if res.Rows[0][0].I != 3 || res.Rows[0][1].S != "hi" {
		t.Errorf("row: %v", res.Rows[0])
	}
}

func TestEnginePassesThroughStandardSQLButRejectsPreferences(t *testing.T) {
	db := newCarsDB(t)
	_, err := db.Exec("SELECT * FROM Cars PREFERRING LOWEST(Price)")
	if !errors.Is(err, ErrPreferenceQuery) {
		t.Errorf("want ErrPreferenceQuery, got %v", err)
	}
}

func TestErrors(t *testing.T) {
	db := newCarsDB(t)
	bad := []string{
		"SELECT * FROM nonexistent",
		"SELECT nonexistent FROM Cars",
		"INSERT INTO Cars VALUES (1)",
		"INSERT INTO nope VALUES (1)",
		"UPDATE nope SET a = 1",
		"UPDATE Cars SET nope = 1",
		"DELETE FROM nope",
		"CREATE TABLE Cars (a INT)",
		"CREATE INDEX i ON nope (a)",
		"CREATE INDEX i ON Cars (nope)",
		"SELECT SUM(Make) FROM Cars",
		"SELECT MIN(*) FROM Cars",
	}
	for _, sql := range bad {
		if _, err := db.Exec(sql); err == nil {
			t.Errorf("%q should fail", sql)
		}
	}
}

func TestNullHandlingInWhere(t *testing.T) {
	db := New()
	mustExec(t, db, "CREATE TABLE t (a INT)")
	mustExec(t, db, "INSERT INTO t VALUES (1), (NULL), (3)")
	// NULL comparisons filter out
	res := mustQuery(t, db, "SELECT a FROM t WHERE a > 0")
	if len(res.Rows) != 2 {
		t.Errorf("rows: %v", res.Rows)
	}
	res = mustQuery(t, db, "SELECT a FROM t WHERE a IS NULL")
	if len(res.Rows) != 1 {
		t.Errorf("is null rows: %v", res.Rows)
	}
}

func TestMultiStatementScript(t *testing.T) {
	db := New()
	res := mustExec(t, db, `
		CREATE TABLE t (a INT);
		INSERT INTO t VALUES (1), (2);
		SELECT COUNT(*) FROM t;`)
	if res.Rows[0][0].I != 2 {
		t.Errorf("script result: %v", res.Rows)
	}
}

func TestInsertRows(t *testing.T) {
	db := New()
	mustExec(t, db, "CREATE TABLE t (a INT, b VARCHAR)")
	n, err := db.InsertRows("t", []value.Row{
		{value.NewInt(1), value.NewText("x")},
		{value.NewInt(2), value.NewText("y")},
	})
	if err != nil || n != 2 {
		t.Fatalf("bulk insert: %d %v", n, err)
	}
	if _, err := db.InsertRows("nope", nil); err == nil {
		t.Error("bulk insert into missing table should fail")
	}
}

func TestViewMaterializationCachedPerStatement(t *testing.T) {
	// correlated NOT EXISTS over a view must not be quadratic in view
	// materializations; just verify correctness at a size that would be
	// visibly slow otherwise.
	db := New()
	mustExec(t, db, "CREATE TABLE nums (n INT)")
	var sb strings.Builder
	sb.WriteString("INSERT INTO nums VALUES (0)")
	for i := 1; i < 300; i++ {
		sb.WriteString(", (")
		sb.WriteString(value.NewInt(int64(i)).String())
		sb.WriteString(")")
	}
	mustExec(t, db, sb.String())
	mustExec(t, db, "CREATE VIEW v AS SELECT n FROM nums")
	res := mustQuery(t, db, `SELECT n FROM v a WHERE NOT EXISTS (
		SELECT 1 FROM v b WHERE b.n < a.n)`)
	if len(res.Rows) != 1 || res.Rows[0][0].I != 0 {
		t.Errorf("min via not exists: %v", res.Rows)
	}
}

func TestAmbiguousColumnPrefersQualified(t *testing.T) {
	db := New()
	mustExec(t, db, "CREATE TABLE a (id INT)")
	mustExec(t, db, "CREATE TABLE b (id INT)")
	mustExec(t, db, "INSERT INTO a VALUES (1)")
	mustExec(t, db, "INSERT INTO b VALUES (2)")
	res := mustQuery(t, db, "SELECT a.id, b.id FROM a, b")
	if res.Rows[0][0].I != 1 || res.Rows[0][1].I != 2 {
		t.Errorf("qualified: %v", res.Rows[0])
	}
}

func TestSelectDetailedQualifiers(t *testing.T) {
	db := newCarsDB(t)
	sel, err := parseSelect("SELECT c.Make, Price FROM Cars c")
	if err != nil {
		t.Fatal(err)
	}
	pipe, err := db.PipelineArgs(context.Background(), sel, nil)
	if err != nil {
		t.Fatal(err)
	}
	if cols := pipe.Columns(); len(cols) != 2 || cols[0].Name != "Make" {
		t.Fatalf("cols: %v", cols)
	}
	res, err := db.ExecPlanArgs(context.Background(), pipe.Node(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 3 {
		t.Fatalf("rows: %d", len(res.Rows))
	}
	// preference queries rejected here too
	pref, _ := parseSelect("SELECT * FROM Cars PREFERRING LOWEST(Price)")
	if _, err := db.PipelineArgs(context.Background(), pref, nil); err == nil {
		t.Error("preference should be rejected")
	}
}

func parseSelect(src string) (*ast.Select, error) {
	stmt, err := parser.Parse(src)
	if err != nil {
		return nil, err
	}
	return stmt.(*ast.Select), nil
}

func TestRunnerSubquery(t *testing.T) {
	db := newCarsDB(t)
	r := db.RunnerArgs(context.Background(), nil)
	sel, _ := parseSelect("SELECT COUNT(*) FROM Cars")
	rows, err := r.Subquery(sel, expr.MapEnv{})
	if err != nil || len(rows) != 1 || rows[0][0].I != 3 {
		t.Fatalf("runner: %v %v", rows, err)
	}
	pref, _ := parseSelect("SELECT * FROM Cars PREFERRING LOWEST(Price)")
	if _, err := r.Subquery(pref, expr.MapEnv{}); err == nil {
		t.Error("preference subquery should be rejected")
	}
}

func TestCatalogAccessor(t *testing.T) {
	db := newCarsDB(t)
	if _, ok := db.Catalog().Table("cars"); !ok {
		t.Error("catalog lookup")
	}
}

func TestOrderByMixedKindsAndNulls(t *testing.T) {
	db := New()
	mustExec(t, db, "CREATE TABLE t (a INT)")
	mustExec(t, db, "INSERT INTO t VALUES (2), (NULL), (1)")
	res := mustQuery(t, db, "SELECT a FROM t ORDER BY a")
	if !res.Rows[0][0].IsNull() || res.Rows[1][0].I != 1 {
		t.Errorf("nulls-first asc: %v", res.Rows)
	}
	res = mustQuery(t, db, "SELECT a FROM t ORDER BY a DESC")
	if !res.Rows[2][0].IsNull() || res.Rows[0][0].I != 2 {
		t.Errorf("nulls-last desc: %v", res.Rows)
	}
}

func TestOrderByInGroupedQuery(t *testing.T) {
	db := New()
	mustExec(t, db, "CREATE TABLE s (r VARCHAR, v INT)")
	mustExec(t, db, "INSERT INTO s VALUES ('a', 1), ('a', 2), ('b', 9)")
	res := mustQuery(t, db, "SELECT r, SUM(v) FROM s GROUP BY r ORDER BY SUM(v) DESC")
	if res.Rows[0][0].S != "b" {
		t.Errorf("order by aggregate: %v", res.Rows)
	}
	// DISTINCT over grouped output
	res = mustQuery(t, db, "SELECT DISTINCT COUNT(*) FROM s GROUP BY r")
	if len(res.Rows) != 2 {
		t.Errorf("distinct grouped: %v", res.Rows)
	}
}

func TestGroupedLimit(t *testing.T) {
	db := New()
	mustExec(t, db, "CREATE TABLE s (r VARCHAR, v INT)")
	mustExec(t, db, "INSERT INTO s VALUES ('a', 1), ('b', 2), ('c', 3)")
	res := mustQuery(t, db, "SELECT r, SUM(v) FROM s GROUP BY r ORDER BY r LIMIT 2")
	if len(res.Rows) != 2 || res.Rows[0][0].S != "a" {
		t.Errorf("grouped limit: %v", res.Rows)
	}
}

func TestEquiJoinSwappedColumns(t *testing.T) {
	db := New()
	mustExec(t, db, "CREATE TABLE a (x INT); CREATE TABLE b (y INT)")
	mustExec(t, db, "INSERT INTO a VALUES (1), (2); INSERT INTO b VALUES (2), (3)")
	// swapped operands still use the hash join
	res := mustQuery(t, db, "SELECT x FROM a JOIN b ON b.y = a.x")
	if len(res.Rows) != 1 || res.Rows[0][0].I != 2 {
		t.Errorf("swapped equi join: %v", res.Rows)
	}
}

func TestJoinOnNullsNeverMatch(t *testing.T) {
	db := New()
	mustExec(t, db, "CREATE TABLE a (x INT); CREATE TABLE b (y INT)")
	mustExec(t, db, "INSERT INTO a VALUES (NULL), (1); INSERT INTO b VALUES (NULL), (1)")
	res := mustQuery(t, db, "SELECT * FROM a JOIN b ON a.x = b.y")
	if len(res.Rows) != 1 {
		t.Errorf("null join keys must not match: %v", res.Rows)
	}
}

func TestCreateViewRejectsPreference(t *testing.T) {
	db := newCarsDB(t)
	if _, err := db.Exec("CREATE VIEW v AS SELECT * FROM Cars PREFERRING LOWEST(Price)"); err == nil {
		t.Error("preference view should be rejected by the engine")
	}
	mustExec(t, db, "CREATE VIEW v AS SELECT * FROM Cars")
	if _, err := db.Exec("CREATE VIEW v AS SELECT * FROM Cars"); err == nil {
		t.Error("duplicate view should fail")
	}
	mustExec(t, db, "DROP VIEW v")
	if _, err := db.Exec("DROP VIEW v"); err == nil {
		t.Error("dropping missing view should fail")
	}
	mustExec(t, db, "DROP VIEW IF EXISTS v")
}

func TestViewOverViewAndBrokenView(t *testing.T) {
	db := newCarsDB(t)
	mustExec(t, db, "CREATE VIEW v1 AS SELECT Make, Price FROM Cars")
	mustExec(t, db, "CREATE VIEW v2 AS SELECT Make FROM v1 WHERE Price > 30000")
	res := mustQuery(t, db, "SELECT COUNT(*) FROM v2")
	if res.Rows[0][0].I != 2 {
		t.Errorf("view over view: %v", res.Rows)
	}
	// a view over a dropped table errors at query time
	mustExec(t, db, "CREATE TABLE tmp (a INT)")
	mustExec(t, db, "CREATE VIEW broken AS SELECT * FROM tmp")
	mustExec(t, db, "DROP TABLE tmp")
	if _, err := db.Exec("SELECT * FROM broken"); err == nil {
		t.Error("broken view should error")
	}
}

func TestCaseInOrderByAndWhere(t *testing.T) {
	db := newCarsDB(t)
	res := mustQuery(t, db, `SELECT Make FROM Cars
		ORDER BY CASE WHEN Diesel = 'yes' THEN 0 ELSE 1 END, Make`)
	if res.Rows[0][0].S != "BMW" {
		t.Errorf("diesel first: %v", res.Rows)
	}
}

func TestMinMaxOverText(t *testing.T) {
	db := newCarsDB(t)
	res := mustQuery(t, db, "SELECT MIN(Make), MAX(Make) FROM Cars")
	if res.Rows[0][0].S != "Audi" || res.Rows[0][1].S != "Volkswagen" {
		t.Errorf("min/max text: %v", res.Rows[0])
	}
}

func TestAvgOfInts(t *testing.T) {
	db := New()
	mustExec(t, db, "CREATE TABLE t (a INT); INSERT INTO t VALUES (1), (2)")
	res := mustQuery(t, db, "SELECT AVG(a) FROM t")
	if res.Rows[0][0].Num() != 1.5 {
		t.Errorf("avg: %v", res.Rows[0][0])
	}
}

func TestSumFloatMix(t *testing.T) {
	db := New()
	mustExec(t, db, "CREATE TABLE t (a FLOAT); INSERT INTO t VALUES (1.5), (2)")
	res := mustQuery(t, db, "SELECT SUM(a) FROM t")
	if res.Rows[0][0].Num() != 3.5 {
		t.Errorf("sum: %v", res.Rows[0][0])
	}
}

// TestHavingMakesOneGroup is the regression test for HAVING without GROUP
// BY or aggregates: the block is grouped, so the whole input is one group
// (represented by its first row) that HAVING keeps or drops.
func TestHavingMakesOneGroup(t *testing.T) {
	db := New()
	mustExec(t, db, "CREATE TABLE t (a INT); INSERT INTO t VALUES (5), (1)")
	res := mustQuery(t, db, "SELECT a FROM t HAVING a > 1")
	if len(res.Rows) != 1 || res.Rows[0][0].I != 5 {
		t.Errorf("kept group: %v", res.Rows)
	}
	res = mustQuery(t, db, "SELECT a FROM t HAVING a > 7")
	if len(res.Rows) != 0 {
		t.Errorf("dropped group: %v", res.Rows)
	}
}

// TestSumIntExact is the regression test for INT sums: they accumulate
// exactly in int64 (2^53+1 survives), AVG divides the exact sum, and an
// overflow fails the statement instead of wrapping.
func TestSumIntExact(t *testing.T) {
	db := New()
	mustExec(t, db, "CREATE TABLE t (a INT); INSERT INTO t VALUES (9007199254740993), (0)")
	res := mustQuery(t, db, "SELECT SUM(a) FROM t")
	if v := res.Rows[0][0]; v.K != value.Int || v.I != 9007199254740993 {
		t.Errorf("sum: %v", v)
	}
	mustExec(t, db, "INSERT INTO t VALUES (1)")
	res = mustQuery(t, db, "SELECT AVG(a) FROM t WHERE a <> 0")
	if v := res.Rows[0][0]; v.F != 4503599627370497 {
		t.Errorf("avg: %v", v)
	}
	mustExec(t, db, "CREATE TABLE big (a INT); INSERT INTO big VALUES (9223372036854775807), (9223372036854775807)")
	if res, err := db.Exec("SELECT SUM(a) FROM big"); err == nil {
		t.Errorf("overflowing sum returned %v", res.Rows)
	}
}

func TestSubqueryDepthLimit(t *testing.T) {
	db := New()
	mustExec(t, db, "CREATE TABLE t (a INT); INSERT INTO t VALUES (1)")
	// build a deeply nested scalar subquery
	q := "a"
	for i := 0; i < 70; i++ {
		q = "(SELECT " + q + " FROM t)"
	}
	if _, err := db.Exec("SELECT " + q); err == nil {
		t.Error("deep nesting should be limited")
	}
}

// TestCompositeIndexNotProbed is the regression test for index selection:
// a composite index cannot answer a single-column equality probe
// (Index.Lookup needs an exact one-column key), so the planner must not
// pick it — the query must still return its rows via a sequential scan.
func TestCompositeIndexNotProbed(t *testing.T) {
	db := New()
	if _, err := db.Exec(`CREATE TABLE jobs (region VARCHAR, salary INT);
		INSERT INTO jobs VALUES ('Bayern', 100), ('Sachsen', 200);
		CREATE INDEX idx_rs ON jobs (region, salary)`); err != nil {
		t.Fatal(err)
	}
	res, err := db.Exec(`SELECT salary FROM jobs WHERE region = 'Bayern'`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 || res.Rows[0][0].I != 100 {
		t.Fatalf("rows = %v, want [(100)]", res.Rows)
	}
	// A single-column index on the same leading column must win and still
	// return the same result.
	if _, err := db.Exec(`CREATE INDEX idx_r ON jobs (region)`); err != nil {
		t.Fatal(err)
	}
	res, err = db.Exec(`SELECT salary FROM jobs WHERE region = 'Bayern'`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 || res.Rows[0][0].I != 100 {
		t.Fatalf("rows with index = %v, want [(100)]", res.Rows)
	}
}

// TestHashJoinCrossKindEquality is the regression test for comma-join hash
// upgrades: `a = b` across numeric kinds (INT vs BOOL/DATE) must match
// exactly like the nested-loop evaluation of the same predicate.
func TestHashJoinCrossKindEquality(t *testing.T) {
	db := New()
	if _, err := db.Exec(`CREATE TABLE t1 (a INT); CREATE TABLE t2 (b BOOLEAN);
		INSERT INTO t1 VALUES (1), (0), (7);
		INSERT INTO t2 VALUES (TRUE), (FALSE)`); err != nil {
		t.Fatal(err)
	}
	res, err := db.Exec(`SELECT a FROM t1, t2 WHERE a = b`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 2 {
		t.Fatalf("rows = %v, want a=1 and a=0", res.Rows)
	}
	// The equivalent non-upgradable predicate must agree.
	res2, err := db.Exec(`SELECT a FROM t1, t2 WHERE a + 0 = b`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res2.Rows) != len(res.Rows) {
		t.Fatalf("hash join %v vs nested loop %v", res.Rows, res2.Rows)
	}
}
