package core

import (
	"errors"
	"math/rand"
	"sort"
	"strings"
	"testing"

	"repro/internal/bmo"
	"repro/internal/value"
)

func mustExec(t *testing.T, db *DB, sql string) *Result {
	t.Helper()
	res, err := db.Exec(sql)
	if err != nil {
		t.Fatalf("exec %q: %v", sql, err)
	}
	return res
}

// oldtimerDB loads the §2.2.3 oldtimer relation.
func oldtimerDB(t *testing.T) *DB {
	t.Helper()
	db := Open()
	mustExec(t, db, `CREATE TABLE oldtimer (ident VARCHAR, color VARCHAR, age INTEGER);
		INSERT INTO oldtimer VALUES
		('Maggie', 'white', 19),
		('Bart', 'green', 19),
		('Homer', 'yellow', 35),
		('Selma', 'red', 40),
		('Smithers', 'red', 43),
		('Skinner', 'yellow', 51)`)
	return db
}

const oldtimerQuery = `SELECT ident, color, age, LEVEL(color), DISTANCE(age)
FROM oldtimer
PREFERRING color = 'white' ELSE color = 'yellow' AND age AROUND 40
ORDER BY DISTANCE(age)`

// TestOldtimerPaperTable is the golden test for the paper's §2.2.3 worked
// example: the adorned Pareto-optimal result must be exactly
//
//	Selma   red    40  3  0
//	Homer   yellow 35  2  5
//	Maggie  white  19  1  21
func TestOldtimerPaperTable(t *testing.T) {
	for _, mode := range []Mode{ModeNative, ModeRewrite} {
		db := oldtimerDB(t)
		db.DefaultSession().SetMode(mode)
		res := mustExec(t, db, oldtimerQuery)
		want := []struct {
			ident string
			color string
			age   int64
			level int64
			dist  float64
		}{
			{"Selma", "red", 40, 3, 0},
			{"Homer", "yellow", 35, 2, 5},
			{"Maggie", "white", 19, 1, 21},
		}
		if len(res.Rows) != len(want) {
			t.Fatalf("%v: rows = %d, want 3:\n%s", mode, len(res.Rows), FormatResult(res))
		}
		for i, w := range want {
			r := res.Rows[i]
			if r[0].S != w.ident || r[1].S != w.color || r[2].I != w.age ||
				r[3].I != w.level || r[4].Num() != w.dist {
				t.Errorf("%v row %d = %v, want %+v", mode, i, r, w)
			}
		}
	}
}

func TestPassThroughStandardSQL(t *testing.T) {
	db := oldtimerDB(t)
	res := mustExec(t, db, "SELECT COUNT(*) FROM oldtimer WHERE age > 30")
	if res.Rows[0][0].I != 4 {
		t.Errorf("count: %v", res.Rows[0])
	}
}

func TestPaperTripsAround(t *testing.T) {
	db := Open()
	mustExec(t, db, `CREATE TABLE trips (id INT, duration INT);
		INSERT INTO trips VALUES (1, 7), (2, 13), (3, 15), (4, 28)`)
	res := mustExec(t, db, "SELECT id FROM trips PREFERRING duration AROUND 14")
	if len(res.Rows) != 2 {
		t.Fatalf("13 and 15 both at distance 1: %v", res.Rows)
	}
}

func TestPaperButOnlyTrips(t *testing.T) {
	db := Open()
	mustExec(t, db, `CREATE TABLE trips (id INT, start_day DATE, duration INT);
		INSERT INTO trips VALUES
		(1, '1999-07-06', 14),
		(2, '1999-07-04', 21),
		(3, '1999-06-01', 14)`)
	// Best match overall is trip 1 (3 days off, duration exact). With the
	// paper's quality threshold of 2 days it must be rejected: empty result,
	// correlating with the user's explicit intention (§2.2.4).
	res := mustExec(t, db, `SELECT id FROM trips
		PREFERRING start_day AROUND '1999/7/3' AND duration AROUND 14
		BUT ONLY DISTANCE(start_day) <= 2 AND DISTANCE(duration) <= 2`)
	if len(res.Rows) != 0 {
		t.Fatalf("expected empty result under quality threshold: %v", res.Rows)
	}
	// Relaxing to 3 days admits trip 1.
	res = mustExec(t, db, `SELECT id FROM trips
		PREFERRING start_day AROUND '1999/7/3' AND duration AROUND 14
		BUT ONLY DISTANCE(start_day) <= 3 AND DISTANCE(duration) <= 3`)
	if len(res.Rows) != 1 || res.Rows[0][0].I != 1 {
		t.Fatalf("relaxed threshold: %v", res.Rows)
	}
}

// The full Opel query from §2.2.2 with a small car database.
func TestPaperOpelQuery(t *testing.T) {
	setup := `CREATE TABLE car (id INT, make VARCHAR, category VARCHAR, price INT,
		power INT, color VARCHAR, mileage INT);
	INSERT INTO car VALUES
	(1, 'Opel', 'roadster', 42000, 120, 'red', 50000),
	(2, 'Opel', 'roadster', 38000, 140, 'blue', 60000),
	(3, 'Opel', 'passenger', 40000, 200, 'red', 10000),
	(4, 'Opel', 'suv', 40000, 140, 'red', 30000),
	(5, 'BMW', 'roadster', 40000, 190, 'red', 20000)`
	query := `SELECT id FROM car WHERE make = 'Opel'
		PREFERRING (category = 'roadster' ELSE category <> 'passenger' AND
		price AROUND 40000 AND HIGHEST(power))
		CASCADE color = 'red' CASCADE LOWEST(mileage)`
	for _, mode := range []Mode{ModeNative, ModeRewrite} {
		db := Open()
		db.DefaultSession().SetMode(mode)
		mustExec(t, db, setup)
		res := mustExec(t, db, query)
		// Hard condition excludes the BMW. Pareto stage vectors
		// (catLevel, |price-40000|, -power):
		//   1: (0, 2000, -120)   2: (0, 2000, -140)   3: (2, 0, -200)
		//   4: (1, 0, -140)
		// 1 is dominated by 2; {2,3,4} are Pareto-optimal. The red cascade
		// keeps 3 and 4; lowest mileage picks 3.
		if len(res.Rows) != 1 || res.Rows[0][0].I != 3 {
			t.Fatalf("%v: opel result: %v", mode, res.Rows)
		}
	}
}

func TestGroupingClause(t *testing.T) {
	setup := `CREATE TABLE cars (id INT, make VARCHAR, price INT);
	INSERT INTO cars VALUES
	(1, 'Audi', 40000), (2, 'Audi', 35000),
	(3, 'BMW', 45000), (4, 'BMW', 30000), (5, 'BMW', 30000)`
	for _, mode := range []Mode{ModeNative, ModeRewrite} {
		db := Open()
		db.DefaultSession().SetMode(mode)
		mustExec(t, db, setup)
		res := mustExec(t, db, `SELECT id FROM cars PREFERRING LOWEST(price) GROUPING make ORDER BY id`)
		if len(res.Rows) != 3 {
			t.Fatalf("%v: grouped rows: %v", mode, res.Rows)
		}
		if res.Rows[0][0].I != 2 || res.Rows[1][0].I != 4 || res.Rows[2][0].I != 5 {
			t.Errorf("%v: grouped ids: %v", mode, res.Rows)
		}
	}
}

func TestInsertWithPreferenceSubquery(t *testing.T) {
	db := Open()
	mustExec(t, db, `CREATE TABLE cars (id INT, price INT);
		CREATE TABLE best (id INT, price INT);
		INSERT INTO cars VALUES (1, 300), (2, 100), (3, 100)`)
	res := mustExec(t, db, `INSERT INTO best SELECT * FROM cars PREFERRING LOWEST(price)`)
	if res.Affected != 2 {
		t.Fatalf("affected: %d", res.Affected)
	}
	check := mustExec(t, db, "SELECT COUNT(*) FROM best")
	if check.Rows[0][0].I != 2 {
		t.Errorf("best rows: %v", check.Rows)
	}
}

func TestInsertPreferenceWithColumnList(t *testing.T) {
	db := Open()
	mustExec(t, db, `CREATE TABLE cars (id INT, price INT);
		CREATE TABLE best (price INT, id INT, note VARCHAR);
		INSERT INTO cars VALUES (1, 300), (2, 100)`)
	res := mustExec(t, db, `INSERT INTO best (id, price) SELECT id, price FROM cars PREFERRING LOWEST(price)`)
	if res.Affected != 1 {
		t.Fatalf("affected: %d", res.Affected)
	}
	check := mustExec(t, db, "SELECT id, price, note FROM best")
	row := check.Rows[0]
	if row[0].I != 2 || row[1].I != 100 || !row[2].IsNull() {
		t.Errorf("row: %v", row)
	}
}

func TestQualityFunctionErrors(t *testing.T) {
	db := oldtimerDB(t)
	if _, err := db.Exec(`SELECT LEVEL(age) FROM oldtimer PREFERRING color = 'white'`); err == nil {
		t.Error("LEVEL on unreferenced attribute should fail")
	}
	if _, err := db.Exec(`SELECT LEVEL(color, age) FROM oldtimer PREFERRING color = 'white'`); err == nil {
		t.Error("wrong arity should fail")
	}
}

func TestModeAndAlgorithmSetters(t *testing.T) {
	sess := Open().DefaultSession()
	if sess.Mode() != ModeNative || sess.Mode().String() != "native" {
		t.Error("default mode")
	}
	sess.SetMode(ModeRewrite)
	if sess.Mode() != ModeRewrite || sess.Mode().String() != "rewrite" {
		t.Error("set mode")
	}
	sess.SetAlgorithm(bmo.NestedLoop)
	if sess.Algorithm() != bmo.NestedLoop {
		t.Error("set algorithm")
	}
}

func TestGroupByWithPreferenceRejected(t *testing.T) {
	db := oldtimerDB(t)
	if _, err := db.Exec(`SELECT color FROM oldtimer PREFERRING LOWEST(age) GROUP BY color`); err == nil {
		t.Error("GROUP BY with PREFERRING should be rejected")
	}
	for _, q := range []string{
		`SELECT SUM(age) FROM oldtimer PREFERRING LOWEST(age)`,
		`SELECT color, COUNT(*) FROM oldtimer PREFERRING LOWEST(age)`,
	} {
		if _, err := db.Exec(q); !errors.Is(err, errAggPreferring) {
			t.Errorf("%s: got %v, want %v", q, err, errAggPreferring)
		}
	}
	if _, err := db.Exec(`SELECT color FROM oldtimer BUT ONLY LEVEL(color) = 1`); err == nil {
		t.Error("BUT ONLY without PREFERRING should be rejected")
	}
	if _, err := db.Exec(`CREATE VIEW v AS SELECT * FROM oldtimer PREFERRING LOWEST(age)`); err == nil {
		t.Error("preference views should be rejected")
	}
}

func TestRewritePlanExposed(t *testing.T) {
	db := oldtimerDB(t)
	plan, err := db.RewritePlan("SELECT * FROM oldtimer PREFERRING LOWEST(age)")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(plan.Script(), "NOT EXISTS") {
		t.Errorf("plan:\n%s", plan.Script())
	}
	if _, err := db.RewritePlan("SELECT * FROM oldtimer"); err == nil {
		t.Error("non-preference query should fail")
	}
}

func TestFormatResult(t *testing.T) {
	db := oldtimerDB(t)
	res := mustExec(t, db, "SELECT ident, age FROM oldtimer WHERE age = 40")
	out := FormatResult(res)
	if !strings.Contains(out, "Selma") || !strings.Contains(out, "(1 rows)") {
		t.Errorf("format:\n%s", out)
	}
	affected := FormatResult(&Result{Affected: 3})
	if !strings.Contains(affected, "3 rows affected") {
		t.Errorf("affected format: %q", affected)
	}
	if FormatResult(nil) == "" {
		t.Error("nil result")
	}
}

func TestEmptyCandidateSet(t *testing.T) {
	db := oldtimerDB(t)
	res := mustExec(t, db, "SELECT * FROM oldtimer WHERE age > 999 PREFERRING LOWEST(age)")
	if len(res.Rows) != 0 {
		t.Errorf("rows: %v", res.Rows)
	}
}

func TestPreferenceOnExpression(t *testing.T) {
	db := Open()
	mustExec(t, db, `CREATE TABLE pc (id INT, ram INT, cpu INT);
		INSERT INTO pc VALUES (1, 8, 2), (2, 4, 8), (3, 2, 2)`)
	// HIGHEST over an arithmetic expression (paper §2.2.1: "instead of a
	// single attribute an arithmetic expression ... is admissible").
	res := mustExec(t, db, "SELECT id FROM pc PREFERRING HIGHEST(ram * cpu)")
	if len(res.Rows) != 1 || res.Rows[0][0].I != 2 {
		t.Fatalf("expression preference: %v", res.Rows)
	}
}

func TestDistinctAndLimitAfterPreference(t *testing.T) {
	db := Open()
	mustExec(t, db, `CREATE TABLE t (a INT, b INT);
		INSERT INTO t VALUES (1, 1), (1, 1), (2, 1), (3, 2)`)
	res := mustExec(t, db, "SELECT a FROM t PREFERRING LOWEST(b) ORDER BY a LIMIT 2")
	if len(res.Rows) != 2 || res.Rows[0][0].I != 1 {
		t.Fatalf("limit: %v", res.Rows)
	}
	res = mustExec(t, db, "SELECT DISTINCT a FROM t PREFERRING LOWEST(b) ORDER BY a")
	if len(res.Rows) != 2 {
		t.Fatalf("distinct: %v", res.Rows)
	}
}

// --- differential property test: native vs rewrite vs all algorithms ------

func canonicalRows(rows []value.Row) string {
	keys := make([]string, len(rows))
	for i, r := range rows {
		keys[i] = r.Key()
	}
	sort.Strings(keys)
	return strings.Join(keys, "|")
}

// TestNativeRewriteEquivalence generates random tables and random
// preference queries and asserts that the native BMO algorithms and the
// SQL92 rewriting produce identical result multisets.
func TestNativeRewriteEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(2026))
	colors := []string{"red", "blue", "green", "white", "yellow"}
	queries := []string{
		"SELECT * FROM data PREFERRING LOWEST(x)",
		"SELECT * FROM data PREFERRING HIGHEST(y)",
		"SELECT * FROM data PREFERRING x AROUND 5",
		"SELECT * FROM data PREFERRING x BETWEEN 3, 6",
		"SELECT * FROM data PREFERRING color IN ('red', 'blue')",
		"SELECT * FROM data PREFERRING color <> 'green'",
		"SELECT * FROM data PREFERRING color = 'white' ELSE color = 'yellow'",
		"SELECT * FROM data PREFERRING LOWEST(x) AND HIGHEST(y)",
		"SELECT * FROM data PREFERRING LOWEST(x) AND HIGHEST(y) AND color IN ('red')",
		"SELECT * FROM data PREFERRING x AROUND 5 AND y AROUND 5",
		"SELECT * FROM data PREFERRING LOWEST(x) CASCADE HIGHEST(y)",
		"SELECT * FROM data PREFERRING color IN ('red') CASCADE LOWEST(x) CASCADE LOWEST(y)",
		"SELECT * FROM data PREFERRING (LOWEST(x) AND LOWEST(y)) CASCADE color = 'red'",
		"SELECT * FROM data PREFERRING EXPLICIT(color, 'red' > 'blue', 'white' > 'blue', 'blue' > 'green')",
		"SELECT * FROM data PREFERRING EXPLICIT(color, 'red' > 'blue') AND LOWEST(x)",
		"SELECT * FROM data PREFERRING LOWEST(x) GROUPING color",
		"SELECT * FROM data PREFERRING LOWEST(x) AND LOWEST(y) GROUPING color",
		"SELECT * FROM data WHERE x > 2 PREFERRING LOWEST(x) AND HIGHEST(y)",
		"SELECT * FROM data PREFERRING x AROUND 5 BUT ONLY DISTANCE(x) <= 2",
		"SELECT * FROM data PREFERRING LOWEST(x) BUT ONLY DISTANCE(x) <= 1",
	}
	for trial := 0; trial < 8; trial++ {
		n := 5 + rng.Intn(40)
		var sb strings.Builder
		sb.WriteString("CREATE TABLE data (id INT, x INT, y INT, color VARCHAR); INSERT INTO data VALUES ")
		for i := 0; i < n; i++ {
			if i > 0 {
				sb.WriteString(", ")
			}
			x := rng.Intn(10)
			y := rng.Intn(10)
			color := colors[rng.Intn(len(colors))]
			// sprinkle NULLs
			xs, ys := value.NewInt(int64(x)).String(), value.NewInt(int64(y)).String()
			if rng.Intn(12) == 0 {
				xs = "NULL"
			}
			if rng.Intn(12) == 0 {
				ys = "NULL"
			}
			sb.WriteString("(" + value.NewInt(int64(i)).String() + ", " + xs + ", " + ys + ", '" + color + "')")
		}
		setup := sb.String()
		for _, q := range queries {
			dbN := Open()
			mustExec(t, dbN, setup)
			dbR := Open()
			dbR.DefaultSession().SetMode(ModeRewrite)
			mustExec(t, dbR, setup)

			resN, errN := dbN.Exec(q)
			resR, errR := dbR.Exec(q)
			if (errN == nil) != (errR == nil) {
				t.Fatalf("trial %d %q: error mismatch native=%v rewrite=%v", trial, q, errN, errR)
			}
			if errN != nil {
				continue
			}
			if canonicalRows(resN.Rows) != canonicalRows(resR.Rows) {
				t.Fatalf("trial %d %q:\nnative (%d rows):\n%srewrite (%d rows):\n%s",
					trial, q, len(resN.Rows), FormatResult(resN), len(resR.Rows), FormatResult(resR))
			}
			// all native algorithms agree too
			for _, algo := range []bmo.Algorithm{bmo.NestedLoop, bmo.BlockNestedLoop} {
				dbA := Open()
				dbA.DefaultSession().SetAlgorithm(algo)
				mustExec(t, dbA, setup)
				resA, err := dbA.Exec(q)
				if err != nil {
					t.Fatalf("trial %d %q algo %v: %v", trial, q, algo, err)
				}
				if canonicalRows(resA.Rows) != canonicalRows(resN.Rows) {
					t.Fatalf("trial %d %q: algo %v disagrees", trial, q, algo)
				}
			}
		}
	}
}

// --- Preference Definition Language (§2.2: persistent preference objects) --

func TestCreateAndUseNamedPreference(t *testing.T) {
	db := oldtimerDB(t)
	mustExec(t, db, `CREATE PREFERENCE vintage AS age AROUND 40`)
	res := mustExec(t, db, `SELECT ident FROM oldtimer PREFERRING PREFERENCE vintage`)
	if len(res.Rows) != 1 || res.Rows[0][0].S != "Selma" {
		t.Fatalf("named preference: %v", res.Rows)
	}
	// composable with other preferences
	res = mustExec(t, db, `SELECT ident FROM oldtimer
		PREFERRING PREFERENCE vintage AND color = 'white' ORDER BY ident`)
	if len(res.Rows) < 1 {
		t.Fatalf("composed: %v", res.Rows)
	}
}

func TestNamedPreferenceWorksInRewriteMode(t *testing.T) {
	db := oldtimerDB(t)
	db.DefaultSession().SetMode(ModeRewrite)
	mustExec(t, db, `CREATE PREFERENCE vintage AS age AROUND 40`)
	res := mustExec(t, db, `SELECT ident FROM oldtimer PREFERRING PREFERENCE vintage`)
	if len(res.Rows) != 1 || res.Rows[0][0].S != "Selma" {
		t.Fatalf("rewrite named preference: %v", res.Rows)
	}
	plan, err := db.RewritePlan(`SELECT ident FROM oldtimer PREFERRING PREFERENCE vintage`)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(plan.Script(), "ABS") {
		t.Errorf("plan should inline the definition:\n%s", plan.Script())
	}
}

func TestNamedPreferenceReferencingAnother(t *testing.T) {
	db := oldtimerDB(t)
	mustExec(t, db, `CREATE PREFERENCE vintage AS age AROUND 40`)
	mustExec(t, db, `CREATE PREFERENCE classic AS PREFERENCE vintage CASCADE color = 'red'`)
	res := mustExec(t, db, `SELECT ident FROM oldtimer PREFERRING PREFERENCE classic`)
	if len(res.Rows) != 1 || res.Rows[0][0].S != "Selma" {
		t.Fatalf("nested reference: %v", res.Rows)
	}
}

func TestPreferenceDefinitionErrors(t *testing.T) {
	db := oldtimerDB(t)
	mustExec(t, db, `CREATE PREFERENCE p1 AS LOWEST(age)`)
	if _, err := db.Exec(`CREATE PREFERENCE p1 AS HIGHEST(age)`); err == nil {
		t.Error("duplicate name should fail")
	}
	if _, err := db.Exec(`SELECT * FROM oldtimer PREFERRING PREFERENCE nope`); err == nil {
		t.Error("dangling reference should fail")
	}
	if _, err := db.Exec(`CREATE PREFERENCE selfref AS PREFERENCE selfref`); err == nil {
		t.Error("self reference should fail at definition")
	}
	if _, err := db.Exec(`CREATE PREFERENCE dangling AS PREFERENCE ghost AND LOWEST(age)`); err == nil {
		t.Error("dangling nested reference should fail at definition")
	}
}

func TestDropPreference(t *testing.T) {
	db := oldtimerDB(t)
	mustExec(t, db, `CREATE PREFERENCE p AS LOWEST(age)`)
	if got := db.PreferenceNames(); len(got) != 1 || got[0] != "p" {
		t.Fatalf("names: %v", got)
	}
	mustExec(t, db, `DROP PREFERENCE p`)
	if len(db.PreferenceNames()) != 0 {
		t.Error("drop failed")
	}
	if _, err := db.Exec(`DROP PREFERENCE p`); err == nil {
		t.Error("dropping missing preference should fail")
	}
	mustExec(t, db, `DROP PREFERENCE IF EXISTS p`)
}

func TestNamedPreferenceRoundTrip(t *testing.T) {
	// CREATE PREFERENCE round-trips through its SQL() form.
	db := oldtimerDB(t)
	mustExec(t, db, `CREATE PREFERENCE w AS color = 'white' ELSE color = 'yellow'`)
	res := mustExec(t, db, `SELECT ident FROM oldtimer PREFERRING PREFERENCE w`)
	if len(res.Rows) != 1 || res.Rows[0][0].S != "Maggie" {
		t.Fatalf("layered named preference: %v", res.Rows)
	}
}

func TestQualityFunctionsEdgeCases(t *testing.T) {
	db := Open()
	mustExec(t, db, `CREATE TABLE t (id INT, x INT, color VARCHAR);
		INSERT INTO t VALUES (1, 5, 'red'), (2, 9, 'blue'), (3, NULL, NULL)`)

	// LEVEL on a continuous preference: 1 at the optimum, 2 otherwise.
	res := mustExec(t, db, `SELECT id, LEVEL(x), TOP(x) FROM t
		PREFERRING x AROUND 5 BUT ONLY TOP(x) ORDER BY id`)
	if len(res.Rows) != 1 || res.Rows[0][1].I != 1 || !res.Rows[0][2].IsTrue() {
		t.Fatalf("continuous level: %v", res.Rows)
	}

	// Quality functions of NULL attribute values are NULL / false.
	res = mustExec(t, db, `SELECT id, DISTANCE(x), TOP(x) FROM t WHERE id = 3
		PREFERRING x AROUND 5 CASCADE LOWEST(id)`)
	_ = res // row 3 is the only candidate: it survives BMO
	if len(res.Rows) != 1 || !res.Rows[0][1].IsNull() || res.Rows[0][2].IsTrue() {
		t.Fatalf("null quality: %v", res.Rows)
	}

	// LEVEL and TOP on an EXPLICIT preference.
	res = mustExec(t, db, `SELECT id, LEVEL(color), TOP(color) FROM t
		PREFERRING EXPLICIT(color, 'red' > 'blue') ORDER BY id`)
	if len(res.Rows) != 1 || res.Rows[0][1].I != 1 || !res.Rows[0][2].IsTrue() {
		t.Fatalf("explicit level: %v", res.Rows)
	}
	// DISTANCE on EXPLICIT is undefined.
	if _, err := db.Exec(`SELECT DISTANCE(color) FROM t PREFERRING EXPLICIT(color, 'red' > 'blue')`); err == nil {
		t.Error("DISTANCE on EXPLICIT should fail")
	}
}

func TestTopOnLowestIsRelative(t *testing.T) {
	db := Open()
	mustExec(t, db, `CREATE TABLE t (id INT, p INT);
		INSERT INTO t VALUES (1, 100), (2, 200)`)
	// no absolute optimum: the best candidate is TOP
	res := mustExec(t, db, `SELECT id, TOP(p), LEVEL(p) FROM t PREFERRING LOWEST(p)`)
	if len(res.Rows) != 1 || !res.Rows[0][1].IsTrue() || res.Rows[0][2].I != 1 {
		t.Fatalf("relative top: %v", res.Rows)
	}
}

func TestOrderByQualityFunctionDescending(t *testing.T) {
	db := oldtimerDB(t)
	res := mustExec(t, db, `SELECT ident FROM oldtimer
		PREFERRING color = 'white' ELSE color = 'yellow' AND age AROUND 40
		ORDER BY DISTANCE(age) DESC`)
	if res.Rows[0][0].S != "Maggie" {
		t.Fatalf("desc order: %v", res.Rows)
	}
}

func TestPreferenceWithJoinSource(t *testing.T) {
	db := Open()
	mustExec(t, db, `CREATE TABLE cars (id INT, dealer_id INT, price INT);
		CREATE TABLE dealers (id INT, city VARCHAR);
		INSERT INTO cars VALUES (1, 10, 300), (2, 10, 100), (3, 20, 50);
		INSERT INTO dealers VALUES (10, 'Augsburg'), (20, 'Berlin')`)
	res := mustExec(t, db, `SELECT cars.id FROM cars JOIN dealers ON cars.dealer_id = dealers.id
		WHERE dealers.city = 'Augsburg' PREFERRING LOWEST(price)`)
	if len(res.Rows) != 1 || res.Rows[0][0].I != 2 {
		t.Fatalf("join + preference: %v", res.Rows)
	}
}

func TestPreferenceOverDerivedTable(t *testing.T) {
	db := Open()
	mustExec(t, db, `CREATE TABLE raw (id INT, v INT);
		INSERT INTO raw VALUES (1, 10), (2, 20), (3, 30)`)
	res := mustExec(t, db, `SELECT id FROM (SELECT id, v * 2 AS w FROM raw) d
		PREFERRING w AROUND 45`)
	if len(res.Rows) != 1 || res.Rows[0][0].I != 2 {
		t.Fatalf("derived + preference: %v", res.Rows)
	}
}

func TestRewriteModeFallsBackNowhere(t *testing.T) {
	// nested cascade inside Pareto is native-only; rewrite mode must
	// report the limitation rather than silently switching.
	db := Open()
	db.DefaultSession().SetMode(ModeRewrite)
	mustExec(t, db, `CREATE TABLE t (a INT, b INT, c INT);
		INSERT INTO t VALUES (1, 2, 3)`)
	_, err := db.Exec(`SELECT * FROM t PREFERRING (LOWEST(a) CASCADE LOWEST(b)) AND LOWEST(c)`)
	if err == nil || !strings.Contains(err.Error(), "CASCADE") {
		t.Fatalf("want cascade-in-pareto error, got %v", err)
	}
	// native mode evaluates it fine
	db.DefaultSession().SetMode(ModeNative)
	if _, err := db.Exec(`SELECT * FROM t PREFERRING (LOWEST(a) CASCADE LOWEST(b)) AND LOWEST(c)`); err != nil {
		t.Fatalf("native: %v", err)
	}
}

func TestOpenOnExistingEngine(t *testing.T) {
	db := Open()
	mustExec(t, db, "CREATE TABLE t (a INT); INSERT INTO t VALUES (1)")
	wrapped := OpenOn(db.Engine())
	res := mustExec(t, wrapped, "SELECT a FROM t PREFERRING LOWEST(a)")
	if len(res.Rows) != 1 {
		t.Fatal("shared engine")
	}
}

func TestQueryProgressive(t *testing.T) {
	db := Open()
	mustExec(t, db, `CREATE TABLE pts (id INT, x INT, y INT);
		INSERT INTO pts VALUES (1, 1, 9), (2, 9, 1), (3, 5, 5), (4, 6, 6), (5, 2, 8)`)
	var ids []int64
	cols, err := db.QueryProgressive(`SELECT id FROM pts PREFERRING LOWEST(x) AND LOWEST(y)`,
		func(r value.Row) bool {
			ids = append(ids, r[0].I)
			return true
		})
	if err != nil {
		t.Fatal(err)
	}
	if len(cols) != 1 || cols[0] != "id" {
		t.Fatalf("cols: %v", cols)
	}
	// the skyline is {1, 2, 3, 5}; batch agrees
	batch := mustExec(t, db, `SELECT id FROM pts PREFERRING LOWEST(x) AND LOWEST(y)`)
	if len(ids) != len(batch.Rows) {
		t.Fatalf("progressive %v vs batch %d", ids, len(batch.Rows))
	}
}

func TestQueryProgressiveEarlyStopAndLimit(t *testing.T) {
	db := Open()
	mustExec(t, db, `CREATE TABLE pts (id INT, x INT, y INT);
		INSERT INTO pts VALUES (1, 1, 9), (2, 9, 1), (3, 2, 8), (4, 8, 2)`)
	count := 0
	if _, err := db.QueryProgressive(`SELECT id FROM pts PREFERRING LOWEST(x) AND LOWEST(y) LIMIT 2`,
		func(value.Row) bool { count++; return true }); err != nil {
		t.Fatal(err)
	}
	if count != 2 {
		t.Fatalf("limit: %d", count)
	}
	count = 0
	if _, err := db.QueryProgressive(`SELECT id FROM pts PREFERRING LOWEST(x) AND LOWEST(y)`,
		func(value.Row) bool { count++; return false }); err != nil {
		t.Fatal(err)
	}
	if count != 1 {
		t.Fatalf("early stop: %d", count)
	}
}

func TestQueryProgressiveButOnly(t *testing.T) {
	db := Open()
	mustExec(t, db, `CREATE TABLE t (id INT, x INT);
		INSERT INTO t VALUES (1, 5), (2, 40)`)
	var got []int64
	if _, err := db.QueryProgressive(
		`SELECT id FROM t PREFERRING x AROUND 50 BUT ONLY DISTANCE(x) <= 15`,
		func(r value.Row) bool { got = append(got, r[0].I); return true }); err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0] != 2 {
		t.Fatalf("but only: %v", got)
	}
}

func TestQueryProgressiveRejections(t *testing.T) {
	db := Open()
	mustExec(t, db, `CREATE TABLE t (id INT, x INT); INSERT INTO t VALUES (1, 1)`)
	nop := func(value.Row) bool { return true }
	if _, err := db.QueryProgressive(`SELECT id FROM t`, nop); err == nil {
		t.Error("non-preference query should fail")
	}
	if _, err := db.QueryProgressive(`SELECT id FROM t PREFERRING LOWEST(x) ORDER BY id`, nop); err == nil {
		t.Error("ORDER BY should be rejected")
	}
	if _, err := db.QueryProgressive(`SELECT id FROM t PREFERRING EXPLICIT(x, 1 > 2)`, nop); err == nil {
		t.Error("EXPLICIT should be rejected for streaming")
	}
	if _, err := db.QueryProgressive(`SELEKT`, nop); err == nil {
		t.Error("parse error should surface")
	}
}
