package exec_test

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"
	"strings"
	"sync"
	"testing"

	"repro/internal/bmo"
	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/storage"
	"repro/internal/value"
)

// The vectorized BMO's fill must be invisible: whatever mix of column
// kernels and row scoring fills the score matrix, and whatever selection
// the scan hands over, the winners equal the row path's answer over the
// same candidates in the same order, and the block-nested-loop answer as
// a set (or all three statements fail). The tables are big enough for
// the planner to vectorize every shape — a bare scan, a filtered scan,
// an index probe — and hold NULL, -0.0 and (in one table of each pair)
// NaN.

// fillRows is the table size: an index probe's estimate (a tenth) must
// reach the vectorization threshold.
const fillRows = 10 * bmo.AutoParallelThreshold

// fillTables is the number of distinct generated tables the fuzz input
// chooses from; each is built once per process.
const fillTables = 2

var (
	fillOnce [fillTables]sync.Once
	fillDBs  [fillTables]*core.DB
)

// fillDB returns generated table t(id, k, a, f, b, s) number i: k INT
// (0..9, indexed), a INT and f FLOAT (halves, -0.0, and NaN in odd
// tables) with about ten rows per value, b BOOL, s TEXT (indexed), every
// column but id and k NULL in about one row in eight.
func fillDB(t testing.TB, i int) *core.DB {
	fillOnce[i].Do(func() {
		r := rand.New(rand.NewSource(int64(1000 + i)))
		null := func(v value.Value) value.Value {
			if r.Intn(8) == 0 {
				return value.NewNull()
			}
			return v
		}
		rows := make([]value.Row, fillRows)
		for n := range rows {
			f := float64(r.Intn(10001)-5000) / 2
			switch x := r.Intn(1000); {
			case x == 0:
				f = math.Copysign(0, -1)
			case x == 1 && i%2 == 1 && r.Intn(50) == 0:
				f = math.NaN()
			}
			rows[n] = value.Row{
				value.NewInt(int64(n)),
				value.NewInt(int64(r.Intn(10))),
				null(value.NewInt(int64(r.Intn(10001) - 5000))),
				null(value.NewFloat(f)),
				null(value.NewBool(r.Intn(2) == 0)),
				null(value.NewText([]string{"a", "b", "c", "1", "5", "TRUE"}[r.Intn(6)])),
			}
		}
		db := core.Open()
		cols := []storage.Column{{Name: "id", Kind: value.Int}, {Name: "k", Kind: value.Int},
			{Name: "a", Kind: value.Int}, {Name: "f", Kind: value.Float},
			{Name: "b", Kind: value.Bool}, {Name: "s", Kind: value.Text}}
		tbl := storage.NewTable("t", storage.Schema{Cols: cols})
		if err := db.Engine().Catalog().CreateTable(tbl); err != nil {
			panic(err)
		}
		if err := tbl.InsertBatch(rows); err != nil {
			panic(err)
		}
		if _, err := db.Exec(`CREATE INDEX t_k ON t (k); CREATE INDEX t_s ON t (s)`); err != nil {
			panic(err)
		}
		fillDBs[i] = db
	})
	return fillDBs[i]
}

func pick(r *rand.Rand, xs ...string) string { return xs[r.Intn(len(xs))] }

// genFillQuery draws a statement: a WHERE clause (none, numeric ranges,
// TEXT equality, an index probe with a bound of another kind or NULL), a Pareto
// of score terms, bare and computed, with cross-class IN sets, now
// and then quality functions in the SELECT list or BUT ONLY, and in a
// third of the statements one or two further CASCADE stages. One term
// of the first stage always ranks a wide column, so the skyline — and
// the reference's window — stays small. The cascade's draws come after
// the first stage's, and the last draws add a term over two columns,
// put a parenthesized group into the first stage and, in a fifth of the
// statements, evaluate BMO per group of an INT, BOOL or TEXT column
// (GROUPING), so a statement without them is the one its seed always
// drew.
func genFillQuery(r *rand.Rand) string {
	var where []string
	switch r.Intn(6) {
	case 1:
		where = append(where, pick(r, "a < 100", "f >= -10", "a <= 0 AND f < 20", "b = TRUE", "s = 'b'"))
	case 2:
		where = append(where, pick(r, "k = 3", "k = 3.0", "k = 3.5", "k = TRUE", "k = '3'", "3 = k", "k = NULL"))
	case 3:
		where = append(where, pick(r, "s = 'a'", "s = 5", "s = 'TRUE'", "s = TRUE", "'1' = s"))
	case 4:
		where = append(where, pick(r, "k = 7", "s = '5'", "k = 0"), pick(r, "a > -200", "f < 0", "b = FALSE", "k < 5"))
	}
	// At most one wide term per column: two over one column can conflict
	// (HIGHEST(a) AND a AROUND 17), and then every value in between is a
	// winner. A bare wide term's column is also its quality-function
	// label.
	wide := [][]string{
		{"LOWEST(a)", "HIGHEST(a)", "a AROUND 17", "a BETWEEN 3, 7", "LOWEST(-a)", "a * 2 AROUND 40",
			"LOWEST(a + 0)", "a - 3 BETWEEN 0, 9"},
		{"LOWEST(f)", "HIGHEST(f)", "f AROUND -0.5", "f BETWEEN 0, 1", "HIGHEST(ABS(f - 2))"},
	}
	narrow := []string{"s IN ('a', '1')", "s IN (1, 'b')", "s NOT IN ('c')", "s = 'TRUE'", "s = TRUE",
		"s <> 'z'", "b = TRUE", "b IN (1)", "b IN (TRUE, 0)", "HIGHEST(b)", "LOWEST(b)", "b <> FALSE",
		"a IN (1, TRUE, 2.0, '3')", "f IN (0, 0.5)", "f NOT IN (-1.5)", "k IN (3, '3')", "a <= 10",
		"f > 0", "REGULAR(5 > a)", "REGULAR(b = TRUE)", "REGULAR(s = 'a')", "f >= '1'",
		"REGULAR(f = 0)", "a <= NULL", "LENGTH(s) = 1"}
	// Terms over two columns, narrow so they cannot widen the skyline.
	multi := []string{"REGULAR(a < f)", "REGULAR(f >= a + k)", "LENGTH(s) + k <= 4", "HIGHEST(k - LENGTH(s))",
		"CASE WHEN b THEN k ELSE 0 END IN (3, 7)", "LOWEST(ABS(k - a) / 1000)"}
	c := r.Intn(2)
	terms := []string{pick(r, wide[c][:4]...)}
	label := []string{"a", "f"}[c]
	if r.Intn(2) == 0 {
		terms[0], label = pick(r, wide[c]...), ""
	}
	if r.Intn(3) == 0 {
		terms = append(terms, pick(r, wide[1-c]...))
	}
	for n := r.Intn(3); n > 0; n-- {
		terms = append(terms, pick(r, narrow...))
	}
	r.Shuffle(len(terms), func(i, j int) { terms[i], terms[j] = terms[j], terms[i] })
	list, tail := "id", ""
	if label != "" {
		// Quality functions: distances relative to the best candidate.
		switch r.Intn(3) {
		case 0:
			list = fmt.Sprintf("id, DISTANCE(%s), TOP(%s), LEVEL(%s)", label, label, label)
		case 1:
			tail = fmt.Sprintf(" BUT ONLY DISTANCE(%s) <= %d", label, r.Intn(40))
		}
	}
	cascade := ""
	if r.Intn(3) == 0 {
		// Later stages rank the survivors of the earlier ones, so any
		// term may rank them, a wide one over either column too. A bare
		// wide term there is a label the quality functions can read
		// when the first stage gave them none.
		for n := 1 + r.Intn(2); n > 0; n-- {
			c := r.Intn(2)
			stage := []string{pick(r, wide[c]...)}
			if r.Intn(2) == 0 {
				stage = append(stage, pick(r, narrow...))
			}
			r.Shuffle(len(stage), func(i, j int) { stage[i], stage[j] = stage[j], stage[i] })
			cascade += " CASCADE " + strings.Join(stage, " AND ")
			if list == "id" && tail == "" && slices.Contains(wide[c][:4], stage[0]) && r.Intn(2) == 0 {
				list = fmt.Sprintf("id, DISTANCE(%s)", []string{"a", "f"}[c])
			}
		}
	}
	if r.Intn(3) == 0 {
		terms = slices.Insert(terms, r.Intn(len(terms)+1), pick(r, multi...))
	}
	if len(terms) > 1 && r.Intn(3) == 0 {
		// A parenthesized group compiles into the accumulation around it.
		i := r.Intn(len(terms) - 1)
		j := i + 2 + r.Intn(len(terms)-i-1)
		group := "(" + strings.Join(terms[i:j], " AND ") + ")"
		terms = slices.Replace(terms, i, j, group)
	}
	pref := strings.Join(terms, " AND ") + cascade
	if r.Intn(5) == 0 {
		pref += " GROUPING " + pick(r, "k", "b", "s")
	}
	q := "SELECT " + list + " FROM t"
	if len(where) > 0 {
		q += " WHERE " + strings.Join(where, " AND ")
	}
	return q + " PREFERRING " + pref + tail
}

// rowList renders a result in order, or the fact that it failed.
func rowList(rows []value.Row, err error) string {
	if err != nil {
		return "error"
	}
	out := make([]string, len(rows))
	for i, r := range rows {
		out[i] = r.String()
	}
	return strings.Join(out, ",")
}

// rowSet renders a result as a sorted set of rows, or the fact that it
// failed.
func rowSet(rows []value.Row, err error) string {
	if err != nil {
		return "error"
	}
	out := make([]string, len(rows))
	for i, r := range rows {
		out[i] = r.String()
	}
	sort.Strings(out)
	return strings.Join(out, ",")
}

// Query forms: the batch Result, a cursor, and the strict progressive
// stream, each returning the rows it produced and the error it stopped
// on.
func queryBatch(s *core.Session, q string) ([]value.Row, error) {
	res, err := s.Query(q)
	if err != nil {
		return nil, err
	}
	return res.Rows, nil
}

func queryCursor(s *core.Session, q string) ([]value.Row, error) {
	c, err := s.OpenCursor(q)
	if err != nil {
		return nil, err
	}
	defer c.Close()
	var rows []value.Row
	for c.Next() {
		rows = append(rows, c.Row())
	}
	return rows, c.Err()
}

func queryStrict(s *core.Session, q string) ([]value.Row, error) {
	var rows []value.Row
	_, err := s.QueryProgressive(q, func(r value.Row) bool { rows = append(rows, r); return true })
	return rows, err
}

var queryForms = []struct {
	name string
	run  func(*core.Session, string) ([]value.Row, error)
}{{"batch", queryBatch}, {"cursor", queryCursor}, {"progressive", queryStrict}}

// checkFill runs q vectorized, on the row path and under BNL, and
// compares the answers: in order with the row path, as a set with BNL.
// The row path is the parallel algorithm's, which the planner never
// vectorizes and which runs the score kernel Auto runs, so it emits the
// same rows in the same order. The cursor and the strict progressive
// form must give the vectorized batch answer in the same order too; the
// strict form refuses a GROUPING statement, which needs its whole
// result, so a grouped statement must fail there.
func checkFill(t *testing.T, db *core.DB, q string) {
	auto, rowPath, bnl := db.NewSession(), db.NewSession(), db.NewSession()
	rowPath.SetAlgorithm(bmo.Parallel)
	bnl.SetAlgorithm(bmo.BlockNestedLoop)
	plan, err := auto.ExplainNative(q)
	if err != nil {
		t.Fatalf("%s: %v", q, err)
	}
	if !strings.Contains(plan, "BMO vec") || !strings.Contains(plan, "columnar") {
		t.Fatalf("%s is not filled from a scan's selection:\n%s", q, plan)
	}
	if plan, err := rowPath.ExplainNative(q); err != nil || strings.Contains(plan, "BMO vec") {
		t.Fatalf("%s: the reference is not on the row path (err %v):\n%s", q, err, plan)
	}
	got, err := queryBatch(auto, q)
	ref, errRef := queryBatch(rowPath, q)
	want, errBNL := queryBatch(bnl, q)
	if g, w := rowList(got, err), rowList(ref, errRef); g != w {
		t.Fatalf("%s\nvectorized: %.200s (err %v)\nrow path:   %.200s (err %v)", q, g, err, w, errRef)
	}
	if g, w := rowSet(got, err), rowSet(want, errBNL); g != w {
		t.Fatalf("%s\nvectorized: %.200s (err %v)\nbnl:        %.200s (err %v)", q, g, err, w, errBNL)
	}
	for _, f := range queryForms[1:] {
		rows, errForm := f.run(auto, q)
		if f.name == "progressive" && strings.Contains(q, " GROUPING ") {
			if errForm == nil {
				t.Fatalf("%s: the strict progressive form streamed a GROUPING statement", q)
			}
			continue
		}
		if g, w := rowList(rows, errForm), rowList(got, err); g != w {
			t.Fatalf("%s\n%s: %.200s (err %v)\nbatch: %.200s (err %v)", q, f.name, g, errForm, w, err)
		}
	}
}

func TestColumnarFillDifferential(t *testing.T) {
	n := 64
	if testing.Short() {
		n = 4
	}
	for seed := 0; seed < n; seed++ {
		q := genFillQuery(rand.New(rand.NewSource(int64(seed))))
		t.Run(fmt.Sprint(seed), func(t *testing.T) { checkFill(t, fillDB(t, seed%fillTables), q) })
	}
}

// TestColumnarFillGrouping runs GROUPING over each kind of key column —
// INT, BOOL with NULLs, TEXT under an index probe, two columns at once —
// through every check: each group runs the stage loop on its own
// positions, and the groups keep their order of first appearance.
func TestColumnarFillGrouping(t *testing.T) {
	for _, q := range []string{
		`SELECT id FROM t PREFERRING LOWEST(a) AND HIGHEST(f) GROUPING k`,
		`SELECT id FROM t PREFERRING LOWEST(a) CASCADE HIGHEST(f) GROUPING b`,
		`SELECT id FROM t WHERE k = 3 PREFERRING s IN ('a') AND LOWEST(f) CASCADE HIGHEST(a) GROUPING s`,
		`SELECT id, DISTANCE(a) FROM t PREFERRING LOWEST(a) GROUPING k, b`,
	} {
		checkFill(t, fillDB(t, 0), q)
	}
}

func FuzzColumnarFill(f *testing.F) {
	f.Add(int64(1), uint8(0))
	f.Add(int64(2), uint8(1))
	f.Fuzz(func(t *testing.T, seed int64, table uint8) {
		checkFill(t, fillDB(t, int(table)%fillTables), genFillQuery(rand.New(rand.NewSource(seed))))
	})
}

// TestTextCodesOnlyForMemberKernels: a TEXT column is dictionary-coded
// only when a POS or NEG kernel reads it. A condition or a numeric
// preference over it is scored row by row, and builds no vector.
func TestTextCodesOnlyForMemberKernels(t *testing.T) {
	builds := metrics.Default.Counter("prefsql_columnar_rebuilds_total", "")
	db := core.Open()
	if _, err := db.Exec(`CREATE TABLE u (id INT, a INT, s VARCHAR)`); err != nil {
		t.Fatal(err)
	}
	rows := make([]value.Row, bmo.AutoParallelThreshold)
	for n := range rows {
		rows[n] = value.Row{value.NewInt(int64(n)), value.NewInt(int64(n % 97)),
			value.NewText([]string{"a", "m", "z"}[n%3])}
	}
	tbl, _ := db.Engine().Catalog().Table("u")
	if err := tbl.InsertBatch(rows); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		q      string
		builds int64
	}{
		{`SELECT id FROM u PREFERRING LOWEST(a) AND REGULAR(s = 'a')`, 1}, // a
		{`SELECT id FROM u PREFERRING LOWEST(a) AND s < 'm'`, 0},
		{`SELECT id FROM u PREFERRING LOWEST(a) AND s >= 5`, 0},
		{`SELECT id FROM u PREFERRING HIGHEST(a) AND REGULAR(s > 'b')`, 0},
		{`SELECT id FROM u PREFERRING LOWEST(a) AND s IN ('m')`, 1},      // s's codes
		{`SELECT id FROM u PREFERRING HIGHEST(a) AND s NOT IN ('a')`, 0}, // cached
	} {
		before := builds.Value()
		checkFill(t, db, c.q)
		if got := builds.Value() - before; got != c.builds {
			t.Errorf("%s built %d column vectors, want %d", c.q, got, c.builds)
		}
	}
}

// TestCascadeNaNFailsOnlySurvivors pins that a CASCADE's errors do not
// depend on the plan: a later stage scores only the survivors of the
// earlier ones, on the selection as on the row path, so a NaN under
// LOWEST fails the statement only where the row path scores it — on a
// row that survives stage 1, or under a quality function, whose minimum
// is over every candidate.
func TestCascadeNaNFailsOnlySurvivors(t *testing.T) {
	// a is 1..1000, twenty rows each: stage 1 keeps the twenty rows with
	// a = 1, and f ranks them.
	db := func(nan int) *core.DB {
		db := core.Open()
		if _, err := db.Exec(`CREATE TABLE t (id INT, a INT, f FLOAT)`); err != nil {
			t.Fatal(err)
		}
		rows := make([]value.Row, 2*bmo.AutoParallelThreshold)
		for n := range rows {
			f := float64(n%37) / 4
			if n == nan {
				f = math.NaN()
			}
			rows[n] = value.Row{value.NewInt(int64(n)), value.NewInt(int64(n%1000 + 1)), value.NewFloat(f)}
		}
		tbl, _ := db.Engine().Catalog().Table("t")
		if err := tbl.InsertBatch(rows); err != nil {
			t.Fatal(err)
		}
		return db
	}
	const cascade = `SELECT id FROM t PREFERRING LOWEST(a) CASCADE LOWEST(f)`
	eliminated, survivor := db(499), db(3000) // a = 500, a = 1
	for _, c := range []struct {
		name string
		db   *core.DB
		q    string
		fail bool
	}{
		{"eliminated", eliminated, cascade, false},
		{"survivor", survivor, cascade, true},
		{"distance", eliminated, `SELECT id, DISTANCE(f) FROM t PREFERRING LOWEST(a) CASCADE LOWEST(f)`, true},
	} {
		t.Run(c.name, func(t *testing.T) {
			checkFill(t, c.db, c.q)
			res, err := c.db.Query(c.q)
			if (err != nil) != c.fail {
				t.Fatalf("%s: err %v, want failure %v", c.q, err, c.fail)
			}
			if err == nil && len(res.Rows) != 1 {
				t.Fatalf("%s: %d rows, want the one a = 1 row with f = 0", c.q, len(res.Rows))
			}
		})
	}
}

// TestColumnarFillExplicit checks EXPLICIT's position fill from a
// column vector — TEXT through dictionary codes, BOOL, INT and FLOAT
// with cross-class and -0.0 edge values — for a chain graph (one
// extension, its levels), a non-chain one (one element per extension
// of its realizer) and a CASCADE nested in a Pareto (a Lex segment).
func TestColumnarFillExplicit(t *testing.T) {
	for _, pref := range []string{
		`LOWEST(a) AND EXPLICIT(s, 'a' > 'b', 'b' > '1')`,
		`HIGHEST(f) AND EXPLICIT(s, 'a' > 'c', 'b' > 'c', 'c' > 'TRUE')`,
		`LOWEST(a) AND EXPLICIT(b, TRUE > FALSE)`,
		`HIGHEST(a) AND EXPLICIT(f, 0 > 0.5, -1.5 > 0.5, 0.5 > 2)`,
		`LOWEST(f) AND EXPLICIT(a, 1 > 2, '3' > 2, TRUE > 4)`,
		`(LOWEST(a) CASCADE HIGHEST(f)) AND EXPLICIT(s, 'a' > 'b')`,
		`(HIGHEST(f) CASCADE LOWEST(a)) AND EXPLICIT(s, 'a' > 'b', 'c' > 'b') AND b = TRUE`,
		`LOWEST(a) AND EXPLICIT(s, NULL > 'a')`,
		`HIGHEST(f) AND EXPLICIT(a, NULL > 1)`,
	} {
		for _, where := range []string{"", " WHERE k = 3"} {
			checkFill(t, fillDB(t, 0), "SELECT id FROM t"+where+" PREFERRING "+pref)
		}
	}
	// A stage of EXPLICIT alone keeps a third of the rows; the reference
	// BNL's window is kept small by the probe.
	checkFill(t, fillDB(t, 0), `SELECT id FROM t WHERE k = 3 PREFERRING EXPLICIT(s, 'a' > 'b', 'c' > 'b') CASCADE LOWEST(a)`)
}

// TestCascadeFormsAgree pins that a CASCADE answers the same whatever
// form runs it: every form stops once a stage leaves at most one
// candidate, so a later stage never scores — nor fails on — the single
// winner of an earlier one. Row 1 wins stage 1 alone and has f = NaN,
// which LOWEST(f) would fail on; a nested CASCADE flattens into the
// same stages.
func TestCascadeFormsAgree(t *testing.T) {
	db := core.Open()
	if _, err := db.Exec(`CREATE TABLE n (id INT, a INT, b INT, f FLOAT);
		INSERT INTO n VALUES (1, 1, 5, 0 * (1e308 * 10)), (2, 2, 1, 0.5), (3, 3, 2, 1), (4, 4, 3, 2)`); err != nil {
		t.Fatal(err)
	}
	answer := func(rows []value.Row, err error, ordered bool) string {
		if err != nil {
			return "error: " + err.Error()
		}
		if ordered {
			return rowList(rows, nil)
		}
		return rowSet(rows, nil)
	}
	for _, q := range []string{
		`SELECT id FROM n PREFERRING LOWEST(a) CASCADE LOWEST(f)`,
		`SELECT id FROM n PREFERRING (LOWEST(a) CASCADE HIGHEST(b)) CASCADE LOWEST(f)`,
	} {
		for _, algo := range []bmo.Algorithm{bmo.Auto, bmo.Parallel, bmo.BlockNestedLoop, bmo.NestedLoop} {
			s := db.NewSession()
			s.SetAlgorithm(algo)
			ordered := algo == bmo.Auto || algo == bmo.Parallel
			var want string
			for _, f := range queryForms {
				rows, err := f.run(s, q)
				got := answer(rows, err, ordered)
				if f.name == "batch" {
					want = got
					if got != "(1)" {
						t.Errorf("%s under %s: batch answers %s, want (1)", q, algo, got)
					}
				} else if got != want {
					t.Errorf("%s under %s: %s answers %s, batch %s", q, algo, f.name, got, want)
				}
			}
		}
	}
}
