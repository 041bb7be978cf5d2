package exec_test

import (
	"fmt"
	"math"
	"math/rand"
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
// the scan hands over, the winners equal the block-nested-loop answer
// over the same candidates, as a set (or both statements fail). The
// tables are big enough for the planner to vectorize every shape — a
// bare scan, a filtered scan, an index probe — and hold NULL, -0.0 and
// (in one table of each pair) NaN.

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
// of score terms, bare and computed, with cross-class IN sets, and now
// and then quality functions in the SELECT list or BUT ONLY. One term
// always ranks a wide column, so the skyline — and the reference's
// window — stays small.
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
	q, tail := "SELECT id FROM t", ""
	if label != "" {
		// Quality functions: distances relative to the best candidate.
		switch r.Intn(3) {
		case 0:
			q = fmt.Sprintf("SELECT id, DISTANCE(%s), TOP(%s), LEVEL(%s) FROM t", label, label, label)
		case 1:
			tail = fmt.Sprintf(" BUT ONLY DISTANCE(%s) <= %d", label, r.Intn(40))
		}
	}
	if len(where) > 0 {
		q += " WHERE " + strings.Join(where, " AND ")
	}
	return q + " PREFERRING " + strings.Join(terms, " AND ") + tail
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

// checkFill runs q vectorized and under BNL and compares the answers.
func checkFill(t *testing.T, db *core.DB, q string) {
	auto, bnl := db.NewSession(), db.NewSession()
	bnl.SetAlgorithm(bmo.BlockNestedLoop)
	plan, err := auto.ExplainNative(q)
	if err != nil {
		t.Fatalf("%s: %v", q, err)
	}
	if !strings.Contains(plan, "BMO vec") || !strings.Contains(plan, "columnar") {
		t.Fatalf("%s is not filled from a scan's selection:\n%s", q, plan)
	}
	res, err := auto.Query(q)
	var got []value.Row
	if err == nil {
		got = res.Rows
	}
	res, err2 := bnl.Query(q)
	var want []value.Row
	if err2 == nil {
		want = res.Rows
	}
	if g, w := rowSet(got, err), rowSet(want, err2); g != w {
		t.Fatalf("%s\nvectorized: %.200s (err %v)\nbnl:        %.200s (err %v)", q, g, err, w, err2)
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
