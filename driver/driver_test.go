package driver

import (
	"database/sql"
	"database/sql/driver"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/value"
)

func openDB(t *testing.T) *sql.DB {
	t.Helper()
	db, err := sql.Open("prefsql", ":memory:")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	// Force a single connection so the in-memory state is shared across
	// statements of a test.
	db.SetMaxOpenConns(1)
	return db
}

func TestStandardSQLThroughDriver(t *testing.T) {
	db := openDB(t)
	if _, err := db.Exec("CREATE TABLE t (a INT, b VARCHAR)"); err != nil {
		t.Fatal(err)
	}
	res, err := db.Exec("INSERT INTO t VALUES (1, 'x'), (2, 'y')")
	if err != nil {
		t.Fatal(err)
	}
	if n, _ := res.RowsAffected(); n != 2 {
		t.Errorf("affected: %d", n)
	}
	rows, err := db.Query("SELECT a, b FROM t ORDER BY a")
	if err != nil {
		t.Fatal(err)
	}
	defer rows.Close()
	var got []string
	for rows.Next() {
		var a int64
		var b string
		if err := rows.Scan(&a, &b); err != nil {
			t.Fatal(err)
		}
		got = append(got, b)
	}
	if len(got) != 2 || got[0] != "x" {
		t.Errorf("rows: %v", got)
	}
}

// The headline scenario: a legacy database/sql application issuing a
// PREFERRING query through the standard driver API.
func TestPreferenceQueryThroughDriver(t *testing.T) {
	db := openDB(t)
	if _, err := db.Exec(`CREATE TABLE trips (id INT, duration INT)`); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Exec(`INSERT INTO trips VALUES (1, 7), (2, 13), (3, 15), (4, 28)`); err != nil {
		t.Fatal(err)
	}
	rows, err := db.Query(`SELECT id FROM trips PREFERRING duration AROUND 14 ORDER BY id`)
	if err != nil {
		t.Fatal(err)
	}
	defer rows.Close()
	var ids []int64
	for rows.Next() {
		var id int64
		if err := rows.Scan(&id); err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
	}
	if len(ids) != 2 || ids[0] != 2 || ids[1] != 3 {
		t.Errorf("ids: %v", ids)
	}
}

func TestPlaceholders(t *testing.T) {
	db := openDB(t)
	if _, err := db.Exec("CREATE TABLE p (a INT, b VARCHAR, c FLOAT, d BOOLEAN, e DATE)"); err != nil {
		t.Fatal(err)
	}
	when := time.Date(1999, time.July, 3, 0, 0, 0, 0, time.UTC)
	if _, err := db.Exec("INSERT INTO p VALUES (?, ?, ?, ?, ?)", 7, "O'Brien", 2.5, true, when); err != nil {
		t.Fatal(err)
	}
	var (
		a int64
		b string
		c float64
		d bool
		e time.Time
	)
	err := db.QueryRow("SELECT a, b, c, d, e FROM p WHERE a = ?", 7).Scan(&a, &b, &c, &d, &e)
	if err != nil {
		t.Fatal(err)
	}
	if a != 7 || b != "O'Brien" || c != 2.5 || !d || e.Day() != 3 {
		t.Errorf("scan: %v %v %v %v %v", a, b, c, d, e)
	}
}

func TestPlaceholderInPreference(t *testing.T) {
	db := openDB(t)
	if _, err := db.Exec(`CREATE TABLE trips (id INT, duration INT);`); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Exec(`INSERT INTO trips VALUES (1, 7), (2, 13)`); err != nil {
		t.Fatal(err)
	}
	var id int64
	err := db.QueryRow("SELECT id FROM trips PREFERRING duration AROUND ?", 14).Scan(&id)
	if err != nil {
		t.Fatal(err)
	}
	if id != 2 {
		t.Errorf("id: %d", id)
	}
}

func TestNullScan(t *testing.T) {
	db := openDB(t)
	if _, err := db.Exec("CREATE TABLE n (a INT); INSERT INTO n VALUES (NULL)"); err != nil {
		t.Fatal(err)
	}
	var a sql.NullInt64
	if err := db.QueryRow("SELECT a FROM n").Scan(&a); err != nil {
		t.Fatal(err)
	}
	if a.Valid {
		t.Error("expected NULL")
	}
}

func TestNamedSharedInstance(t *testing.T) {
	db1, err := sql.Open("prefsql", "shared_test_db")
	if err != nil {
		t.Fatal(err)
	}
	defer db1.Close()
	if _, err := db1.Exec("CREATE TABLE s (a INT); INSERT INTO s VALUES (42)"); err != nil {
		t.Fatal(err)
	}
	db2, err := sql.Open("prefsql", "shared_test_db")
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	var a int64
	if err := db2.QueryRow("SELECT a FROM s").Scan(&a); err != nil {
		t.Fatal(err)
	}
	if a != 42 {
		t.Errorf("a: %d", a)
	}
}

func TestTransactionsAreAccepted(t *testing.T) {
	db := openDB(t)
	if _, err := db.Exec("CREATE TABLE t (a INT)"); err != nil {
		t.Fatal(err)
	}
	tx, err := db.Begin()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tx.Exec("INSERT INTO t VALUES (1)"); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	var n int64
	if err := db.QueryRow("SELECT COUNT(*) FROM t").Scan(&n); err != nil {
		t.Fatal(err)
	}
	if n != 1 {
		t.Errorf("count: %d", n)
	}
}

func TestErrorsSurfaced(t *testing.T) {
	db := openDB(t)
	if _, err := db.Exec("SELEKT 1"); err == nil {
		t.Error("syntax error should surface")
	}
	if _, err := db.Exec("SELECT ? FROM nope"); err == nil {
		t.Error("missing args should surface")
	}
	if _, err := db.Query("SELECT 1 WHERE 'unterminated"); err == nil {
		t.Error("unterminated literal should surface")
	}
}

func TestBindHelpers(t *testing.T) {
	if n, _ := CountPlaceholders("SELECT '?' , ?"); n != 1 {
		t.Errorf("placeholders inside strings must not count: %d", n)
	}
	if _, err := BindLiteral("SELECT 1", nil); err != nil {
		t.Errorf("no-arg bind: %v", err)
	}
	if _, err := BindLiteral("SELECT ?, ?", []value.Value{value.NewInt(1)}); err == nil {
		t.Error("too few args should fail")
	}
	if _, err := BindLiteral("SELECT ?", []value.Value{value.NewInt(1), value.NewInt(2)}); err == nil {
		t.Error("too many args should fail")
	}
	if _, err := value.FromGo(struct{}{}); err == nil {
		t.Error("unsupported type should fail")
	}
}

// The satellite regression for the literal-substitution escaping path:
// argument values containing single quotes, question marks and
// backslashes must splice into the text as exact SQL literals, and '?'
// inside comments and quoted identifiers must not count as placeholders.
func TestBindLiteralEscaping(t *testing.T) {
	got, err := BindLiteral("SELECT ? AS a, ? AS b", []value.Value{
		value.NewText("O'Brien?"),
		value.NewText(`back\slash'`),
	})
	if err != nil {
		t.Fatal(err)
	}
	want := `SELECT 'O''Brien?' AS a, 'back\slash''' AS b`
	if got != want {
		t.Errorf("bound text:\n got %q\nwant %q", got, want)
	}

	// The substituted text must survive a round trip through the engine
	// with the values intact.
	db := openDB(t)
	if _, err := db.Exec("CREATE TABLE q (a VARCHAR, b VARCHAR)"); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Exec("INSERT INTO q VALUES (?, ?)", "O'Brien?", `back\slash'`); err != nil {
		t.Fatal(err)
	}
	var a, b string
	if err := db.QueryRow("SELECT a, b FROM q WHERE a = ?", "O'Brien?").Scan(&a, &b); err != nil {
		t.Fatal(err)
	}
	if a != "O'Brien?" || b != `back\slash'` {
		t.Errorf("round trip: %q %q", a, b)
	}
}

func TestPlaceholderScannerSkipsCommentsAndIdents(t *testing.T) {
	cases := []struct {
		query string
		want  int
	}{
		{"SELECT ? -- is this a ? placeholder\n, ?", 2},
		{"SELECT ? /* not ? here */ , ?", 2},
		{`SELECT "a?b" FROM t WHERE x = ?`, 1},
		{"SELECT 'it''s ?' , ?", 1},
	}
	for _, c := range cases {
		n, err := CountPlaceholders(c.query)
		if err != nil {
			t.Errorf("%q: %v", c.query, err)
			continue
		}
		if n != c.want {
			t.Errorf("%q: counted %d placeholders, want %d", c.query, n, c.want)
		}
	}
	if _, err := CountPlaceholders("SELECT 'unterminated"); err == nil {
		t.Error("unterminated literal should fail")
	}
}

func TestDriverDBAccessorAndModeSwitch(t *testing.T) {
	d := &Driver{}
	conn, err := d.Open("accessor_test")
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	inner := d.DB("accessor_test")
	if inner == nil {
		t.Fatal("DB accessor")
	}
	// switch the shared instance to rewrite mode; queries still work
	st, err := conn.Prepare("SELECT 1 + 1")
	if err != nil {
		t.Fatal(err)
	}
	rows, err := st.(interface {
		Query([]driver.Value) (driver.Rows, error)
	}).Query(nil)
	if err != nil {
		t.Fatal(err)
	}
	dest := make([]driver.Value, 1)
	if err := rows.Next(dest); err != nil {
		t.Fatal(err)
	}
	if dest[0].(int64) != 2 {
		t.Errorf("result: %v", dest[0])
	}
	if err := rows.Next(dest); err == nil {
		t.Error("expected EOF")
	}
	if d.DB("never_opened") != nil {
		t.Error("unknown name should be nil")
	}
}

func TestResultLastInsertIdUnsupported(t *testing.T) {
	db := openDB(t)
	if _, err := db.Exec("CREATE TABLE t (a INT)"); err != nil {
		t.Fatal(err)
	}
	res, err := db.Exec("INSERT INTO t VALUES (1)")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := res.LastInsertId(); err == nil {
		t.Error("LastInsertId should be unsupported")
	}
}

func TestDateRoundTripThroughDriver(t *testing.T) {
	db := openDB(t)
	if _, err := db.Exec("CREATE TABLE d (x DATE)"); err != nil {
		t.Fatal(err)
	}
	in := time.Date(2001, time.October, 31, 15, 4, 5, 0, time.UTC) // time part dropped
	if _, err := db.Exec("INSERT INTO d VALUES (?)", in); err != nil {
		t.Fatal(err)
	}
	var out time.Time
	if err := db.QueryRow("SELECT x FROM d").Scan(&out); err != nil {
		t.Fatal(err)
	}
	if out.Year() != 2001 || out.Month() != time.October || out.Day() != 31 {
		t.Errorf("date: %v", out)
	}
}

// Regression: the literal-substitution fallback must fire only on parse
// errors. A runtime failure halfway through a script must NOT re-run the
// script with literals spliced in — that would duplicate the side
// effects the first attempt already applied.
func TestNoFallbackReplayAfterRuntimeError(t *testing.T) {
	db := openDB(t)
	if _, err := db.Exec("CREATE TABLE t (a INT)"); err != nil {
		t.Fatal(err)
	}
	_, err := db.Exec("INSERT INTO t VALUES (?); INSERT INTO missing VALUES (1)", 5)
	if err == nil {
		t.Fatal("want runtime error for missing table")
	}
	var n int64
	if err := db.QueryRow("SELECT COUNT(*) FROM t").Scan(&n); err != nil {
		t.Fatal(err)
	}
	if n != 1 {
		t.Errorf("first statement executed %d times, want exactly 1", n)
	}
}

// The documented mode-switch pattern: driver connections run on the
// database's default session, so DB(name).DefaultSession().SetMode
// affects them.
func TestDriverDBModeSwitchAffectsConnections(t *testing.T) {
	db, err := sql.Open("prefsql", "mode_switch_db")
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	db.SetMaxOpenConns(1)
	if _, err := db.Exec(`CREATE TABLE trips (id INT, duration INT);
		INSERT INTO trips VALUES (1, 7), (2, 13), (3, 15)`); err != nil {
		t.Fatal(err)
	}
	Default.DB("mode_switch_db").DefaultSession().SetMode(core.ModeRewrite)
	defer Default.DB("mode_switch_db").DefaultSession().SetMode(core.ModeNative)
	var id int64
	if err := db.QueryRow(`SELECT id FROM trips PREFERRING duration AROUND ? ORDER BY id`, 14).Scan(&id); err != nil {
		t.Fatal(err)
	}
	if id != 2 {
		t.Errorf("rewrite-mode id: %d", id)
	}
}
