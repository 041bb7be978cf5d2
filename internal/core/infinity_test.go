package core

import (
	"fmt"
	"sort"
	"strings"
	"testing"
)

// infTable creates t(id, d FLOAT) with rows 1: +Inf, 2: 5, 3: -Inf and
// 4: NULL, plus filler rows 100.. with finite values, enough of them to
// make the planner fill the score matrix from column vectors.
func infTable(t *testing.T, filler int) *DB {
	t.Helper()
	db := Open()
	mustExec(t, db, `CREATE TABLE t (id INT, d FLOAT);
		INSERT INTO t VALUES (1, 1e308 * 10), (2, 5), (3, 0 - 1e308 * 10), (4, NULL)`)
	for lo := 0; lo < filler; lo += 1000 {
		var vals []string
		for i := lo; i < min(lo+1000, filler); i++ {
			vals = append(vals, fmt.Sprintf("(%d, %d.5)", 100+i, i%997-498))
		}
		mustExec(t, db, "INSERT INTO t VALUES "+strings.Join(vals, ", "))
	}
	return db
}

// ids runs sql and returns the first column as a sorted id list.
func ids(t *testing.T, s *Session, sql string) string {
	t.Helper()
	res, err := s.Exec(sql)
	if err != nil {
		t.Fatalf("%s: %v", sql, err)
	}
	var out []string
	for _, r := range res.Rows {
		out = append(out, r[0].String())
	}
	sort.Strings(out)
	if len(out) > 8 {
		out = append(out[:8], fmt.Sprintf("... (%d rows)", len(out)))
	}
	return strings.Join(out, " ")
}

// pathSettings are the session settings under which every infinity query
// must give the same answer: the native kernels and the §3.2 rewrite.
var pathSettings = []string{
	"SET mode = native; SET algorithm = auto",
	"SET mode = native; SET algorithm = bnl",
	"SET mode = rewrite",
}

// TestAroundInfiniteTarget: a value equal to an infinite AROUND target
// is at distance 0, not Inf - Inf (NaN), on every path — the row scorer,
// the column-vector fill of a table large enough to vectorize, and the
// rewrite's level column.
func TestAroundInfiniteTarget(t *testing.T) {
	for _, filler := range []int{0, 12000} {
		db := infTable(t, filler)
		for _, q := range []struct{ sql, want string }{
			{`SELECT id FROM t PREFERRING d AROUND 1e308 * 10`, "1"},
			{`SELECT id FROM t PREFERRING d AROUND 0 - 1e308 * 10`, "3"},
		} {
			for _, set := range pathSettings {
				s := db.NewSession()
				if _, err := s.Exec(set); err != nil {
					t.Fatal(err)
				}
				if got := ids(t, s, q.sql); got != q.want {
					t.Errorf("%d filler rows, %s: %s returned {%s}, want {%s}", filler, set, q.sql, got, q.want)
				}
			}
		}
	}
}

// TestNullTiesInfinity: NULL scores +Inf, so it ties with a +Inf level
// — LOWEST of +Inf, HIGHEST of -Inf, an infinite AROUND or BETWEEN
// distance — in the rewrite exactly as natively.
func TestNullTiesInfinity(t *testing.T) {
	db := infTable(t, 0)
	for _, q := range []struct{ sql, want string }{
		{`SELECT id FROM t WHERE id <> 2 AND id <> 3 PREFERRING LOWEST(d)`, "1 4"},
		{`SELECT id FROM t WHERE id = 3 OR id = 4 PREFERRING HIGHEST(d)`, "3 4"},
		{`SELECT id FROM t WHERE id <> 2 PREFERRING d AROUND 0`, "1 3 4"},
		{`SELECT id FROM t WHERE id <> 2 PREFERRING d BETWEEN 0, 1`, "1 3 4"},
	} {
		for _, set := range pathSettings {
			s := db.NewSession()
			if _, err := s.Exec(set); err != nil {
				t.Fatal(err)
			}
			if got := ids(t, s, q.sql); got != q.want {
				t.Errorf("%s: %s returned {%s}, want {%s}", set, q.sql, got, q.want)
			}
		}
	}
}
