package core

import (
	"fmt"
	"testing"
)

// TestNegativeZeroIsZero: `=` finds -0.0 equal to 0, so every hashed
// path — an index probe, GROUP BY — must agree with it.
func TestNegativeZeroIsZero(t *testing.T) {
	db := Open()
	mustExec(t, db, `CREATE TABLE f (d FLOAT, k INT);
		INSERT INTO f VALUES (-0.0, 1), (0.0, 2)`)
	keys := func(sql string) string {
		t.Helper()
		res := mustExec(t, db, sql)
		out := ""
		for _, r := range res.Rows {
			out += fmt.Sprint(r[0], " ")
		}
		return out
	}
	const byZero = `SELECT k FROM f WHERE d = 0 ORDER BY k`
	if got := keys(byZero); got != "1 2 " {
		t.Errorf("scan: WHERE d = 0 returned %q, want both rows", got)
	}
	mustExec(t, db, `CREATE INDEX fd ON f (d)`)
	if got := keys(byZero); got != "1 2 " {
		t.Errorf("index probe: WHERE d = 0 returned %q, want both rows", got)
	}
	if got := keys(`SELECT COUNT(*) FROM f GROUP BY d`); got != "2 " {
		t.Errorf("GROUP BY d returned group sizes %q, want one group of 2", got)
	}
}
