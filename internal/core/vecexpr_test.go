package core

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/bmo"
)

// TestVectorizedComputedScores: a score term over a computed expression
// of one column is still vectorized (the planner only asks that a term
// read one column), but its scores must come from the expression, not
// from the raw column it reads. 30000 rows keep the filtered estimate
// (a third) at the vectorization threshold.
func TestVectorizedComputedScores(t *testing.T) {
	db := Open()
	var ins strings.Builder
	ins.WriteString(`CREATE TABLE t (id INT, a INT, b INT); INSERT INTO t VALUES `)
	for i := 0; i < 30000; i++ {
		if i > 0 {
			ins.WriteString(", ")
		}
		fmt.Fprintf(&ins, "(%d, %d, %d)", i, i%100, (i*7)%113)
	}
	mustExec(t, db, ins.String())
	auto, bnl := db.NewSession(), db.NewSession()
	bnl.SetAlgorithm(bmo.BlockNestedLoop)
	for _, q := range []string{
		`SELECT DISTINCT a FROM t PREFERRING LOWEST(-a)`,
		`SELECT DISTINCT a FROM t PREFERRING LOWEST(ABS(a - 50))`,
		`SELECT DISTINCT a FROM t PREFERRING HIGHEST(a * -1)`,
		`SELECT DISTINCT a FROM t PREFERRING a * 2 AROUND 40`,
		`SELECT id FROM t PREFERRING LOWEST(-a) AND LOWEST(b)`,
		`SELECT id FROM t WHERE b < 50 PREFERRING LOWEST(ABS(a - 50)) AND HIGHEST(b)`,
	} {
		plan, err := auto.ExplainNative(q)
		if err != nil {
			t.Fatal(err)
		}
		if !strings.Contains(plan, "BMO vec") {
			t.Fatalf("%s: not vectorized, the test no longer covers the columnar fill:\n%s", q, plan)
		}
		want, err := bnl.Query(q)
		if err != nil {
			t.Fatal(err)
		}
		got, err := auto.Query(q)
		if err != nil {
			t.Fatal(err)
		}
		if g, w := idSet(got.Rows), idSet(want.Rows); g != w {
			t.Errorf("%s: vectorized %s, bnl %s", q, g, w)
		}
	}
}
