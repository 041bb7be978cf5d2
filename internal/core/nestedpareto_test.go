package core

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/bmo"
	"repro/internal/datagen"
	"repro/internal/value"
)

// TestNestedParetoPlansFlat: Pareto accumulation is associative, so a
// parenthesized or named Pareto group compiles into the components of
// the accumulation around it. Each spelling then gets its flat form's
// plan — vectorized over a large table — and gives its rows in the same
// order, batch and progressive alike.
func TestNestedParetoPlansFlat(t *testing.T) {
	db := Open()
	rows := datagen.Skyline(bmo.AutoParallelThreshold, 3, datagen.Independent, 7)
	if err := datagen.Load(db.Engine(), "p", datagen.SkylineColumns(3), rows); err != nil {
		t.Fatal(err)
	}
	mustExec(t, db, `CREATE PREFERENCE p23 AS LOWEST(d2) AND LOWEST(d3)`)
	s := db.NewSession()
	ordered := func(rows []value.Row) string {
		ids := make([]string, len(rows))
		for i, r := range rows {
			ids[i] = r[0].String()
		}
		return strings.Join(ids, ",")
	}
	answer := func(q string) string {
		plan, err := s.ExplainNative(q)
		if err != nil {
			t.Fatalf("%s: %v", q, err)
		}
		res, err := s.Query(q)
		if err != nil {
			t.Fatalf("%s: %v", q, err)
		}
		var streamed []value.Row
		if _, err := s.QueryProgressive(q, func(r value.Row) bool { streamed = append(streamed, r); return true }); err != nil {
			t.Fatalf("%s: progressive: %v", q, err)
		}
		return fmt.Sprintf("plan:\n%s\nrows: %s\nprogressive: %s", plan, ordered(res.Rows), ordered(streamed))
	}
	for _, c := range []struct {
		flat   string
		nested []string
	}{
		{
			flat: `LOWEST(d1) AND LOWEST(d2) AND LOWEST(d3)`,
			nested: []string{
				`LOWEST(d1) AND (LOWEST(d2) AND LOWEST(d3))`,
				`(LOWEST(d1) AND LOWEST(d2)) AND LOWEST(d3)`,
				`LOWEST(d1) AND PREFERENCE p23`,
			},
		},
		{
			flat:   `LOWEST(d1) AND LOWEST(d2) AND LOWEST(d3) CASCADE HIGHEST(id)`,
			nested: []string{`LOWEST(d1) AND (PREFERENCE p23) CASCADE HIGHEST(id)`},
		},
	} {
		q := func(pref string) string { return `SELECT id FROM p PREFERRING ` + pref }
		want := answer(q(c.flat))
		if !strings.Contains(want, "BMO vec") {
			t.Fatalf("%s is not vectorized, the test no longer compares with the columnar plan:\n%s", q(c.flat), want)
		}
		for _, pref := range c.nested {
			if got := answer(q(pref)); got != want {
				t.Errorf("%s\n--- got ---\n%s\n--- want (flat form) ---\n%s", q(pref), got, want)
			}
		}
	}
}
