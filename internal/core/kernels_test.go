package core

import (
	"context"
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"time"

	"repro/internal/bmo"
	"repro/internal/datagen"
	"repro/internal/metrics"
	"repro/internal/storage"
	"repro/internal/value"
)

// TestKernelAssignment pins, per component shape, which components of
// a vectorized BMO a column kernel fills and so which column vectors and
// TEXT dictionary codes a statement builds. A kernel asks for its
// column's vector; a component scored row by row never does. So after a
// statement the columns with a vector cached at its heap version are the
// columns its kernels read: the test bumps the heap version, runs the
// statement, and then asks for every column's vector — the ones that
// need no build were built by the statement. The choice comes from the
// preference and the column kinds alone, never from the machine, and
// the answer is the row path's, in the same order.
func TestKernelAssignment(t *testing.T) {
	builds := metrics.Default.Counter("prefsql_columnar_rebuilds_total", "")
	db := Open()
	// k(id INT, i INT, f FLOAT, b BOOL, d DATE, s TEXT, n TEXT): every
	// column but id and n NULL in about one row in eight, n NULL in every
	// row — a TEXT value fails a distance preference, so n is the TEXT
	// column the distance shapes can rank.
	kcols := []storage.Column{{Name: "id", Kind: value.Int}, {Name: "i", Kind: value.Int},
		{Name: "f", Kind: value.Float}, {Name: "b", Kind: value.Bool},
		{Name: "d", Kind: value.Date}, {Name: "s", Kind: value.Text}, {Name: "n", Kind: value.Text}}
	r := rand.New(rand.NewSource(5))
	null := func(v value.Value) value.Value {
		if r.Intn(8) == 0 {
			return value.NewNull()
		}
		return v
	}
	krows := make([]value.Row, bmo.AutoParallelThreshold)
	for n := range krows {
		krows[n] = value.Row{value.NewInt(int64(n)),
			null(value.NewInt(int64(r.Intn(200) - 100))),
			null(value.NewFloat(float64(r.Intn(400)-200) / 4)),
			null(value.NewBool(r.Intn(2) == 0)),
			null(value.NewDate(2020, time.Month(1+r.Intn(12)), 1+r.Intn(28))),
			null(value.NewText([]string{"a", "b", "m", "z", "1"}[r.Intn(5)])),
			value.NewNull(),
		}
	}
	if err := datagen.Load(db.Engine(), "k", kcols, krows); err != nil {
		t.Fatal(err)
	}
	mustExec(t, db, `CREATE TABLE one (v INT); INSERT INTO one VALUES (3)`)
	// jobs carries portal_search's preferences, without its index probe:
	// the bare scan's estimate reaches the threshold on its own.
	if err := datagen.Load(db.Engine(), "jobs", datagen.JobColumns(), datagen.Jobs(bmo.AutoParallelThreshold, 1)); err != nil {
		t.Fatal(err)
	}
	const (
		tiebreak      = `LOWEST(COALESCE(id, NULL))`
		portalPareto  = `skill1 IN ('java', 'sql') AND salary <= 41000 AND HIGHEST(experience) AND parttime = TRUE`
		portalCascade = `skill1 IN ('java', 'sql') AND salary <= 41000 CASCADE HIGHEST(experience) AND parttime = TRUE`
	)

	// Every statement over k also ranks tiebreak, a unique key scored row
	// by row, so that ties in the component under test cannot widen the
	// skyline.
	cases := []struct {
		table, pref string
		args        []any
		kernels     string // the columns kernels read, in table order
	}{
		// Distance preferences: numeric kinds bare, never TEXT, never a
		// computed operand.
		{"k", `LOWEST(i)`, nil, "i"},
		{"k", `LOWEST(f)`, nil, "f"},
		{"k", `LOWEST(b)`, nil, "b"},
		{"k", `LOWEST(d)`, nil, "d"},
		{"k", `LOWEST(n)`, nil, ""},
		{"k", `LOWEST(COALESCE(i, NULL))`, nil, ""},
		{"k", `LOWEST(COALESCE(f, NULL))`, nil, ""},
		{"k", `LOWEST(COALESCE(b, NULL))`, nil, ""},
		{"k", `LOWEST(COALESCE(d, NULL))`, nil, ""},
		{"k", `LOWEST(COALESCE(n, NULL))`, nil, ""},
		{"k", `HIGHEST(i)`, nil, "i"},
		{"k", `HIGHEST(f)`, nil, "f"},
		{"k", `HIGHEST(b)`, nil, "b"},
		{"k", `HIGHEST(d)`, nil, "d"},
		{"k", `HIGHEST(n)`, nil, ""},
		{"k", `HIGHEST(-i)`, nil, ""},
		{"k", `HIGHEST(COALESCE(f, NULL))`, nil, ""},
		{"k", `HIGHEST(COALESCE(b, NULL))`, nil, ""},
		{"k", `HIGHEST(COALESCE(d, NULL))`, nil, ""},
		{"k", `HIGHEST(COALESCE(n, NULL))`, nil, ""},
		{"k", `i AROUND 17`, nil, "i"},
		{"k", `f AROUND -0.5`, nil, "f"},
		{"k", `b AROUND 1`, nil, "b"},
		{"k", `d AROUND '2020-03-01'`, nil, "d"},
		{"k", `n AROUND 1`, nil, ""},
		{"k", `i * 2 AROUND 40`, nil, ""},
		{"k", `COALESCE(f, NULL) AROUND -0.5`, nil, ""},
		{"k", `COALESCE(b, NULL) AROUND 1`, nil, ""},
		{"k", `COALESCE(d, NULL) AROUND '2020-03-01'`, nil, ""},
		{"k", `COALESCE(n, NULL) AROUND 1`, nil, ""},
		{"k", `i BETWEEN 3, 7`, nil, "i"},
		{"k", `f BETWEEN 0, 1`, nil, "f"},
		{"k", `b BETWEEN 1, 1`, nil, "b"},
		{"k", `d BETWEEN '2020-02-01', '2020-04-01'`, nil, "d"},
		{"k", `n BETWEEN 1, 2`, nil, ""},
		{"k", `ABS(i - 50) BETWEEN 0, 9`, nil, ""},
		{"k", `COALESCE(f, NULL) BETWEEN 0, 1`, nil, ""},
		{"k", `COALESCE(b, NULL) BETWEEN 1, 1`, nil, ""},
		{"k", `COALESCE(d, NULL) BETWEEN '2020-02-01', '2020-04-01'`, nil, ""},
		{"k", `COALESCE(n, NULL) BETWEEN 1, 2`, nil, ""},

		// POS and NEG: any kind bare, TEXT through dictionary codes.
		{"k", `i IN (1, 2)`, nil, "i"},
		{"k", `f IN (0, 0.5)`, nil, "f"},
		{"k", `s IN ('a', 'm')`, nil, "s"},
		{"k", `s = 'b'`, nil, "s"},
		{"k", `i NOT IN (3)`, nil, "i"},
		{"k", `f <> -1.5`, nil, "f"},
		{"k", `s NOT IN ('z')`, nil, "s"},
		{"k", `COALESCE(i, NULL) IN (1, 2)`, nil, ""},
		{"k", `COALESCE(s, NULL) NOT IN ('z')`, nil, ""},

		// EXPLICIT: any kind bare, TEXT through dictionary codes, its
		// graph a chain (an exact key) or not.
		{"k", `EXPLICIT(s, 'a' > 'b', 'b' > 'm')`, nil, "s"},
		{"k", `EXPLICIT(s, 'a' > 'm', 'b' > 'm', 'm' > 'z')`, nil, "s"},
		{"k", `EXPLICIT(i, 1 > 2, 2 > 3)`, nil, "i"},
		{"k", `EXPLICIT(i, 1 > 3, 2 > 3, 3 > 4)`, nil, "i"},
		{"k", `EXPLICIT(s, NULL > 'a')`, nil, "s"},
		{"k", `EXPLICIT(i, NULL > 1)`, nil, "i"},
		{"k", `EXPLICIT(COALESCE(s, NULL), 'a' > 'b')`, nil, ""},

		// A condition col op bound: a numeric column against a numeric
		// literal or parameter, the column on either side.
		{"k", `i <= 10`, nil, "i"},
		{"k", `i <= ?`, []any{10}, "i"},
		{"k", `10 >= i`, nil, "i"},
		{"k", `REGULAR(5 > f)`, nil, "f"},
		{"k", `REGULAR(b = TRUE)`, nil, "b"},
		{"k", `i <= NULL`, nil, ""},
		{"k", `f >= '1'`, nil, ""},
		{"k", `i <= ?`, []any{"10"}, ""},
		{"k", `s < 'm'`, nil, ""},
		{"k", `REGULAR(i + 0 < 5)`, nil, ""},

		// CONTAINS has no kernel; neither has an ELSE chain, a component
		// over two columns, or a subquery operand.
		{"k", `s CONTAINS ('a')`, nil, ""},
		{"k", `s IN ('a') ELSE s IN ('b')`, nil, ""},
		{"k", `i IN (1) ELSE i IN (2)`, nil, ""},
		{"k", `LOWEST(i + f)`, nil, ""},
		{"k", `REGULAR(i < f)`, nil, ""},
		{"k", `LOWEST((SELECT MIN(v) FROM one) + i)`, nil, ""},

		// Mixed accumulations: each component on its own.
		{"k", `LOWEST(i) AND HIGHEST(COALESCE(f, NULL)) AND s IN ('a')`, nil, "i,s"},
		{"k", `LOWEST(i + f) AND HIGHEST(d) AND b <> FALSE`, nil, "b,d"},

		// portal_search's two shapes: every component is kernel-filled.
		{"jobs", portalPareto, nil, "skill1,experience,salary,parttime"},
		{"jobs", portalCascade, nil, "skill1,experience,salary,parttime"},
	}
	for _, c := range cases {
		t.Run(c.table+": "+c.pref, func(t *testing.T) {
			q := `SELECT id FROM ` + c.table + ` PREFERRING ` + c.pref
			if c.table == "k" {
				q += ` AND ` + tiebreak
			}
			tbl, _ := db.Engine().Catalog().Table(c.table)
			version := tbl.Heap().Version
			mustExec(t, db, `UPDATE `+c.table+` SET id = id WHERE id = 1`)
			if tbl.Heap().Version == version {
				t.Fatal("the UPDATE did not move the heap version")
			}
			s := db.NewSession()
			plan, err := s.ExplainNative(q)
			if err != nil {
				t.Fatal(err)
			}
			if !strings.Contains(plan, "BMO vec") {
				t.Fatalf("not vectorized:\n%s", plan)
			}
			before := builds.Value()
			res, err := s.QueryContext(context.Background(), q, c.args...)
			if err != nil {
				t.Fatal(err)
			}
			built := builds.Value() - before
			rowPath := db.NewSession()
			rowPath.SetAlgorithm(bmo.Parallel)
			ref, err := rowPath.QueryContext(context.Background(), q, c.args...)
			if err != nil {
				t.Fatal(err)
			}
			if g, w := fmt.Sprint(res.Rows), fmt.Sprint(ref.Rows); g != w {
				t.Errorf("vectorized %.200s, row path %.200s", g, w)
			}
			h := tbl.Heap()
			var cached []string
			for col, sc := range tbl.Schema.Cols {
				n := builds.Value()
				h.Vector(col)
				if builds.Value() == n {
					cached = append(cached, sc.Name)
				}
			}
			if got := strings.Join(cached, ","); got != c.kernels || built != int64(len(cached)) {
				t.Errorf("kernels read %q (%d vectors built), want %q", got, built, c.kernels)
			}
		})
	}
}
