package core

import (
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"repro/internal/datagen"
	"repro/internal/storage"
	"repro/internal/value"
)

// TestExplicitRealizerLaw: a non-chain EXPLICIT is the intersection of
// its realizer's extensions, so it gives the same rows as the Pareto
// accumulation of one chain EXPLICIT per extension, and in the same
// order, since both keys hold the same elements. The graph 'A' > 'B',
// 'A' > 'C' has the extensions A, B, C and A, C, B. The table is large
// enough for the columnar plan, and its grades hold NULL and a value
// the graph does not mention. Each statement runs batch, progressive
// and under the block-nested-loop reference, which compares rows.
func TestExplicitRealizerLaw(t *testing.T) {
	db := Open()
	rows := datagen.Skyline(12000, 3, datagen.Independent, 52)
	rng := rand.New(rand.NewSource(52))
	for i := range rows {
		g := value.NewNull()
		if k := rng.Intn(5); k < 4 {
			g = value.NewText(string(rune('A' + k)))
		}
		rows[i] = append(rows[i], g)
	}
	cols := append(datagen.SkylineColumns(3), storage.Column{Name: "grade", Kind: value.Text})
	if err := datagen.Load(db.Engine(), "p", cols, rows); err != nil {
		t.Fatal(err)
	}
	s := db.NewSession()
	// answer runs q four ways and returns each run's ids, in the order
	// the run gave them.
	answer := func(q string) [][]string {
		ids := func(rows []value.Row) []string {
			out := make([]string, len(rows))
			for i, r := range rows {
				out[i] = r[0].String()
			}
			return out
		}
		var runs [][]string
		for _, algo := range []string{"auto", "bnl"} {
			if _, err := s.Exec("SET algorithm = " + algo); err != nil {
				t.Fatal(err)
			}
			res, err := s.Query(q)
			if err != nil {
				t.Fatalf("%s: %v", q, err)
			}
			var streamed []value.Row
			if _, err := s.QueryProgressive(q, func(r value.Row) bool { streamed = append(streamed, r); return true }); err != nil {
				t.Fatalf("%s: progressive: %v", q, err)
			}
			runs = append(runs, ids(res.Rows), ids(streamed))
		}
		return runs
	}
	const (
		nonChain = `EXPLICIT(grade, 'A' > 'B', 'A' > 'C')`
		chains   = `EXPLICIT(grade, 'A' > 'B', 'B' > 'C') AND EXPLICIT(grade, 'A' > 'C', 'C' > 'B')`
	)
	for _, where := range []string{"", "WHERE d1 < 0.3 "} {
		for _, rest := range []string{"LOWEST(d2) AND ", "LOWEST(d1) AND LOWEST(d2) AND "} {
			q := func(order string) string { return "SELECT id FROM p " + where + "PREFERRING " + rest + order }
			if where == "" {
				if _, err := s.Exec("SET algorithm = auto"); err != nil {
					t.Fatal(err)
				}
				plan, err := s.ExplainNative(q(nonChain))
				if err != nil {
					t.Fatal(err)
				}
				if !strings.Contains(plan, "BMO vec") {
					t.Fatalf("%s is not vectorized, the test no longer checks the columnar plan:\n%s", q(nonChain), plan)
				}
			}
			got, want := answer(q(nonChain)), answer(q(chains))
			if fmt.Sprint(got) != fmt.Sprint(want) {
				t.Errorf("%s: %v, but the realizer's chains give %v", q(nonChain), got, want)
			}
			// The four runs give one row set, and a nonempty one.
			for _, run := range got {
				slices.Sort(run)
			}
			if len(got[0]) == 0 || slices.ContainsFunc(got, func(run []string) bool { return !slices.Equal(run, got[0]) }) {
				t.Errorf("%s: the runs (auto batch, auto progressive, bnl batch, bnl progressive) give %v", q(nonChain), got)
			}
		}
	}
}
