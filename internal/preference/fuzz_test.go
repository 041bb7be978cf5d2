package preference_test

import (
	"fmt"
	"slices"
	"strings"
	"testing"

	"repro/internal/parser"
	"repro/internal/preference"
	"repro/internal/value"
)

// FuzzPreferenceCompile feeds arbitrary PREFERRING clauses through
// parse → compile → Compare and asserts the strict-partial-order
// contract every BMO algorithm relies on:
//
//   - irreflexive: Compare(a, a) is Equal — a tuple never beats itself;
//   - antisymmetric/consistent: Compare(a, b) is always the exact flip
//     of Compare(b, a) (Better↔Worse, Equal↔Equal, Incomparable↔
//     Incomparable);
//   - the presort key (preference.Key) is topological: Better implies
//     a lexicographically smaller key, componentwise ≤ where the key is
//     monotone, Equal an identical key, and where the key is exact, key
//     dominance is Better.
//
// Clauses the compiler rejects (unknown columns, non-literal
// parameters) are fine; panics and contract violations are not.
func FuzzPreferenceCompile(f *testing.F) {
	seeds := []string{
		"a AROUND 14",
		"LOWEST(a) AND HIGHEST(b)",
		"c IN ('x', 'y') ELSE c <> 'z'",
		"a BETWEEN [1, 9] CASCADE LOWEST(b)",
		"EXPLICIT(c, 'x' > 'y', 'y' > 'z') AND b AROUND 3",
		"c CONTAINS ('road', 'ster')",
		"a < 5",
		"(a AROUND 1 AND b AROUND 2) CASCADE c = 'x'",
		"HIGHEST(d) ELSE LOWEST(a)",
		"a AROUND 1e99 AND NOT b IN (1,2)",
		"EXPLICIT(c, 'x' > 'z', 'y' > 'z')",
		"EXPLICIT(c, 'x' > 'y', 'y' > 'z')",
		"(LOWEST(a) CASCADE HIGHEST(b)) AND EXPLICIT(c, 'x' > 'y')",
		"EXPLICIT(c, 'x' > 'y', 'y' > 'z', 'road' > 'z')",
		"EXPLICIT(c, NULL > 'x') AND EXPLICIT(d, NULL > 7)",
	}
	for _, s := range seeds {
		f.Add(s)
	}

	cols := []string{"a", "b", "c", "d"}
	null := value.NewNull()
	rows := []value.Row{
		{value.NewInt(1), value.NewFloat(2.5), value.NewText("x"), value.NewInt(-3)},
		{value.NewInt(1), value.NewFloat(2.5), value.NewText("x"), value.NewInt(-3)}, // duplicate of row 0
		{value.NewInt(9), value.NewFloat(0), value.NewText("y"), value.NewInt(7)},
		{value.NewInt(-4), null, value.NewText("z"), null},
		{null, value.NewFloat(1e18), value.NewText(""), value.NewInt(0)},
		{value.NewInt(14), value.NewFloat(-2.5), value.NewText("road"), value.NewInt(14)},
	}

	f.Fuzz(func(t *testing.T, clause string) {
		if strings.ContainsAny(clause, ";") {
			return // would split the carrier statement
		}
		sel, err := parser.ParseSelect("SELECT * FROM t PREFERRING " + clause)
		if err != nil || sel.Preferring == nil {
			return
		}
		p, err := preference.Compile(sel.Preferring, &preference.ColBinder{Cols: cols}, nil)
		if err != nil {
			return // ColBinder only supports column refs and literals
		}
		key := preference.KeyOf(p)
		keys := make([][]float64, len(rows))
		for i, r := range rows {
			for _, c := range key.Comps {
				v, err := c.Score(r)
				if err != nil {
					return // the row fails the preference, as Compare does
				}
				keys[i] = append(keys[i], v)
			}
		}
		for i, a := range rows {
			oa, err := p.Compare(a, a)
			if err != nil {
				return // e.g. AROUND over a text column: error, not a verdict
			}
			if oa != preference.Equal {
				t.Fatalf("Compare(row%d, row%d) = %v, want equal (irreflexivity)\nclause: %s",
					i, i, oa, clause)
			}
			for j, b := range rows {
				ab, err := p.Compare(a, b)
				if err != nil {
					return
				}
				ba, err := p.Compare(b, a)
				if err != nil {
					return
				}
				if ba != ab.Flip() {
					t.Fatalf("Compare(row%d, row%d) = %v but Compare(row%d, row%d) = %v (want %v)\nclause: %s",
						i, j, ab, j, i, ba, ab.Flip(), clause)
				}
				if msg := checkKey(key, keys[i], keys[j], ab); msg != "" {
					t.Fatalf("row%d %v, row%d %v: Compare = %v but %s\nclause: %s", i, keys[i], j, keys[j], ab, msg, clause)
				}
			}
		}
	})
}

// checkKey checks the key vectors ka and kb of two rows whose Compare
// is o, and describes the first property they break.
func checkKey(key preference.Key, ka, kb []float64, o preference.Ordering) string {
	lex := slices.Compare(ka, kb)
	switch {
	case o == preference.Equal && lex != 0:
		return "the keys differ"
	case o == preference.Better && lex >= 0:
		return "the key is not smaller"
	}
	for j := range ka {
		if o == preference.Better && key.Monotone && ka[j] > kb[j] {
			return fmt.Sprintf("element %d of the monotone key is larger", j)
		}
	}
	dominates := lex != 0
	for j := range ka {
		dominates = dominates && ka[j] <= kb[j]
	}
	if key.Exact && dominates != (o == preference.Better) {
		return fmt.Sprintf("the exact key dominates: %v", dominates)
	}
	return ""
}
