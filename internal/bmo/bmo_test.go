package bmo

import (
	"math/rand"
	"sort"
	"testing"

	"repro/internal/preference"
	"repro/internal/value"
)

func colGetter(i int) preference.Getter {
	return func(r value.Row) (value.Value, error) { return r[i], nil }
}

func intRow(vals ...int) value.Row {
	out := make(value.Row, len(vals))
	for i, v := range vals {
		out[i] = value.NewInt(int64(v))
	}
	return out
}

var allAlgorithms = []Algorithm{Auto, NestedLoop, BlockNestedLoop, Parallel}

// pareto2D is LOWEST(x) AND LOWEST(y).
func pareto2D() preference.Preference {
	return &preference.Pareto{Parts: []preference.Preference{
		&preference.Lowest{Get: colGetter(0), Label: "x"},
		&preference.Lowest{Get: colGetter(1), Label: "y"},
	}}
}

func TestSkylineSmall(t *testing.T) {
	rows := []value.Row{
		intRow(1, 5), // skyline
		intRow(2, 2), // skyline
		intRow(3, 3), // dominated by (2,2)
		intRow(5, 1), // skyline
		intRow(5, 5), // dominated
	}
	for _, algo := range allAlgorithms {
		got, err := Evaluate(pareto2D(), rows, algo)
		if err != nil {
			t.Fatalf("%v: %v", algo, err)
		}
		if len(got) != 3 {
			t.Errorf("%v: skyline size %d, want 3: %v", algo, len(got), got)
		}
	}
}

func TestEmptyInput(t *testing.T) {
	got, err := Evaluate(pareto2D(), nil, Auto)
	if err != nil || got != nil {
		t.Errorf("empty: %v %v", got, err)
	}
}

func TestSingleBasePreferenceBestLevel(t *testing.T) {
	p := &preference.Lowest{Get: colGetter(0), Label: "price"}
	rows := []value.Row{intRow(5), intRow(2), intRow(9), intRow(2)}
	got, _, err := EvaluateConfig(p, rows, Auto, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || got[0][0].I != 2 || got[1][0].I != 2 {
		t.Errorf("best level: %v", got)
	}
}

func TestCascadeStagedSemantics(t *testing.T) {
	// LOWEST(x) CASCADE LOWEST(y): first best x, then best y among those.
	p := &preference.Cascade{Parts: []preference.Preference{
		&preference.Lowest{Get: colGetter(0), Label: "x"},
		&preference.Lowest{Get: colGetter(1), Label: "y"},
	}}
	rows := []value.Row{intRow(1, 9), intRow(1, 3), intRow(2, 0)}
	for _, algo := range allAlgorithms {
		got, err := Evaluate(p, rows, algo)
		if err != nil {
			t.Fatalf("%v: %v", algo, err)
		}
		if len(got) != 1 || got[0][1].I != 3 {
			t.Errorf("%v: cascade result %v, want [(1,3)]", algo, got)
		}
	}
}

// TestCascadeStopsEarlyOnSingleton: a CASCADE stops once a stage leaves
// one row, a nested one too — its stages are flattened, so the stop
// after its first stage skips every later one.
func TestCascadeStopsEarlyOnSingleton(t *testing.T) {
	x := &preference.Lowest{Get: colGetter(0), Label: "x"}
	y := &preference.Lowest{Get: colGetter(1), Label: "y"}
	rows := []value.Row{intRow(1, 9), intRow(2, 3)}
	for _, p := range []preference.Preference{
		&preference.Cascade{Parts: []preference.Preference{x, y}},
		&preference.Cascade{Parts: []preference.Preference{&preference.Cascade{Parts: []preference.Preference{x, y}}, y}},
	} {
		got, st, err := EvaluateConfig(p, rows, Auto, Config{})
		if err != nil || len(got) != 1 {
			t.Fatalf("%s: %v %v", p.Describe(), got, err)
		}
		if st.Stages != 1 {
			t.Errorf("%s: stages = %d, want early stop after 1", p.Describe(), st.Stages)
		}
	}
}

// The §3.2 Cars example: Make='Audi' AND Diesel='yes' Pareto over 3 cars
// leaves Audi (row 1) and BMW-diesel (row 2); the VW is dominated by the BMW.
func TestPaperCarsPareto(t *testing.T) {
	rows := []value.Row{
		{value.NewInt(1), value.NewText("Audi"), value.NewText("no")},
		{value.NewInt(2), value.NewText("BMW"), value.NewText("yes")},
		{value.NewInt(3), value.NewText("Volkswagen"), value.NewText("no")},
	}
	p := &preference.Pareto{Parts: []preference.Preference{
		&preference.Pos{Get: colGetter(1), Set: preference.NewSet([]value.Value{value.NewText("Audi")}), Label: "Make"},
		&preference.Pos{Get: colGetter(2), Set: preference.NewSet([]value.Value{value.NewText("yes")}), Label: "Diesel"},
	}}
	for _, algo := range allAlgorithms {
		got, err := Evaluate(p, rows, algo)
		if err != nil {
			t.Fatal(err)
		}
		ids := idSet(got)
		if len(ids) != 2 || !ids[1] || !ids[2] {
			t.Errorf("%v: got ids %v, want {1,2}", algo, ids)
		}
	}
}

func idSet(rows []value.Row) map[int64]bool {
	out := map[int64]bool{}
	for _, r := range rows {
		out[r[0].I] = true
	}
	return out
}

func TestGrouping(t *testing.T) {
	// rows: (group, price); LOWEST(price) GROUPING group
	rows := []value.Row{
		{value.NewText("a"), value.NewInt(5)},
		{value.NewText("a"), value.NewInt(3)},
		{value.NewText("b"), value.NewInt(9)},
		{value.NewText("b"), value.NewInt(9)},
		{value.NewText("c"), value.NewInt(1)},
	}
	p := &preference.Lowest{Get: colGetter(1), Label: "price"}
	got, err := evaluateGrouped(p, rows, func(r value.Row) string { return r[0].Key() })
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 4 {
		t.Fatalf("grouped BMO size %d, want 4 (a:3, b:9, b:9, c:1): %v", len(got), got)
	}
	if got[0][0].S != "a" || got[0][1].I != 3 {
		t.Errorf("first group result: %v", got[0])
	}
}

func TestStatsComparisons(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	rows := make([]value.Row, 200)
	for i := range rows {
		rows[i] = intRow(rng.Intn(100), rng.Intn(100))
	}
	_, stNL, err := EvaluateConfig(pareto2D(), rows, NestedLoop, Config{})
	if err != nil {
		t.Fatal(err)
	}
	_, stBNL, err := EvaluateConfig(pareto2D(), rows, BlockNestedLoop, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if stBNL.Comparisons >= stNL.Comparisons {
		t.Errorf("BNL (%d) should beat nested loop (%d) on random data",
			stBNL.Comparisons, stNL.Comparisons)
	}
	if stBNL.MaxWindow == 0 {
		t.Error("window stats not recorded")
	}
}

// --- property tests --------------------------------------------------------

// referenceBMO is the obviously-correct O(n²) definition.
func referenceBMO(t *testing.T, p preference.Preference, rows []value.Row) []value.Row {
	t.Helper()
	var out []value.Row
	for i, t1 := range rows {
		dominated := false
		for j, t2 := range rows {
			if i == j {
				continue
			}
			o, err := p.Compare(t2, t1)
			if err != nil {
				t.Fatal(err)
			}
			if o == preference.Better {
				dominated = true
				break
			}
		}
		if !dominated {
			out = append(out, t1)
		}
	}
	return out
}

func canonical(rows []value.Row) []string {
	keys := make([]string, len(rows))
	for i, r := range rows {
		keys[i] = r.Key()
	}
	sort.Strings(keys)
	return keys
}

func sameSet(a, b []value.Row) bool {
	ka, kb := canonical(a), canonical(b)
	if len(ka) != len(kb) {
		return false
	}
	for i := range ka {
		if ka[i] != kb[i] {
			return false
		}
	}
	return true
}

// TestAlgorithmsAgreeOnRandomData cross-checks all algorithms against the
// reference definition on random Pareto preferences of dimension 2..4.
func TestAlgorithmsAgreeOnRandomData(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for iter := 0; iter < 60; iter++ {
		d := 2 + rng.Intn(3)
		n := 1 + rng.Intn(120)
		rows := make([]value.Row, n)
		for i := range rows {
			vals := make([]int, d)
			for j := range vals {
				vals[j] = rng.Intn(12)
			}
			rows[i] = intRow(vals...)
		}
		parts := make([]preference.Preference, d)
		for j := range parts {
			if j%2 == 0 {
				parts[j] = &preference.Lowest{Get: colGetter(j), Label: "c"}
			} else {
				parts[j] = &preference.Highest{Get: colGetter(j), Label: "c"}
			}
		}
		p := &preference.Pareto{Parts: parts}
		want := referenceBMO(t, p, rows)
		for _, algo := range allAlgorithms {
			got, err := Evaluate(p, rows, algo)
			if err != nil {
				t.Fatalf("iter %d algo %v: %v", iter, algo, err)
			}
			if !sameSet(got, want) {
				t.Fatalf("iter %d algo %v: got %d rows, want %d", iter, algo, len(got), len(want))
			}
		}
	}
}

// TestBMOSoundAndComplete: no result is dominated; every non-result is
// dominated by some result (for Pareto preferences, where domination is
// transitive and the input is finite, a maximal dominator always exists).
func TestBMOSoundAndComplete(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for iter := 0; iter < 40; iter++ {
		n := 1 + rng.Intn(80)
		rows := make([]value.Row, n)
		for i := range rows {
			rows[i] = intRow(rng.Intn(10), rng.Intn(10))
		}
		p := pareto2D()
		result, err := Evaluate(p, rows, Auto)
		if err != nil {
			t.Fatal(err)
		}
		inResult := map[string]bool{}
		for _, r := range result {
			inResult[r.Key()] = true
		}
		// soundness: no result row dominated by any input row
		for _, r := range result {
			for _, s := range rows {
				o, _ := p.Compare(s, r)
				if o == preference.Better {
					t.Fatalf("iter %d: result %v dominated by %v", iter, r, s)
				}
			}
		}
		// completeness: every excluded row is dominated by some result row
		for _, s := range rows {
			if inResult[s.Key()] {
				continue
			}
			found := false
			for _, r := range result {
				o, _ := p.Compare(r, s)
				if o == preference.Better {
					found = true
					break
				}
			}
			if !found {
				t.Fatalf("iter %d: excluded row %v not dominated by any result", iter, s)
			}
		}
	}
}

// TestExplicitParetoMix exercises BNL with genuine incomparability from
// EXPLICIT preferences mixed into Pareto accumulation.
func TestExplicitParetoMix(t *testing.T) {
	ex, err := preference.NewExplicit(colGetter(0), "color", [][2]value.Value{
		{value.NewText("red"), value.NewText("blue")},
		{value.NewText("green"), value.NewText("blue")},
	})
	if err != nil {
		t.Fatal(err)
	}
	p := &preference.Pareto{Parts: []preference.Preference{
		ex,
		&preference.Lowest{Get: colGetter(1), Label: "price"},
	}}
	rows := []value.Row{
		{value.NewText("red"), value.NewInt(10)},
		{value.NewText("green"), value.NewInt(10)},
		{value.NewText("blue"), value.NewInt(10)},  // dominated by both above
		{value.NewText("blue"), value.NewInt(1)},   // cheap blue survives
		{value.NewText("black"), value.NewInt(50)}, // unmentioned, expensive: dominated? no—incomparable color vs red... black is unmentioned so red better-than black; with higher price, dominated by red
	}
	want := referenceBMO(t, p, rows)
	got, err := Evaluate(p, rows, Auto)
	if err != nil {
		t.Fatal(err)
	}
	if !sameSet(got, want) {
		t.Fatalf("got %v want %v", got, want)
	}
	if len(got) != 3 {
		t.Errorf("expected 3 maximal rows, got %d: %v", len(got), got)
	}
}
