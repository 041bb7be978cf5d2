package bmo

import (
	"errors"
	"math"
	"math/rand"
	"testing"

	"repro/internal/preference"
	"repro/internal/value"
)

// randRows2D builds n random integer rows with small domains (lots of
// ties and duplicates, the hard cases for merge equivalence).
func randRows2D(n int, seed int64) []value.Row {
	rng := rand.New(rand.NewSource(seed))
	rows := make([]value.Row, n)
	for i := range rows {
		rows[i] = intRow(rng.Intn(25), rng.Intn(25))
	}
	return rows
}

func TestParallelMatchesBNL(t *testing.T) {
	for _, workers := range []int{0, 1, 2, 3, 8} {
		for seed := int64(0); seed < 6; seed++ {
			rows := randRows2D(700, seed)
			p := pareto2D()
			want, err := Evaluate(p, rows, BlockNestedLoop)
			if err != nil {
				t.Fatal(err)
			}
			got, _, err := EvaluateConfig(p, rows, Parallel, Config{Workers: workers})
			if err != nil {
				t.Fatalf("workers=%d seed=%d: %v", workers, seed, err)
			}
			if !sameSet(got, want) {
				t.Fatalf("workers=%d seed=%d: parallel %d rows vs BNL %d rows",
					workers, seed, len(got), len(want))
			}
		}
	}
}

// TestParallelExplicit exercises the compare-mode kernel (no cached
// scores): an EXPLICIT partial order Pareto-combined with a weak order.
func TestParallelExplicit(t *testing.T) {
	ex, err := preference.NewExplicit(colGetter(0), "c", [][2]value.Value{
		{value.NewInt(1), value.NewInt(2)},
		{value.NewInt(2), value.NewInt(3)},
		{value.NewInt(1), value.NewInt(4)},
	})
	if err != nil {
		t.Fatal(err)
	}
	p := &preference.Pareto{Parts: []preference.Preference{
		ex,
		&preference.Lowest{Get: colGetter(1), Label: "y"},
	}}
	rng := rand.New(rand.NewSource(7))
	rows := make([]value.Row, 900)
	for i := range rows {
		rows[i] = intRow(rng.Intn(6), rng.Intn(10))
	}
	want, err := Evaluate(p, rows, BlockNestedLoop)
	if err != nil {
		t.Fatal(err)
	}
	got, _, err := EvaluateConfig(p, rows, Parallel, Config{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	if !sameSet(got, want) {
		t.Fatalf("parallel %d vs BNL %d", len(got), len(want))
	}
}

// TestParallelNullScores pins the +Inf tie handling: rows whose NULL
// attributes score +Inf must still be dominance-filtered exactly like
// the nested-loop reference (this is also the regression test for the
// SFS sum-tie bug the lexicographic tiebreak fixes).
func TestParallelNullScores(t *testing.T) {
	null := value.NewNull()
	// (1, NULL) precedes its dominator (0, NULL): both sum to +Inf, so a
	// sum-only stable sort would accept the dominated row first — the
	// lexicographic tiebreak is what keeps the SFS order monotone here.
	rows := []value.Row{
		{value.NewInt(1), null}, // dominated by (0, NULL)
		{null, null},            // dominated by every row with a non-NULL column
		{value.NewInt(0), null},
		{value.NewInt(2), value.NewInt(2)},
		{null, value.NewInt(1)},
	}
	p := pareto2D()
	want, err := Evaluate(p, rows, NestedLoop)
	if err != nil {
		t.Fatal(err)
	}
	for _, algo := range []Algorithm{BlockNestedLoop, Auto, Parallel} {
		got, _, err := EvaluateConfig(p, rows, algo, Config{Workers: 3})
		if err != nil {
			t.Fatalf("%v: %v", algo, err)
		}
		if !sameSet(got, want) {
			t.Fatalf("%v: got %v want %v", algo, got, want)
		}
	}
}

func TestParallelCascade(t *testing.T) {
	p := &preference.Cascade{Parts: []preference.Preference{
		pareto2D(),
		&preference.Highest{Get: colGetter(0), Label: "x"},
	}}
	rows := randRows2D(600, 11)
	want, err := Evaluate(p, rows, BlockNestedLoop)
	if err != nil {
		t.Fatal(err)
	}
	got, st, err := EvaluateConfig(p, rows, Parallel, Config{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	if !sameSet(got, want) {
		t.Fatalf("cascade parallel %d vs BNL %d", len(got), len(want))
	}
	if st.Stages < 1 {
		t.Fatalf("stages = %d", st.Stages)
	}
}

func TestParallelStop(t *testing.T) {
	boom := errors.New("stop")
	rows := randRows2D(20000, 3)
	_, _, err := EvaluateConfig(pareto2D(), rows, Parallel, Config{
		Workers: 4,
		Stop:    func() error { return boom },
	})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want stop error", err)
	}
}

// TestAutoSelectsParallel pins the Auto-path cardinality switch: above
// the threshold with >1 worker the result must still match BNL exactly.
func TestAutoSelectsParallel(t *testing.T) {
	rows := randRows2D(AutoParallelThreshold+500, 5)
	p := pareto2D()
	want, err := Evaluate(p, rows, BlockNestedLoop)
	if err != nil {
		t.Fatal(err)
	}
	got, _, err := EvaluateConfig(p, rows, Auto, Config{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	if !sameSet(got, want) {
		t.Fatalf("auto-parallel %d vs BNL %d", len(got), len(want))
	}
}

func TestParallelStreamMatchesBatch(t *testing.T) {
	rows := randRows2D(800, 17)
	p := pareto2D()
	want, err := Evaluate(p, rows, BlockNestedLoop)
	if err != nil {
		t.Fatal(err)
	}
	s, err := NewParallelStream(p, rows, Config{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	var got []value.Row
	for {
		row, ok, err := s.Next()
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			break
		}
		got = append(got, row)
	}
	if !sameSet(got, want) {
		t.Fatalf("stream %d vs batch %d", len(got), len(want))
	}
}

// TestParallelStreamExplicit: the parallel stream serves preferences the
// score-based Stream rejects.
func TestParallelStreamExplicit(t *testing.T) {
	ex, err := preference.NewExplicit(colGetter(0), "c", [][2]value.Value{
		{value.NewInt(0), value.NewInt(1)},
	})
	if err != nil {
		t.Fatal(err)
	}
	rows := []value.Row{intRow(1, 0), intRow(0, 0), intRow(2, 0), intRow(0, 1)}
	if _, err := NewStream(ex, rows); err == nil {
		t.Fatal("score-based stream should reject EXPLICIT")
	}
	s, err := NewParallelStream(ex, rows, Config{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	var got []value.Row
	for {
		row, ok, serr := s.Next()
		if serr != nil {
			t.Fatal(serr)
		}
		if !ok {
			break
		}
		got = append(got, row)
	}
	want, err := Evaluate(ex, rows, NestedLoop)
	if err != nil {
		t.Fatal(err)
	}
	if !sameSet(got, want) {
		t.Fatalf("stream %v vs batch %v", got, want)
	}
}

// TestMixedInfScores pins the sum-tie ordering when one candidate mixes
// -Inf and +Inf component scores (HIGHEST over a +Inf value Pareto'd
// with a NULL-scored component): a naive sum recomputation inside the
// tiebreak yields NaN and silently disables it, letting a dominated row
// survive.
func TestMixedInfScores(t *testing.T) {
	inf := value.NewFloat(math.Inf(1))
	null := value.NewNull()
	rows := []value.Row{
		{value.NewFloat(-5), null}, // dominated by the +Inf row below
		{inf, null},
	}
	p := &preference.Pareto{Parts: []preference.Preference{
		&preference.Highest{Get: colGetter(0), Label: "a"},
		&preference.Lowest{Get: colGetter(1), Label: "b"},
	}}
	want, err := Evaluate(p, rows, NestedLoop)
	if err != nil {
		t.Fatal(err)
	}
	if len(want) != 1 {
		t.Fatalf("reference skyline: %v", want)
	}
	for _, algo := range []Algorithm{Auto, Parallel} {
		got, _, err := EvaluateConfig(p, rows, algo, Config{Workers: 2})
		if err != nil {
			t.Fatalf("%v: %v", algo, err)
		}
		if !sameSet(got, want) {
			t.Fatalf("%v: got %v want %v", algo, got, want)
		}
	}
}
