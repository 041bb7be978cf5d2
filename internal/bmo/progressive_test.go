package bmo

import (
	"errors"
	"math/rand"
	"testing"

	"repro/internal/preference"
	"repro/internal/value"
)

// progressive drains the stream of p over rows into yield until yield
// returns false.
func progressive(p preference.Preference, rows []value.Row, yield func(value.Row) bool) error {
	s, err := streamRows(p, rows, Auto, Config{Workers: 1})
	if err != nil {
		return err
	}
	for {
		row, ok, err := s.Next()
		if err != nil || !ok || !yield(row) {
			return err
		}
	}
}

func TestProgressiveMatchesBatch(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	rows := make([]value.Row, 300)
	for i := range rows {
		rows[i] = intRow(rng.Intn(40), rng.Intn(40))
	}
	p := pareto2D()
	want, err := Evaluate(p, rows, Auto)
	if err != nil {
		t.Fatal(err)
	}
	var got []value.Row
	err = progressive(p, rows, func(r value.Row) bool {
		got = append(got, r)
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	if !sameSet(got, want) {
		t.Fatalf("progressive (%d) differs from batch (%d)", len(got), len(want))
	}
}

func TestProgressiveEmitsInScoreOrder(t *testing.T) {
	rows := []value.Row{intRow(9, 9), intRow(1, 5), intRow(5, 1), intRow(0, 0)}
	p := pareto2D()
	var sums []int64
	err := progressive(p, rows, func(r value.Row) bool {
		sums = append(sums, r[0].I+r[1].I)
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(sums); i++ {
		if sums[i] < sums[i-1] {
			t.Fatalf("not monotone: %v", sums)
		}
	}
	if len(sums) != 1 { // (0,0) dominates everything
		t.Fatalf("skyline: %v", sums)
	}
}

func TestProgressiveEarlyStop(t *testing.T) {
	rows := []value.Row{intRow(1, 9), intRow(9, 1), intRow(5, 5), intRow(2, 8)}
	p := pareto2D()
	count := 0
	err := progressive(p, rows, func(value.Row) bool {
		count++
		return count < 2 // stop after two results
	})
	if err != nil {
		t.Fatal(err)
	}
	if count != 2 {
		t.Fatalf("early stop: %d", count)
	}
}

func TestProgressiveCascade(t *testing.T) {
	p := &preference.Cascade{Parts: []preference.Preference{
		&preference.Lowest{Get: colGetter(0), Label: "x"},
		&preference.Lowest{Get: colGetter(1), Label: "y"},
	}}
	rows := []value.Row{intRow(1, 9), intRow(1, 3), intRow(2, 0)}
	for _, algo := range []Algorithm{Auto, Parallel} {
		s, err := streamRows(p, rows, algo, Config{Workers: 2})
		if err != nil {
			t.Fatal(err)
		}
		got, err := drain(s)
		if err != nil || len(got) != 1 || got[0][1].I != 3 {
			t.Fatalf("cascade progressive: %v (err %v)", got, err)
		}
	}
}

// TestProgressiveExplicit streams EXPLICIT, a chain and a non-chain
// graph, alone and Pareto'd with a weak order: the stream's set is the
// nested-loop reference's. No row holds 'a', so under the non-chain
// graph 'b' is maximal though 'd' has a smaller level.
func TestProgressiveExplicit(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	rows := make([]value.Row, 400)
	for i := range rows {
		rows[i] = value.Row{value.NewText(string(rune('b' + rng.Intn(4)))), value.NewInt(int64(rng.Intn(30)))}
	}
	text := func(s string) value.Value { return value.NewText(s) }
	for _, edges := range [][][2]value.Value{
		{{text("a"), text("b")}, {text("b"), text("c")}},
		{{text("a"), text("b")}, {text("b"), text("c")}, {text("d"), text("c")}},
	} {
		ex, err := preference.NewExplicit(colGetter(0), "c", edges)
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range []preference.Preference{ex, &preference.Pareto{Parts: []preference.Preference{
			ex, &preference.Lowest{Get: colGetter(1), Label: "x"}}}} {
			want, err := Evaluate(p, rows, NestedLoop)
			if err != nil {
				t.Fatal(err)
			}
			var got []value.Row
			if err := progressive(p, rows, func(r value.Row) bool {
				got = append(got, r)
				return true
			}); err != nil {
				t.Fatal(err)
			}
			if !sameSet(got, want) {
				t.Fatalf("%s (edges %v): stream %d rows, batch %d", p.Describe(), edges, len(got), len(want))
			}
		}
	}
}

func TestProgressiveSingleScored(t *testing.T) {
	p := &preference.Lowest{Get: colGetter(0), Label: "x"}
	rows := []value.Row{intRow(5), intRow(2), intRow(2), intRow(9)}
	var got []value.Row
	if err := progressive(p, rows, func(r value.Row) bool {
		got = append(got, r)
		return true
	}); err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 {
		t.Fatalf("both minima: %v", got)
	}
}

// TestStreamPollsStop pins cancellation inside one Next: after the one
// best row, a run of dominated rows longer than the Stop interval must
// end with the Stop error, not run to the end of the input.
func TestStreamPollsStop(t *testing.T) {
	rows := []value.Row{intRow(0, 0)}
	for i := 0; i < 2*stopInterval+1; i++ {
		rows = append(rows, intRow(1, 1))
	}
	stopErr := errors.New("cancelled")
	s, err := streamRows(pareto2D(), rows, Auto, Config{Workers: 1, Stop: func() error { return stopErr }})
	if err != nil {
		t.Fatal(err)
	}
	if row, ok, err := s.Next(); err != nil || !ok || row[0].I != 0 {
		t.Fatalf("first Next: %v %v %v, want the best row", row, ok, err)
	}
	if _, _, err := s.Next(); !errors.Is(err, stopErr) {
		t.Fatalf("second Next: err = %v, want the Stop error", err)
	}
}
