package bmo

import (
	"testing"
	"testing/quick"

	"repro/internal/preference"
	"repro/internal/value"
)

// vecRows turns quick-generated uint8 matrices into rows of d columns.
func vecRows(data []uint8, d int) []value.Row {
	n := len(data) / d
	rows := make([]value.Row, 0, n)
	for i := 0; i < n; i++ {
		row := make(value.Row, d)
		for j := 0; j < d; j++ {
			row[j] = value.NewInt(int64(data[i*d+j] % 16))
		}
		rows = append(rows, row)
	}
	return rows
}

func pareto(d int) preference.Preference {
	parts := make([]preference.Preference, d)
	for j := 0; j < d; j++ {
		col := j
		parts[j] = &preference.Lowest{
			Get:   func(r value.Row) (value.Value, error) { return r[col], nil },
			Label: "c",
		}
	}
	return &preference.Pareto{Parts: parts}
}

func rowSet(rows []value.Row) map[string]int {
	m := map[string]int{}
	for _, r := range rows {
		m[r.Key()]++
	}
	return m
}

func subMultiset(a, b map[string]int) bool {
	for k, n := range a {
		if b[k] < n {
			return false
		}
	}
	return true
}

// Property: BMO is idempotent — evaluating the skyline of a skyline
// changes nothing.
func TestQuickBMOIdempotent(t *testing.T) {
	f := func(data []uint8) bool {
		rows := vecRows(data, 3)
		p := pareto(3)
		once, err := Evaluate(p, rows, Auto)
		if err != nil {
			return false
		}
		twice, err := Evaluate(p, once, Auto)
		if err != nil {
			return false
		}
		a, b := rowSet(once), rowSet(twice)
		return subMultiset(a, b) && subMultiset(b, a)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Property: the BMO result is a sub-multiset of the input.
func TestQuickBMOSubsetOfInput(t *testing.T) {
	f := func(data []uint8) bool {
		rows := vecRows(data, 2)
		out, err := Evaluate(pareto(2), rows, BlockNestedLoop)
		if err != nil {
			return false
		}
		return subMultiset(rowSet(out), rowSet(rows))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Property: all algorithms return the same multiset.
func TestQuickAlgorithmsEquivalent(t *testing.T) {
	f := func(data []uint8) bool {
		rows := vecRows(data, 3)
		p := pareto(3)
		ref, err := Evaluate(p, rows, NestedLoop)
		if err != nil {
			return false
		}
		refSet := rowSet(ref)
		for _, algo := range []Algorithm{BlockNestedLoop, Parallel, Auto} {
			out, err := Evaluate(p, rows, algo)
			if err != nil {
				return false
			}
			s := rowSet(out)
			if !subMultiset(s, refSet) || !subMultiset(refSet, s) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// Property: shrinking the input never grows the skyline beyond the
// original skyline's surviving members (stability under deletion of
// non-result tuples: removing dominated tuples leaves the skyline intact).
func TestQuickSkylineStableUnderDominatedRemoval(t *testing.T) {
	f := func(data []uint8) bool {
		rows := vecRows(data, 2)
		p := pareto(2)
		sky, err := Evaluate(p, rows, Auto)
		if err != nil {
			return false
		}
		skySet := rowSet(sky)
		// keep only skyline rows plus every third dominated row
		var reduced []value.Row
		kept := 0
		for _, r := range rows {
			if skySet[r.Key()] > 0 {
				reduced = append(reduced, r)
				continue
			}
			if kept%3 == 0 {
				reduced = append(reduced, r)
			}
			kept++
		}
		again, err := Evaluate(p, reduced, Auto)
		if err != nil {
			return false
		}
		a, b := rowSet(again), skySet
		return subMultiset(a, b) && subMultiset(b, a)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}
