package exec

import (
	"fmt"
	"sort"
	"strings"
	"testing"

	"repro/internal/bmo"
	"repro/internal/plan"
	"repro/internal/preference"
	"repro/internal/value"
)

// TestVecBMOFillsFromItsScan pins the columnar fill's wiring: a
// vectorized BMO whose plan names a bare scan (VecScan) reads the score
// columns from the vectors of the heap that scan's operator captured,
// never through the preference's row getters, and returns the same
// winners as the row-at-a-time evaluation.
func TestVecBMOFillsFromItsScan(t *testing.T) {
	_, jobs := jobsCatalog(t)
	gets := 0
	get := func(c int) func(value.Row) (value.Value, error) {
		return func(r value.Row) (value.Value, error) { gets++; return r[c], nil }
	}
	pref := &preference.Pareto{Parts: []preference.Preference{
		&preference.Lowest{Get: get(2), Label: "salary"},
		&preference.Highest{Get: get(3), Label: "exp"},
	}}
	vec := func(bare bool) (*BMOOp, []value.Row) {
		scan := plan.NewSeqScan(jobs, "jobs")
		n := plan.NewBMO(plan.NewProject(scan, star(), nil), pref, bmo.Auto, false, 0)
		n.VecCols = []int{2, 3}
		if bare {
			n.VecScan = scan
		}
		op, err := Build(n, &Env{})
		if err != nil {
			t.Fatal(err)
		}
		rows, err := Drain(op)
		if err != nil {
			t.Fatal(err)
		}
		return unwrap(op).(*BMOOp), rows
	}
	sorted := func(rows []value.Row) string {
		s := make([]string, len(rows))
		for i, r := range rows {
			s[i] = fmt.Sprint(r[0].I)
		}
		sort.Strings(s)
		return strings.Join(s, " ")
	}

	op, got := vec(true)
	if op.scan == nil || op.scan.n != op.node.VecScan {
		t.Fatal("the BMO is not wired to the operator of its VecScan")
	}
	if gets != 0 {
		t.Errorf("the columnar fill called the row getters %d times", gets)
	}
	if op.scan.cur.heap.Version != jobs.Heap().Version {
		t.Error("the fill's heap is not the one its scan captured")
	}
	op, want := vec(false)
	if op.scan != nil || gets == 0 {
		t.Fatalf("without VecScan the BMO must score rows (scan %v, %d getter calls)", op.scan, gets)
	}
	if len(got) == 0 || sorted(got) != sorted(want) {
		t.Errorf("columnar winners %q, row winners %q", ids(got), ids(want))
	}
}
