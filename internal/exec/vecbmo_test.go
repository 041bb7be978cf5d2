package exec

import (
	"fmt"
	"sort"
	"strings"
	"testing"

	"repro/internal/bmo"
	"repro/internal/expr"
	"repro/internal/plan"
	"repro/internal/preference"
	"repro/internal/value"
)

// TestVecBMOFillsFromItsScan pins the columnar fill's wiring: a
// vectorized BMO over a bare scan reads the score columns its compiled
// preference names (preference.Slot) from the vectors of the heap that
// scan's operator captured, never through the preference's row getters,
// and returns the same winners as a row-path BMO over the same scan. A
// preference constructed without a Slot names no column, so the same
// fill scores it through the getters at every selected position.
func TestVecBMOFillsFromItsScan(t *testing.T) {
	_, jobs := jobsCatalog(t)
	gets := 0
	get := func(c int) func(value.Row) (value.Value, error) {
		return func(r value.Row) (value.Value, error) { gets++; return r[c], nil }
	}
	pref := func(slots bool) preference.Preference {
		lo := &preference.Lowest{Get: get(2), Label: "salary"}
		hi := &preference.Highest{Get: get(3), Label: "exp"}
		if slots {
			lo.Slot, hi.Slot = preference.ColumnSlot(2), preference.ColumnSlot(3)
		}
		return &preference.Pareto{Parts: []preference.Preference{lo, hi}}
	}
	vec := func(columnar, slots bool) (*BMOOp, *plan.SeqScan, []value.Row) {
		scan := plan.NewSeqScan(jobs, "jobs")
		n := plan.NewBMO(plan.NewProject(scan, star(), nil), pref(slots), bmo.Auto, false, 0)
		n.Vectorized = columnar
		op, err := Build(n, &Env{})
		if err != nil {
			t.Fatal(err)
		}
		rows, err := Drain(op)
		if err != nil {
			t.Fatal(err)
		}
		return unwrap(op).(*BMOOp), scan, rows
	}
	sorted := func(rows []value.Row) string {
		s := make([]string, len(rows))
		for i, r := range rows {
			s[i] = fmt.Sprint(r[0].I)
		}
		sort.Strings(s)
		return strings.Join(s, " ")
	}

	op, scan, got := vec(true, true)
	if op.scan == nil || op.scan.node() != plan.Node(scan) {
		t.Fatal("the BMO is not wired to the operator of its scan")
	}
	if gets != 0 {
		t.Errorf("the columnar fill called the row getters %d times", gets)
	}
	if op.heap.Version != jobs.Heap().Version {
		t.Error("the fill's heap is not the one its scan captured")
	}
	_, _, want := vec(false, true)
	if gets == 0 {
		t.Fatal("the row-path BMO did not score rows through the getters")
	}
	if len(got) == 0 || sorted(got) != sorted(want) {
		t.Errorf("columnar winners %q, row winners %q", ids(got), ids(want))
	}

	gets = 0
	op, _, direct := vec(true, false)
	if want := 2 * len(op.sel); gets != want {
		t.Errorf("a preference without slots: %d getter calls, want %d (two per selected row)", gets, want)
	}
	if ids(direct) != ids(got) {
		t.Errorf("winners without slots %q, with slots %q", ids(direct), ids(got))
	}
}

// TestVecBMOOverEmptyScan: a vectorized BMO over an index scan that
// selects nothing — a NULL probe key, or a table emptied after the plan
// was built for its rows — answers with no rows. The scan then captures
// no heap, so the fill must not ask it for a column vector.
func TestVecBMOOverEmptyScan(t *testing.T) {
	cat, jobs := jobsCatalog(t)
	scan := planJobs(t, cat, bin("=", col("", "region"), param(0)))
	if _, ok := scan.(*plan.IndexScan); !ok {
		t.Fatalf("want an IndexScan, got %s", scan.Explain())
	}
	pref := &preference.Pareto{Parts: []preference.Preference{
		&preference.Lowest{Get: func(r value.Row) (value.Value, error) { return r[2], nil }, Label: "salary", Slot: preference.ColumnSlot(2)},
		&preference.Highest{Get: func(r value.Row) (value.Value, error) { return r[3], nil }, Label: "exp", Slot: preference.ColumnSlot(3)},
	}}
	n := plan.NewBMO(plan.NewProject(scan, star(), nil), pref, bmo.Auto, false, 0)
	n.Vectorized = true
	drain := func(key value.Value) []value.Row {
		return run(t, n, &Env{Rt: &expr.Runtime{Params: value.Row{key}}})
	}
	if rows := drain(value.NewText("north")); len(rows) == 0 {
		t.Fatal("no winners over a non-empty probe")
	}
	if rows := drain(value.NewNull()); len(rows) != 0 {
		t.Errorf("region = NULL: winners %q", ids(rows))
	}
	if err := jobs.Truncate(); err != nil {
		t.Fatal(err)
	}
	if rows := drain(value.NewText("north")); len(rows) != 0 {
		t.Errorf("emptied table: winners %q", ids(rows))
	}
}

// TestRowBMOTakesTheSelection: a BMO that is not vectorized still takes
// a selection scan's selection instead of pulling rows, so its
// candidates are positions in the heap the scan captured, and the rows
// at them are the scan's rows in scan order.
func TestRowBMOTakesTheSelection(t *testing.T) {
	cat, jobs := jobsCatalog(t)
	scan := planJobs(t, cat, bin("<", col("", "salary"), param(0)))
	if _, ok := scan.(*plan.SeqScan); !ok {
		t.Fatalf("want a SeqScan, got %s", scan.Explain())
	}
	pref := &preference.Lowest{Get: func(r value.Row) (value.Value, error) { return r[3], nil }, Label: "exp"}
	n := plan.NewBMO(plan.NewProject(scan, star(), nil), pref, bmo.BlockNestedLoop, false, 0)
	env := &Env{Rt: &expr.Runtime{Params: value.Row{value.NewInt(1500)}}}
	op, err := Build(n, env)
	if err != nil {
		t.Fatal(err)
	}
	got, err := Drain(op)
	if err != nil {
		t.Fatal(err)
	}
	b := unwrap(op).(*BMOOp)
	cand := run(t, scan, env)
	sel := make([]value.Row, len(b.sel))
	for i, p := range b.sel {
		sel[i] = b.heap.Rows[p]
	}
	if b.scan == nil || b.heap.Version != jobs.Heap().Version || ids(sel) != ids(cand) {
		t.Fatalf("selection %q, want the scan's rows %q in the table's heap", ids(sel), ids(cand))
	}
	want, err := bmo.Evaluate(pref, cand, bmo.BlockNestedLoop)
	if err != nil {
		t.Fatal(err)
	}
	if len(want) == 0 || ids(got) != ids(want) {
		t.Errorf("winners %q, want %q", ids(got), ids(want))
	}
}
