package exec

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/ast"
	"repro/internal/expr"
	"repro/internal/plan"
	"repro/internal/storage"
	"repro/internal/value"
)

// The column-vector scan filter must be invisible: every scan's output
// (rows and order, or the error text) equals expr.Conds.Match run over
// every row of the heap the scan captured, in heap order. The generator
// mixes conjuncts that run on vectors with ones that cannot, over every
// numeric kind, NULLs, -0.0 and NaN.

// vecSchema is t(k INT, i INT, f FLOAT, b BOOL, dt DATE, s TEXT); k
// carries the index the index-scan variant probes.
var vecSchema = storage.Schema{Cols: []storage.Column{
	{Name: "k", Kind: value.Int}, {Name: "i", Kind: value.Int}, {Name: "f", Kind: value.Float},
	{Name: "b", Kind: value.Bool}, {Name: "dt", Kind: value.Date}, {Name: "s", Kind: value.Text},
}}

// filterCase is one generated table, filter and argument list.
type filterCase struct {
	tbl  *storage.Table
	cat  *storage.Catalog
	cond []ast.Expr // conjuncts, written order
	args []value.Value
}

func genValue(r *rand.Rand, kind value.Kind) value.Value {
	if r.Intn(6) == 0 {
		return value.NewNull()
	}
	switch kind {
	case value.Int:
		return value.NewInt(int64(r.Intn(7) - 3))
	case value.Float:
		return value.NewFloat([]float64{-1.5, math.Copysign(0, -1), 0, 0.5, 2, math.NaN(), 3}[r.Intn(7)])
	case value.Bool:
		return value.NewBool(r.Intn(2) == 0)
	case value.Date:
		return value.Value{K: value.Date, I: int64(r.Intn(4))}
	}
	return value.NewText([]string{"a", "b", "1"}[r.Intn(3)])
}

// genConst draws a comparison bound of any kind.
func genConst(r *rand.Rand) value.Value {
	return genValue(r, []value.Kind{value.Int, value.Float, value.Bool, value.Date, value.Text, value.Int, value.Float}[r.Intn(7)])
}

func genTable(t testing.TB, r *rand.Rand) (*storage.Catalog, *storage.Table) {
	cat := storage.NewCatalog()
	tbl := storage.NewTable("t", vecSchema)
	if err := cat.CreateTable(tbl); err != nil {
		t.Fatal(err)
	}
	n := r.Intn(70)
	if r.Intn(8) == 0 {
		n = 0
	}
	for i := 0; i < n; i++ {
		row := make(value.Row, len(vecSchema.Cols))
		for j, c := range vecSchema.Cols {
			row[j] = genValue(r, c.Kind)
		}
		if err := tbl.Insert(row); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := tbl.CreateIndex("t_k", []string{"k"}); err != nil {
		t.Fatal(err)
	}
	return cat, tbl
}

var (
	vecCols   = []string{"k", "i", "f", "b", "dt"}
	vecOps    = []string{"=", "<>", "<", "<=", ">", ">="}
	allColumn = []string{"k", "i", "f", "b", "dt", "s"}
)

// genConjunct draws one conjunct. withUnknown admits a reference to a
// column the scan does not have.
func genConjunct(r *rand.Rand, fc *filterCase, withUnknown bool) ast.Expr {
	colRef := func(names []string) ast.Expr { return col("", names[r.Intn(len(names))]) }
	bound := func() ast.Expr {
		if r.Intn(3) > 0 {
			return lit(genConst(r))
		}
		// A parameter: usually bound, now and then past the argument list.
		if r.Intn(6) == 0 {
			return param(len(fc.args) + 2)
		}
		fc.args = append(fc.args, genConst(r))
		return param(len(fc.args) - 1)
	}
	op := vecOps[r.Intn(len(vecOps))]
	switch x := r.Intn(14); {
	case x < 6:
		return bin(op, colRef(vecCols), bound())
	case x < 9:
		return bin(op, bound(), colRef(vecCols))
	case x == 9:
		return bin(op, colRef(allColumn), colRef(allColumn)) // d1 < d2
	case x == 10:
		return bin(op, col("", "s"), bound())
	case x == 11:
		return bin("OR", bin(op, colRef(vecCols), bound()), bin(op, colRef(vecCols), bound()))
	case x == 12:
		return bin(op, &ast.FuncCall{Name: "ABS", Args: []ast.Expr{colRef(allColumn)}}, bound())
	}
	if withUnknown {
		return bin(op, col("", "nosuch"), bound())
	}
	return bin(op, colRef(vecCols), bound())
}

// genFilterCase draws a table and a filter. For the index variant the
// filter starts with the probed equality `k = key`.
func genFilterCase(t testing.TB, r *rand.Rand, index bool) *filterCase {
	fc := &filterCase{}
	fc.cat, fc.tbl = genTable(t, r)
	if index {
		key := ast.Expr(lit(genConst(r)))
		switch r.Intn(5) {
		case 0:
			fc.args = append(fc.args, genConst(r))
			key = param(len(fc.args) - 1)
		case 1:
			key = param(7) // never bound
		}
		fc.cond = append(fc.cond, bin("=", col("", "k"), key))
	}
	for n := 1 + r.Intn(3); n > 0; n-- {
		fc.cond = append(fc.cond, genConjunct(r, fc, !index))
	}
	return fc
}

// outcome renders rows or an error for comparison.
func outcome(rows []value.Row, err error) string {
	if err != nil {
		return "error: " + err.Error()
	}
	return fmt.Sprint(rows)
}

// reference runs the filter row by row over every row of the heap.
func reference(fc *filterCase, h storage.Heap, scope expr.Scope) string {
	conds := expr.CompileConds(fc.cond, scope)
	rt := &expr.Runtime{Params: fc.args}
	var out []value.Row
	for _, row := range h.Rows {
		ok, err := conds.Match(rt, row)
		if err != nil {
			return outcome(nil, err)
		}
		if ok {
			out = append(out, row)
		}
	}
	return outcome(out, nil)
}

// scanNode plans the case's scan: a SeqScan carrying the whole filter,
// or the IndexScan the planner derives from the leading `k = key`.
func scanNode(t testing.TB, fc *filterCase, index bool) plan.Node {
	if !index {
		s := plan.NewSeqScan(fc.tbl, "t")
		s.Filter = fc.cond
		return s
	}
	var where ast.Expr
	for _, c := range fc.cond {
		if where == nil {
			where = c
		} else {
			where = bin("AND", where, c)
		}
	}
	n, err := (&plan.Planner{Catalog: fc.cat}).PlanSource([]ast.TableRef{&ast.BaseTable{Name: "t"}}, where, false)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := n.(*plan.IndexScan); !ok {
		t.Fatalf("want an IndexScan, got %s", n.Explain())
	}
	return n
}

// checkFilterCase runs the scan twice — the first run builds its
// vectors, the second finds them cached — and compares every run with
// the reference over the heap the run captured.
func checkFilterCase(t testing.TB, fc *filterCase, index bool) {
	n := scanNode(t, fc, index)
	for run := 0; run < 2; run++ {
		want := reference(fc, fc.tbl.Heap(), n.Schema().Scope())
		op, err := Build(n, &Env{Rt: &expr.Runtime{Params: fc.args}})
		if err != nil {
			t.Fatal(err)
		}
		if got := outcome(Drain(op)); got != want {
			t.Fatalf("run %d of %s with args %v over %d rows:\ngot  %s\nwant %s",
				run, plan.Format(n), fc.args, fc.tbl.RowCount(), got, want)
		}
	}
}

func TestColumnFilterDifferential(t *testing.T) {
	r := rand.New(rand.NewSource(20021))
	for i := 0; i < 1500; i++ {
		index := i%2 == 1
		checkFilterCase(t, genFilterCase(t, r, index), index)
	}
}

// FuzzColumnFilter drives the same generator from arbitrary seeds.
func FuzzColumnFilter(f *testing.F) {
	f.Add(int64(1), false)
	f.Add(int64(7), true)
	f.Fuzz(func(t *testing.T, seed int64, index bool) {
		checkFilterCase(t, genFilterCase(t, rand.New(rand.NewSource(seed)), index), index)
	})
}

// vecTests returns how many conjuncts an opened scan runs on vectors.
func vecTests(t *testing.T, op Operator) int {
	t.Helper()
	switch s := unwrap(op).(type) {
	case *seqScan:
		return len(s.cur.vecs)
	case *indexScan:
		return len(s.cur.vecs)
	}
	t.Fatalf("not a scan: %T", op)
	return 0
}

// TestColumnFilterWhenToBuild pins which conjuncts run on vectors: a
// filtered scan builds a missing vector at once, an index scan never
// tests its probed column on one, and TEXT or NULL bounds and an unbound
// parameter stay on rows.
func TestColumnFilterWhenToBuild(t *testing.T) {
	cat, jobs := jobsCatalog(t)
	open := func(n plan.Node, args ...value.Value) Operator {
		op, err := Build(n, &Env{Rt: &expr.Runtime{Params: args}})
		if err != nil {
			t.Fatal(err)
		}
		if err := op.Open(); err != nil {
			t.Fatal(err)
		}
		return op
	}
	seq := planJobs(t, cat, bin("AND", bin("<", col("", "salary"), param(0)), bin("=", col("", "exp"), lit(value.NewInt(3)))))
	if got := vecTests(t, open(seq, value.NewInt(1500))); got != 2 {
		t.Errorf("filtered seq scan runs %d conjuncts on vectors, want 2", got)
	}
	for _, arg := range []value.Value{value.NewText("x"), value.NewNull()} {
		if got := vecTests(t, open(seq, arg)); got != 1 {
			t.Errorf("bound %v: %d conjuncts on vectors, want only exp's", arg, got)
		}
	}
	if got := vecTests(t, open(seq)); got != 0 {
		t.Errorf("an unbound parameter must send the filter down the row path, got %d vector conjuncts", got)
	}

	// A fresh table: the scans above built salary's vector already.
	cat, jobs = jobsCatalog(t)
	probe := planJobs(t, cat, bin("AND", bin("=", col("", "id"), param(0)), bin("<", col("", "salary"), lit(value.NewInt(1500)))))
	if _, ok := probe.(*plan.IndexScan); !ok {
		t.Fatalf("want an IndexScan, got %s", probe.Explain())
	}
	if got := vecTests(t, open(probe, value.NewInt(4))); got != 1 {
		t.Errorf("probe ran %d conjuncts on vectors, want salary's", got)
	}
	// A write moves the heap version: the next probe builds again.
	if err := jobs.Insert(ints(99, 0, 10, 1)); err != nil {
		t.Fatal(err)
	}
	if got := vecTests(t, open(probe, value.NewInt(4))); got != 1 {
		t.Errorf("probe after a write ran %d conjuncts on vectors, want salary's", got)
	}
	byID := planJobs(t, cat, bin("=", col("", "id"), param(0)))
	if got := vecTests(t, open(byID, value.NewInt(4))); got != 0 {
		t.Errorf("the probed column must never run on a vector, got %d", got)
	}
}

// TestScanCountsEveryCandidate pins RowsScanned on the vector path: the
// whole table for a sequential scan, the bucket for an index probe.
func TestScanCountsEveryCandidate(t *testing.T) {
	cat, _ := jobsCatalog(t)
	seq := planJobs(t, cat, bin("<", col("", "salary"), lit(value.NewInt(1100))))
	env := &Env{}
	rows := run(t, seq, env)
	if env.Stats.RowsScanned != 40 || len(rows) == 0 {
		t.Errorf("seq scan: %d rows, %d scanned; want some rows of 40 scanned", len(rows), env.Stats.RowsScanned)
	}
	probe := planJobs(t, cat, bin("AND", bin("=", col("", "region"), lit(value.NewText("east"))), bin(">=", col("", "id"), lit(value.NewInt(20)))))
	for i := 0; i < 2; i++ {
		env := &Env{}
		if got := ids(run(t, probe, env)); got != "22 26 30 34 38 " || env.Stats.RowsScanned != 10 {
			t.Errorf("run %d: ids %q scanned %d, want 22..38 of 10", i, got, env.Stats.RowsScanned)
		}
	}
}
