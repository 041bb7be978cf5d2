package value_test

import (
	"math"
	"testing"

	"repro/internal/expr"
	"repro/internal/parser"
	"repro/internal/value"
)

// TestFloatSQLRoundTrips: the SQL text of every FLOAT — zeros of both
// signs, the extremes, the infinities and NaN — evaluates back to the
// same number, bit for bit (NaN to a NaN). A shard's INSERT is built
// from this text.
func TestFloatSQLRoundTrips(t *testing.T) {
	for _, f := range []float64{0, math.Copysign(0, -1), 5e-324, -5e-324, 1e308, -1e308, 0.1, -2.5,
		math.Inf(1), math.Inf(-1), math.NaN()} {
		v := value.NewFloat(f)
		sel, err := parser.ParseSelect("SELECT " + v.SQL())
		if err != nil {
			t.Fatalf("%v renders as %s, which does not parse: %v", f, v.SQL(), err)
		}
		got, err := expr.Compile(sel.Items[0].Expr, expr.Scope{}).Eval(nil, nil)
		if err != nil {
			t.Fatalf("%v renders as %s, which does not evaluate: %v", f, v.SQL(), err)
		}
		g := got.Num()
		if math.IsNaN(f) && !math.IsNaN(g) || !math.IsNaN(f) && math.Float64bits(g) != math.Float64bits(f) {
			t.Errorf("%v renders as %s, which evaluates to %v", f, v.SQL(), g)
		}
	}
}
