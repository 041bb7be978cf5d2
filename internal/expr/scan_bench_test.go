package expr

import (
	"math/rand"
	"testing"

	"repro/internal/ast"
	"repro/internal/parser"
	"repro/internal/value"
)

// BenchmarkCondsScan is the portal_search inner loop in isolation: two
// compiled conjuncts over wide rows visited in scattered order.
func BenchmarkCondsScan(b *testing.B) {
	const nrows, ncols = 100_000, 20
	rng := rand.New(rand.NewSource(1))
	scope := Scope{Cols: make([]Col, ncols)}
	for i := range scope.Cols {
		scope.Cols[i] = Col{Qual: "jobs", Name: "c" + string(rune('a'+i))}
	}
	rows := make([]value.Row, nrows)
	for i := range rows {
		r := make(value.Row, ncols)
		for j := range r {
			r[j] = value.NewInt(int64(rng.Intn(1000)))
		}
		r[3] = value.NewText([]string{"north", "south", "east", "west"}[rng.Intn(4)])
		rows[i] = r
	}
	rng.Shuffle(nrows, func(i, j int) { rows[i], rows[j] = rows[j], rows[i] })
	sel, err := parser.ParseSelect("SELECT 1 FROM jobs WHERE cd = ? AND cq < ?")
	if err != nil {
		b.Fatal(err)
	}
	and := sel.Where.(*ast.Binary)
	conds := CompileConds([]ast.Expr{and.L, and.R}, scope)
	rt := &Runtime{Params: []value.Value{value.NewText("east"), value.NewInt(300)}}
	b.ResetTimer()
	kept := 0
	for i := 0; i < b.N; i++ {
		ok, err := conds.Match(rt, rows[i%nrows])
		if err != nil {
			b.Fatal(err)
		}
		if ok {
			kept++
		}
	}
	sink = kept
}

var sink int
