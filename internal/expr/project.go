package expr

import (
	"strings"

	"repro/internal/ast"
	"repro/internal/value"
)

// Projection is a compiled SELECT list over one scope: stars are expanded
// to slot lists and every other item to a Program when it is compiled, so
// projecting a row resolves no names.
type Projection struct {
	// Cols labels the output columns: a star contributes the source
	// columns it expands to (qualifiers kept, Call columns skipped), any
	// other item one unqualified column named by its alias, its column
	// name, or its SQL text.
	Cols []Col
	// Identity is set when the list is a single unqualified `*` over a
	// scope without Call columns: the output row equals the input row,
	// column for column.
	Identity bool
	items    []projItem
}

// projItem is one SELECT-list entry: the slots a star expands to, or the
// compiled expression.
type projItem struct {
	slots []int
	prog  *Program
}

// CompileProjection compiles a SELECT list against scope.
func CompileProjection(items []ast.SelectItem, scope Scope) *Projection {
	p := &Projection{items: make([]projItem, len(items))}
	for i, it := range items {
		if st, ok := it.Expr.(*ast.Star); ok {
			var slots []int
			for slot, c := range scope.Cols {
				if !c.Call && (st.Table == "" || strings.EqualFold(c.Qual, st.Table)) {
					slots = append(slots, slot)
					p.Cols = append(p.Cols, c)
				}
			}
			p.items[i] = projItem{slots: slots}
			p.Identity = len(items) == 1 && st.Table == "" && len(slots) == len(scope.Cols)
			continue
		}
		name := it.Alias
		if name == "" {
			if c, ok := it.Expr.(*ast.Column); ok {
				name = c.Name
			} else {
				name = it.Expr.SQL()
			}
		}
		p.Cols = append(p.Cols, Col{Name: name})
		p.items[i] = projItem{prog: Compile(it.Expr, scope)}
	}
	return p
}

// Names returns the output column names in order.
func (p *Projection) Names() []string {
	out := make([]string, len(p.Cols))
	for i, c := range p.Cols {
		out[i] = c.Name
	}
	return out
}

// Row projects one source row into a freshly allocated output row — also
// for an Identity projection, so the result never aliases its input.
func (p *Projection) Row(rt *Runtime, row value.Row) (value.Row, error) {
	out := make(value.Row, 0, len(p.Cols))
	for _, it := range p.items {
		if it.prog == nil {
			for _, slot := range it.slots {
				out = append(out, row[slot])
			}
			continue
		}
		v, err := it.prog.Eval(rt, row)
		if err != nil {
			return nil, err
		}
		out = append(out, v)
	}
	return out, nil
}
