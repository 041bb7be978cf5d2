package exec

import (
	"fmt"
	"math"
	"strings"

	"repro/internal/plan"
	"repro/internal/value"
)

// aggregateOp is a hash aggregate: Open folds the whole input into one
// accumulator per group and call, Next emits the groups in first-seen
// order. Only each group's first row and its accumulators are kept.
type aggregateOp struct {
	n     *plan.Aggregate
	child Operator
	env   *Env
	out   []value.Row
	pos   int
}

func (a *aggregateOp) Schema() plan.Schema { return a.n.Schema() }

// aggGroup is one group: its first input row and one accumulator per
// call.
type aggGroup struct {
	row  value.Row
	accs []accumulator
}

func (a *aggregateOp) Open() error {
	a.out, a.pos = nil, 0
	if err := a.child.Open(); err != nil {
		return err
	}
	keys, args := a.n.GroupKeys(), a.n.Args()
	newGroup := func(row value.Row) *aggGroup {
		g := &aggGroup{row: row, accs: make([]accumulator, len(args))}
		for i, fc := range a.n.Calls {
			g.accs[i].fn = strings.ToUpper(fc.Name)
			if fc.Distinct {
				g.accs[i].seen = map[string]bool{}
			}
		}
		return g
	}
	var groups []*aggGroup
	index := map[string]*aggGroup{}
	for {
		row, err := a.child.Next()
		if err != nil {
			return err
		}
		if row == nil {
			break
		}
		var key string
		if len(keys) > 0 {
			vals, err := evalKeys(keys, a.env.Rt, row)
			if err != nil {
				return err
			}
			key = vals.Key()
		}
		g := index[key]
		if g == nil {
			g = newGroup(row)
			index[key] = g
			groups = append(groups, g)
		}
		for i, arg := range args {
			v := value.NewInt(1) // COUNT(*) counts rows
			if arg != nil {
				if v, err = arg.Eval(a.env.Rt, row); err != nil {
					return err
				}
			}
			if err := g.accs[i].add(v); err != nil {
				return err
			}
		}
	}
	if len(groups) == 0 && len(keys) == 0 {
		groups = append(groups, newGroup(make(value.Row, len(a.n.Child.Schema()))))
	}
	a.out = make([]value.Row, len(groups))
	for i, g := range groups {
		row := append(make(value.Row, 0, len(a.n.Schema())), g.row...)
		for j := range g.accs {
			v, err := g.accs[j].result()
			if err != nil {
				return err
			}
			row = append(row, v)
		}
		a.out[i] = row
	}
	return nil
}

func (a *aggregateOp) Next() (value.Row, error) {
	if a.pos >= len(a.out) {
		return nil, nil
	}
	a.pos++
	return a.out[a.pos-1], nil
}

func (a *aggregateOp) Close() error { return a.child.Close() }

// accumulator folds one aggregate call over one group's values. NULLs
// are skipped; under DISTINCT so is every value seen before. SUM and AVG
// over INT values sum exactly in int64 and fail on overflow; any other
// numeric kind makes the sum a float64.
type accumulator struct {
	fn       string          // upper-case aggregate name
	seen     map[string]bool // DISTINCT: keys of the values folded so far
	n        int64           // values folded
	isum     int64           // exact sum of the INT values
	fsum     float64         // float sum of all values
	floats   bool            // some value was not INT
	overflow bool            // isum left the int64 range
	best     value.Value     // MIN/MAX so far
}

func (c *accumulator) add(v value.Value) error {
	if v.IsNull() {
		return nil
	}
	if c.seen != nil {
		k := v.Key()
		if c.seen[k] {
			return nil
		}
		c.seen[k] = true
	}
	c.n++
	switch c.fn {
	case "SUM", "AVG":
		if !v.IsNumeric() {
			return fmt.Errorf("%s requires numeric values", c.fn)
		}
		c.fsum += v.Num()
		if v.K != value.Int {
			c.floats = true
		} else if (v.I > 0 && c.isum > math.MaxInt64-v.I) || (v.I < 0 && c.isum < math.MinInt64-v.I) {
			c.overflow = true
		} else {
			c.isum += v.I
		}
	case "MIN", "MAX":
		cmp, ok := value.Compare(v, c.best)
		if c.n > 1 && !ok {
			return fmt.Errorf("%s over incomparable values", c.fn)
		}
		if c.n == 1 || (c.fn == "MIN" && cmp < 0) || (c.fn == "MAX" && cmp > 0) {
			c.best = v
		}
	}
	return nil
}

func (c *accumulator) result() (value.Value, error) {
	switch {
	case c.fn == "COUNT":
		return value.NewInt(c.n), nil
	case c.n == 0:
		return value.NewNull(), nil
	case c.fn == "MIN" || c.fn == "MAX":
		return c.best, nil
	case c.floats && c.fn == "SUM":
		return value.NewFloat(c.fsum), nil
	case c.floats:
		return value.NewFloat(c.fsum / float64(c.n)), nil
	case c.overflow:
		return value.Value{}, fmt.Errorf("%s: integer overflow", c.fn)
	case c.fn == "SUM":
		return value.NewInt(c.isum), nil
	}
	return value.NewFloat(float64(c.isum) / float64(c.n)), nil
}
