package exec

import (
	"fmt"
	"math"
	"strings"

	"repro/internal/ast"
	"repro/internal/expr"
	"repro/internal/plan"
	"repro/internal/preference"
	"repro/internal/value"
)

// quality computes the quality functions TOP/LEVEL/DISTANCE of §2.2.3
// for the tail of one preference query (ButOnly and QualityProject share
// one). The registry and the candidate relation come from the BMO
// operator below: for LOWEST/HIGHEST (no a-priori optimum) distances are
// relative to the best value among the candidates; for all other base
// types they are absolute.
type quality struct {
	src       *BMOOp // nil above a gather or a pushed plan
	rt        *expr.Runtime
	minScores map[string]float64 // lazily computed per attribute label
}

// newQuality finds the candidate source of a tail operator's child: a
// ButOnly's quality context is shared, a BMO operator starts a new one.
func newQuality(child Operator, env *Env) *quality {
	switch op := unwrap(child).(type) {
	case *butOnlyOp:
		return op.q
	case *BMOOp:
		return &quality{src: op, rt: env.Rt}
	}
	return &quality{rt: env.Rt}
}

// runtime is the execution's runtime with the quality functions bound
// to row.
func (q *quality) runtime(row value.Row) *expr.Runtime {
	var rt expr.Runtime
	if q.rt != nil {
		rt = *q.rt
	}
	rt.Outer = &qualityFuncs{q: q, row: row}
	return &rt
}

func (q *quality) eval(name string, arg ast.Expr, row value.Row) (value.Value, error) {
	label := arg.SQL()
	var p preference.Preference
	ok := false
	if q.src != nil && q.src.node.Reg != nil {
		p, ok = q.src.node.Reg.Lookup(label)
	}
	if !ok {
		return value.Value{}, fmt.Errorf("%s(%s): no preference on that attribute", name, label)
	}
	if ex, isExplicit := p.(*preference.Explicit); isExplicit {
		lvl, err := ex.Level(row)
		if err != nil {
			return value.Value{}, err
		}
		switch name {
		case "LEVEL":
			return value.NewInt(int64(lvl)), nil
		case "TOP":
			return value.NewBool(lvl == 1), nil
		default:
			return value.Value{}, fmt.Errorf("DISTANCE is undefined for EXPLICIT preferences")
		}
	}
	s, isScored := p.(preference.Scored)
	if !isScored {
		return value.Value{}, fmt.Errorf("%s(%s): unsupported preference type", name, label)
	}
	score, err := s.Score(row)
	if err != nil {
		return value.Value{}, err
	}
	if math.IsInf(score, 1) { // NULL attribute value
		if name == "TOP" {
			return value.NewBool(false), nil
		}
		return value.NewNull(), nil
	}
	dist := score
	if !s.HasOptimum() {
		min, err := q.minScore(label, s)
		if err != nil {
			return value.Value{}, err
		}
		dist = score - min
	}
	switch name {
	case "DISTANCE":
		return value.NewFloat(dist), nil
	case "TOP":
		return value.NewBool(dist == 0), nil
	case "LEVEL":
		if s.Discrete() {
			return value.NewInt(int64(score) + 1), nil
		}
		if dist == 0 {
			return value.NewInt(1), nil
		}
		return value.NewInt(2), nil
	}
	return value.Value{}, fmt.Errorf("unknown quality function %s", name)
}

func (q *quality) minScore(label string, s preference.Scored) (float64, error) {
	if q.minScores == nil {
		q.minScores = map[string]float64{}
	}
	key := strings.ToLower(label)
	if v, ok := q.minScores[key]; ok {
		return v, nil
	}
	min, ok := q.src.scoreMin(s)
	if !ok {
		min = math.Inf(1)
		for _, row := range q.src.Input() {
			sc, err := s.Score(row)
			if err != nil {
				return 0, err
			}
			if sc < min {
				min = sc
			}
		}
	}
	q.minScores[key] = min
	return min, nil
}

// qualityFuncs is the by-name environment of one BMO result row: it binds
// TOP/LEVEL/DISTANCE calls — also those inside a correlated subquery — to
// the quality context, and resolves no columns.
type qualityFuncs struct {
	q   *quality
	row value.Row
}

// Col implements expr.Env.
func (e *qualityFuncs) Col(string, string) (value.Value, bool) { return value.Value{}, false }

// Func implements expr.Env, binding TOP/LEVEL/DISTANCE.
func (e *qualityFuncs) Func(fc *ast.FuncCall) (value.Value, bool, error) {
	switch strings.ToUpper(fc.Name) {
	case "TOP", "LEVEL", "DISTANCE":
		if len(fc.Args) != 1 {
			return value.Value{}, false, fmt.Errorf("%s expects one attribute argument", fc.Name)
		}
		v, err := e.q.eval(strings.ToUpper(fc.Name), fc.Args[0], e.row)
		return v, true, err
	}
	return value.Value{}, false, nil
}

// butOnlyOp executes a plan.ButOnly.
type butOnlyOp struct {
	n     *plan.ButOnly
	child Operator
	q     *quality
}

func (b *butOnlyOp) Schema() plan.Schema { return b.n.Schema() }

func (b *butOnlyOp) Open() error { return b.child.Open() }

func (b *butOnlyOp) Next() (value.Row, error) {
	cond := b.n.CondProg()
	for {
		row, err := b.child.Next()
		if err != nil || row == nil {
			return nil, err
		}
		ok, err := cond.EvalBool(b.q.runtime(row), row)
		if err != nil {
			return nil, err
		}
		if ok {
			return row, nil
		}
	}
}

func (b *butOnlyOp) Close() error { return b.child.Close() }

// qualityProjectOp executes a plan.QualityProject. Projected rows are
// always fresh copies: rows below may be the table's own.
type qualityProjectOp struct {
	n     *plan.QualityProject
	child Operator
	q     *quality

	sorted           []value.Row // ORDER BY: the projected rows, in order
	pos              int
	seen             map[string]bool // DISTINCT
	skipped, emitted int64
}

func (p *qualityProjectOp) Schema() plan.Schema { return p.n.Schema() }

func (p *qualityProjectOp) Open() error {
	p.sorted, p.pos, p.seen, p.skipped, p.emitted = nil, 0, nil, 0, 0
	if p.n.Distinct {
		p.seen = map[string]bool{}
	}
	if err := p.child.Open(); err != nil {
		return err
	}
	if len(p.n.OrderBy) == 0 {
		return nil
	}
	keys := p.n.SortKeys()
	var pairs []sortPair
	for {
		row, err := p.child.Next()
		if err != nil {
			return err
		}
		if row == nil {
			break
		}
		rt := p.q.runtime(row)
		out, err := p.n.Projection().Row(rt, row)
		if err != nil {
			return err
		}
		kv, err := evalKeys(keys, rt, row)
		if err != nil {
			return err
		}
		pairs = append(pairs, sortPair{out: out, keys: kv})
	}
	p.sorted = sortRows(pairs, p.n.OrderBy)
	return nil
}

func (p *qualityProjectOp) Next() (value.Row, error) {
	for {
		if p.n.Limit >= 0 && p.emitted >= p.n.Limit {
			return nil, nil
		}
		var out value.Row
		if len(p.n.OrderBy) > 0 {
			if p.pos >= len(p.sorted) {
				return nil, nil
			}
			out = p.sorted[p.pos]
			p.pos++
		} else {
			row, err := p.child.Next()
			if err != nil || row == nil {
				return nil, err
			}
			if p.seen == nil && p.skipped < p.n.Offset {
				p.skipped++ // no DISTINCT: skip without projecting
				continue
			}
			if out, err = p.n.Projection().Row(p.q.runtime(row), row); err != nil {
				return nil, err
			}
		}
		if p.seen != nil {
			k := out.Key()
			if p.seen[k] {
				continue
			}
			p.seen[k] = true
		}
		if p.skipped < p.n.Offset {
			p.skipped++
			continue
		}
		p.emitted++
		return out, nil
	}
}

func (p *qualityProjectOp) Close() error { return p.child.Close() }
