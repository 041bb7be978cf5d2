package exec

import (
	"sort"
	"strconv"

	"repro/internal/ast"
	"repro/internal/expr"
	"repro/internal/plan"
	"repro/internal/value"
)

type valuesOp struct {
	n      *plan.Values
	env    *Env
	pos    int
	polled int64
}

func newValuesOp(n *plan.Values, env *Env) *valuesOp {
	return &valuesOp{n: n, env: env}
}

func (v *valuesOp) Schema() plan.Schema { return v.n.Schema() }

func (v *valuesOp) Open() error { v.pos = 0; return nil }

func (v *valuesOp) Next() (value.Row, error) {
	if err := v.env.checkStop(&v.polled); err != nil {
		return nil, err
	}
	if v.pos >= len(v.n.Rows) {
		return nil, nil
	}
	row := v.n.Rows[v.pos]
	v.pos++
	v.env.count().AddRowsScanned(1)
	return row, nil
}

func (v *valuesOp) Close() error { return nil }

// ---------------------------------------------------------------------------
// Filter
// ---------------------------------------------------------------------------

type filterOp struct {
	n     *plan.Filter
	child Operator
	env   *Env
	cond  expr.Conds
}

func newFilterOp(n *plan.Filter, child Operator, env *Env) *filterOp {
	return &filterOp{n: n, child: child, env: env, cond: n.Cond()}
}

func (f *filterOp) Schema() plan.Schema { return f.n.Schema() }

func (f *filterOp) Open() error { return f.child.Open() }

func (f *filterOp) Next() (value.Row, error) {
	for {
		row, err := f.child.Next()
		if err != nil || row == nil {
			return nil, err
		}
		keep, err := f.cond.Match(f.env.Rt, row)
		if err != nil {
			return nil, err
		}
		if keep {
			return row, nil
		}
	}
}

func (f *filterOp) Close() error { return f.child.Close() }

// ---------------------------------------------------------------------------
// Joins
// ---------------------------------------------------------------------------

func concatRow(l, r value.Row, rlen int) value.Row {
	row := make(value.Row, 0, len(l)+rlen)
	row = append(row, l...)
	if r != nil {
		row = append(row, r...)
	} else {
		row = row[:len(l)+rlen] // NULL padding for LEFT JOIN
	}
	return row
}

// nlJoin is a nested-loop join: the driving side streams, the inner side is
// materialized at Open and rescanned per driving row. With BuildLeft the
// left input is the materialized one and the right drives (row order then
// follows the right input; the planner only allows that under a sort).
type nlJoin struct {
	n           *plan.Join
	left, right Operator
	env         *Env
	inner       []value.Row
	drive       value.Row
	pos         int
	matched     bool
	on          *expr.Program
	polled      int64
}

func newNLJoin(n *plan.Join, left, right Operator, env *Env) *nlJoin {
	return &nlJoin{n: n, left: left, right: right, env: env, on: n.OnProg()}
}

func (j *nlJoin) Schema() plan.Schema { return j.n.Schema() }

func (j *nlJoin) driving() Operator {
	if j.n.BuildLeft {
		return j.right
	}
	return j.left
}

func (j *nlJoin) Open() error {
	if err := j.left.Open(); err != nil {
		return err
	}
	if err := j.right.Open(); err != nil {
		return err
	}
	src := j.right
	if j.n.BuildLeft {
		src = j.left
	}
	j.inner = nil
	for {
		row, err := src.Next()
		if err != nil {
			return err
		}
		if row == nil {
			break
		}
		j.env.count().AddJoinInputRows(1)
		j.inner = append(j.inner, row)
	}
	j.drive = nil
	return nil
}

func (j *nlJoin) Next() (value.Row, error) {
	rlen := len(j.n.Right.Schema())
	for {
		if j.drive == nil {
			row, err := j.driving().Next()
			if err != nil || row == nil {
				return nil, err
			}
			j.env.count().AddJoinInputRows(1)
			j.drive, j.pos, j.matched = row, 0, false
		}
		for j.pos < len(j.inner) {
			// The inner loop multiplies rows without pulling from a scan,
			// so it needs its own cancellation poll: a large cross join
			// would otherwise be uninterruptible.
			if err := j.env.checkStop(&j.polled); err != nil {
				return nil, err
			}
			in := j.inner[j.pos]
			j.pos++
			var out value.Row
			if j.n.BuildLeft {
				out = concatRow(in, j.drive, rlen)
			} else {
				out = concatRow(j.drive, in, rlen)
			}
			if j.on != nil {
				ok, err := j.on.EvalBool(j.env.Rt, out)
				if err != nil {
					return nil, err
				}
				if !ok {
					continue
				}
			}
			j.matched = true
			return out, nil
		}
		drive := j.drive
		j.drive = nil
		if !j.matched && j.n.Type == ast.LeftJoin {
			return concatRow(drive, nil, rlen), nil
		}
	}
}

func (j *nlJoin) Close() error {
	err := j.left.Close()
	if e := j.right.Close(); err == nil {
		err = e
	}
	return err
}

// joinKey hashes a join-key value with the same equivalence classes as
// value.Compare: all numeric kinds (INT, FLOAT, BOOL, DATE) collapse into
// one numeric namespace, so `a = b` matches across kinds exactly as the
// nested-loop evaluation of the same predicate would. Value.Key() keeps
// kinds apart (right for DISTINCT/GROUP BY) and must not be used here.
func joinKey(v value.Value) string {
	if v.K == value.Text {
		return "\x00s" + v.S
	}
	return "\x00n" + strconv.FormatFloat(v.Num(), 'g', -1, 64)
}

// hashJoin is an equi-join: the build side is hashed at Open, the probe
// side streams. By default (and always for LEFT JOIN) the right input is
// built and the left probes, preserving the engine's output order.
type hashJoin struct {
	n           *plan.Join
	left, right Operator
	env         *Env
	table       map[string][]value.Row
	probe       value.Row
	bucket      []value.Row
	pos         int
	matched     bool
	polled      int64
}

func newHashJoin(n *plan.Join, left, right Operator, env *Env) *hashJoin {
	return &hashJoin{n: n, left: left, right: right, env: env}
}

func (j *hashJoin) Schema() plan.Schema { return j.n.Schema() }

// buildLeft reports whether the left input is the build side.
func (j *hashJoin) buildLeft() bool {
	return j.n.BuildLeft && j.n.Type != ast.LeftJoin
}

func (j *hashJoin) Open() error {
	if err := j.left.Open(); err != nil {
		return err
	}
	if err := j.right.Open(); err != nil {
		return err
	}
	build, bcol := j.right, j.n.RCol
	if j.buildLeft() {
		build, bcol = j.left, j.n.LCol
	}
	j.table = map[string][]value.Row{}
	for {
		row, err := build.Next()
		if err != nil {
			return err
		}
		if row == nil {
			break
		}
		j.env.count().AddJoinInputRows(1)
		if row[bcol].IsNull() {
			continue
		}
		k := joinKey(row[bcol])
		j.table[k] = append(j.table[k], row)
	}
	j.probe, j.bucket, j.pos = nil, nil, 0
	return nil
}

func (j *hashJoin) Next() (value.Row, error) {
	rlen := len(j.n.Right.Schema())
	probeOp, pcol := j.left, j.n.LCol
	if j.buildLeft() {
		probeOp, pcol = j.right, j.n.RCol
	}
	for {
		if err := j.env.checkStop(&j.polled); err != nil {
			return nil, err
		}
		if j.probe == nil {
			row, err := probeOp.Next()
			if err != nil || row == nil {
				return nil, err
			}
			j.env.count().AddJoinInputRows(1)
			j.probe, j.pos, j.matched = row, 0, false
			j.bucket = nil
			if !row[pcol].IsNull() {
				j.bucket = j.table[joinKey(row[pcol])]
			}
		}
		if j.pos < len(j.bucket) {
			in := j.bucket[j.pos]
			j.pos++
			j.matched = true
			if j.buildLeft() {
				return concatRow(in, j.probe, rlen), nil
			}
			return concatRow(j.probe, in, rlen), nil
		}
		probe := j.probe
		j.probe = nil
		if !j.matched && j.n.Type == ast.LeftJoin {
			return concatRow(probe, nil, rlen), nil
		}
	}
}

func (j *hashJoin) Close() error {
	err := j.left.Close()
	if e := j.right.Close(); err == nil {
		err = e
	}
	return err
}

// ---------------------------------------------------------------------------
// Project (with optional ORDER BY), Distinct, Limit
// ---------------------------------------------------------------------------

type projectOp struct {
	n     *plan.Project
	child Operator
	env   *Env
	// through hands the child's rows on unchanged instead of copying them
	// (see buildBMOInput).
	through bool
	// sort mode
	buf []value.Row
	pos int
}

func newProjectOp(n *plan.Project, child Operator, env *Env) *projectOp {
	return &projectOp{n: n, child: child, env: env}
}

func (p *projectOp) Schema() plan.Schema { return p.n.Schema() }

func (p *projectOp) Open() error {
	p.buf, p.pos = nil, 0
	if err := p.child.Open(); err != nil {
		return err
	}
	if len(p.n.OrderBy) == 0 {
		return nil
	}
	// Materializing sort: order expressions may reference projection
	// aliases or source columns, so the keys are computed here, over the
	// output row followed by the source row, rather than in a standalone
	// operator.
	proj, sortKeys := p.n.Projection(), p.n.SortKeys()
	var pairs []sortPair
	var both value.Row // scratch: output row ++ source row
	for {
		row, err := p.child.Next()
		if err != nil {
			return err
		}
		if row == nil {
			break
		}
		out, err := proj.Row(p.env.Rt, row)
		if err != nil {
			return err
		}
		both = append(append(both[:0], out...), row...)
		keys, err := evalKeys(sortKeys, p.env.Rt, both)
		if err != nil {
			return err
		}
		pairs = append(pairs, sortPair{out: out, keys: keys})
	}
	p.buf = sortRows(pairs, p.n.OrderBy)
	return nil
}

// sortPair is one output row with its ORDER BY key values.
type sortPair struct {
	out  value.Row
	keys value.Row
}

// evalKeys computes the ORDER BY key values of one row.
func evalKeys(keys []*expr.Program, rt *expr.Runtime, row value.Row) (value.Row, error) {
	vals := make(value.Row, len(keys))
	for k, key := range keys {
		v, err := key.Eval(rt, row)
		if err != nil {
			return nil, err
		}
		vals[k] = v
	}
	return vals, nil
}

// sortRows stably sorts the pairs by their keys (NULLs first, DESC
// per item) and returns the output rows in that order.
func sortRows(pairs []sortPair, orderBy []ast.OrderItem) []value.Row {
	sort.SliceStable(pairs, func(a, b int) bool {
		for k, ob := range orderBy {
			c := value.CompareNullsFirst(pairs[a].keys[k], pairs[b].keys[k])
			if c == 0 {
				continue
			}
			if ob.Desc {
				return c > 0
			}
			return c < 0
		}
		return false
	})
	out := make([]value.Row, len(pairs))
	for i, pr := range pairs {
		out[i] = pr.out
	}
	return out
}

func (p *projectOp) Next() (value.Row, error) {
	if len(p.n.OrderBy) > 0 {
		if p.pos >= len(p.buf) {
			return nil, nil
		}
		row := p.buf[p.pos]
		p.pos++
		return row, nil
	}
	row, err := p.child.Next()
	if err != nil || row == nil || p.through {
		return row, err
	}
	return p.n.Projection().Row(p.env.Rt, row)
}

func (p *projectOp) Close() error { return p.child.Close() }

type distinctOp struct {
	child Operator
	seen  map[string]bool
}

func (d *distinctOp) Schema() plan.Schema { return d.child.Schema() }

func (d *distinctOp) Open() error {
	d.seen = map[string]bool{}
	return d.child.Open()
}

func (d *distinctOp) Next() (value.Row, error) {
	for {
		row, err := d.child.Next()
		if err != nil || row == nil {
			return nil, err
		}
		k := row.Key()
		if d.seen[k] {
			continue
		}
		d.seen[k] = true
		return row, nil
	}
}

func (d *distinctOp) Close() error { return d.child.Close() }

type limitOp struct {
	child   Operator
	count   int64 // -1 = none
	offset  int64
	skipped int64
	emitted int64
}

func (l *limitOp) Schema() plan.Schema { return l.child.Schema() }

func (l *limitOp) Open() error {
	l.skipped, l.emitted = 0, 0
	return l.child.Open()
}

func (l *limitOp) Next() (value.Row, error) {
	if l.count >= 0 && l.emitted >= l.count {
		return nil, nil
	}
	for {
		row, err := l.child.Next()
		if err != nil || row == nil {
			return nil, err
		}
		if l.skipped < l.offset {
			l.skipped++
			continue
		}
		l.emitted++
		return row, nil
	}
}

func (l *limitOp) Close() error { return l.child.Close() }
