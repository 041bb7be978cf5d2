package exec

import (
	"strings"

	"repro/internal/bmo"
	"repro/internal/expr"
	"repro/internal/plan"
	"repro/internal/value"
)

// rowStream is the common pull shape of bmo.Stream (score-ordered
// progressive skyline) and bmo.ParallelStream (partition-merge
// progressive skyline).
type rowStream interface {
	Next() (value.Row, bool, error)
}

// BMOOp evaluates the Best-Matches-Only set of its input. The input is
// materialized at Open (dominance is a property of the whole candidate
// set); the output streams. In progressive mode undominated tuples are
// emitted as soon as they are known maximal, so a consumer that stops
// pulling (TOP-k, first result page) saves the remaining dominance
// comparisons — the pipelined form of bmo.EvaluateProgressive.
//
// Parallel evaluation (explicit plan.BMO.Algo Parallel, or Auto over at
// least bmo.AutoParallelThreshold actual input rows) shares the
// statement's cancellation hook (Env.Stop) with every worker, so
// cancelling the context stops every partition and merge goroutine.
type BMOOp struct {
	node   *plan.BMO
	child  Operator
	scan   *seqScan // the operator of node.VecScan; nil without one
	env    *Env
	ns     *NodeStats // per-node instrumentation slot; nil when recording is off
	input  []value.Row
	stream rowStream   // progressive mode
	buf    []value.Row // batch mode
	pos    int
}

// Schema implements Operator.
func (b *BMOOp) Schema() plan.Schema { return b.node.Schema() }

// config assembles the parallel-evaluation settings from the plan node
// and the statement environment.
func (b *BMOOp) config() bmo.Config {
	cfg := bmo.Config{Workers: b.node.Workers}
	if b.env != nil {
		cfg.Stop = b.env.Stop
	}
	return cfg
}

// semiFilter restricts the materialized input to rows with at least one
// join partner: it drains the plan node of the join's other input and
// keeps only rows whose local key hashes into the partner key set, with
// the hash join's key semantics (NULL keys never match). This is the
// partner filter that makes a whole-preference pushdown below an
// equi-join exact — a tuple dominated only by partner-less tuples
// survives, exactly as it would in BMO over the full join result.
func (b *BMOOp) semiFilter() error {
	// The partner drain re-executes a subtree the join itself will
	// execute; detach its work counters so RowsScanned/JoinInputRows
	// keep counting each operator's real consumption exactly once
	// (cancellation still threads through the shared Stop hook).
	env := b.env
	if env != nil {
		detached := *env
		detached.Stats = &Stats{}
		env = &detached
	}
	src, err := Build(b.node.SemiSource, env)
	if err != nil {
		return err
	}
	rows, err := Drain(src)
	if err != nil {
		return err
	}
	partners := make(map[string]bool, len(rows))
	for _, r := range rows {
		if v := r[b.node.SemiSourceCol]; !v.IsNull() {
			partners[joinKey(v)] = true
		}
	}
	kept := b.input[:0:0]
	for _, r := range b.input {
		if v := r[b.node.SemiLocalCol]; !v.IsNull() && partners[joinKey(v)] {
			kept = append(kept, r)
		}
	}
	b.ns.AddSemiDropped(int64(len(b.input) - len(kept)))
	b.input = kept
	return nil
}

// padRows prepends pad NULL columns to every row, aligning a right join
// input with the full join schema the preference getters were compiled
// against. stripPad removes them again before rows re-enter the join.
func padRows(rows []value.Row, pad int) []value.Row {
	if pad == 0 {
		return rows
	}
	out := make([]value.Row, len(rows))
	for i, r := range rows {
		p := make(value.Row, pad+len(r))
		copy(p[pad:], r)
		out[i] = p
	}
	return out
}

func stripPad(rows []value.Row, pad int) []value.Row {
	if pad == 0 {
		return rows
	}
	out := make([]value.Row, len(rows))
	for i, r := range rows {
		out[i] = r[pad:]
	}
	return out
}

// Open drains the child and prepares either the progressive stream or the
// batch result.
func (b *BMOOp) Open() error {
	if err := b.child.Open(); err != nil {
		return err
	}
	b.input, b.buf, b.stream, b.pos = nil, nil, nil, 0
	for {
		row, err := b.child.Next()
		if err != nil {
			return err
		}
		if row == nil {
			break
		}
		b.input = append(b.input, row)
	}
	if b.node.SemiSource != nil {
		if err := b.semiFilter(); err != nil {
			return err
		}
	}
	if b.env != nil {
		b.env.count().AddBMOInputRows(int64(len(b.input)))
	}
	b.ns.AddInputRows(int64(len(b.input)))
	// Vectorized physical operator (planner-selected, root nodes only —
	// never combined with pushdown padding, grouping or streaming).
	if b.node.VecCols != nil {
		return b.openVectorized()
	}
	// Group-wise pre-filter (split pushdown below an equi-join):
	// dominance runs among rows sharing a join-key value. Pre-filters
	// are always batch nodes — they sit below a join that materializes
	// anyway.
	if len(b.node.Grouping) > 0 {
		return b.openGrouped()
	}
	if b.node.GroupCol >= 0 {
		eval := padRows(b.input, b.node.Pad)
		gcol := b.node.Pad + b.node.GroupCol
		key := func(r value.Row) (string, error) {
			v := r[gcol]
			if v.IsNull() {
				// NULL keys never join; group them together so their
				// mutual dominance work is wasted on nothing larger.
				return "\x00null", nil
			}
			return joinKey(v), nil
		}
		out, err := bmo.EvaluateGroupedConfig(b.node.Pref, eval, key, b.node.Algo, b.config())
		if err != nil {
			return err
		}
		b.buf = stripPad(out, b.node.Pad)
		return nil
	}
	if b.node.Progressive {
		// An explicitly selected parallel algorithm streams any
		// preference through the partition-merge stream (local skylines
		// computed concurrently; score-based preferences still emerge
		// best-first, others in partition order). The Auto path keeps
		// the sequential stream: the pull loop is consumer-paced, so a
		// consumer that stops early saves the partition work.
		if b.node.Algo == bmo.Parallel {
			s, err := bmo.NewParallelStream(b.node.Pref, b.input, b.config())
			if err != nil {
				return err
			}
			b.stream = s
			return nil
		}
		// NewStreamConfig so CASCADE prestages honor the statement's
		// worker cap (incl. the core layer's forced Workers=1 for
		// subquery-bearing preferences) and its Stop hook.
		s, err := bmo.NewStreamConfig(b.node.Pref, b.input, b.config())
		if err != nil {
			return err
		}
		b.stream = s
		return nil
	}
	eval := padRows(b.input, b.node.Pad)
	out, _, err := bmo.EvaluateConfig(b.node.Pref, eval, b.node.Algo, b.config())
	if err != nil {
		return err
	}
	b.buf = stripPad(out, b.node.Pad)
	return nil
}

// openGrouped evaluates the query's GROUPING clause: BMO within each
// group of equal key values, with the node's algorithm as given.
func (b *BMOOp) openGrouped() error {
	keys := b.node.GroupKeys()
	var rt *expr.Runtime
	if b.env != nil {
		rt = b.env.Rt
	}
	key := func(row value.Row) (string, error) {
		var sb strings.Builder
		for _, k := range keys {
			v, err := k.Eval(rt, row)
			if err != nil {
				return "", err
			}
			sb.WriteString(v.Key())
			sb.WriteByte(0x1f)
		}
		return sb.String(), nil
	}
	out, err := bmo.EvaluateGroupedConfig(b.node.Pref, b.input, key, b.node.Algo, b.config())
	b.buf = out
	return err
}

// Next implements Operator.
func (b *BMOOp) Next() (value.Row, error) {
	if b.stream != nil {
		row, ok, err := b.stream.Next()
		if err != nil || !ok {
			return nil, err
		}
		if b.env != nil {
			b.env.count().AddBMOOutputRows(1)
		}
		return row, nil
	}
	if b.pos >= len(b.buf) {
		return nil, nil
	}
	row := b.buf[b.pos]
	b.pos++
	if b.env != nil {
		b.env.count().AddBMOOutputRows(1)
	}
	return row, nil
}

// Close implements Operator.
func (b *BMOOp) Close() error { return b.child.Close() }

// Input returns the materialized candidate relation (valid after Open); the
// quality functions (TOP/LEVEL/DISTANCE) of the tail above need it to
// compute candidate-relative distances for LOWEST/HIGHEST.
func (b *BMOOp) Input() []value.Row { return b.input }
