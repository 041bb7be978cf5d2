package exec

import (
	"strings"

	"repro/internal/bmo"
	"repro/internal/expr"
	"repro/internal/plan"
	"repro/internal/preference"
	"repro/internal/storage"
	"repro/internal/value"
)

// BMOOp evaluates the Best-Matches-Only set of its input. Dominance is a
// property of the whole candidate set, so Open takes the input whole,
// in one form: a heap and the positions of the candidates in it. Under
// a selection scan these are the scan's captured heap and the positions
// that pass its filter; any other child is drained once into a
// table-less heap, every position a candidate. Every CASCADE stage runs
// through bmo.ReduceStages over positions (see stage), each group of a
// GROUPING or group-wise pre-filter on its own, and the output streams:
// the winners' rows are fetched as Next returns them. In progressive
// mode the last stage is a bmo.Stream, so undominated tuples are emitted
// as soon as they are known maximal, and a consumer that stops pulling
// (TOP-k, first result page) saves the remaining dominance comparisons.
//
// Parallel evaluation (explicit plan.BMO.Algo Parallel, or Auto over at
// least bmo.AutoParallelThreshold actual candidates) shares the
// statement's cancellation hook (Env.Stop) with every worker, so
// cancelling the context stops every partition and merge goroutine.
type BMOOp struct {
	node  *plan.BMO
	child Operator
	// scan is the operator whose selection the BMO takes instead of its
	// child's rows: the scan of a plan.SelectionScan child; nil
	// otherwise.
	scan selector
	env  *Env
	ns   *NodeStats // per-node instrumentation slot; nil when recording is off
	// The candidates are the positions sel of heap. A right-side
	// pushdown's heap holds its input rows padded with node.Pad NULL
	// columns, which preference getters read and row strips again.
	heap storage.Heap
	sel  []int32
	// columnar is set on a vectorized node once it took its scan's
	// selection: its kernels read the heap's column vectors.
	columnar bool
	// vin is the first stage's key matrix when it was filled at every
	// candidate (see scoreMin).
	vin bmo.VecInput
	// The result: the winners' positions out, read from pos on, or in
	// progressive mode the stream of the last stage, whose matrix
	// indices index the positions at.
	out    []int32
	pos    int
	stream *bmo.Stream
	at     []int32
	input  []value.Row // the candidates' rows, once Input asked for them
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

// Open takes the child's input and evaluates it: wholly in batch mode,
// up to the last stage's stream in progressive mode.
func (b *BMOOp) Open() error {
	if err := b.child.Open(); err != nil {
		return err
	}
	b.heap, b.sel, b.columnar, b.vin = storage.Heap{}, nil, false, bmo.VecInput{}
	b.out, b.pos, b.stream, b.at, b.input = nil, 0, nil, nil, nil
	if err := b.takeInput(); err != nil {
		return err
	}
	if b.node.SemiSource != nil {
		if err := b.semiFilter(); err != nil {
			return err
		}
	}
	b.countInput(len(b.sel))
	groups, err := b.groups()
	if err != nil {
		return err
	}
	if groups == nil {
		b.out, err = b.reduce(b.sel, b.node.Progressive)
		return err
	}
	// Grouped nodes are batch nodes: a GROUPING query needs the whole
	// result, and a pre-filter sits below a join that materializes
	// anyway.
	for _, g := range groups {
		out, err := b.reduce(g, false)
		if err != nil {
			return err
		}
		b.out = append(b.out, out...)
	}
	return nil
}

// takeInput sets the candidates: a selection scan's selection, or the
// child's rows drained into a table-less heap. A right-side pushdown
// pads the rows it drains, so it drains the scan's rows too.
func (b *BMOOp) takeInput() error {
	if b.scan != nil && b.node.Pad == 0 {
		b.columnar = b.node.Vectorized
		return b.takeSelection()
	}
	var rows []value.Row
	for {
		row, err := b.child.Next()
		if err != nil {
			return err
		}
		if row == nil {
			break
		}
		if pad := b.node.Pad; pad > 0 {
			p := make(value.Row, pad+len(row))
			copy(p[pad:], row)
			row = p
		}
		rows = append(rows, row)
	}
	b.heap = storage.Heap{Rows: rows}
	b.sel = make([]int32, len(rows))
	for i := range b.sel {
		b.sel[i] = int32(i)
	}
	return nil
}

// row returns the input row at heap position p, without the pad.
func (b *BMOOp) row(p int32) value.Row { return b.heap.Rows[p][b.node.Pad:] }

// heapRows returns the heap rows, padded, at the positions at: the rows
// the preference compares.
func (b *BMOOp) heapRows(at []int32) []value.Row {
	rows := make([]value.Row, len(at))
	for i, p := range at {
		rows[i] = b.heap.Rows[p]
	}
	return rows
}

// semiFilter restricts the candidates to rows with at least one join
// partner: it drains the plan node of the join's other input and keeps
// only rows whose local key hashes into the partner key set, with the
// hash join's key semantics (NULL keys never match). This is the
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
	kept := b.sel[:0]
	for _, p := range b.sel {
		if v := b.row(p)[b.node.SemiLocalCol]; !v.IsNull() && partners[joinKey(v)] {
			kept = append(kept, p)
		}
	}
	b.ns.AddSemiDropped(int64(len(b.sel) - len(kept)))
	b.sel = kept
	return nil
}

// groups partitions the candidates by the query's GROUPING keys, or by
// a group-wise pre-filter's join key (split pushdown below an
// equi-join, where dominance runs among rows sharing a join-key value).
// Groups follow first appearance and keep the candidates' order; nil
// means the node groups nothing.
func (b *BMOOp) groups() ([][]int32, error) {
	var key func(value.Row) (string, error)
	switch {
	case len(b.node.Grouping) > 0:
		keys := b.node.GroupKeys()
		var rt *expr.Runtime
		if b.env != nil {
			rt = b.env.Rt
		}
		key = func(row value.Row) (string, error) {
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
	case b.node.GroupCol >= 0:
		key = func(row value.Row) (string, error) {
			v := row[b.node.GroupCol]
			if v.IsNull() {
				// NULL keys never join; group them together so their
				// mutual dominance work is wasted on nothing larger.
				return "\x00null", nil
			}
			return joinKey(v), nil
		}
	default:
		return nil, nil
	}
	index := map[string]int{}
	groups := [][]int32{}
	for _, p := range b.sel {
		k, err := key(b.row(p))
		if err != nil {
			return nil, err
		}
		g, ok := index[k]
		if !ok {
			g = len(groups)
			index[k] = g
			groups = append(groups, nil)
		}
		groups[g] = append(groups[g], p)
	}
	return groups, nil
}

// reduce runs the preference's stages over the positions at and returns
// the winners' positions. Progressive, it opens the last stage's stream
// instead, and returns positions only when the earlier stages stopped
// short of it. A stage under a reference algorithm compares the rows
// themselves; under Auto and Parallel it fills the stage's key matrix
// at the positions and runs the kernel on it.
func (b *BMOOp) reduce(at []int32, progressive bool) ([]int32, error) {
	stages := bmo.Stages(b.node.Pref)
	algo := b.node.Algo
	if progressive && algo != bmo.Parallel {
		algo = bmo.Auto // a stream is the kernel's, sequential unless partitioned
	}
	return bmo.ReduceStages(len(stages), at, &bmo.Stats{}, b.config(), func(k int, at []int32) ([]int32, error) {
		var win []int32
		var err error
		if algo == bmo.NestedLoop || algo == bmo.BlockNestedLoop {
			win, _, err = bmo.Reference(stages[k], b.heapRows(at), algo, b.config())
		} else {
			var in bmo.VecInput
			if in, err = b.fillStage(preference.KeyOf(stages[k]), at); err != nil {
				return nil, err
			}
			if k == 0 && len(at) == len(b.sel) {
				b.vin = in // scoreMin reads the first stage, filled at every candidate
			}
			if progressive && k == len(stages)-1 {
				b.at = at
				b.stream, err = bmo.NewStream(in, algo, b.config())
				return nil, err
			}
			win, err = b.evaluateVec(in, algo)
		}
		for i, w := range win {
			win[i] = at[w]
		}
		return win, err
	})
}

// Next implements Operator.
func (b *BMOOp) Next() (value.Row, error) {
	var p int32
	if b.stream != nil {
		i, ok, err := b.stream.Next()
		if err != nil || !ok {
			return nil, err
		}
		p = b.at[i]
	} else {
		if b.pos >= len(b.out) {
			return nil, nil
		}
		p = b.out[b.pos]
		b.pos++
	}
	if b.env != nil {
		b.env.count().AddBMOOutputRows(1)
	}
	return b.row(p), nil
}

// Close implements Operator.
func (b *BMOOp) Close() error { return b.child.Close() }

// countInput counts the rows entering dominance evaluation.
func (b *BMOOp) countInput(n int) {
	if b.env != nil {
		b.env.count().AddBMOInputRows(int64(n))
	}
	b.ns.AddInputRows(int64(n))
}

// Input returns the candidate relation (valid after Open); the quality
// functions (TOP/LEVEL/DISTANCE) of the tail above need it to compute
// candidate-relative distances for LOWEST/HIGHEST when no key matrix
// holds them (see scoreMin). The rows are fetched from the heap on the
// first call.
func (b *BMOOp) Input() []value.Row {
	if b.input == nil {
		b.input = make([]value.Row, len(b.sel))
		for i, p := range b.sel {
			b.input[i] = b.row(p)
		}
	}
	return b.input
}
