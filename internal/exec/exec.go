// Package exec executes logical plans (internal/plan) with Volcano-style
// pull operators: every operator implements Open/Next/Close and pulls rows
// from its children one at a time. Consumers that stop pulling (LIMIT,
// EXISTS probes, progressive preference queries) terminate the whole
// pipeline early without the inputs ever being fully materialized.
package exec

import (
	"fmt"
	"sync/atomic"

	"repro/internal/expr"
	"repro/internal/plan"
	"repro/internal/value"
)

// Operator is one pull-based executor node. The contract is
// Open → Next* → Close; Next returns (nil, nil) once the input is
// exhausted. Rows returned by Next must not be mutated by callers.
type Operator interface {
	Schema() plan.Schema
	Open() error
	Next() (value.Row, error)
	Close() error
}

// Stats counts work done by a pipeline — the benchmark harness uses it to
// show how many base rows a TOP-k query actually touched. All mutations
// go through the atomic Add methods: a statement's counters may be
// written from parallel or vectorized worker goroutines and read by an
// EXPLAIN ANALYZE running concurrently, so plain increments would race.
// Post-execution readers may access the fields directly; concurrent
// readers use Snapshot.
type Stats struct {
	RowsScanned int64 // rows pulled out of base tables and materialized sources
	IndexProbes int64 // index probes answered without a full scan
	// JoinInputRows counts rows consumed by join operators from both of
	// their inputs — the benchmark harness's "rows entering the join"
	// metric, which the preference-algebra pushdown exists to shrink.
	JoinInputRows int64
	// BMOInputRows counts rows entering dominance evaluation across all
	// BMO operators of the statement (for pushed nodes: after the
	// semijoin partner filter). BMOOutputRows counts the undominated
	// rows those operators emitted.
	BMOInputRows  int64
	BMOOutputRows int64
	// VecBlocksScanned / VecBlocksPruned count the vectorized BMO path's
	// zone-map activity: blocks examined, and blocks skipped wholesale
	// because a frontier member dominated the block's best corner.
	// EXPLAIN ANALYZE renders them as `blocks=N pruned=M`.
	VecBlocksScanned int64
	VecBlocksPruned  int64
}

// AddRowsScanned atomically counts base-table and materialized-source rows.
func (s *Stats) AddRowsScanned(n int64) { atomic.AddInt64(&s.RowsScanned, n) }

// AddIndexProbes atomically counts index probes.
func (s *Stats) AddIndexProbes(n int64) { atomic.AddInt64(&s.IndexProbes, n) }

// AddJoinInputRows atomically counts rows consumed by join operators.
func (s *Stats) AddJoinInputRows(n int64) { atomic.AddInt64(&s.JoinInputRows, n) }

// AddBMOInputRows atomically counts rows entering dominance evaluation.
func (s *Stats) AddBMOInputRows(n int64) { atomic.AddInt64(&s.BMOInputRows, n) }

// AddBMOOutputRows atomically counts undominated rows emitted by BMO nodes.
func (s *Stats) AddBMOOutputRows(n int64) { atomic.AddInt64(&s.BMOOutputRows, n) }

// AddVecBlocks atomically counts the vectorized kernel's zone-map work.
func (s *Stats) AddVecBlocks(scanned, pruned int64) {
	atomic.AddInt64(&s.VecBlocksScanned, scanned)
	atomic.AddInt64(&s.VecBlocksPruned, pruned)
}

// Snapshot returns a consistent copy of the counters via atomic loads —
// safe while operators are still running.
func (s *Stats) Snapshot() Stats {
	if s == nil {
		return Stats{}
	}
	return Stats{
		RowsScanned:      atomic.LoadInt64(&s.RowsScanned),
		IndexProbes:      atomic.LoadInt64(&s.IndexProbes),
		JoinInputRows:    atomic.LoadInt64(&s.JoinInputRows),
		BMOInputRows:     atomic.LoadInt64(&s.BMOInputRows),
		BMOOutputRows:    atomic.LoadInt64(&s.BMOOutputRows),
		VecBlocksScanned: atomic.LoadInt64(&s.VecBlocksScanned),
		VecBlocksPruned:  atomic.LoadInt64(&s.VecBlocksPruned),
	}
}

// Env carries what operators need to run the plan's compiled expressions —
// the execution's runtime (bind parameters, subquery runner, the outer
// correlation environment of the enclosing statement) — and the shared
// work counters.
type Env struct {
	Rt    *expr.Runtime
	Stats *Stats
	// Stop, when non-nil, is polled by the row-producing operators every
	// stopInterval input rows; a non-nil return aborts the pipeline with
	// that error. The engine wires it to the statement's
	// context.Context, so cancelling the context stops scans mid-table
	// rather than only between emitted rows.
	Stop func() error
	// Rec, when non-nil, turns on per-operator instrumentation: Build
	// wraps every operator in a recorder accumulating rows and wall time
	// into the statement's NodeStats tree (see nodestats.go).
	Rec *NodeRec
}

func (e *Env) count() *Stats {
	if e.Stats == nil {
		e.Stats = &Stats{}
	}
	return e.Stats
}

// stopInterval is how many input rows a scan processes between Stop polls:
// frequent enough to bound cancellation latency, rare enough to keep the
// hot loop free of per-row overhead.
const stopInterval = 1024

// checkStop polls the cancellation hook every stopInterval calls; n is the
// operator's local call counter.
func (e *Env) checkStop(n *int64) error {
	*n++
	if e.Stop != nil && *n%stopInterval == 0 {
		return e.Stop()
	}
	return nil
}

// Build compiles a plan tree into an operator tree. With Env.Rec set,
// every operator is wrapped in the per-node statistics recorder.
func Build(n plan.Node, env *Env) (Operator, error) {
	op, err := build(n, env)
	if err != nil {
		return nil, err
	}
	return wrapStats(n, op, env), nil
}

func build(n plan.Node, env *Env) (Operator, error) {
	switch x := n.(type) {
	case *plan.SeqScan:
		return newSeqScan(x, env), nil
	case *plan.IndexScan:
		return newIndexScan(x, env), nil
	case *plan.Values:
		return newValuesOp(x, env), nil
	case *plan.Filter:
		child, err := Build(x.Child, env)
		if err != nil {
			return nil, err
		}
		return newFilterOp(x, child, env), nil
	case *plan.Aggregate:
		child, err := Build(x.Child, env)
		if err != nil {
			return nil, err
		}
		return &aggregateOp{n: x, child: child, env: env}, nil
	case *plan.Join:
		left, err := Build(x.Left, env)
		if err != nil {
			return nil, err
		}
		right, err := Build(x.Right, env)
		if err != nil {
			return nil, err
		}
		if x.LCol >= 0 {
			return newHashJoin(x, left, right, env), nil
		}
		return newNLJoin(x, left, right, env), nil
	case *plan.Project:
		child, err := Build(x.Child, env)
		if err != nil {
			return nil, err
		}
		return newProjectOp(x, child, env), nil
	case *plan.Distinct:
		child, err := Build(x.Child, env)
		if err != nil {
			return nil, err
		}
		return &distinctOp{child: child}, nil
	case *plan.Limit:
		child, err := Build(x.Child, env)
		if err != nil {
			return nil, err
		}
		return &limitOp{child: child, count: x.Count, offset: x.Offset}, nil
	case *plan.BMO:
		child, scan, err := buildBMOInput(x, env)
		if err != nil {
			return nil, err
		}
		return &BMOOp{node: x, child: child, scan: scan, env: env, ns: env.NodeStats(x)}, nil
	case *plan.Gather:
		return &GatherOp{node: x, env: env, ns: env.NodeStats(x)}, nil
	case *plan.ButOnly:
		child, err := Build(x.Child, env)
		if err != nil {
			return nil, err
		}
		return &butOnlyOp{n: x, child: child, q: newQuality(child, env)}, nil
	case *plan.QualityProject:
		child, err := Build(x.Child, env)
		if err != nil {
			return nil, err
		}
		return &qualityProjectOp{n: x, child: child, q: newQuality(child, env)}, nil
	}
	return nil, fmt.Errorf("exec: unsupported plan node %T", n)
}

// buildBMOInput builds the child of a BMO node. A pass-through projection
// there hands its input rows on instead of copying each one: dominance
// only reads its candidates, rows are immutable once stored, and whoever
// returns the few winners to a caller projects (copies) them again. It
// also returns the operator whose selection the BMO takes (see
// BMOOp.scan), if any.
func buildBMOInput(b *plan.BMO, env *Env) (Operator, selector, error) {
	p, ok := b.Child.(*plan.Project)
	if !ok || !p.PassThrough() {
		op, err := Build(b.Child, env)
		return op, nil, err
	}
	child, err := Build(p.Child, env)
	if err != nil {
		return nil, nil, err
	}
	var scan selector
	if s, ok := unwrap(child).(selector); ok {
		if sn, _ := plan.SelectionScan(b.Child); s.node() == sn {
			scan = s
		}
	}
	return wrapStats(p, &projectOp{n: p, child: child, env: env, through: true}, env), scan, nil
}

// Drain opens op, pulls every row and closes it.
func Drain(op Operator) ([]value.Row, error) {
	if err := op.Open(); err != nil {
		return nil, err
	}
	defer op.Close()
	var rows []value.Row
	for {
		row, err := op.Next()
		if err != nil {
			return nil, err
		}
		if row == nil {
			return rows, nil
		}
		rows = append(rows, row)
	}
}
