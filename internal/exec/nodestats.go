package exec

import (
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/bmo"
	"repro/internal/plan"
	"repro/internal/value"
)

// Per-operator instrumentation: when a NodeRec is attached to the
// environment, Build wraps every operator in a recorder that accumulates
// rows emitted and cumulative wall time into a NodeStats keyed by the
// operator's plan node. The tree of NodeStats parallels the plan tree,
// so EXPLAIN ANALYZE can render `rows=N time=T` next to each plan line
// and compare the planner's estimate with the actual cardinality.
// Recording is opt-in per statement: with a nil NodeRec the operators
// run unwrapped and pay nothing.

// NodeStats accumulates one operator's runtime work. All fields are
// updated with atomic adds — a recorded subtree may be drained from a
// worker goroutine (the BMO semijoin partner drain, parallel partition
// streams), and EXPLAIN ANALYZE must stay clean under -race.
type NodeStats struct {
	Rows  int64 // rows emitted by Next
	Nanos int64 // cumulative wall time (including children), nanoseconds

	// Operator-specific counters; zero for operators they do not apply to.
	Probes        int64 // index probes answered without a full scan (IndexScan)
	SemiDropped   int64 // input rows dropped by the semijoin partner filter (BMO)
	InputRows     int64 // rows entering dominance evaluation (BMO)
	Eliminated    int64 // rows the elimination pass dropped before the presort (vectorized BMO)
	BlocksScanned int64 // zone-map blocks examined (vectorized BMO)
	BlocksPruned  int64 // zone-map blocks skipped wholesale (vectorized BMO)
}

// AddProbes counts index probes; safe on a nil receiver (recording off).
func (ns *NodeStats) AddProbes(n int64) {
	if ns != nil {
		atomic.AddInt64(&ns.Probes, n)
	}
}

// AddSemiDropped counts rows the semijoin partner filter removed.
func (ns *NodeStats) AddSemiDropped(n int64) {
	if ns != nil {
		atomic.AddInt64(&ns.SemiDropped, n)
	}
}

// AddInputRows counts rows entering dominance evaluation.
func (ns *NodeStats) AddInputRows(n int64) {
	if ns != nil {
		atomic.AddInt64(&ns.InputRows, n)
	}
}

// AddVec counts the vectorized kernel's elimination and zone-map
// activity.
func (ns *NodeStats) AddVec(vst bmo.VecStats) {
	if ns != nil {
		atomic.AddInt64(&ns.Eliminated, int64(vst.Eliminated))
		atomic.AddInt64(&ns.BlocksScanned, int64(vst.BlocksScanned))
		atomic.AddInt64(&ns.BlocksPruned, int64(vst.BlocksPruned))
	}
}

// AddEmitted counts rows an operator handed on without Next (a scan's
// selection taken by a BMO) and the time that took.
func (ns *NodeStats) AddEmitted(rows, nanos int64) {
	if ns != nil {
		atomic.AddInt64(&ns.Rows, rows)
		atomic.AddInt64(&ns.Nanos, nanos)
	}
}

// Snapshot returns a consistent copy of the counters via atomic loads.
func (ns *NodeStats) Snapshot() NodeStats {
	if ns == nil {
		return NodeStats{}
	}
	return NodeStats{
		Rows:          atomic.LoadInt64(&ns.Rows),
		Nanos:         atomic.LoadInt64(&ns.Nanos),
		Probes:        atomic.LoadInt64(&ns.Probes),
		SemiDropped:   atomic.LoadInt64(&ns.SemiDropped),
		InputRows:     atomic.LoadInt64(&ns.InputRows),
		Eliminated:    atomic.LoadInt64(&ns.Eliminated),
		BlocksScanned: atomic.LoadInt64(&ns.BlocksScanned),
		BlocksPruned:  atomic.LoadInt64(&ns.BlocksPruned),
	}
}

// NodeRec collects per-operator statistics for one statement, keyed by
// plan node identity. It is safe for concurrent use.
type NodeRec struct {
	mu sync.Mutex
	m  map[plan.Node]*NodeStats
}

// NewNodeRec returns an empty recorder.
func NewNodeRec() *NodeRec {
	return &NodeRec{m: map[plan.Node]*NodeStats{}}
}

// For returns the stats slot for a plan node, allocating it on first use.
func (r *NodeRec) For(n plan.Node) *NodeStats {
	r.mu.Lock()
	defer r.mu.Unlock()
	ns := r.m[n]
	if ns == nil {
		ns = &NodeStats{}
		r.m[n] = ns
	}
	return ns
}

// Lookup returns the stats slot for a plan node, or nil when the node was
// never built (or the recorder itself is nil).
func (r *NodeRec) Lookup(n plan.Node) *NodeStats {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.m[n]
}

// NodeStats returns the recorder slot for n, or nil when recording is off
// — operators capture it at build time and feed their specific counters
// through the nil-safe Add methods.
func (e *Env) NodeStats(n plan.Node) *NodeStats {
	if e == nil || e.Rec == nil {
		return nil
	}
	return e.Rec.For(n)
}

// wrapStats wraps op in the node recorder when recording is on.
func wrapStats(n plan.Node, op Operator, env *Env) Operator {
	if env == nil || env.Rec == nil {
		return op
	}
	return &statsOp{op: op, st: env.Rec.For(n)}
}

// unwrap strips the node-stats recorder, returning the concrete operator
// — for callers that type-assert on operator types (the quality tail's
// access to BMOOp.Input).
func unwrap(op Operator) Operator {
	for {
		w, ok := op.(*statsOp)
		if !ok {
			return op
		}
		op = w.op
	}
}

// Timing is sampled: reading the clock around every Next call costs
// more than many operators' actual per-row work (two clock reads per
// row per operator tripled a 100k-row scan in the p7 experiment).
// Instead the recorder times Open and the first statsWarmup calls
// exactly — blocking operators (BMO, sort-style children) do their
// real work there — and past the warmup times one call in
// statsSampleEvery, extrapolating the rest at flush time. Row counts
// stay exact.
const (
	statsWarmup      = 2
	statsSampleEvery = 64 // must be a power of two
)

// statsOp decorates an operator with wall-time and row accounting. The
// recorded time is cumulative (it includes the children the wrapped
// operator pulls from), matching the usual EXPLAIN ANALYZE convention.
//
// Accounting is kept in plain local fields and flushed to the shared
// NodeStats on Close: operators are single-consumer (concurrent Next
// would corrupt any operator's cursor state), so the locals need no
// synchronization, while the NodeStats stays atomic because two
// operator instances can map to the same plan node (the semijoin
// partner drain re-executes a subtree the join also runs).
type statsOp struct {
	op Operator
	st *NodeStats

	calls       int64
	rows        int64
	exactNanos  int64 // Open + warmup calls, measured exactly
	sampleNanos int64 // sampled calls past the warmup
	samples     int64
}

func (w *statsOp) Schema() plan.Schema { return w.op.Schema() }

func (w *statsOp) Open() error {
	start := time.Now()
	err := w.op.Open()
	w.exactNanos += int64(time.Since(start))
	return err
}

func (w *statsOp) Next() (value.Row, error) {
	w.calls++
	var row value.Row
	var err error
	switch {
	case w.calls <= statsWarmup:
		start := time.Now()
		row, err = w.op.Next()
		w.exactNanos += int64(time.Since(start))
	case (w.calls-statsWarmup)&(statsSampleEvery-1) == 1:
		start := time.Now()
		row, err = w.op.Next()
		w.sampleNanos += int64(time.Since(start))
		w.samples++
	default:
		row, err = w.op.Next()
	}
	if row != nil {
		w.rows++
	}
	return row, err
}

func (w *statsOp) Close() error {
	w.flush()
	return w.op.Close()
}

// flush publishes the local accounting and re-arms it, so repeated
// Open/Close cycles (a rescanned join inner) accumulate correctly.
func (w *statsOp) flush() {
	if w.rows != 0 {
		atomic.AddInt64(&w.st.Rows, w.rows)
	}
	nanos := w.exactNanos
	if w.samples > 0 {
		nanos += w.sampleNanos * (w.calls - statsWarmup) / w.samples
	}
	if nanos != 0 {
		atomic.AddInt64(&w.st.Nanos, nanos)
	}
	w.calls, w.rows, w.exactNanos, w.sampleNanos, w.samples = 0, 0, 0, 0, 0
}
