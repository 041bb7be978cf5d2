package core

import (
	"context"
	"fmt"
	"time"

	"repro/internal/ast"
	"repro/internal/bmo"
	"repro/internal/exec"
	"repro/internal/expr"
	"repro/internal/parser"
	"repro/internal/plan"
	"repro/internal/preference"
	"repro/internal/value"
)

// Cursor streams the rows of one query. Plain SELECTs run directly on the
// engine's operator pipeline; preference queries put a BMO node on top of
// the candidate pipeline and stream the Best-Matches-Only set —
// progressively for score-based preferences, batch-at-open otherwise.
// Shapes that need the whole result first (ORDER BY, GROUPING, DISTINCT,
// grouped/aggregate SQL, rewrite mode) fall back to batch evaluation and
// iterate the buffered result, so every query works through the cursor.
//
// Usage follows database/sql:
//
//	c, err := db.OpenCursor(sql)
//	defer c.Close()
//	for c.Next() {
//		use(c.Row())
//	}
//	err = c.Err()
type Cursor struct {
	cols    []string
	stats   *exec.Stats
	pull    func() (value.Row, error)
	fin     func() error
	row     value.Row
	err     error
	done    bool
	emitted int64           // rows handed to the consumer, for observability
	ctx     context.Context // nil = not cancellable
}

// Columns returns the result column names.
func (c *Cursor) Columns() []string { return c.cols }

// Next advances to the next row; it returns false at the end of the result
// or on error (check Err).
func (c *Cursor) Next() bool {
	if c.done || c.err != nil {
		return false
	}
	if c.ctx != nil {
		if err := c.ctx.Err(); err != nil {
			c.err = err
			c.done = true
			return false
		}
	}
	row, err := c.pull()
	if err != nil {
		c.err = err
		c.done = true
		return false
	}
	if row == nil {
		c.done = true
		return false
	}
	c.row = row
	c.emitted++
	return true
}

// Row returns the current row; valid after Next returned true.
func (c *Cursor) Row() value.Row { return c.row }

// Err returns the first error encountered while streaming.
func (c *Cursor) Err() error { return c.err }

// Close releases the underlying pipeline. It is safe to call twice.
func (c *Cursor) Close() error {
	c.done = true
	if c.fin != nil {
		f := c.fin
		c.fin = nil
		return f()
	}
	return nil
}

// Stats exposes the pipeline's work counters (rows scanned, index probes);
// nil when the cursor fell back to batch evaluation.
func (c *Cursor) Stats() *exec.Stats { return c.stats }

// OpenCursor plans a single SELECT (standard or Preference SQL) and
// returns a streaming cursor over its result, on the default session.
func (db *DB) OpenCursor(sql string) (*Cursor, error) { return db.def.OpenCursor(sql) }

// OpenCursorContext is OpenCursor on the default session with a
// cancellation context and bind arguments.
func (db *DB) OpenCursorContext(ctx context.Context, sql string, args ...any) (*Cursor, error) {
	return db.def.OpenCursorContext(ctx, sql, args...)
}

// OpenCursor plans a single SELECT (standard or Preference SQL) and
// returns a streaming cursor over its result.
//
// The shared read lock is held only while the cursor opens — planning
// plus operator Open, where every scan captures its copy-on-write
// storage snapshot. Iteration then runs lock-free against those
// snapshots, so an open cursor never blocks writers (DML may run while
// a cursor streams, even from the same goroutine) and base-table rows
// already captured are immune to later writes. Isolation is per scan,
// not per statement: operators that open scans lazily during iteration
// — a correlated subquery in a predicate, a nested-loop join's inner
// re-open — snapshot at that moment and can observe writes committed
// mid-stream. A batch Query/Exec holds the read lock for the whole
// statement and is fully consistent.
func (s *Session) OpenCursor(sql string) (*Cursor, error) {
	return s.OpenCursorContext(context.Background(), sql)
}

// OpenCursorContext is OpenCursor with a cancellation context and
// positional bind arguments: cancelling ctx stops the pipeline's scans
// mid-table and makes Next return false with Err() = ctx.Err().
func (s *Session) OpenCursorContext(ctx context.Context, sql string, args ...any) (*Cursor, error) {
	vals, err := value.FromGoArgs(args)
	if err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	return s.OpenCursorValues(ctx, sql, vals)
}

// OpenCursorValues is OpenCursorContext with pre-converted argument
// values.
func (s *Session) OpenCursorValues(ctx context.Context, sql string, args []value.Value) (*Cursor, error) {
	sel, nparams, err := parser.ParseSelectCount(sql)
	if err != nil {
		return nil, err
	}
	if err := checkArgCount(nparams, args); err != nil {
		return nil, err
	}
	return s.openCursorPinned(sel, false, execEnv{ctx: ctx, params: args})
}

// OpenCursorSelect is OpenCursor for an already-parsed SELECT (the
// server's path for cached statements). The statement must not be
// mutated by the caller while the cursor is open.
func (s *Session) OpenCursorSelect(sel *ast.Select) (*Cursor, error) {
	return s.openCursorPinned(sel, false, bgEnv)
}

// OpenCursorSelectArgs is OpenCursorSelect with a cancellation context
// and bind arguments (the server's parameterized Execute/Query path).
func (s *Session) OpenCursorSelectArgs(ctx context.Context, sel *ast.Select, args []value.Value) (*Cursor, error) {
	return s.openCursorPinned(sel, false, execEnv{ctx: ctx, params: args})
}

// openCursorPinned builds the cursor under the shared read lock, so the
// open — where scans capture their snapshots — cannot interleave with a
// write statement. The lock is released before the cursor is returned.
func (s *Session) openCursorPinned(sel *ast.Select, strict bool, ee execEnv) (*Cursor, error) {
	s.db.stmtMu.RLock()
	defer s.db.stmtMu.RUnlock()
	return s.openCursor(sel, strict, ee)
}

// bufferCursor iterates an already-materialized result.
func bufferCursor(cols []string, rows []value.Row) *Cursor {
	i := 0
	return &Cursor{cols: cols, pull: func() (value.Row, error) {
		if i >= len(rows) {
			return nil, nil
		}
		r := rows[i]
		i++
		return r, nil
	}}
}

// openCursor builds the cursor. strict is the QueryProgressive contract:
// the preference must be score-based and stream, otherwise error out
// instead of falling back to batch. The caller holds the read lock.
func (s *Session) openCursor(sel *ast.Select, strict bool, ee execEnv) (*Cursor, error) {
	db := s.db
	sel, err := bindSelectLimits(sel, ee.params)
	if err != nil {
		return nil, err
	}
	if table, dist, derr := db.distSelectTable(sel); derr != nil {
		return nil, derr
	} else if dist {
		return s.openDistCursor(sel, table, strict, ee)
	}
	if !sel.HasPreference() {
		if sel.ButOnly != nil || len(sel.Grouping) > 0 {
			return nil, fmt.Errorf("core: GROUPING and BUT ONLY require a PREFERRING clause")
		}
		pipe, err := db.eng.PipelineArgs(ee.ctx, sel, ee.params)
		if err != nil {
			// Grouped/aggregate queries materialize in the engine; iterate
			// the buffered result (plan errors re-surface identically).
			res, rerr := db.eng.SelectArgs(ee.ctx, sel, ee.params)
			if rerr != nil {
				return nil, rerr
			}
			c := bufferCursor(res.Columns, res.Rows)
			c.stats = res.Stats
			return s.trackCursor(c, "select", sel, nil, nil), nil
		}
		var rec *exec.NodeRec
		if s.RecordNodeStats() {
			rec = pipe.EnableNodeStats()
		}
		op, err := pipe.Build(nil)
		if err != nil {
			return nil, err
		}
		if err := op.Open(); err != nil {
			return nil, err
		}
		names := make([]string, 0, len(pipe.Columns()))
		for _, c := range pipe.Columns() {
			names = append(names, c.Name)
		}
		c := &Cursor{cols: names, stats: pipe.Stats(), pull: op.Next, fin: op.Close, ctx: ee.ctx}
		return s.trackCursor(c, "select", sel, pipe.Node(), rec), nil
	}
	return s.openPreferenceCursor(sel, strict, ee)
}

// trackCursor arms the observability seam on a cursor: when the cursor
// is closed, the statement is recorded exactly once — latency histogram,
// per-kind counter, work-counter flush, LastStats (with the annotated
// plan when per-operator recording was on). Batch-fallback cursors pick
// up the plan the batch path stashed instead.
func (s *Session) trackCursor(c *Cursor, kind string, sel *ast.Select, node plan.Node, rec *exec.NodeRec) *Cursor {
	start := time.Now()
	fin := c.fin
	recorded := false
	c.fin = func() error {
		var err error
		if fin != nil {
			err = fin()
		}
		if !recorded {
			recorded = true
			planText := ""
			if rec != nil && node != nil {
				planText = annotatePlan(node, rec)
			} else if p := s.pendingPlan.Swap(nil); p != nil {
				planText = *p
			}
			s.observeCursor(kind, sel.SQL(), c.emitted, c.stats, planText, time.Since(start))
		}
		return err
	}
	return c
}

func (s *Session) openPreferenceCursor(sel *ast.Select, strict bool, ee execEnv) (*Cursor, error) {
	db := s.db
	if len(sel.GroupBy) > 0 || sel.Having != nil {
		return nil, fmt.Errorf("core: GROUP BY/HAVING cannot be combined with PREFERRING")
	}
	resolved, err := db.resolvePrefs(sel.Preferring)
	if err != nil {
		return nil, err
	}
	if resolved != sel.Preferring {
		clone := *sel
		clone.Preferring = resolved
		sel = &clone
	}

	// Result shapes that need the whole BMO set first — and the rewrite
	// execution mode — batch-evaluate and iterate. QueryProgressive (strict)
	// rejects these shapes before getting here.
	if !strict && (len(sel.OrderBy) > 0 || len(sel.Grouping) > 0 || sel.Distinct || s.Mode() == ModeRewrite) {
		res, err := s.queryPreference(sel, ee)
		if err != nil {
			return nil, err
		}
		c := bufferCursor(res.Columns, res.Rows)
		c.ctx = ee.ctx
		c.stats = res.Stats
		return s.trackCursor(c, "pref_select", sel, nil, nil), nil
	}

	pipe, err := db.candidatePipeline(sel, ee)
	if err != nil {
		return nil, err
	}
	var rec *exec.NodeRec
	if s.RecordNodeStats() {
		rec = pipe.EnableNodeStats()
	}
	cols := pipe.Columns()
	binder := newRelBinder(cols, db.eng, ee)
	reg := preference.NewRegistry()
	pref, err := preference.Compile(sel.Preferring, binder, reg)
	if err != nil {
		return nil, err
	}
	// Score-based preferences always stream; under the parallel
	// algorithm any preference streams via the partition-merge stream
	// (strict mode keeps its score-based contract: QueryProgressive on a
	// non-streamable preference still errors unless the session
	// explicitly selected the parallel algorithm).
	progressive := strict || bmo.Streamable(pref) || s.Algorithm() == bmo.Parallel
	root := plan.NewBMO(pipe.Node(), pref, s.Algorithm(), progressive, s.bmoWorkers(sel))
	var node plan.Node = root
	if !strict {
		// QueryProgressive keeps the unpushed plan: its contract is the
		// score-ordered progressive stream over the candidate relation,
		// and its streamability errors must not depend on plan shape.
		// The vectorized selection likewise only applies to the relaxed
		// cursor (it trades the progressive stream for the batch kernel).
		node = s.maybePush(sel, root)
		s.vectorize(sel, root, node)
	}
	op, err := pipe.Build(node)
	if err != nil {
		return nil, err
	}
	if err := op.Open(); err != nil {
		return nil, err // strict mode surfaces the not-score-based error here
	}
	// A pushed plan (whole-preference pushdown) may not have a BMO at
	// the root, and a split residual's input is not the full candidate
	// relation; maybePush keeps quality-function queries unpushed, so
	// candidates are only needed — and only recorded — for the unpushed
	// shape.
	var cand []value.Row
	if bop, ok := exec.Unwrap(op).(*exec.BMOOp); ok && node == plan.Node(root) {
		cand = bop.Input()
	}
	q := &qualityCtx{reg: reg, candidates: cand, binder: binder}
	outCols, pull := prefPull(sel, op, q)
	c := &Cursor{cols: outCols, stats: pipe.Stats(), pull: pull, fin: op.Close, ctx: ee.ctx}
	return s.trackCursor(c, "pref_select", sel, node, rec), nil
}

// prefPull is the streaming tail of a preference query over the opened
// BMO (or gather) operator: BUT ONLY, OFFSET, projection, LIMIT, one row
// per pull.
func prefPull(sel *ast.Select, op exec.Operator, q *qualityCtx) ([]string, func() (value.Row, error)) {
	outCols, project := prefProjector(sel, q)
	var keep func(value.Row) (bool, error)
	if sel.ButOnly != nil {
		keep = q.filter(sel.ButOnly)
	}
	var emitted, skipped int64
	return outCols, func() (value.Row, error) {
		for {
			if sel.Limit >= 0 && emitted >= sel.Limit {
				return nil, nil
			}
			row, err := op.Next()
			if err != nil || row == nil {
				return nil, err
			}
			if keep != nil {
				ok, err := keep(row)
				if err != nil {
					return nil, err
				}
				if !ok {
					continue
				}
			}
			if skipped < sel.Offset {
				skipped++
				continue
			}
			out, err := project(row)
			if err != nil {
				return nil, err
			}
			emitted++
			return out, nil
		}
	}
}

// prefProjector compiles the SELECT list of a preference query into output
// column names and a per-row projection function with the quality functions
// (TOP/LEVEL/DISTANCE) bound. The projected row is always a fresh copy:
// rows below this point may be the table's own.
func prefProjector(sel *ast.Select, q *qualityCtx) ([]string, func(value.Row) (value.Row, error)) {
	proj := expr.CompileProjection(sel.Items, q.binder.scope)
	return proj.Names(), func(row value.Row) (value.Row, error) {
		return proj.Row(q.runtime(row), row)
	}
}
