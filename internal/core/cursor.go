package core

import (
	"context"
	"fmt"
	"time"

	"repro/internal/ast"
	"repro/internal/exec"
	"repro/internal/parser"
	"repro/internal/plan"
	"repro/internal/value"
)

// Cursor streams the rows of one query by pulling from its plan. Plain
// SELECTs — grouped and aggregate ones included — run directly on the
// engine's operator pipeline; preference queries run their one plan
// (candidate → BMO → BUT ONLY → quality projection) and stream the
// Best-Matches-Only set — progressively, or batch-at-open for shapes
// that need the whole set first (ORDER BY,
// GROUPING, DISTINCT). The rewrite mode has no plan tree; it evaluates
// as a batch and the cursor iterates the buffered result, so every query
// works through it.
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

// Stats exposes the pipeline's work counters (rows scanned, index probes).
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
func bufferCursor(ctx context.Context, res *Result) *Cursor {
	i := 0
	return &Cursor{cols: res.Columns, stats: res.Stats, ctx: ctx, pull: func() (value.Row, error) {
		if i >= len(res.Rows) {
			return nil, nil
		}
		r := res.Rows[i]
		i++
		return r, nil
	}}
}

// openCursor builds the cursor: the statement's plan, opened and pulled
// row by row. strict is the QueryProgressive contract: the preference
// must stream, otherwise error out instead of falling back to batch.
// Rewrite-mode preference queries have no plan tree: they run as a
// batch and the cursor iterates the buffered result. The caller holds
// the read lock.
func (s *Session) openCursor(sel *ast.Select, strict bool, ee execEnv) (*Cursor, error) {
	sel, err := bindSelectLimits(sel, ee.params)
	if err != nil {
		return nil, err
	}
	if !strict && s.rewrites(sel) {
		res, err := s.queryViaRewrite(sel, ee)
		if err != nil {
			return nil, err
		}
		return s.trackCursor(bufferCursor(ee.ctx, res), sel, nil, nil), nil
	}
	form := formCursor
	if strict {
		form = formStrict
	}
	p, err := s.planSelect(sel, ee, form)
	if err != nil {
		return nil, err
	}
	op, err := p.build()
	if err != nil {
		return nil, err
	}
	if err := op.Open(); err != nil {
		return nil, err
	}
	c := &Cursor{cols: p.node.Schema().Names(), stats: p.env.Stats, pull: op.Next, fin: op.Close, ctx: ee.ctx}
	return s.trackCursor(c, sel, p.node, p.env.Rec), nil
}

// trackCursor arms the observability seam on a cursor: when the cursor
// is closed, the statement is recorded exactly once — latency histogram,
// per-kind counter, work-counter flush, LastStats (with the annotated
// plan when per-operator recording was on). Batch-fallback cursors pick
// up the plan the batch path stashed instead.
func (s *Session) trackCursor(c *Cursor, sel *ast.Select, node plan.Node, rec *exec.NodeRec) *Cursor {
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
			s.observeCursor(stmtKind(sel), sel.SQL(), c.emitted, c.stats, planText, time.Since(start))
		}
		return err
	}
	return c
}
