package prefsql

import (
	"context"

	"repro/internal/bmo"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/live"
	"repro/internal/value"
)

// Value is one SQL value of a result row.
type Value = value.Value

// Row is one result tuple.
type Row = value.Row

// Result is the outcome of a statement: result columns and rows for
// queries, the affected-row count for DML.
type Result = engine.Result

// Mode selects how PREFERRING queries execute.
type Mode = core.Mode

// Execution modes: native skyline algorithms or the paper's §3.2
// rewriting to SQL92.
const (
	ModeNative  = core.ModeNative
	ModeRewrite = core.ModeRewrite
)

// Algorithm selects the native BMO algorithm.
type Algorithm = bmo.Algorithm

// Native BMO algorithms (see internal/bmo). Parallel is the
// partition-merge multicore path; Auto uses more than one worker for
// candidate sets of 10k rows or more when more than one CPU is
// available.
const (
	Auto            = bmo.Auto
	NestedLoop      = bmo.NestedLoop
	BlockNestedLoop = bmo.BlockNestedLoop
	Parallel        = bmo.Parallel
)

// DB is an embedded Preference SQL database.
type DB struct {
	core *core.DB
}

// Open creates an empty in-memory Preference SQL database.
func Open() *DB { return &DB{core: core.Open()} }

// Exec parses and runs a ';'-separated SQL script (standard SQL and
// Preference SQL alike) and returns the last statement's result. It is a
// convenience wrapper over ExecContext with a background context and no
// arguments.
func (db *DB) Exec(sql string) (*Result, error) { return db.core.Exec(sql) }

// ExecContext is Exec with a cancellation context and positional bind
// arguments: `?` (or `$n`) placeholders in the script bind to args —
// Go ints, floats, strings, bools, time.Time (date part) and nil —
// and cancelling ctx stops in-flight scans. A parameterized statement
// parses (and, when prepared, plans) once and re-executes with fresh
// argument values.
func (db *DB) ExecContext(ctx context.Context, sql string, args ...any) (*Result, error) {
	return db.core.ExecContext(ctx, sql, args...)
}

// Query runs a single SELECT (standard or Preference SQL) through the
// read-only path: it takes only the shared read lock, so concurrent
// queries never serialize behind the write path. Non-SELECT statements
// are rejected — use Exec for scripts and DML/DDL. It is a convenience
// wrapper over QueryContext.
func (db *DB) Query(sql string) (*Result, error) { return db.core.Query(sql) }

// QueryContext is Query with a cancellation context and bind arguments.
func (db *DB) QueryContext(ctx context.Context, sql string, args ...any) (*Result, error) {
	return db.core.QueryContext(ctx, sql, args...)
}

// MustExec is Exec that panics on error; for examples and tests.
func (db *DB) MustExec(sql string) *Result {
	res, err := db.core.Exec(sql)
	if err != nil {
		panic("prefsql: " + err.Error())
	}
	return res
}

// SetMode switches between native BMO evaluation (default) and SQL92
// rewriting, the commercial middleware's strategy. It configures the
// default session; concurrent clients should use NewSession so they
// cannot flip each other's strategy mid-query.
func (db *DB) SetMode(m Mode) { db.core.DefaultSession().SetMode(m) }

// SetAlgorithm selects the native BMO algorithm (default Auto) on the
// default session.
func (db *DB) SetAlgorithm(a Algorithm) { db.core.DefaultSession().SetAlgorithm(a) }

// SetWorkers caps the parallel BMO worker count on the default session;
// 0 (the default) uses one worker per available CPU. Sessions can also
// set it per client with `SET workers = n`.
func (db *DB) SetWorkers(n int) { db.core.DefaultSession().SetWorkers(n) }

// SetPushdown enables or disables the preference-algebra join pushdown
// on the default session (on by default). Sessions can also set it per
// client with `SET pushdown = on|off`.
func (db *DB) SetPushdown(on bool) { db.core.DefaultSession().SetPushdown(on) }

// Session is a per-client view of a shared database: it carries the
// client's mode and algorithm settings so concurrent clients don't
// interfere, and its queries run concurrently under the shared read lock
// while writes serialize.
type Session = core.Session

// NewSession creates an independent session over this database; see
// Session.
func (db *DB) NewSession() *Session { return db.core.NewSession() }

// ExplainRewrite returns the SQL92 script the Preference SQL optimizer
// would generate for a preference query (§3.2 of the paper).
func (db *DB) ExplainRewrite(sql string) (string, error) {
	plan, err := db.core.RewritePlan(sql)
	if err != nil {
		return "", err
	}
	return plan.Script(), nil
}

// ExplainNative renders the native operator plan of a SELECT — for
// preference queries the candidate pipeline with the BMO node on top,
// including the algorithm, the planner's statistics-derived parallelism
// hint and the session's worker cap.
func (db *DB) ExplainNative(sql string) (string, error) {
	return db.core.ExplainNative(sql)
}

// ExplainAnalyze executes a SELECT and renders its native plan annotated
// with runtime counters: the vectorized BMO node reports its zone-map
// activity (`blocks=N pruned=M`) and a footer line carries the
// statement's row-level work counters.
func (db *DB) ExplainAnalyze(sql string) (string, error) {
	return db.core.ExplainAnalyze(sql)
}

// QueryProgressive streams the Best-Matches-Only result of a preference
// query: yield is called with each row as soon as it is known to be
// maximal (progressive skyline), and may return false to stop early —
// the "first answers immediately" behaviour mobile search needs (§4.2).
// It returns the result column names.
func (db *DB) QueryProgressive(sql string, yield func(Row) bool) ([]string, error) {
	return db.core.QueryProgressive(sql, yield)
}

// QueryProgressiveContext is QueryProgressive with a cancellation context
// and bind arguments; cancelling ctx stops the remaining dominance work
// exactly like yield returning false.
func (db *DB) QueryProgressiveContext(ctx context.Context, sql string, yield func(Row) bool, args ...any) ([]string, error) {
	return db.core.QueryProgressiveContext(ctx, sql, yield, args...)
}

// Rows is a streaming result cursor over the operator pipeline, modelled
// on database/sql.Rows:
//
//	rows, err := db.QueryIter(sql)
//	defer rows.Close()
//	for rows.Next() {
//		use(rows.Row())
//	}
//	err = rows.Err()
type Rows struct {
	c *core.Cursor
}

// QueryIter plans a single SELECT (standard or Preference SQL) and returns
// a cursor that pulls rows through the Volcano-style operator pipeline:
// scans, filters and joins produce rows on demand, and preference queries
// stream their BMO set progressively when the preference is score-based.
// A consumer that stops early (TOP-k, first page) stops plain-SQL scans
// outright and, for preference queries, skips the remaining dominance
// comparisons (the candidate set itself must be read in full — dominance
// is a property of the whole set).
func (db *DB) QueryIter(sql string) (*Rows, error) {
	c, err := db.core.OpenCursor(sql)
	if err != nil {
		return nil, err
	}
	return &Rows{c: c}, nil
}

// QueryIterContext is QueryIter with a cancellation context and bind
// arguments: cancelling ctx stops the pipeline's scans mid-table, Next
// returns false and Err reports ctx's error.
func (db *DB) QueryIterContext(ctx context.Context, sql string, args ...any) (*Rows, error) {
	c, err := db.core.OpenCursorContext(ctx, sql, args...)
	if err != nil {
		return nil, err
	}
	return &Rows{c: c}, nil
}

// Stmt is a prepared statement over an embedded database: the script is
// parsed once (and a plain single SELECT planned once), then re-executed
// with fresh bind arguments — one plan serving every argument set.
type Stmt struct {
	sess *Session
	prep *core.Prepared
}

// Prepare parses a ';'-separated script once for repeated execution on
// the default session.
func (db *DB) Prepare(sql string) (*Stmt, error) {
	prep, err := db.core.Prepare(sql)
	if err != nil {
		return nil, err
	}
	return &Stmt{sess: db.core.DefaultSession(), prep: prep}, nil
}

// SQL returns the statement text.
func (s *Stmt) SQL() string { return s.prep.SQL }

// NumParams reports the statement's positional bind parameter count.
func (s *Stmt) NumParams() int { return s.prep.NumParams }

// Exec re-executes the statement with the given bind arguments.
func (s *Stmt) Exec(args ...any) (*Result, error) {
	return s.ExecContext(context.Background(), args...)
}

// ExecContext is Exec with a cancellation context.
func (s *Stmt) ExecContext(ctx context.Context, args ...any) (*Result, error) {
	vals, err := value.FromGoArgs(args)
	if err != nil {
		return nil, err
	}
	res, _, err := s.sess.ExecPreparedArgs(ctx, s.prep, vals)
	return res, err
}

// Columns returns the result column names.
func (r *Rows) Columns() []string { return r.c.Columns() }

// Next advances to the next row; false at the end of the result or on
// error (check Err).
func (r *Rows) Next() bool { return r.c.Next() }

// Row returns the current row; valid after Next returned true.
func (r *Rows) Row() Row { return r.c.Row() }

// Err returns the first error encountered while streaming.
func (r *Rows) Err() error { return r.c.Err() }

// Close releases the cursor's pipeline; safe to call more than once.
func (r *Rows) Close() error { return r.c.Close() }

// Subscription is a live continuous query: the result set frozen at
// registration (Initial) plus a bounded channel of incremental deltas
// maintained under DML; see DB.Subscribe and package internal/live.
type Subscription = live.Subscription

// Delta is one incremental change to a subscription's result set.
type Delta = live.Delta

// Delta operations.
const (
	// OpAdd: the row entered the live result set.
	OpAdd = live.OpAdd
	// OpRemove: the row left the live result set.
	OpRemove = live.OpRemove
)

// Subscribe registers a continuous query on the default session:
// `SUBSCRIBE SELECT ... FROM t [WHERE ...] [PREFERRING ...]` (the
// SUBSCRIBE keyword is optional in the statement text). The result set
// is maintained incrementally as writers commit — an insert enters the
// live skyline iff undominated, a deletion re-qualifies only the rows
// the leaver dominated — and every change streams on the subscription's
// channel as a +row/-row delta. Cancelling ctx closes the subscription.
// A consumer that falls a full queue behind is evicted
// (Err() == live.ErrSlowConsumer) rather than back-pressuring writers.
func (db *DB) Subscribe(ctx context.Context, sql string, args ...any) (*Subscription, error) {
	return db.core.DefaultSession().Subscribe(ctx, sql, args...)
}

// Internal exposes the underlying query processor for advanced embedding
// (benchmark harness, database/sql driver).
func (db *DB) Internal() *core.DB { return db.core }

// Format renders a result as an aligned text table.
func Format(res *Result) string { return core.FormatResult(res) }
