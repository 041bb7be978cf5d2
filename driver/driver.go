// Package driver provides a database/sql driver for Preference SQL — the
// Go analogue of the paper's "Preference ODBC/JDBC driver" (§3.1): a
// standard driver API placed in front of the Preference SQL optimizer so
// existing applications keep their database/sql code and gain the
// PREFERRING / GROUPING / BUT ONLY clauses for free. Plain SQL passes
// through to the engine without noticeable overhead, preference queries go
// through the preference layer.
//
// Usage:
//
//	import (
//	    "database/sql"
//	    _ "repro/driver"
//	)
//	db, _ := sql.Open("prefsql", "mydb")      // named shared instance
//	db2, _ := sql.Open("prefsql", ":memory:") // private instance
//
// Positional '?' (or '$n') placeholders are real bind parameters: the
// statement is parsed once with ast.Param placeholder nodes, arguments
// travel out-of-band, and a prepared statement re-executes its cached
// plan across distinct argument values. Statements the Preference SQL
// grammar cannot parameterize fall back to literal substitution (see
// BindLiteral) so no previously-working query breaks.
//
// The driver implements QueryerContext / ExecerContext /
// StmtQueryContext / StmtExecContext: context cancellation propagates
// into the engine and stops in-flight scans.
package driver

import (
	"context"
	"database/sql"
	"database/sql/driver"
	"errors"
	"fmt"
	"io"
	"sync"

	"repro/internal/core"
	"repro/internal/lexer"
	"repro/internal/parser"
	"repro/internal/value"
)

func init() {
	sql.Register("prefsql", Default)
}

// Default is the driver instance registered under the name "prefsql".
var Default = &Driver{}

// Driver implements driver.Driver. Data source names select a shared
// named in-memory database; the special name ":memory:" yields a fresh
// private database per Open call.
type Driver struct {
	mu  sync.Mutex
	dbs map[string]*core.DB
}

// Open implements driver.Driver. Connections share the database's
// default session: database/sql treats pooled connections as fungible,
// and DB(name).DefaultSession() is the documented way to switch a
// driver-served instance between native and rewrite execution.
func (d *Driver) Open(name string) (driver.Conn, error) {
	if name == ":memory:" {
		db := core.Open()
		return &conn{db: db, sess: db.DefaultSession()}, nil
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.dbs == nil {
		d.dbs = map[string]*core.DB{}
	}
	db, ok := d.dbs[name]
	if !ok {
		db = core.Open()
		d.dbs[name] = db
	}
	return &conn{db: db, sess: db.DefaultSession()}, nil
}

// DB exposes the named shared instance so tests and embedders can reach
// the underlying preference database (e.g. to switch execution modes).
func (d *Driver) DB(name string) *core.DB {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.dbs[name]
}

type conn struct {
	db   *core.DB
	sess *core.Session
}

// Prepare implements driver.Conn: the statement parses once (placeholder
// nodes included) and every execution re-binds fresh arguments; a plain
// single SELECT additionally caches its plan. Statements whose
// placeholders sit where the grammar cannot carry a parameter keep the
// literal-substitution fallback.
func (c *conn) Prepare(query string) (driver.Stmt, error) {
	prep, err := c.db.Prepare(query)
	if err != nil {
		// Parse failed. If the text carries placeholders, keep it as a
		// literal-substitution statement — binding may produce a parseable
		// text; if not, the substituted parse error surfaces at execution.
		n, cerr := CountPlaceholders(query)
		if cerr != nil || n == 0 {
			return nil, err
		}
		return &stmt{conn: c, query: query, numInput: n}, nil
	}
	return &stmt{conn: c, query: query, prep: prep, numInput: prep.NumParams}, nil
}

// PrepareContext implements driver.ConnPrepareContext (parsing is
// in-memory and quick; the context is not consulted).
func (c *conn) PrepareContext(_ context.Context, query string) (driver.Stmt, error) {
	return c.Prepare(query)
}

// Close implements driver.Conn (in-memory: nothing to release).
func (c *conn) Close() error { return nil }

// Begin implements driver.Conn. The engine executes statements atomically
// but has no multi-statement transactions; Begin returns a no-op Tx so
// database/sql code using transactions still runs.
func (c *conn) Begin() (driver.Tx, error) { return noopTx{}, nil }

type noopTx struct{}

func (noopTx) Commit() error   { return nil }
func (noopTx) Rollback() error { return nil }

// isParseError reports whether err happened while lexing/parsing — i.e.
// before any statement executed.
func isParseError(err error) bool {
	var pe *parser.Error
	var le *lexer.Error
	return errors.As(err, &pe) || errors.As(err, &le)
}

// run executes query with real bind arguments, falling back to literal
// substitution when the parameterized form does not parse. The fallback
// fires ONLY on parse errors: parsing happens before any statement runs,
// so retrying is side-effect free — a runtime failure halfway through a
// script must surface as-is, never re-run with literals spliced in.
func (c *conn) run(ctx context.Context, query string, vals []value.Value) (*core.Result, error) {
	res, err := c.sess.ExecValues(ctx, query, vals)
	if err == nil || len(vals) == 0 || !isParseError(err) {
		return res, err
	}
	sub, serr := BindLiteral(query, vals)
	if serr != nil {
		return nil, err // surface the parameterized error, it names the real problem
	}
	res, serr = c.sess.ExecValues(ctx, sub, nil)
	if serr != nil {
		return nil, err
	}
	return res, nil
}

// QueryContext implements driver.QueryerContext: the one-shot query path,
// no Prepare round trip.
func (c *conn) QueryContext(ctx context.Context, query string, named []driver.NamedValue) (driver.Rows, error) {
	vals, err := namedToValues(named)
	if err != nil {
		return nil, err
	}
	res, err := c.run(ctx, query, vals)
	if err != nil {
		return nil, err
	}
	return &rows{res: res}, nil
}

// ExecContext implements driver.ExecerContext.
func (c *conn) ExecContext(ctx context.Context, query string, named []driver.NamedValue) (driver.Result, error) {
	vals, err := namedToValues(named)
	if err != nil {
		return nil, err
	}
	res, err := c.run(ctx, query, vals)
	if err != nil {
		return nil, err
	}
	return result{affected: int64(res.Affected)}, nil
}

type stmt struct {
	conn     *conn
	query    string
	prep     *core.Prepared // nil → literal-substitution fallback
	numInput int
}

// Close implements driver.Stmt.
func (s *stmt) Close() error { return nil }

// NumInput implements driver.Stmt.
func (s *stmt) NumInput() int { return s.numInput }

func (s *stmt) exec(ctx context.Context, vals []value.Value) (*core.Result, error) {
	if s.prep != nil {
		res, _, err := s.conn.sess.ExecPreparedArgs(ctx, s.prep, vals)
		return res, err
	}
	sqlText, err := BindLiteral(s.query, vals)
	if err != nil {
		return nil, err
	}
	return s.conn.sess.ExecValues(ctx, sqlText, nil)
}

// Exec implements driver.Stmt.
func (s *stmt) Exec(args []driver.Value) (driver.Result, error) {
	return s.execCtx(context.Background(), args)
}

// ExecContext implements driver.StmtExecContext.
func (s *stmt) ExecContext(ctx context.Context, named []driver.NamedValue) (driver.Result, error) {
	vals, err := namedToValues(named)
	if err != nil {
		return nil, err
	}
	res, err := s.exec(ctx, vals)
	if err != nil {
		return nil, err
	}
	return result{affected: int64(res.Affected)}, nil
}

func (s *stmt) execCtx(ctx context.Context, args []driver.Value) (driver.Result, error) {
	vals, err := driverToValues(args)
	if err != nil {
		return nil, err
	}
	res, err := s.exec(ctx, vals)
	if err != nil {
		return nil, err
	}
	return result{affected: int64(res.Affected)}, nil
}

// Query implements driver.Stmt.
func (s *stmt) Query(args []driver.Value) (driver.Rows, error) {
	vals, err := driverToValues(args)
	if err != nil {
		return nil, err
	}
	res, err := s.exec(context.Background(), vals)
	if err != nil {
		return nil, err
	}
	return &rows{res: res}, nil
}

// QueryContext implements driver.StmtQueryContext.
func (s *stmt) QueryContext(ctx context.Context, named []driver.NamedValue) (driver.Rows, error) {
	vals, err := namedToValues(named)
	if err != nil {
		return nil, err
	}
	res, err := s.exec(ctx, vals)
	if err != nil {
		return nil, err
	}
	return &rows{res: res}, nil
}

type result struct {
	affected int64
}

// LastInsertId implements driver.Result; the engine has no rowids.
func (result) LastInsertId() (int64, error) {
	return 0, fmt.Errorf("prefsql: LastInsertId is not supported")
}

// RowsAffected implements driver.Result.
func (r result) RowsAffected() (int64, error) { return r.affected, nil }

type rows struct {
	res *core.Result
	pos int
}

// Columns implements driver.Rows.
func (r *rows) Columns() []string { return r.res.Columns }

// Close implements driver.Rows.
func (r *rows) Close() error { return nil }

// Next implements driver.Rows.
func (r *rows) Next(dest []driver.Value) error {
	if r.pos >= len(r.res.Rows) {
		return io.EOF
	}
	row := r.res.Rows[r.pos]
	r.pos++
	for i, v := range row {
		dest[i] = toDriverValue(v)
	}
	return nil
}

// ---------------------------------------------------------------------------
// Value conversions
// ---------------------------------------------------------------------------

func toDriverValue(v value.Value) driver.Value {
	switch v.K {
	case value.Null:
		return nil
	case value.Int:
		return v.I
	case value.Float:
		return v.F
	case value.Text:
		return v.S
	case value.Bool:
		return v.I != 0
	case value.Date:
		return v.Time()
	}
	return nil
}

// namedToValues converts database/sql's argument form. Only positional
// (ordinal) arguments are supported — the SQL dialect has no named
// parameters.
func namedToValues(named []driver.NamedValue) ([]value.Value, error) {
	if len(named) == 0 {
		return nil, nil
	}
	out := make([]value.Value, len(named))
	for _, nv := range named {
		if nv.Name != "" {
			return nil, fmt.Errorf("prefsql: named parameter %q is not supported (use positional '?')", nv.Name)
		}
		if nv.Ordinal < 1 || nv.Ordinal > len(named) {
			return nil, fmt.Errorf("prefsql: argument ordinal %d out of range", nv.Ordinal)
		}
		v, err := value.FromGo(nv.Value)
		if err != nil {
			return nil, fmt.Errorf("prefsql: %w", err)
		}
		out[nv.Ordinal-1] = v
	}
	return out, nil
}

func driverToValues(args []driver.Value) ([]value.Value, error) {
	if len(args) == 0 {
		return nil, nil
	}
	out := make([]value.Value, len(args))
	for i, a := range args {
		v, err := value.FromGo(a)
		if err != nil {
			return nil, fmt.Errorf("prefsql: %w", err)
		}
		out[i] = v
	}
	return out, nil
}
