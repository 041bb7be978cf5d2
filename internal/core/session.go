package core

import (
	"context"
	"fmt"
	"strings"
	"sync/atomic"

	"repro/internal/ast"
	"repro/internal/bmo"
	"repro/internal/parser"
	"repro/internal/value"
)

// execEnv carries one execution's dynamic state through the core layer:
// the cancellation context and the positional bind arguments. The zero
// value (bgEnv) is a non-cancellable execution without arguments — the
// string-only convenience API.
type execEnv struct {
	ctx    context.Context
	params []value.Value
}

var bgEnv = execEnv{}

// checkArgCount enforces the bind contract at the parse boundary: every
// declared parameter gets exactly one argument.
func checkArgCount(nparams int, args []value.Value) error {
	if len(args) != nparams {
		return fmt.Errorf("core: statement has %d bind parameter(s), got %d argument(s)", nparams, len(args))
	}
	return nil
}

// Session is one client's view of a shared DB: it carries the per-client
// execution settings (mode, BMO algorithm) so that concurrent clients of
// the same database cannot flip each other's strategy mid-query, and it
// is the layer that takes the statement locks — read statements share the
// read lock and run concurrently against a consistent snapshot, write
// statements take the exclusive lock and serialize.
//
// A Session is safe for concurrent use (the settings are atomics), but is
// conventionally owned by one client — the server allocates one per
// connection. DB's own Exec/Query methods delegate to a default
// session, preserving the embedded single-client API.
type Session struct {
	db      *DB
	mode    atomic.Int32
	algo    atomic.Int32
	workers atomic.Int32
	// pushoff disables the planner's preference-algebra pushdown for
	// this session (stored inverted so the zero-value session keeps the
	// optimization on).
	pushoff atomic.Bool
	// slowq holds the slow-query threshold in milliseconds plus one, so
	// the zero value means "disabled" while `SET slow_query_ms = 0`
	// (log everything) stays representable.
	slowq atomic.Int64
	// recnodes turns on per-operator node statistics for this session's
	// statements even without a slow-query threshold (prefsql's \stats
	// uses it; EXPLAIN ANALYZE always records regardless).
	recnodes atomic.Bool
	// last is the most recently completed statement's summary; see
	// LastStats (observe.go).
	last atomic.Pointer[StmtStats]
	// pendingPlan carries a statement's node-annotated plan from the
	// execution path to the observe call that completes it.
	pendingPlan atomic.Pointer[string]
}

// NewSession creates a session with default settings (native mode, auto
// algorithm), sharing this database's data with every other session.
func (db *DB) NewSession() *Session { return &Session{db: db} }

// DB returns the shared database this session runs against.
func (s *Session) DB() *DB { return s.db }

// SetMode switches this session between native BMO evaluation and SQL92
// rewriting. Other sessions are unaffected.
func (s *Session) SetMode(m Mode) { s.mode.Store(int32(m)) }

// Mode reports this session's execution mode.
func (s *Session) Mode() Mode { return Mode(s.mode.Load()) }

// SetAlgorithm selects this session's native BMO algorithm.
func (s *Session) SetAlgorithm(a bmo.Algorithm) { s.algo.Store(int32(a)) }

// Algorithm reports this session's native BMO algorithm.
func (s *Session) Algorithm() bmo.Algorithm { return bmo.Algorithm(s.algo.Load()) }

// SetWorkers caps this session's parallel BMO worker count; 0 (the
// default) uses one worker per available CPU.
func (s *Session) SetWorkers(n int) {
	if n < 0 {
		n = 0
	}
	s.workers.Store(int32(n))
}

// Workers reports this session's parallel BMO worker cap (0 = one per
// CPU).
func (s *Session) Workers() int { return int(s.workers.Load()) }

// SetPushdown enables or disables the planner's preference-algebra
// rewrite (pushing BMO evaluation below joins) for this session. It is
// on by default; turning it off pins the unoptimized plan — the
// differential harness and the benchmark baseline use that.
func (s *Session) SetPushdown(on bool) { s.pushoff.Store(!on) }

// Pushdown reports whether the preference-algebra rewrite is enabled.
func (s *Session) Pushdown() bool { return !s.pushoff.Load() }

// SetSlowQueryMillis arms the session's slow-query threshold: completed
// statements taking at least ms milliseconds count toward the slow-query
// metric and (in the server) the structured slow-query log. A negative
// ms disables the threshold (the default).
func (s *Session) SetSlowQueryMillis(ms int64) {
	if ms < 0 {
		s.slowq.Store(0)
		return
	}
	s.slowq.Store(ms + 1)
}

// SlowQueryMillis reports the slow-query threshold in milliseconds, or
// -1 when disabled.
func (s *Session) SlowQueryMillis() int64 { return s.slowq.Load() - 1 }

// SetRecordNodeStats turns on per-operator instrumentation for this
// session's statements: every executed plan records rows and wall time
// per node, and LastStats carries the annotated plan. Off by default —
// the recording costs two clock reads per operator per row.
func (s *Session) SetRecordNodeStats(on bool) { s.recnodes.Store(on) }

// RecordNodeStats reports whether this session's statements record
// per-operator node statistics: explicitly enabled, or implied by an
// armed slow-query threshold (the slow-query log wants the annotated
// plan of the statement it reports).
func (s *Session) RecordNodeStats() bool {
	return s.recnodes.Load() || s.slowq.Load() > 0
}

// StmtReadOnly reports whether a statement only reads data: such
// statements run under the shared read lock, concurrently with each
// other. Everything else (DML, DDL, preference definitions) serializes
// under the exclusive write lock. Preference SELECTs count as reads even
// in rewrite mode: the auxiliary views the rewriting creates carry
// collision-free generated names and only touch the catalog maps, which
// have their own lock. SET statements touch only the executing session's
// own settings (atomics), so they count as reads too — they must not
// bump the write epoch and invalidate every cached plan.
func StmtReadOnly(stmt ast.Stmt) bool {
	switch stmt.(type) {
	case *ast.Select, *ast.Set:
		return true
	}
	return false
}

// applySet executes a `SET name = value` statement against this
// session's settings. Keys mirror the wire protocol's Set message:
// mode (native|rewrite), algorithm (auto|nl|bnl|parallel; sfs,
// bestlevel and vec are aliases of auto), workers (non-negative
// integer, 0 = one per CPU) and pushdown (on|off — the
// preference-algebra join pushdown).
func (s *Session) applySet(st *ast.Set) (*Result, error) {
	key := strings.ToLower(st.Name)
	switch key {
	case "mode":
		switch strings.ToLower(st.Value.String()) {
		case "native":
			s.SetMode(ModeNative)
		case "rewrite":
			s.SetMode(ModeRewrite)
		default:
			return nil, fmt.Errorf("core: unknown mode %s (want native or rewrite)", st.Value.SQL())
		}
	case "algorithm", "algo":
		a, ok := bmo.ParseToken(strings.ToLower(st.Value.String()))
		if !ok {
			return nil, fmt.Errorf("core: unknown algorithm %s (want auto, nl, bnl or parallel)", st.Value.SQL())
		}
		s.SetAlgorithm(a)
	case "workers":
		v, err := value.Coerce(st.Value, value.Int)
		if err != nil || v.IsNull() || v.I < 0 {
			return nil, fmt.Errorf("core: workers requires a non-negative integer, got %s", st.Value.SQL())
		}
		s.SetWorkers(int(v.I))
	case "pushdown":
		switch strings.ToLower(st.Value.String()) {
		case "on", "true", "1":
			s.SetPushdown(true)
		case "off", "false", "0":
			s.SetPushdown(false)
		default:
			return nil, fmt.Errorf("core: pushdown requires on or off, got %s", st.Value.SQL())
		}
	case "slow_query_ms":
		if strings.EqualFold(st.Value.String(), "off") {
			s.SetSlowQueryMillis(-1)
			break
		}
		v, err := value.Coerce(st.Value, value.Int)
		if err != nil || v.IsNull() {
			return nil, fmt.Errorf("core: slow_query_ms requires an integer threshold in milliseconds (negative or 'off' disables), got %s", st.Value.SQL())
		}
		s.SetSlowQueryMillis(v.I)
	case "node_stats":
		switch strings.ToLower(st.Value.String()) {
		case "on", "true", "1":
			s.SetRecordNodeStats(true)
		case "off", "false", "0":
			s.SetRecordNodeStats(false)
		default:
			return nil, fmt.Errorf("core: node_stats requires on or off, got %s", st.Value.SQL())
		}
	default:
		return nil, fmt.Errorf("core: unknown setting %q (want mode, algorithm, workers, pushdown, slow_query_ms or node_stats)", st.Name)
	}
	return &Result{}, nil
}

// Exec parses and runs a ';'-separated script, returning the last
// statement's result. Locks are taken per statement: reads share, writes
// serialize.
func (s *Session) Exec(sql string) (*Result, error) {
	return s.ExecContext(context.Background(), sql)
}

// ExecContext is Exec with a cancellation context and positional bind
// arguments: `?` / `$n` placeholders in the script evaluate to the
// corresponding argument (converted with value.FromGo), and cancelling
// ctx stops in-flight scans. (Waiting for the statement lock itself is
// not interruptible.)
func (s *Session) ExecContext(ctx context.Context, sql string, args ...any) (*Result, error) {
	vals, err := value.FromGoArgs(args)
	if err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	return s.ExecValues(ctx, sql, vals)
}

// ExecValues is ExecContext with pre-converted argument values — the
// typed primitive behind the server and driver layers.
func (s *Session) ExecValues(ctx context.Context, sql string, args []value.Value) (*Result, error) {
	stmts, nparams, err := parser.ParseAllCount(sql)
	if err != nil {
		return nil, err
	}
	if err := checkArgCount(nparams, args); err != nil {
		return nil, err
	}
	ee := execEnv{ctx: ctx, params: args}
	res := &Result{}
	for _, st := range stmts {
		res, err = s.execStmtLocked(st, ee)
		if err != nil {
			return nil, err
		}
	}
	return res, nil
}

// Query runs a single SELECT (standard or Preference SQL) under the
// shared read lock only, so concurrent queries never serialize behind the
// write path. Non-SELECT statements are rejected — use Exec.
func (s *Session) Query(sql string) (*Result, error) {
	return s.QueryContext(context.Background(), sql)
}

// QueryContext is Query with a cancellation context and bind arguments.
func (s *Session) QueryContext(ctx context.Context, sql string, args ...any) (*Result, error) {
	vals, err := value.FromGoArgs(args)
	if err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	return s.QueryValues(ctx, sql, vals)
}

// QueryValues is QueryContext with pre-converted argument values.
func (s *Session) QueryValues(ctx context.Context, sql string, args []value.Value) (*Result, error) {
	sel, nparams, err := parser.ParseSelectCount(sql)
	if err != nil {
		return nil, err
	}
	if err := checkArgCount(nparams, args); err != nil {
		return nil, err
	}
	s.db.stmtMu.RLock()
	defer s.db.stmtMu.RUnlock()
	return s.execStmt(sel, execEnv{ctx: ctx, params: args})
}

// ExecStmt runs one parsed statement under the appropriate lock.
func (s *Session) ExecStmt(stmt ast.Stmt) (*Result, error) {
	return s.execStmtLocked(stmt, bgEnv)
}

// ExecStmtArgs is ExecStmt with a cancellation context and bind
// arguments; the statement must have been parsed with matching
// placeholder positions (no count re-validation happens here).
func (s *Session) ExecStmtArgs(ctx context.Context, stmt ast.Stmt, args []value.Value) (*Result, error) {
	return s.execStmtLocked(stmt, execEnv{ctx: ctx, params: args})
}

func (s *Session) execStmtLocked(stmt ast.Stmt, ee execEnv) (*Result, error) {
	if StmtReadOnly(stmt) {
		s.db.stmtMu.RLock()
		defer s.db.stmtMu.RUnlock()
		return s.execStmt(stmt, ee)
	}
	s.db.stmtMu.Lock()
	defer s.db.stmtMu.Unlock()
	s.db.epoch.Add(1)
	mEpochBumps.Inc()
	return s.execStmt(stmt, ee)
}

// ExecStmts runs a pre-parsed statement list (the server's path for
// cached scripts), locking per statement like Exec.
func (s *Session) ExecStmts(stmts []ast.Stmt) (*Result, error) {
	return s.ExecStmtsArgs(context.Background(), stmts, nil)
}

// ExecStmtsArgs is ExecStmts with a cancellation context and bind
// arguments shared by every statement of the script.
func (s *Session) ExecStmtsArgs(ctx context.Context, stmts []ast.Stmt, args []value.Value) (*Result, error) {
	ee := execEnv{ctx: ctx, params: args}
	res := &Result{}
	var err error
	for _, st := range stmts {
		res, err = s.execStmtLocked(st, ee)
		if err != nil {
			return nil, err
		}
	}
	return res, nil
}
