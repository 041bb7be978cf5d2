// Package client is the Preference SQL network client: it speaks the
// internal/wire protocol to a prefserve instance and mirrors the
// embedded prefsql API (Exec, Query, MustExec, QueryIter,
// QueryProgressive, SetMode, SetAlgorithm), so application code runs
// unmodified against either an embedded database or a remote server:
//
//	db, err := client.Dial("localhost:7654")
//	defer db.Close()
//	res, err := db.Query(`SELECT * FROM trips PREFERRING duration AROUND 14`)
//
// Single-SELECT queries stream: QueryIter yields rows as the server's
// pipeline produces them (progressively for preference queries),
// and closing the iterator early sends a Cancel that stops the server's
// remaining dominance work.
//
// A Conn multiplexes nothing: one statement is in flight at a time and
// methods serialize on an internal lock. Use one Conn per goroutine (or
// a pool) for parallelism — connections are cheap, and each carries its
// own server-side session settings.
package client

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"net"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/bmo"
	"repro/internal/core"
	"repro/internal/parser"
	"repro/internal/value"
	"repro/internal/wire"
)

// Result/Row/Mode/Algorithm are aliases of the same types the embedded
// prefsql package exports, so code can switch between embedded and
// remote by changing only construction. (The client deliberately does
// not import the root package: the root package's tests drive the bench
// harness, which drives this client.)
type (
	Result    = core.Result
	Row       = value.Row
	Mode      = core.Mode
	Algorithm = bmo.Algorithm
	// QueryStats is one statement's server-side execution statistics
	// (latency, work counters, annotated plan); see RequestStats.
	QueryStats = wire.QueryStats
)

// Statement flags reported by the server with each result.
const (
	// FlagCacheHit: the statement text was answered from the server's
	// prepared-statement cache (parse skipped).
	FlagCacheHit = wire.FlagCacheHit
	// FlagPlanReused: a cached plan was re-executed (planner skipped).
	FlagPlanReused = wire.FlagPlanReused
	// FlagCancelled: the row stream was cut short by Cancel.
	FlagCancelled = wire.FlagCancelled
)

// Conn is one client connection to a Preference SQL server.
type Conn struct {
	mu     sync.Mutex  // serializes request/response exchanges
	wmu    sync.Mutex  // serializes frame writes (Cancel may overtake an exchange)
	busy   bool        // an open Rows stream owns the connection
	closed atomic.Bool // safe to read from any goroutine
	nc     net.Conn
	br     *bufio.Reader
	bw     *bufio.Writer
	sessID uint32
	banner string

	wantStats atomic.Bool                // RequestStats toggle
	lastStats atomic.Pointer[QueryStats] // most recent Stats frame
}

// RequestStats asks the server to attach execution statistics to every
// subsequent Query on this connection: latency, the engine's work
// counters, and the per-operator annotated plan. Fetch them with
// LastStats after the statement (or stream) completes.
func (c *Conn) RequestStats(on bool) { c.wantStats.Store(on) }

// LastStats returns the most recent statement's server-side statistics,
// or nil when none have been received (RequestStats off, or the
// statement failed before recording).
func (c *Conn) LastStats() *QueryStats { return c.lastStats.Load() }

// Dial connects to a prefserve instance and performs the handshake.
// It is DialContext with a background context: no connect or handshake
// deadline beyond the operating system's own TCP timeouts.
func Dial(addr string) (*Conn, error) {
	return DialContext(context.Background(), addr)
}

// DialContext connects to a prefserve instance and performs the
// handshake, honoring ctx for both the TCP connect and the handshake
// exchange: a hung or blackholed host fails when ctx does instead of
// blocking the caller forever. Coordinator→shard dials in internal/dist
// depend on this. The deadline is lifted once the handshake completes;
// it does not bound later statements (use per-call contexts for that).
func DialContext(ctx context.Context, addr string) (*Conn, error) {
	var d net.Dialer
	nc, err := d.DialContext(ctx, "tcp", addr)
	if err != nil {
		return nil, err
	}
	// The handshake is a blocking read; ctx alone cannot interrupt it, so
	// mirror its deadline onto the socket and watch for cancellation. The
	// deadline is cleared on the way out — deferred first, so it runs last,
	// after the watcher has been stopped and joined: a watcher still
	// running then could see a cancellation that follows a successful
	// return and poison the live connection.
	defer nc.SetDeadline(time.Time{})
	if dl, ok := ctx.Deadline(); ok {
		if err := nc.SetDeadline(dl); err != nil {
			nc.Close()
			return nil, err
		}
	}
	if ctx.Done() != nil {
		shaken, watched := make(chan struct{}), make(chan struct{})
		defer func() {
			close(shaken)
			<-watched
		}()
		go func() {
			defer close(watched)
			select {
			case <-ctx.Done():
				nc.SetDeadline(time.Unix(1, 0)) // force pending I/O to fail
			case <-shaken:
			}
		}()
	}
	c := &Conn{nc: nc, br: bufio.NewReader(nc), bw: bufio.NewWriter(nc)}
	var b wire.Buffer
	b.U16(wire.Version)
	b.String("prefsql-go-client")
	if err := c.send(wire.MsgHello, b.B); err != nil {
		nc.Close()
		return nil, err
	}
	typ, payload, err := wire.ReadFrame(c.br)
	if err != nil {
		nc.Close()
		return nil, fmt.Errorf("client: handshake: %w", err)
	}
	if typ != wire.MsgHelloOK {
		nc.Close()
		return nil, fmt.Errorf("client: handshake: unexpected message %#x", typ)
	}
	r := wire.NewReader(payload)
	if v := r.U16(); v != wire.Version {
		nc.Close()
		return nil, fmt.Errorf("client: server speaks protocol %d, want %d", v, wire.Version)
	}
	c.sessID = r.U32()
	c.banner = r.String()
	if err := r.Err(); err != nil {
		nc.Close()
		return nil, err
	}
	return c, nil
}

// SessionID returns the server-assigned session id.
func (c *Conn) SessionID() uint32 { return c.sessID }

// Banner returns the server's handshake banner.
func (c *Conn) Banner() string { return c.banner }

// Close closes the connection (sending Quit first when no stream is in
// flight). Safe to call twice, and from any goroutine — closing a Conn
// whose Rows iterator leaked unblocks the stream with an error rather
// than waiting for it.
func (c *Conn) Close() error {
	if c.closed.Swap(true) {
		return nil
	}
	// Best-effort Quit: only if the connection is idle right now. A
	// TryLock keeps Close from blocking behind a hung exchange.
	if c.mu.TryLock() {
		if !c.busy {
			_ = c.send(wire.MsgQuit, nil)
		}
		c.mu.Unlock()
	}
	return c.nc.Close()
}

func (c *Conn) send(typ byte, payload []byte) error {
	c.wmu.Lock()
	defer c.wmu.Unlock()
	if err := wire.WriteFrame(c.bw, typ, payload); err != nil {
		return err
	}
	return c.bw.Flush()
}

// watch arms a context watchdog for one exchange: when ctx is cancelled
// it sends a Cancel frame, which the server maps onto the in-flight
// statement's execution context (stopping scans mid-table) and onto the
// row stream (cut short with FlagCancelled). stop disarms the watchdog
// and JOINS the goroutine: after stop returns, any Cancel it was going
// to send is fully on the wire. Combined with the exchange lock (the
// next statement's frame cannot be written until stop has run) and the
// server's in-order frame processing (a Cancel ahead of a Query is
// dropped when the statement begins), a cancel that races statement
// completion can never cut down the connection's next statement.
func (c *Conn) watch(ctx context.Context) (stop func()) {
	if ctx == nil || ctx.Done() == nil {
		return func() {}
	}
	quit := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		select {
		case <-ctx.Done():
			if !c.closed.Load() {
				_ = c.send(wire.MsgCancel, nil)
			}
		case <-quit:
		}
	}()
	var once sync.Once
	return func() {
		once.Do(func() {
			close(quit)
			<-done
		})
	}
}

// broken marks the connection unusable after a protocol-level failure.
func (c *Conn) broken(err error) error {
	if !c.closed.Swap(true) {
		c.nc.Close()
	}
	return err
}

// ErrClosed is returned by operations on a closed connection.
var ErrClosed = errors.New("client: connection closed")

// ErrBusy is returned when a statement is attempted while an open Rows
// stream owns the connection; Close the iterator first.
var ErrBusy = errors.New("client: connection busy with an open Rows stream")

// acquire takes the exchange lock for one request/response, rejecting
// closed or stream-occupied connections instead of blocking on them.
func (c *Conn) acquire() error {
	if c.closed.Load() {
		return ErrClosed
	}
	c.mu.Lock()
	if c.closed.Load() || c.busy {
		busy := c.busy
		c.mu.Unlock()
		if busy {
			return ErrBusy
		}
		return ErrClosed
	}
	return nil
}

// ---------------------------------------------------------------------------
// Statements
// ---------------------------------------------------------------------------

// Exec runs a ';'-separated script on the server and returns the last
// statement's result.
func (c *Conn) Exec(sql string) (*Result, error) {
	res, _, err := c.ExecFlags(sql)
	return res, err
}

// ExecContext is Exec with a cancellation context and positional bind
// arguments: `?` / `$n` placeholders bind to args (converted with the
// same rules as the embedded API), and cancelling ctx sends a Cancel
// that stops the server-side execution.
func (c *Conn) ExecContext(ctx context.Context, sql string, args ...any) (*Result, error) {
	res, _, err := c.ExecFlagsContext(ctx, sql, args...)
	return res, err
}

// Query runs a single SELECT (standard or Preference SQL); like the
// embedded DB.Query it is the read-only path and rejects anything else
// — use Exec for scripts and DML/DDL. The shape check runs client-side
// so a remote connection keeps exactly the embedded API's contract; the
// server executes SELECTs under its shared read lock and streams.
func (c *Conn) Query(sql string) (*Result, error) {
	return c.QueryContext(context.Background(), sql)
}

// QueryContext is Query with a cancellation context and bind arguments.
func (c *Conn) QueryContext(ctx context.Context, sql string, args ...any) (*Result, error) {
	if _, nparams, err := parser.ParseSelectCount(sql); err != nil {
		return nil, err
	} else if nparams != len(args) {
		return nil, fmt.Errorf("client: statement has %d bind parameter(s), got %d argument(s)", nparams, len(args))
	}
	res, _, err := c.ExecFlagsContext(ctx, sql, args...)
	return res, err
}

// MustExec is Exec that panics on error; for examples and tests.
func (c *Conn) MustExec(sql string) *Result {
	res, err := c.Exec(sql)
	if err != nil {
		panic("client: " + err.Error())
	}
	return res
}

// ExecFlags is Exec plus the server's statement flags (FlagCacheHit,
// FlagPlanReused), which report how much cached work the server skipped.
func (c *Conn) ExecFlags(sql string) (*Result, byte, error) {
	return c.ExecFlagsContext(context.Background(), sql)
}

// ExecFlagsContext is ExecContext plus the server's statement flags.
func (c *Conn) ExecFlagsContext(ctx context.Context, sql string, args ...any) (*Result, byte, error) {
	vals, err := value.FromGoArgs(args)
	if err != nil {
		return nil, 0, fmt.Errorf("client: %w", err)
	}
	if ctx != nil && ctx.Err() != nil {
		return nil, 0, ctx.Err()
	}
	if err := c.acquire(); err != nil {
		return nil, 0, err
	}
	defer c.mu.Unlock()
	stop := c.watch(ctx)
	defer stop()
	var b wire.Buffer
	b.String(sql)
	b.Values(vals)
	if c.wantStats.Load() {
		c.lastStats.Store(nil) // don't let a stale snapshot pass for this statement's
		b.U8(wire.QueryFlagWantStats)
	}
	if err := c.send(wire.MsgQuery, b.B); err != nil {
		return nil, 0, c.broken(err)
	}
	res, flags, err := c.collect()
	// The exchange completed at the protocol level, but the caller's
	// context is authoritative: a cancelled context reports its error
	// even when the server's statement raced to completion.
	if err == nil && ctx != nil && ctx.Err() != nil {
		return nil, flags, ctx.Err()
	}
	return res, flags, err
}

// collect reads Columns/Row*/Done (or Error) into a materialized result.
// The caller holds c.mu.
func (c *Conn) collect() (*Result, byte, error) {
	res := &Result{}
	for {
		typ, payload, err := wire.ReadFrame(c.br)
		if err != nil {
			return nil, 0, c.broken(err)
		}
		r := wire.NewReader(payload)
		switch typ {
		case wire.MsgColumns:
			res.Columns = r.Strings()
		case wire.MsgRow:
			res.Rows = append(res.Rows, r.Row())
		case wire.MsgStats:
			qs := wire.DecodeQueryStats(r)
			if err := r.Err(); err != nil {
				return nil, 0, c.broken(err)
			}
			c.lastStats.Store(&qs)
		case wire.MsgDone:
			affected := r.U32()
			r.U32() // row count, implied by len(res.Rows)
			flags := r.U8()
			if err := r.Err(); err != nil {
				return nil, 0, c.broken(err)
			}
			res.Affected = int(affected)
			return res, flags, nil
		case wire.MsgError:
			return nil, 0, errors.New(r.String())
		default:
			return nil, 0, c.broken(fmt.Errorf("client: unexpected message %#x", typ))
		}
		if err := r.Err(); err != nil {
			return nil, 0, c.broken(err)
		}
	}
}

// ---------------------------------------------------------------------------
// Streaming
// ---------------------------------------------------------------------------

// Rows is a streaming result iterator, modelled on the embedded
// prefsql.Rows / database/sql.Rows. The connection is busy until Close.
type Rows struct {
	c       *Conn
	cols    []string
	row     Row
	err     error
	done    bool
	flags   byte
	ctx     context.Context // nil when opened without a context
	unwatch func()          // disarms the context watchdog
}

// QueryIter runs a single SELECT and returns a streaming iterator. Rows
// arrive as the server's pipeline produces them; Close before the end
// sends a Cancel so the server stops the remaining work (the
// progressive-cursor cancel of mobile search, §4.2).
func (c *Conn) QueryIter(sql string) (*Rows, error) {
	return c.QueryIterContext(context.Background(), sql)
}

// QueryIterContext is QueryIter with a cancellation context and bind
// arguments. Cancelling ctx while the stream is open sends a Cancel: the
// server stops the pipeline (mid-scan included), the stream ends, and
// Err() reports ctx's error.
func (c *Conn) QueryIterContext(ctx context.Context, sql string, args ...any) (*Rows, error) {
	vals, err := value.FromGoArgs(args)
	if err != nil {
		return nil, fmt.Errorf("client: %w", err)
	}
	if ctx != nil && ctx.Err() != nil {
		return nil, ctx.Err()
	}
	if err := c.acquire(); err != nil {
		return nil, err
	}
	unwatch := c.watch(ctx)
	fail := func(err error) (*Rows, error) {
		unwatch()
		c.mu.Unlock()
		return nil, err
	}
	var b wire.Buffer
	b.String(sql)
	b.Values(vals)
	if c.wantStats.Load() {
		c.lastStats.Store(nil)
		b.U8(wire.QueryFlagWantStats)
	}
	if err := c.send(wire.MsgQuery, b.B); err != nil {
		return fail(c.broken(err))
	}
	// First frame must be the header (or an immediate error).
	typ, payload, err := wire.ReadFrame(c.br)
	if err != nil {
		return fail(c.broken(err))
	}
	r := wire.NewReader(payload)
	switch typ {
	case wire.MsgColumns:
		cols := r.Strings()
		if err := r.Err(); err != nil {
			return fail(c.broken(err))
		}
		// The stream owns the connection until Rows.Close; concurrent
		// statements get ErrBusy instead of blocking. The watchdog stays
		// armed for the stream's lifetime.
		c.busy = true
		c.mu.Unlock()
		return &Rows{c: c, cols: cols, ctx: ctx, unwatch: unwatch}, nil
	case wire.MsgError:
		unwatch()
		c.mu.Unlock()
		return nil, errors.New(r.String())
	case wire.MsgDone:
		// Statement produced no result set (e.g. DML text); present an
		// empty, already-done iterator carrying the server's flags.
		r.U32()
		r.U32()
		flags := r.U8()
		if err := r.Err(); err != nil {
			return fail(c.broken(err))
		}
		unwatch()
		c.mu.Unlock()
		return &Rows{c: c, done: true, flags: flags}, nil
	default:
		return fail(c.broken(fmt.Errorf("client: unexpected message %#x", typ)))
	}
}

// Columns returns the result column names.
func (r *Rows) Columns() []string { return r.cols }

// Next advances to the next row; false at the end or on error (see Err).
func (r *Rows) Next() bool {
	if r.done || r.err != nil {
		return false
	}
	if r.ctx != nil {
		if cerr := r.ctx.Err(); cerr != nil {
			// The watchdog's Cancel may have raced a statement boundary;
			// Close re-sends it and drains, so the connection stays usable.
			_ = r.Close()
			if r.err == nil {
				r.err = cerr
			}
			return false
		}
	}
	typ, payload, err := wire.ReadFrame(r.c.br)
	if err != nil {
		r.err = r.c.broken(err)
		r.finish()
		return false
	}
	rd := wire.NewReader(payload)
	switch typ {
	case wire.MsgRow:
		row := rd.Row()
		if err := rd.Err(); err != nil {
			r.err = r.c.broken(err)
			r.finish()
			return false
		}
		r.row = row
		return true
	case wire.MsgStats:
		// The stream's statistics arrive between the last row and Done;
		// stash them and keep pulling for the Done frame.
		qs := wire.DecodeQueryStats(rd)
		if err := rd.Err(); err != nil {
			r.err = r.c.broken(err)
			r.finish()
			return false
		}
		r.c.lastStats.Store(&qs)
		return r.Next()
	case wire.MsgDone:
		rd.U32()
		rd.U32()
		r.flags = rd.U8()
		if err := rd.Err(); err != nil {
			r.err = r.c.broken(err)
		}
		// A stream cut short by our own context reports the context's
		// error, matching the embedded cursor's behaviour.
		if r.err == nil && r.flags&wire.FlagCancelled != 0 && r.ctx != nil && r.ctx.Err() != nil {
			r.err = r.ctx.Err()
		}
		r.finish()
		return false
	case wire.MsgError:
		r.err = errors.New(rd.String())
		r.finish()
		return false
	default:
		r.err = r.c.broken(fmt.Errorf("client: unexpected message %#x", typ))
		r.finish()
		return false
	}
}

// finish marks the stream complete and releases the connection.
func (r *Rows) finish() {
	if !r.done {
		r.done = true
		if r.unwatch != nil {
			r.unwatch()
		}
		r.c.mu.Lock()
		r.c.busy = false
		r.c.mu.Unlock()
	}
}

// Row returns the current row; valid after Next returned true.
func (r *Rows) Row() Row { return r.row }

// Err returns the first error encountered while streaming.
func (r *Rows) Err() error { return r.err }

// Flags returns the server's statement flags, valid once the stream has
// ended (Next returned false or Close drained it).
func (r *Rows) Flags() byte { return r.flags }

// Close releases the iterator. If rows remain, it sends Cancel and
// drains the stream so the connection is ready for the next statement.
// Safe to call more than once.
func (r *Rows) Close() error {
	if r.done {
		return nil
	}
	if !r.c.closed.Load() {
		if err := r.c.send(wire.MsgCancel, nil); err != nil {
			r.err = r.c.broken(err)
			r.finish()
			return r.err
		}
	}
	for {
		typ, payload, err := wire.ReadFrame(r.c.br)
		if err != nil {
			r.err = r.c.broken(err)
			r.finish()
			return r.err
		}
		switch typ {
		case wire.MsgDone:
			rd := wire.NewReader(payload)
			rd.U32()
			rd.U32()
			r.flags = rd.U8()
			if err := rd.Err(); err != nil {
				r.err = r.c.broken(err)
			}
			r.finish()
			return nil
		case wire.MsgError:
			r.err = errors.New(wire.NewReader(payload).String())
			r.finish()
			return nil
		case wire.MsgRow:
			// discard in-flight rows
		case wire.MsgStats:
			rd := wire.NewReader(payload)
			qs := wire.DecodeQueryStats(rd)
			if rd.Err() == nil {
				r.c.lastStats.Store(&qs)
			}
		default:
			r.err = r.c.broken(fmt.Errorf("client: unexpected message %#x", typ))
			r.finish()
			return r.err
		}
	}
}

// QueryProgressive streams a preference query's Best-Matches-Only set:
// yield is called with each row as the server reports it maximal, and
// returning false cancels the remaining server-side work. It returns the
// result column names.
func (c *Conn) QueryProgressive(sql string, yield func(Row) bool) ([]string, error) {
	return c.QueryProgressiveContext(context.Background(), sql, yield)
}

// QueryProgressiveContext is QueryProgressive with a cancellation context
// and bind arguments; cancelling ctx stops the remaining server-side work
// exactly like yield returning false.
func (c *Conn) QueryProgressiveContext(ctx context.Context, sql string, yield func(Row) bool, args ...any) ([]string, error) {
	rows, err := c.QueryIterContext(ctx, sql, args...)
	if err != nil {
		return nil, err
	}
	defer rows.Close()
	for rows.Next() {
		if !yield(rows.Row()) {
			break
		}
	}
	if err := rows.Err(); err != nil {
		return nil, err
	}
	return rows.Columns(), nil
}

// ---------------------------------------------------------------------------
// Prepared statements
// ---------------------------------------------------------------------------

// Stmt is a server-side prepared statement: parsed once (and, for plain
// SELECTs, planned once) on the server, re-executed by id with fresh bind
// arguments — distinct argument values share the one cached plan.
type Stmt struct {
	c         *Conn
	id        uint32
	sql       string
	numParams int
}

// Prepare registers sql in the server's statement cache and returns a
// handle for repeated execution.
func (c *Conn) Prepare(sql string) (*Stmt, error) {
	if err := c.acquire(); err != nil {
		return nil, err
	}
	defer c.mu.Unlock()
	var b wire.Buffer
	b.String(sql)
	if err := c.send(wire.MsgPrepare, b.B); err != nil {
		return nil, c.broken(err)
	}
	typ, payload, err := wire.ReadFrame(c.br)
	if err != nil {
		return nil, c.broken(err)
	}
	r := wire.NewReader(payload)
	switch typ {
	case wire.MsgPrepared:
		id := r.U32()
		np := int(r.U16())
		if err := r.Err(); err != nil {
			return nil, c.broken(err)
		}
		return &Stmt{c: c, id: id, sql: sql, numParams: np}, nil
	case wire.MsgError:
		return nil, errors.New(r.String())
	default:
		return nil, c.broken(fmt.Errorf("client: unexpected message %#x", typ))
	}
}

// SQL returns the statement text.
func (s *Stmt) SQL() string { return s.sql }

// NumParams reports the statement's positional bind parameter count;
// every execution must supply exactly this many arguments.
func (s *Stmt) NumParams() int { return s.numParams }

// Exec re-executes the prepared statement with the given bind arguments.
func (s *Stmt) Exec(args ...any) (*Result, error) {
	res, _, err := s.ExecFlags(args...)
	return res, err
}

// ExecContext is Exec with a cancellation context.
func (s *Stmt) ExecContext(ctx context.Context, args ...any) (*Result, error) {
	res, _, err := s.ExecFlagsContext(ctx, args...)
	return res, err
}

// ExecFlags is Exec plus the server's statement flags; FlagPlanReused
// reports that the server skipped the planner.
func (s *Stmt) ExecFlags(args ...any) (*Result, byte, error) {
	return s.ExecFlagsContext(context.Background(), args...)
}

// ExecFlagsContext is ExecContext plus the server's statement flags.
func (s *Stmt) ExecFlagsContext(ctx context.Context, args ...any) (*Result, byte, error) {
	vals, err := value.FromGoArgs(args)
	if err != nil {
		return nil, 0, fmt.Errorf("client: %w", err)
	}
	if len(vals) != s.numParams {
		return nil, 0, fmt.Errorf("client: statement has %d bind parameter(s), got %d argument(s)",
			s.numParams, len(vals))
	}
	if ctx != nil && ctx.Err() != nil {
		return nil, 0, ctx.Err()
	}
	c := s.c
	if err := c.acquire(); err != nil {
		return nil, 0, err
	}
	defer c.mu.Unlock()
	stop := c.watch(ctx)
	defer stop()
	var b wire.Buffer
	b.U32(s.id)
	b.Values(vals)
	if err := c.send(wire.MsgExecute, b.B); err != nil {
		return nil, 0, c.broken(err)
	}
	res, flags, err := c.collect()
	if err == nil && ctx != nil && ctx.Err() != nil {
		return nil, flags, ctx.Err()
	}
	return res, flags, err
}

// Close releases the server-side handle (the cache entry may live on
// for other connections).
func (s *Stmt) Close() error {
	c := s.c
	if err := c.acquire(); err != nil {
		if err == ErrClosed {
			return nil
		}
		return err
	}
	defer c.mu.Unlock()
	var b wire.Buffer
	b.U32(s.id)
	if err := c.send(wire.MsgCloseStmt, b.B); err != nil {
		return c.broken(err)
	}
	_, _, err := c.collect()
	return err
}

// ---------------------------------------------------------------------------
// Session settings
// ---------------------------------------------------------------------------

func (c *Conn) set(key, val string) error {
	if err := c.acquire(); err != nil {
		return err
	}
	defer c.mu.Unlock()
	var b wire.Buffer
	b.String(key)
	b.String(val)
	if err := c.send(wire.MsgSet, b.B); err != nil {
		return c.broken(err)
	}
	_, _, err := c.collect()
	return err
}

// Explain modes accepted by Conn.Explain, mirroring the embedded API:
// ExplainRewrite is prefsql's ExplainRewrite (the preference → SQL92
// script), ExplainPlan its ExplainNative (the operator plan), and
// ExplainAnalyze its ExplainAnalyze (executed, with per-node stats).
const (
	ExplainRewrite = wire.ExplainRewrite
	ExplainPlan    = wire.ExplainPlan
	ExplainAnalyze = wire.ExplainAnalyze
)

// Explain renders a statement's plan on the server and returns the plan
// text, so remote (and shard-annotated) plans are visible without local
// access to the server's catalog. Old servers answer with an "unknown
// message" error.
func (c *Conn) Explain(mode byte, sql string) (string, error) {
	return c.ExplainContext(context.Background(), mode, sql)
}

// ExplainContext is Explain with a context; note ExplainAnalyze executes
// the statement server-side, so cancellation behaves like a query cancel.
func (c *Conn) ExplainContext(ctx context.Context, mode byte, sql string) (string, error) {
	if err := c.acquire(); err != nil {
		return "", err
	}
	defer c.mu.Unlock()
	stop := c.watch(ctx)
	defer stop()
	var b wire.Buffer
	b.U8(mode)
	b.String(sql)
	if err := c.send(wire.MsgExplain, b.B); err != nil {
		return "", c.broken(err)
	}
	typ, payload, err := wire.ReadFrame(c.br)
	if err != nil {
		return "", c.broken(err)
	}
	r := wire.NewReader(payload)
	switch typ {
	case wire.MsgPlanText:
		text := r.String()
		if err := r.Err(); err != nil {
			return "", c.broken(err)
		}
		return text, nil
	case wire.MsgError:
		return "", errors.New(r.String())
	default:
		return "", c.broken(fmt.Errorf("client: unexpected message %#x", typ))
	}
}

// SetMode switches this connection's session between native BMO
// evaluation and SQL92 rewriting; other connections are unaffected.
func (c *Conn) SetMode(m Mode) error {
	val := "native"
	if m == core.ModeRewrite {
		val = "rewrite"
	}
	return c.set(wire.SetMode, val)
}

// SetAlgorithm selects this connection's native BMO algorithm.
func (c *Conn) SetAlgorithm(a Algorithm) error {
	val := a.Token()
	if val == "" {
		return fmt.Errorf("client: unknown algorithm %v", a)
	}
	return c.set(wire.SetAlgorithm, val)
}

// SetWorkers caps this connection's parallel BMO worker count on the
// server; 0 (the default) uses one worker per server CPU.
func (c *Conn) SetWorkers(n int) error {
	if n < 0 {
		return fmt.Errorf("client: workers must be non-negative, got %d", n)
	}
	return c.set(wire.SetWorkers, strconv.Itoa(n))
}

// ---------------------------------------------------------------------------
// Continuous queries
// ---------------------------------------------------------------------------

// Delta ops, mirroring the wire encoding.
const (
	// DeltaAdd: the row entered the live result set.
	DeltaAdd = wire.DeltaAdd
	// DeltaRemove: the row left the live result set.
	DeltaRemove = wire.DeltaRemove
)

// Delta is one incremental change to a subscription's result set. Seq
// numbers are contiguous from 1 per subscription; a gap means deltas
// were lost (which the protocol does not allow — treat it as a bug).
type Delta struct {
	Seq int64
	Op  byte // DeltaAdd or DeltaRemove
	Row Row
}

// ErrEvicted reports that the server terminated the subscription because
// this client consumed deltas slower than writers produced them (the
// bounded server-side queue overflowed). Re-subscribe to resume; the
// fresh Initial set restores a consistent state.
var ErrEvicted = errors.New("client: subscription evicted (slow consumer)")

// Sub is a live continuous-query stream. The connection is busy until
// Close: run other statements on their own Conn.
type Sub struct {
	c       *Conn
	id      uint32
	cols    []string
	initial []Row
	delta   Delta
	err     error
	done    bool
	ctx     context.Context
	unwatch func()
}

// Subscribe registers a continuous query (`SUBSCRIBE SELECT ... FROM t
// [WHERE ...] [PREFERRING ...]`; the SUBSCRIBE keyword is optional) and
// returns its live stream: Initial holds the result set frozen at
// registration, and Next yields every later change as writers commit.
// Cancelling ctx closes the subscription. queue semantics are server
// side: fall a full queue behind and the server evicts the stream
// (Err() == ErrEvicted) rather than slowing writers down.
func (c *Conn) Subscribe(ctx context.Context, sql string, args ...any) (*Sub, error) {
	return c.SubscribeBuffered(ctx, 0, sql, args...)
}

// SubscribeBuffered is Subscribe with an explicit server-side delta
// queue capacity (0 means the server default). Small queues evict
// sooner; large queues absorb longer consumer stalls at the cost of
// server memory.
func (c *Conn) SubscribeBuffered(ctx context.Context, queue int, sql string, args ...any) (*Sub, error) {
	if queue < 0 {
		return nil, fmt.Errorf("client: queue must be non-negative, got %d", queue)
	}
	vals, err := value.FromGoArgs(args)
	if err != nil {
		return nil, fmt.Errorf("client: %w", err)
	}
	if ctx != nil && ctx.Err() != nil {
		return nil, ctx.Err()
	}
	if err := c.acquire(); err != nil {
		return nil, err
	}
	// The stock watchdog works for subscriptions too: Cancel maps onto
	// the registration's statement context server-side, which closes the
	// subscription and ends the stream with FlagCancelled.
	unwatch := c.watch(ctx)
	fail := func(err error) (*Sub, error) {
		unwatch()
		c.mu.Unlock()
		return nil, err
	}
	var b wire.Buffer
	b.U32(uint32(queue))
	b.String(sql)
	b.Values(vals)
	if err := c.send(wire.MsgSubscribe, b.B); err != nil {
		return fail(c.broken(err))
	}
	typ, payload, err := wire.ReadFrame(c.br)
	if err != nil {
		return fail(c.broken(err))
	}
	r := wire.NewReader(payload)
	switch typ {
	case wire.MsgError:
		unwatch()
		c.mu.Unlock()
		return nil, errors.New(r.String())
	case wire.MsgSubscribed:
	default:
		return fail(c.broken(fmt.Errorf("client: unexpected message %#x", typ)))
	}
	id := r.U32()
	cols := r.Strings()
	if err := r.Err(); err != nil {
		return fail(c.broken(err))
	}
	// The initial result set streams as Row frames closed by a Done.
	var initial []Row
collect:
	for {
		typ, payload, err := wire.ReadFrame(c.br)
		if err != nil {
			return fail(c.broken(err))
		}
		rd := wire.NewReader(payload)
		switch typ {
		case wire.MsgRow:
			initial = append(initial, rd.Row())
		case wire.MsgDone:
			break collect
		default:
			return fail(c.broken(fmt.Errorf("client: unexpected message %#x", typ)))
		}
		if err := rd.Err(); err != nil {
			return fail(c.broken(err))
		}
	}
	c.busy = true
	c.mu.Unlock()
	return &Sub{c: c, id: id, cols: cols, initial: initial, ctx: ctx, unwatch: unwatch}, nil
}

// ID returns the server-assigned subscription id.
func (s *Sub) ID() uint32 { return s.id }

// Columns returns the result column names.
func (s *Sub) Columns() []string { return s.cols }

// Initial returns the result set as of registration; deltas apply on
// top of it.
func (s *Sub) Initial() []Row { return s.initial }

// Next blocks for the next delta; false when the stream ended (see Err).
func (s *Sub) Next() bool {
	if s.done || s.err != nil {
		return false
	}
	if s.ctx != nil {
		if cerr := s.ctx.Err(); cerr != nil {
			_ = s.Close()
			if s.err == nil {
				s.err = cerr
			}
			return false
		}
	}
	typ, payload, err := wire.ReadFrame(s.c.br)
	if err != nil {
		s.err = s.c.broken(err)
		s.finish()
		return false
	}
	rd := wire.NewReader(payload)
	switch typ {
	case wire.MsgDelta:
		rd.U32() // subscription id, implied
		seq := rd.I64()
		op := rd.U8()
		row := rd.Row()
		if err := rd.Err(); err != nil {
			s.err = s.c.broken(err)
			s.finish()
			return false
		}
		s.delta = Delta{Seq: seq, Op: op, Row: row}
		return true
	case wire.MsgDone:
		rd.U32()
		rd.U32()
		flags := rd.U8()
		if err := rd.Err(); err != nil {
			s.err = s.c.broken(err)
		}
		if s.err == nil && flags&wire.FlagEvicted != 0 {
			s.err = ErrEvicted
		}
		if s.err == nil && flags&wire.FlagCancelled != 0 && s.ctx != nil && s.ctx.Err() != nil {
			s.err = s.ctx.Err()
		}
		s.finish()
		return false
	case wire.MsgError:
		s.err = errors.New(rd.String())
		s.finish()
		return false
	default:
		s.err = s.c.broken(fmt.Errorf("client: unexpected message %#x", typ))
		s.finish()
		return false
	}
}

// Delta returns the current change; valid after Next returned true.
func (s *Sub) Delta() Delta { return s.delta }

// Err returns the terminal error: nil after a clean close, ErrEvicted
// when the server dropped this consumer, the context's error when ctx
// ended the stream, or a transport error.
func (s *Sub) Err() error { return s.err }

// finish marks the stream complete and releases the connection.
func (s *Sub) finish() {
	if !s.done {
		s.done = true
		if s.unwatch != nil {
			s.unwatch()
		}
		s.c.mu.Lock()
		s.c.busy = false
		s.c.mu.Unlock()
	}
}

// Close unsubscribes and drains the stream so the connection is ready
// for the next statement. Queued deltas are discarded. Safe to call
// more than once.
func (s *Sub) Close() error {
	if s.done {
		return nil
	}
	if !s.c.closed.Load() {
		var b wire.Buffer
		b.U32(s.id)
		if err := s.c.send(wire.MsgUnsubscribe, b.B); err != nil {
			s.err = s.c.broken(err)
			s.finish()
			return s.err
		}
	}
	for {
		typ, payload, err := wire.ReadFrame(s.c.br)
		if err != nil {
			s.err = s.c.broken(err)
			s.finish()
			return s.err
		}
		switch typ {
		case wire.MsgDone:
			rd := wire.NewReader(payload)
			rd.U32()
			rd.U32()
			flags := rd.U8()
			if rd.Err() == nil && s.err == nil && flags&wire.FlagEvicted != 0 {
				s.err = ErrEvicted
			}
			s.finish()
			return nil
		case wire.MsgError:
			s.err = errors.New(wire.NewReader(payload).String())
			s.finish()
			return nil
		case wire.MsgDelta, wire.MsgRow:
			// discard in-flight deltas
		default:
			s.err = s.c.broken(fmt.Errorf("client: unexpected message %#x", typ))
			s.finish()
			return s.err
		}
	}
}
