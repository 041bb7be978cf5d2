// Package server is the Preference SQL server front end: a TCP server
// speaking the internal/wire protocol, serving many concurrent client
// sessions over one shared database — the middleware deployment of the
// original system (§4.3: client applications like COSIMA talked to
// Preference SQL over the network).
//
// Each connection gets its own core.Session, so mode/algorithm settings
// are per client. Read queries run concurrently against consistent
// storage snapshots; write statements serialize on the database's
// exclusive lock. All connections share one LRU prepared-statement cache
// keyed on SQL text: a repeated statement skips parsing, and a repeated
// plain SELECT re-executes its cached plan, skipping the planner too.
// Single-SELECT queries stream their rows as the pipeline produces them
// (progressively for score-based preferences), and a client Cancel stops
// the stream between rows.
package server

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/ast"
	"repro/internal/bmo"
	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/value"
	"repro/internal/wire"
)

// Server-loop metrics (the per-statement series live in internal/core).
var (
	mConnections = metrics.Default.Counter("prefsql_connections_total",
		"Client connections accepted")
	mActiveSessions = metrics.Default.Gauge("prefsql_active_sessions",
		"Client connections currently open")
)

// Options configures a Server. The zero value is usable.
type Options struct {
	// CacheSize bounds the shared prepared-statement cache (default 128).
	CacheSize int
	// Banner is sent in the handshake reply.
	Banner string
	// Logf, when set, receives one line per accepted/failed connection.
	// Superseded by Logger; kept for callers that only want those lines.
	Logf func(format string, args ...any)
	// Logger, when set, receives structured connection and slow-query
	// events. Every record carries the session id; statement records add
	// a query id ("<session>/<statement>") for correlation.
	Logger *slog.Logger
	// SlowQueryMs seeds every session's slow-query threshold: statements
	// at or above it are logged through Logger with their SQL, latency
	// and work-counter summary. 0 disables (a session can still opt in
	// with `SET slow_query_ms = N`).
	SlowQueryMs int64
	// IdleTimeout bounds the silence between client frames while no
	// statement is in flight: a peer that dies without closing its
	// socket (or leaks an idle connection) is disconnected instead of
	// holding a session goroutine forever. 0 disables.
	IdleTimeout time.Duration
	// WriteTimeout bounds each socket write (frame or flush): a peer
	// that stops draining its receive window fails the statement and
	// releases the handler instead of wedging it on a blocked send.
	// 0 disables.
	WriteTimeout time.Duration
}

// Server serves Preference SQL over TCP.
type Server struct {
	db    *core.DB
	opts  Options
	cache *stmtCache

	mu     sync.Mutex
	lis    net.Listener
	conns  map[net.Conn]struct{}
	closed bool
	wg     sync.WaitGroup

	sessionSeq atomic.Uint32
}

// New creates a server over an opened database.
func New(db *core.DB, opts Options) *Server {
	if opts.Banner == "" {
		opts.Banner = "prefsql"
	}
	return &Server{db: db, opts: opts, cache: newStmtCache(opts.CacheSize), conns: map[net.Conn]struct{}{}}
}

// DB returns the served database.
func (s *Server) DB() *core.DB { return s.db }

// CacheStats snapshots the shared prepared-statement cache counters.
func (s *Server) CacheStats() CacheStats { return s.cache.stats() }

// Addr returns the listening address, nil before Serve/Start.
func (s *Server) Addr() net.Addr {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.lis == nil {
		return nil
	}
	return s.lis.Addr()
}

// ListenAndServe listens on addr and serves until Close.
func (s *Server) ListenAndServe(addr string) error {
	lis, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	return s.Serve(lis)
}

// Start listens on addr and serves in a background goroutine; it returns
// the bound address (use "127.0.0.1:0" for an ephemeral loopback port).
func (s *Server) Start(addr string) (net.Addr, error) {
	lis, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	go func() { _ = s.Serve(lis) }()
	return lis.Addr(), nil
}

// Serve accepts connections on lis until Close. Each connection is
// handled by its own goroutine (the worker model: reads from different
// connections execute concurrently; writes serialize in the core layer).
func (s *Server) Serve(lis net.Listener) error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		lis.Close()
		return errors.New("server: closed")
	}
	s.lis = lis
	s.mu.Unlock()

	for {
		nc, err := lis.Accept()
		if err != nil {
			s.mu.Lock()
			closed := s.closed
			s.mu.Unlock()
			if closed {
				return nil
			}
			return err
		}
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			nc.Close()
			return nil
		}
		s.conns[nc] = struct{}{}
		s.wg.Add(1)
		s.mu.Unlock()
		go func() {
			defer s.wg.Done()
			s.handle(nc)
			s.mu.Lock()
			delete(s.conns, nc)
			s.mu.Unlock()
		}()
	}
}

// Close stops accepting, closes every live connection, and waits for the
// handlers to finish.
func (s *Server) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	lis := s.lis
	for nc := range s.conns {
		nc.Close()
	}
	s.mu.Unlock()
	var err error
	if lis != nil {
		err = lis.Close()
	}
	s.wg.Wait()
	return err
}

func (s *Server) logf(format string, args ...any) {
	if s.opts.Logf != nil {
		s.opts.Logf(format, args...)
	}
}

// discardLogger sinks structured events when Options.Logger is unset.
var discardLogger = slog.New(slog.DiscardHandler)

func (s *Server) logger() *slog.Logger {
	if s.opts.Logger != nil {
		return s.opts.Logger
	}
	return discardLogger
}

// ---------------------------------------------------------------------------
// Per-connection handler
// ---------------------------------------------------------------------------

// maxStmtsPerConn bounds one connection's open prepared-statement
// handles (the shared LRU cache has its own capacity).
const maxStmtsPerConn = 256

type frame struct {
	typ     byte
	payload []byte
}

type conn struct {
	srv  *Server
	nc   net.Conn
	bw   *bufio.Writer
	sess *core.Session

	// frames carries client messages from the reader goroutine; Cancel
	// frames never enter it — the reader flips cancel and fires the
	// in-flight statement's context instead, so a cancel overtakes the
	// row stream the handler is busy writing and stops its scans
	// mid-table. done closes when the handler exits, releasing a reader
	// blocked on a full frames channel.
	frames     chan frame
	done       chan struct{}
	cancel     atomic.Bool
	stmtCancel atomic.Value // context.CancelFunc of the in-flight statement
	// pending counts frames the reader forwarded that the handler has not
	// finished with. The idle deadline only applies at zero: a queued or
	// running statement makes the client legitimately silent.
	pending atomic.Int32

	stmts    map[uint32]*core.Prepared
	stmtSeq  uint32
	sessID   uint32
	shakenOK bool

	log     *slog.Logger // carries the session id on every record
	stmtNum uint64       // statements begun, for query ids
}

// qid returns the current statement's query id ("<session>/<statement>"),
// the correlation key between slow-query records and client-side traces.
func (c *conn) qid() string { return fmt.Sprintf("%d/%d", c.sessID, c.stmtNum) }

// beginStmt arms a fresh cancellable execution context for one statement:
// a Cancel frame received while it runs cancels the context (stopping the
// pipeline's scans) in addition to flipping the between-rows flag. The
// returned finish releases the context's resources.
func (c *conn) beginStmt() (ctx context.Context, finish func()) {
	c.cancel.Store(false)
	c.stmtNum++
	ctx, cancelFn := context.WithCancel(context.Background())
	c.stmtCancel.Store(cancelFn)
	return ctx, func() {
		c.stmtCancel.Store(context.CancelFunc(nil))
		cancelFn()
	}
}

// logSlow emits the structured slow-query record for the statement the
// session just recorded, when it crossed the session's threshold. prev
// distinguishes "this statement was recorded" from a stale LastStats
// left by an earlier statement (errors don't record).
func (c *conn) logSlow(prev *core.StmtStats) {
	st := c.sess.LastStats()
	if st == nil || st == prev {
		return
	}
	ms := c.sess.SlowQueryMillis()
	if ms < 0 || st.Duration < time.Duration(ms)*time.Millisecond {
		return
	}
	attrs := []any{
		"qid", c.qid(),
		"kind", st.Kind,
		"sql", st.SQL,
		"duration_ms", float64(st.Duration.Microseconds()) / 1000,
		"rows", st.Rows,
		"rows_scanned", st.Exec.RowsScanned,
		"index_probes", st.Exec.IndexProbes,
		"bmo_in", st.Exec.BMOInputRows,
		"bmo_out", st.Exec.BMOOutputRows,
	}
	if st.Plan != "" {
		attrs = append(attrs, "plan", st.Plan)
	}
	c.log.Warn("slow query", attrs...)
}

// sendStats answers QueryFlagWantStats: the statement the session just
// recorded goes out as a Stats frame (immediately before Done). A
// statement that recorded nothing — an error, or LastStats unchanged —
// sends nothing; the client treats the absence as "no stats".
func (c *conn) sendStats(prev *core.StmtStats) error {
	st := c.sess.LastStats()
	if st == nil || st == prev {
		return nil
	}
	qs := wire.QueryStats{
		Nanos:            st.Duration.Nanoseconds(),
		Rows:             st.Rows,
		RowsScanned:      st.Exec.RowsScanned,
		IndexProbes:      st.Exec.IndexProbes,
		JoinInputRows:    st.Exec.JoinInputRows,
		BMOInputRows:     st.Exec.BMOInputRows,
		BMOOutputRows:    st.Exec.BMOOutputRows,
		VecBlocksScanned: st.Exec.VecBlocksScanned,
		VecBlocksPruned:  st.Exec.VecBlocksPruned,
		Plan:             st.Plan,
	}
	var b wire.Buffer
	qs.Encode(&b)
	return c.send(wire.MsgStats, b.B)
}

func (s *Server) handle(nc net.Conn) {
	c := &conn{
		srv:    s,
		nc:     nc,
		bw:     bufio.NewWriter(nc),
		sess:   s.db.NewSession(),
		frames: make(chan frame, 16),
		done:   make(chan struct{}),
		stmts:  map[uint32]*core.Prepared{},
		sessID: s.sessionSeq.Add(1),
	}
	c.log = s.logger().With("session", c.sessID)
	if ms := s.opts.SlowQueryMs; ms > 0 {
		c.sess.SetSlowQueryMillis(ms)
	}
	mConnections.Inc()
	mActiveSessions.Add(1)
	defer mActiveSessions.Add(-1)
	defer nc.Close()
	defer close(c.done)

	c.log.Info("session open", "remote", nc.RemoteAddr().String())
	go c.readLoop()

	err := c.run()
	if err != nil && !errors.Is(err, io.EOF) && !errors.Is(err, net.ErrClosed) {
		s.logf("server: session %d: %v", c.sessID, err)
		c.log.Error("session failed", "error", err)
	} else {
		c.log.Info("session closed", "statements", c.stmtNum)
	}
}

// readLoop pulls frames off the socket so that Cancel can overtake a
// row stream in flight. It exits (closing frames) when the peer hangs
// up or the connection is closed.
func (c *conn) readLoop() {
	defer close(c.frames)
	for {
		if d := c.srv.opts.IdleTimeout; d > 0 {
			c.nc.SetReadDeadline(time.Now().Add(d))
		}
		typ, payload, err := wire.ReadFrame(c.nc)
		if err != nil {
			// The idle deadline applies between statements only: while one
			// is queued or in flight the client is legitimately silent (it
			// is reading our rows), so re-arm and keep listening for its
			// Cancel.
			var ne net.Error
			if errors.As(err, &ne) && ne.Timeout() && c.pending.Load() > 0 {
				continue
			}
			return
		}
		if typ == wire.MsgCancel {
			c.cancel.Store(true)
			if f, _ := c.stmtCancel.Load().(context.CancelFunc); f != nil {
				f()
			}
			continue
		}
		// Counted before the handoff, so the deadline armed next already
		// sees the statement in flight however late its handler starts.
		c.pending.Add(1)
		select {
		case c.frames <- frame{typ, payload}:
		case <-c.done:
			return
		}
		if typ == wire.MsgQuit {
			return
		}
	}
}

func (c *conn) run() error {
	// Handshake first.
	f, ok := <-c.frames
	if !ok {
		return io.EOF
	}
	c.pending.Add(-1)
	if f.typ != wire.MsgHello {
		return fmt.Errorf("expected Hello, got %#x", f.typ)
	}
	r := wire.NewReader(f.payload)
	ver := r.U16()
	_ = r.String() // client name, informational
	if err := r.Err(); err != nil {
		return err
	}
	if ver != wire.Version {
		return fmt.Errorf("protocol version %d unsupported", ver)
	}
	var hello wire.Buffer
	hello.U16(wire.Version)
	hello.U32(c.sessID)
	hello.String(c.srv.opts.Banner)
	if err := c.send(wire.MsgHelloOK, hello.B); err != nil {
		return err
	}

	for f := range c.frames {
		if h := frameHook.Load(); h != nil {
			(*h)(f.typ)
		}
		var err error
		switch f.typ {
		case wire.MsgQuit:
			return nil
		case wire.MsgQuery:
			err = c.handleQuery(f.payload)
		case wire.MsgPrepare:
			err = c.handlePrepare(f.payload)
		case wire.MsgExecute:
			err = c.handleExecute(f.payload)
		case wire.MsgCloseStmt:
			err = c.handleCloseStmt(f.payload)
		case wire.MsgSet:
			err = c.handleSet(f.payload)
		case wire.MsgExplain:
			err = c.handleExplain(f.payload)
		case wire.MsgSubscribe:
			err = c.handleSubscribe(f.payload)
		case wire.MsgUnsubscribe:
			// No subscription in flight on this connection; tolerate the
			// stray frame (a client Close racing the server's Done).
			err = nil
		default:
			err = fmt.Errorf("unexpected message %#x", f.typ)
		}
		c.pending.Add(-1)
		if err != nil {
			return err
		}
	}
	return io.EOF
}

// frameHook, when set, runs before each post-handshake frame is
// dispatched; tests use it to stall a handler.
var frameHook atomic.Pointer[func(typ byte)]

// armWrite applies the server's write timeout ahead of socket writes.
// It is re-armed per frame, so the bound is per write, not per
// statement — a long result stream to a healthy-but-slow client keeps
// extending it, while a peer that stopped draining trips it once its
// receive window and our buffer fill.
func (c *conn) armWrite() {
	if d := c.srv.opts.WriteTimeout; d > 0 {
		c.nc.SetWriteDeadline(time.Now().Add(d))
	}
}

func (c *conn) send(typ byte, payload []byte) error {
	c.armWrite()
	if err := wire.WriteFrame(c.bw, typ, payload); err != nil {
		return err
	}
	return c.bw.Flush()
}

// sendError reports a statement failure and keeps the connection alive.
func (c *conn) sendError(err error) error {
	var b wire.Buffer
	b.String(err.Error())
	return c.send(wire.MsgError, b.B)
}

func (c *conn) sendDone(affected, rows int, flags byte) error {
	var b wire.Buffer
	b.U32(uint32(affected))
	b.U32(uint32(rows))
	b.U8(flags)
	return c.send(wire.MsgDone, b.B)
}

// sendResult streams a materialized result. preDone, when non-nil, runs
// between the last row and Done (the Stats frame's slot).
func (c *conn) sendResult(res *core.Result, flags byte, preDone func() error) error {
	if len(res.Columns) > 0 {
		var b wire.Buffer
		b.Strings(res.Columns)
		if err := c.send(wire.MsgColumns, b.B); err != nil {
			return err
		}
		for _, row := range res.Rows {
			var rb wire.Buffer
			rb.Row(row)
			c.armWrite()
			if err := wire.WriteFrame(c.bw, wire.MsgRow, rb.B); err != nil {
				return err
			}
		}
	}
	if preDone != nil {
		if err := preDone(); err != nil {
			return err
		}
	}
	return c.sendDone(res.Affected, len(res.Rows), flags)
}

func (c *conn) handleQuery(payload []byte) error {
	r := wire.NewReader(payload)
	sql := r.String()
	args := r.Values()
	// The query-flags byte is optional: a version-2 client that predates
	// it simply omits it, which reads as 0.
	var qflags byte
	if r.More() {
		qflags = r.U8()
	}
	if err := r.Err(); err != nil {
		return err
	}
	ctx, finish := c.beginStmt()
	defer finish()
	wantStats := qflags&wire.QueryFlagWantStats != 0
	if wantStats {
		// Record per-operator stats for this statement so the Stats frame
		// carries the annotated plan; restore the session's prior setting
		// afterwards (a session that already records keeps recording).
		pinned := c.sess.RecordNodeStats()
		c.sess.SetRecordNodeStats(true)
		defer c.sess.SetRecordNodeStats(pinned)
	}
	prev := c.sess.LastStats()
	defer c.logSlow(prev)
	// Ad-hoc statements enter the shared cache only when they are a
	// single SELECT — the shape that profits from re-execution. One-shot
	// DML/bulk-load scripts execute parse-and-discard. The cache is keyed
	// on SQL text alone: a parameterized statement hits it across
	// distinct argument values.
	prep, hit, err := c.srv.cache.get(c.srv.db, sql, func(p *core.Prepared) bool {
		_, ok := p.SingleSelect()
		return ok
	})
	if err != nil {
		return c.sendError(err)
	}
	if len(args) != prep.NumParams {
		return c.sendError(fmt.Errorf("server: statement has %d bind parameter(s), got %d argument(s)",
			prep.NumParams, len(args)))
	}
	var flags byte
	if hit {
		flags |= wire.FlagCacheHit
	}
	if sel, ok := prep.SingleSelect(); ok {
		return c.streamSelect(ctx, sel, args, flags, wantStats, prev)
	}
	res, err := c.sess.ExecStmtsArgs(ctx, prep.Stmts(), args)
	if err != nil {
		if errors.Is(err, context.Canceled) {
			return c.sendDone(0, 0, flags|wire.FlagCancelled)
		}
		return c.sendError(err)
	}
	var preDone func() error
	if wantStats {
		preDone = func() error { return c.sendStats(prev) }
	}
	return c.sendResult(res, flags, preDone)
}

// streamSelect runs one SELECT through the session cursor and streams
// each row as the pipeline produces it — the progressive path: the
// client sees the first best matches while dominance testing continues,
// and a Cancel stops the remaining work (between rows via the flag, and
// mid-scan via the statement context).
func (c *conn) streamSelect(ctx context.Context, sel *ast.Select, args []value.Value, flags byte, wantStats bool, prev *core.StmtStats) error {
	cur, err := c.sess.OpenCursorSelectArgs(ctx, sel, args)
	if err != nil {
		if errors.Is(err, context.Canceled) {
			return c.sendDone(0, 0, flags|wire.FlagCancelled)
		}
		return c.sendError(err)
	}
	defer cur.Close()
	var b wire.Buffer
	b.Strings(cur.Columns())
	if err := c.send(wire.MsgColumns, b.B); err != nil {
		return err
	}
	n := 0
	for cur.Next() {
		if c.cancel.Load() {
			flags |= wire.FlagCancelled
			break
		}
		var rb wire.Buffer
		rb.Row(cur.Row())
		c.armWrite()
		if err := wire.WriteFrame(c.bw, wire.MsgRow, rb.B); err != nil {
			return err
		}
		n++
		// Flush eagerly at the head of the stream — progressive first
		// answers reach the client as soon as they are known maximal —
		// then batch: one syscall per row would dominate bulk results.
		// (bufio also flushes on its own whenever its buffer fills.)
		if n <= 16 || n%64 == 0 {
			if err := c.bw.Flush(); err != nil {
				return err
			}
		}
	}
	if err := cur.Err(); err != nil {
		if errors.Is(err, context.Canceled) {
			return c.sendDone(0, n, flags|wire.FlagCancelled)
		}
		return c.sendError(err)
	}
	// Close before reading stats: the cursor records its statement
	// (latency, counters, plan) when it closes. Close is idempotent, so
	// the deferred Close stays harmless.
	cur.Close()
	if wantStats {
		if err := c.sendStats(prev); err != nil {
			return err
		}
	}
	return c.sendDone(0, n, flags)
}

func (c *conn) handlePrepare(payload []byte) error {
	r := wire.NewReader(payload)
	sql := r.String()
	if err := r.Err(); err != nil {
		return err
	}
	// Bound the per-connection handle map: the shared cache evicts at
	// capacity, but handles pin their Prepared beyond eviction, so a
	// client looping Prepare without CloseStmt must not grow server
	// memory without bound.
	if len(c.stmts) >= maxStmtsPerConn {
		return c.sendError(fmt.Errorf("server: too many open prepared statements (max %d); CloseStmt some", maxStmtsPerConn))
	}
	// An explicit Prepare always caches: the client is declaring intent
	// to re-execute.
	prep, _, err := c.srv.cache.get(c.srv.db, sql, nil)
	if err != nil {
		return c.sendError(err)
	}
	c.stmtSeq++
	id := c.stmtSeq
	c.stmts[id] = prep
	var b wire.Buffer
	b.U32(id)
	b.U16(uint16(prep.NumParams))
	return c.send(wire.MsgPrepared, b.B)
}

func (c *conn) handleExecute(payload []byte) error {
	r := wire.NewReader(payload)
	id := r.U32()
	args := r.Values()
	if err := r.Err(); err != nil {
		return err
	}
	prep, ok := c.stmts[id]
	if !ok {
		return c.sendError(fmt.Errorf("server: no prepared statement %d", id))
	}
	ctx, finish := c.beginStmt()
	defer finish()
	prev := c.sess.LastStats()
	defer c.logSlow(prev)
	// Execute runs through ExecPreparedArgs so a plain single SELECT
	// re-executes its cached plan with the fresh arguments — the planner
	// is skipped across distinct argument values, which is the point of
	// binding parameters instead of inlining literals. (The ad-hoc Query
	// path streams instead; choose per call site.)
	res, reused, err := c.sess.ExecPreparedArgs(ctx, prep, args)
	if err != nil {
		if errors.Is(err, context.Canceled) {
			return c.sendDone(0, 0, wire.FlagCacheHit|wire.FlagCancelled)
		}
		return c.sendError(err)
	}
	flags := wire.FlagCacheHit
	if reused {
		flags |= wire.FlagPlanReused
	}
	return c.sendResult(res, flags, nil)
}

func (c *conn) handleCloseStmt(payload []byte) error {
	r := wire.NewReader(payload)
	id := r.U32()
	if err := r.Err(); err != nil {
		return err
	}
	delete(c.stmts, id)
	return c.sendDone(0, 0, 0)
}

func (c *conn) handleSet(payload []byte) error {
	r := wire.NewReader(payload)
	key, val := r.String(), r.String()
	if err := r.Err(); err != nil {
		return err
	}
	switch key {
	case wire.SetMode:
		switch val {
		case "native":
			c.sess.SetMode(core.ModeNative)
		case "rewrite":
			c.sess.SetMode(core.ModeRewrite)
		default:
			return c.sendError(fmt.Errorf("server: unknown mode %q", val))
		}
	case wire.SetAlgorithm:
		a, ok := bmo.ParseToken(val)
		if !ok {
			return c.sendError(fmt.Errorf("server: unknown algorithm %q", val))
		}
		c.sess.SetAlgorithm(a)
	case wire.SetWorkers:
		n, err := strconv.Atoi(val)
		if err != nil || n < 0 {
			return c.sendError(fmt.Errorf("server: workers must be a non-negative integer, got %q", val))
		}
		c.sess.SetWorkers(n)
	default:
		return c.sendError(fmt.Errorf("server: unknown setting %q", key))
	}
	return c.sendDone(0, 0, 0)
}

// handleExplain renders a statement's plan without (for rewrite/plan
// modes) executing it. The exchange is exactly one PlanText or Error
// frame — no Done — mirroring the client's Explain call.
func (c *conn) handleExplain(payload []byte) error {
	r := wire.NewReader(payload)
	mode := r.U8()
	sql := r.String()
	if err := r.Err(); err != nil {
		return err
	}
	var (
		text string
		err  error
	)
	switch mode {
	case wire.ExplainRewrite:
		if p, perr := c.srv.db.RewritePlan(sql); perr != nil {
			err = perr
		} else {
			text = p.Script()
		}
	case wire.ExplainPlan:
		text, err = c.sess.ExplainNative(sql)
	case wire.ExplainAnalyze:
		text, err = c.sess.ExplainAnalyze(sql)
	default:
		err = fmt.Errorf("server: unknown explain mode %d", mode)
	}
	if err != nil {
		return c.sendError(err)
	}
	var b wire.Buffer
	b.String(text)
	return c.send(wire.MsgPlanText, b.B)
}
