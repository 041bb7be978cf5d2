package core

import (
	"fmt"
	"strings"
	"time"

	"repro/internal/ast"
	"repro/internal/exec"
	"repro/internal/metrics"
	"repro/internal/plan"
)

// This file is the core layer's observability seam: every statement that
// runs through a Session is timed, classified by kind, and its pipeline
// work counters flushed into the process-wide metrics registry; the
// completed statement's summary (and, when per-operator recording is on,
// its annotated plan) is kept as the session's LastStats for the server's
// slow-query log, the wire protocol's stats reply and prefsql's \stats.

var (
	mQuerySeconds = metrics.Default.Histogram("prefsql_query_seconds",
		"statement latency in seconds (everything except SET)")
	mStmtErrors = metrics.Default.Counter("prefsql_statement_errors_total",
		"statements that returned an error")
	mSlowQueries = metrics.Default.Counter("prefsql_slow_queries_total",
		"statements at or above the session slow_query_ms threshold")

	mRowsScanned = metrics.Default.Counter("prefsql_rows_scanned_total",
		"rows pulled out of base tables and materialized sources")
	mIndexProbes = metrics.Default.Counter("prefsql_index_probes_total",
		"index probes answered without a full scan")
	mJoinInputRows = metrics.Default.Counter("prefsql_join_input_rows_total",
		"rows consumed by join operators from both inputs")
	mBMOInputRows = metrics.Default.Counter("prefsql_bmo_input_rows_total",
		"rows entering Best-Matches-Only dominance evaluation")
	mBMOOutputRows = metrics.Default.Counter("prefsql_bmo_output_rows_total",
		"undominated rows emitted by BMO operators")
	mVecBlocksScanned = metrics.Default.Counter("prefsql_vec_blocks_scanned_total",
		"vectorized BMO zone-map blocks examined")
	mVecBlocksPruned = metrics.Default.Counter("prefsql_vec_blocks_pruned_total",
		"vectorized BMO zone-map blocks skipped wholesale")

	mPlanReuses = metrics.Default.Counter("prefsql_plan_cache_reuses_total",
		"prepared-statement executions that skipped the planner via a cached plan")
	mPlanRebuilds = metrics.Default.Counter("prefsql_plan_cache_rebuilds_total",
		"prepared-statement plans rebuilt (first plan or write-epoch invalidation)")
	mEpochBumps = metrics.Default.Counter("prefsql_write_epoch_bumps_total",
		"write-epoch advances (each invalidates every cached plan)")

	stmtCounters = map[string]*metrics.Counter{}
)

func init() {
	for _, kind := range []string{"select", "pref_select", "dml", "ddl", "set", "other"} {
		stmtCounters[kind] = metrics.Default.CounterL("prefsql_statements_total",
			`kind="`+kind+`"`, "statements executed, by kind")
	}
}

// stmtKind classifies a statement for the per-kind counters.
func stmtKind(stmt ast.Stmt) string {
	switch st := stmt.(type) {
	case *ast.Select:
		if st.HasPreference() {
			return "pref_select"
		}
		return "select"
	case *ast.Insert, *ast.Update, *ast.Delete:
		return "dml"
	case *ast.Set:
		return "set"
	case *ast.CreateTable, *ast.CreateView, *ast.CreateIndex, *ast.CreatePreference, *ast.Drop:
		return "ddl"
	default:
		return "other"
	}
}

func stmtSQL(stmt ast.Stmt) string {
	if s, ok := stmt.(interface{ SQL() string }); ok {
		return s.SQL()
	}
	return ""
}

// StmtStats summarizes one completed statement: the session keeps the
// most recent one (LastStats) for the slow-query log, the wire stats
// reply and \stats. Exec is a point-in-time snapshot of the statement's
// pipeline counters; Plan is the node-annotated plan when per-operator
// recording was on for the statement, "" otherwise.
type StmtStats struct {
	SQL      string
	Kind     string
	Duration time.Duration
	Rows     int64
	Exec     exec.Stats
	Plan     string
}

// LastStats returns the summary of the session's most recently completed
// successful statement, or nil when none has run yet.
func (s *Session) LastStats() *StmtStats { return s.last.Load() }

// execStmt wraps the statement router with the observability seam: it
// times the statement, bumps the per-kind and error counters, flushes
// the pipeline work counters into the metrics registry, and records the
// session's LastStats. The caller holds the appropriate statement lock.
func (s *Session) execStmt(stmt ast.Stmt, ee execEnv) (*Result, error) {
	start := time.Now()
	res, err := s.routeStmt(stmt, ee)
	s.observe(stmtKind(stmt), stmtSQL(stmt), res, err, time.Since(start))
	return res, err
}

// observe records one completed statement. It is shared by the batch
// path (execStmt), the streaming cursor (at close) and the prepared
// plan-cache path.
func (s *Session) observe(kind, sqlText string, res *Result, err error, d time.Duration) {
	if c := stmtCounters[kind]; c != nil {
		c.Inc()
	} else {
		stmtCounters["other"].Inc()
	}
	if err != nil {
		mStmtErrors.Inc()
		s.pendingPlan.Store(nil)
		return
	}
	if kind != "set" {
		mQuerySeconds.ObserveDuration(d)
	}
	var rows int64
	var snap exec.Stats
	if res != nil {
		rows = int64(len(res.Rows))
		if res.Stats != nil {
			snap = res.Stats.Snapshot()
			flushExecStats(snap)
		}
	}
	planText := ""
	if p := s.pendingPlan.Swap(nil); p != nil {
		planText = *p
	}
	s.last.Store(&StmtStats{SQL: sqlText, Kind: kind, Duration: d, Rows: rows,
		Exec: snap, Plan: planText})
	if ms := s.SlowQueryMillis(); ms >= 0 && d >= time.Duration(ms)*time.Millisecond {
		mSlowQueries.Inc()
	}
}

// observeCursor is the streaming twin of observe: the cursor calls it
// once, when it is closed, with the rows it actually emitted.
func (s *Session) observeCursor(kind, sqlText string, rows int64, st *exec.Stats,
	planText string, d time.Duration) {
	if c := stmtCounters[kind]; c != nil {
		c.Inc()
	}
	mQuerySeconds.ObserveDuration(d)
	var snap exec.Stats
	if st != nil {
		snap = st.Snapshot()
		flushExecStats(snap)
	}
	s.last.Store(&StmtStats{SQL: sqlText, Kind: kind, Duration: d, Rows: rows,
		Exec: snap, Plan: planText})
	if ms := s.SlowQueryMillis(); ms >= 0 && d >= time.Duration(ms)*time.Millisecond {
		mSlowQueries.Inc()
	}
}

// flushExecStats adds one statement's pipeline counters to the global
// totals.
func flushExecStats(snap exec.Stats) {
	mRowsScanned.Add(snap.RowsScanned)
	mIndexProbes.Add(snap.IndexProbes)
	mJoinInputRows.Add(snap.JoinInputRows)
	mBMOInputRows.Add(snap.BMOInputRows)
	mBMOOutputRows.Add(snap.BMOOutputRows)
	mVecBlocksScanned.Add(snap.VecBlocksScanned)
	mVecBlocksPruned.Add(snap.VecBlocksPruned)
}

// stashPlan renders the node-annotated plan and parks it for the
// observe call that completes the same statement.
func (s *Session) stashPlan(node plan.Node, rec *exec.NodeRec) {
	p := annotatePlan(node, rec)
	s.pendingPlan.Store(&p)
}

// annotatePlan renders a plan with each node's recorded runtime counters.
func annotatePlan(node plan.Node, rec *exec.NodeRec) string {
	return plan.FormatAnnotated(node, func(n plan.Node) string {
		return nodeAnnotation(n, rec)
	})
}

// nodeAnnotation renders one node's `(rows=N est=M time=T ...)` suffix:
// actual cardinality against the planner's estimate, cumulative wall
// time, and the operator-specific counters (index probes; BMO input
// rows, semijoin partner-filter drops, vectorized eliminated rows and
// zone-map blocks).
func nodeAnnotation(n plan.Node, rec *exec.NodeRec) string {
	ns := rec.Lookup(n)
	if ns == nil {
		return "(never executed)"
	}
	snap := ns.Snapshot()
	var b strings.Builder
	fmt.Fprintf(&b, "(rows=%d", snap.Rows)
	if est := plan.EstimateRows(n); est >= 0 {
		fmt.Fprintf(&b, " est=%d", est)
	}
	fmt.Fprintf(&b, " time=%s", fmtDur(time.Duration(snap.Nanos)))
	if _, ok := n.(*plan.IndexScan); ok {
		fmt.Fprintf(&b, " probes=%d", snap.Probes)
	}
	if bn, ok := n.(*plan.BMO); ok {
		fmt.Fprintf(&b, " in=%d", snap.InputRows)
		if bn.SemiSource != nil {
			fmt.Fprintf(&b, " semi_dropped=%d", snap.SemiDropped)
		}
		if bn.Vectorized {
			fmt.Fprintf(&b, " eliminated=%d blocks=%d pruned=%d", snap.Eliminated, snap.BlocksScanned, snap.BlocksPruned)
		}
	}
	b.WriteString(")")
	return b.String()
}

// fmtDur renders a duration at a precision matched to its magnitude, so
// annotations stay short without losing the signal.
func fmtDur(d time.Duration) string {
	switch {
	case d >= time.Second:
		return d.Round(time.Millisecond).String()
	case d >= time.Millisecond:
		return d.Round(10 * time.Microsecond).String()
	default:
		return d.Round(time.Microsecond).String()
	}
}
