package core

import (
	"fmt"

	"repro/internal/exec"
	"repro/internal/parser"
	"repro/internal/plan"
)

// ExplainNative renders the native execution plan of a single SELECT —
// the tree the streaming cursor (QueryIter / QueryProgressive's relaxed
// sibling) executes: for preference queries the candidate pipeline, the
// BMO node with the algorithm (or the statistics-derived vectorized
// operator and its estimated candidate cardinality), the session's
// worker cap, GROUPING and the preference-algebra rewrite's decisions
// (`pushdown=left|right|split`, semijoin and group-wise pre-filter
// markers), then the ButOnly and QualityProject tail. It is the
// native-mode sibling of ExplainRewrite/RewritePlan and the surface the
// golden plan tests pin.
//
// A `progressive` BMO node marks a query the cursor streams, while the
// batch Query/Exec path evaluates the same tree with batch BMO semantics.
func (db *DB) ExplainNative(sql string) (string, error) { return db.def.ExplainNative(sql) }

// ExplainNative is the session-scoped variant; the session's algorithm
// and worker settings appear in the rendered BMO node as the streaming
// cursor would execute them.
func (s *Session) ExplainNative(sql string) (string, error) { return s.explain(sql, false) }

// ExplainAnalyze plans a single SELECT exactly like ExplainNative, then
// executes the plan with per-operator instrumentation and renders every
// plan line annotated with its runtime counters — `(rows=N est=M
// time=T)` on each operator, plus the operator-specific extras (index
// probes; BMO input rows, semijoin partner-filter drops, vectorized
// `eliminated=E blocks=N pruned=M`) — and a footer totalling the
// statement's row-level work.
func (db *DB) ExplainAnalyze(sql string) (string, error) { return db.def.ExplainAnalyze(sql) }

// ExplainAnalyze is the session-scoped variant; the session's algorithm,
// pushdown and workers settings shape the executed plan.
func (s *Session) ExplainAnalyze(sql string) (string, error) { return s.explain(sql, true) }

// explain formats — or, with analyze, runs and annotates — the cursor
// plan of one SELECT, plain, sharded or preference alike.
func (s *Session) explain(sql string, analyze bool) (string, error) {
	sel, err := parser.ParseSelect(sql)
	if err != nil {
		return "", err
	}
	s.db.stmtMu.RLock()
	defer s.db.stmtMu.RUnlock()
	p, err := s.planSelect(sel, bgEnv, formCursor)
	if err != nil {
		return "", err
	}
	if !analyze {
		return plan.Format(p.node), nil
	}
	if p.env.Rec == nil {
		p.env.Rec = exec.NewNodeRec()
	}
	op, err := p.build()
	if err != nil {
		return "", err
	}
	rows, err := exec.Drain(op)
	if err != nil {
		return "", err
	}
	return annotatePlan(p.node, p.env.Rec) + analyzeFooter(len(rows), p.env.Stats), nil
}

// analyzeFooter renders the EXPLAIN ANALYZE totals line.
func analyzeFooter(rows int, st *exec.Stats) string {
	snap := st.Snapshot()
	return fmt.Sprintf("-- rows=%d scanned=%d probes=%d join_in=%d bmo_in=%d bmo_out=%d\n",
		rows, snap.RowsScanned, snap.IndexProbes, snap.JoinInputRows, snap.BMOInputRows, snap.BMOOutputRows)
}
