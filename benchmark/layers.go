package main

import (
	"context"
	"fmt"
	"strings"
	"time"

	"repro/internal/ast"
	"repro/internal/bmo"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/parser"
	"repro/internal/preference"
	"repro/internal/value"
	"repro/internal/wire"
)

// query is one SELECT of a workload's stream, together with the pieces
// the traced run feeds to single layers: the candidate relation as its
// own statement (the query minus PREFERRING, all columns) and the
// preference term on its own.
type query struct {
	id   int    // logical statement: the oracle is computed once per id
	kind string // statement kind, for per-kind reporting
	sql  string
	args []any
	cand string // SELECT * FROM t [WHERE ...], placeholders as in sql
	pref string // text after PREFERRING (may contain CASCADE); "" if none
}

func (q query) String() string { return fmt.Sprintf("%s %v", q.sql, q.args) }

// parsePref parses a preference term by wrapping it in a statement.
func parsePref(term string) (ast.Pref, error) {
	sel, err := parser.ParseSelect("SELECT * FROM t PREFERRING " + term)
	if err != nil {
		return nil, err
	}
	return sel.Preferring, nil
}

// compilePref compiles a preference term against a fixed column layout,
// the way the layer metrics and the BNL oracles need it.
func compilePref(term string, cols []string) (preference.Preference, error) {
	p, err := parsePref(term)
	if err != nil {
		return nil, err
	}
	return preference.Compile(p, &preference.ColBinder{Cols: cols}, nil)
}

// layerSkips says which front-end layers the real statement did not pay
// for (a statement-cache hit skips the parser, a reused plan the
// planner), so the traced run does not attribute time to them.
type layerSkips struct{ parse, plan bool }

// traceSelect adds the child spans of one SELECT under root: parse,
// plan and execution of the candidate query, preference compilation and
// BMO evaluation over the candidate rows.
func traceSelect(tr *tracer, root, stmt int, eng *engine.DB, q query, workers int, skip layerSkips) error {
	var err error
	if !skip.parse {
		tr.child("parser.parse", root, stmt, func() { _, err = parser.ParseAll(q.sql) })
		if err != nil {
			return err
		}
	}
	candSel, err := parser.ParseSelect(q.cand)
	if err != nil {
		return fmt.Errorf("candidate query: %w", err)
	}
	args, err := value.FromGoArgs(q.args)
	if err != nil {
		return err
	}
	node, err := eng.PlanStream(candSel)
	if err != nil {
		return err
	}
	if !skip.plan {
		tr.child("plan.plan", root, stmt, func() { _, err = eng.PlanStream(candSel) })
		if err != nil {
			return err
		}
	}
	var cand *engine.Result
	tr.child("exec.exec", root, stmt, func() { cand, err = eng.ExecPlanArgs(context.Background(), node, args) })
	if err != nil {
		return err
	}
	if q.pref != "" {
		prefAST, err := parsePref(q.pref)
		if err != nil {
			return err
		}
		var pref preference.Preference
		binder := &preference.ColBinder{Cols: cand.Columns}
		tr.child("preference.compile", root, stmt, func() { pref, err = preference.Compile(prefAST, binder, nil) })
		if err != nil {
			return err
		}
		var out []value.Row
		var st bmo.Stats
		tr.child("bmo.eval", root, stmt, func() {
			out, st, err = bmo.EvaluateConfig(pref, cand.Rows, bmo.Auto, bmo.Config{Workers: workers})
		})
		if err != nil {
			return err
		}
		tr.observe("bmo.rows_in", float64(len(cand.Rows)))
		tr.observe("bmo.rows_out", float64(len(out)))
		if len(cand.Rows) > 0 {
			tr.observe("bmo.comparisons_per_row", float64(st.Comparisons)/float64(len(cand.Rows)))
		}
	}
	return nil
}

// traceWire times the wire codec over the rows a statement moved over a
// connection, per row.
func traceWire(tr *tracer, rows []value.Row) {
	if len(rows) == 0 {
		return
	}
	var buf wire.Buffer
	t0 := time.Now()
	for _, r := range rows {
		buf.Row(r)
	}
	enc := time.Since(t0)
	rd := wire.NewReader(buf.B)
	t0 = time.Now()
	for range rows {
		rd.Row()
	}
	dec := time.Since(t0)
	n := float64(len(rows))
	tr.observe("wire.encode_us_per_row", us(enc)/n)
	tr.observe("wire.decode_us_per_row", us(dec)/n)
	tr.observe("wire.bytes_per_row", float64(len(buf.B))/n)
}

// statCounts accumulates the engine's own per-statement counters over
// the traced statements (from Session.LastStats), for the ratios.
type statCounts struct {
	scanned, returned          int64
	eqReads, eqReadsProbed     int
	eqDML, eqDMLProbed         int
	blocksScanned, blocksPrune int64
}

// observe folds one statement's counters in. equality says the
// statement has an equality predicate an index could serve.
func (c *statCounts) observe(st *core.StmtStats, rows int, equality, dml bool) {
	if st == nil {
		return
	}
	c.scanned += st.Exec.RowsScanned
	c.returned += int64(rows)
	c.blocksScanned += st.Exec.VecBlocksScanned
	c.blocksPrune += st.Exec.VecBlocksPruned
	if !equality {
		return
	}
	n, probed := &c.eqReads, &c.eqReadsProbed
	if dml {
		n, probed = &c.eqDML, &c.eqDMLProbed
	}
	*n++
	if st.Exec.IndexProbes > 0 {
		*probed++
	}
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func (c *statCounts) report(res *result) {
	res.add("exec.rows_examined_per_result", ratio(float64(c.scanned), float64(c.returned)), int(c.returned))
	res.add("exec.index_probe_share_reads", ratio(float64(c.eqReadsProbed), float64(c.eqReads)), c.eqReads)
	res.add("exec.index_probe_share_dml", ratio(float64(c.eqDMLProbed), float64(c.eqDML)), c.eqDML)
	res.add("bmo.vec_block_prune_rate", ratio(float64(c.blocksPrune), float64(c.blocksScanned)), int(c.blocksScanned))
}

// literal renders args into a `?` template as SQL literals, for the
// statements a workload sends as plain text.
func literal(template string, args ...any) string {
	var b strings.Builder
	i := 0
	for _, r := range template {
		if r == '?' && i < len(args) {
			v, err := value.FromGo(args[i])
			if err != nil {
				panic(err)
			}
			b.WriteString(v.SQL())
			i++
			continue
		}
		b.WriteRune(r)
	}
	return b.String()
}

// answers remembers, per logical statement, the first answer a client
// saw and how often it ran: every later execution must return the same
// multiset, and the end-of-run oracle is compared with the remembered one.
type answers struct {
	seen map[int]uint64
	runs map[int]int
}

func newAnswers() answers { return answers{seen: map[int]uint64{}, runs: map[int]int{}} }

func (a answers) check(q query, rows []value.Row) error {
	d := digest(rows)
	a.runs[q.id]++
	if prev, ok := a.seen[q.id]; !ok {
		a.seen[q.id] = d
	} else if prev != d {
		return fmt.Errorf("answer changed between executions of %s", q)
	}
	return nil
}

// verify compares the remembered answer of q with the oracle's rows,
// failing every execution of q when they differ.
func (a answers) verify(res *result, q query, want []value.Row, oracle string) {
	if got, ok := a.seen[q.id]; ok && got != digest(want) {
		res.fail(a.runs[q.id], "answer differs from %s (%d rows) for %s", oracle, len(want), q)
	}
}
