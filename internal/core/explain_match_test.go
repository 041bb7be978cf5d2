package core

import (
	"context"
	"fmt"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"repro/internal/plan"
	"repro/internal/value"
)

// localShards is an in-process Distributor: each shard is a DB of its
// own, queried through its cursor. It stands in for internal/dist's wire
// transport (which this package cannot import) with the same contract —
// each shard session keeps its default algorithm.
type localShards struct {
	table, hashCol string
	shards         []*DB
}

func (l *localShards) Lookup(table string) (string, bool) {
	return l.hashCol, strings.EqualFold(table, l.table)
}

func (l *localShards) Transport() plan.ShardTransport { return l }

func (l *localShards) ShardNames() []string {
	names := make([]string, len(l.shards))
	for i := range names {
		names[i] = fmt.Sprintf("s%d", i)
	}
	return names
}

func (l *localShards) Query(ctx context.Context, i int, sql string, args []value.Value, progressive bool) (plan.ShardStream, error) {
	c, err := l.shards[i].NewSession().OpenCursorValues(ctx, sql, args)
	if err != nil {
		return nil, err
	}
	return cursorStream{c}, nil
}

func (l *localShards) Exec(ctx context.Context, shard int, sql string, args []value.Value) (int64, error) {
	res, err := l.shards[shard].DefaultSession().ExecValues(ctx, sql, args)
	if err != nil {
		return 0, err
	}
	return int64(res.Affected), nil
}

func (l *localShards) ExecAll(ctx context.Context, sql string, args []value.Value) (int64, error) {
	var total int64
	for i := range l.shards {
		n, err := l.Exec(ctx, i, sql, args)
		if err != nil {
			return total, err
		}
		total += n
	}
	return total, nil
}

type cursorStream struct{ c *Cursor }

func (s cursorStream) Next() (value.Row, bool, error) {
	if s.c.Next() {
		return s.c.Row(), true, nil
	}
	return nil, false, s.c.Err()
}

func (s cursorStream) Close() error { return s.c.Close() }

var analyzeRows = regexp.MustCompile(`(?m)^-- rows=(\d+) `)

// TestExplainAnalyzeMatchesQuery pins that EXPLAIN ANALYZE runs the plan
// the statement executes: for every query of the explain and pushdown
// goldens, GROUPING, BUT ONLY with quality functions, quality
// projections, ORDER BY / DISTINCT / OFFSET / LIMIT and a sharded query,
// the `-- rows=N` footer equals the row count of Query and of the
// cursor, and the cursor returns Query's rows (as a set: the cursor
// streams progressively where Query evaluates in batch).
func TestExplainAnalyzeMatchesQuery(t *testing.T) {
	db := explainDB(t)
	local := []string{
		// explain goldens
		`SELECT id FROM big PREFERRING LOWEST(d1) AND LOWEST(d2)`,
		`SELECT id FROM big WHERE d3 < 2 PREFERRING LOWEST(d1) AND LOWEST(d2)`,
		`SELECT id FROM big PREFERRING LOWEST(d1 + d2) AND LOWEST(d2)`,
		// (the golden's subquery preference runs over small: a subquery per
		// candidate row over big takes seconds)
		`SELECT id FROM small PREFERRING LOWEST(d1) AND LOWEST((SELECT MIN(e1) FROM dim) + d2)`,
		`SELECT id FROM small PREFERRING LOWEST(d1) AND LOWEST(d2)`,
		`SELECT id FROM mid WHERE d3 < 0.5 PREFERRING LOWEST(d1) AND LOWEST(d2)`,
		`SELECT id FROM big PREFERRING LOWEST(d2) CASCADE EXPLICIT(d1, 1 > 2)`,
		`SELECT id FROM c PREFERRING LOWEST(price) AND LOWEST(km) GROUPING grp`,
		`SELECT id FROM big WHERE d1 < 0.1 LIMIT 5`,
		// pushdown goldens
		`SELECT * FROM small s, dim WHERE s.id = dim.k PREFERRING LOWEST(s.d1) AND LOWEST(s.d2)`,
		`SELECT * FROM small s, dim WHERE s.id = dim.k PREFERRING HIGHEST(dim.e1)`,
		`SELECT * FROM small s, dim WHERE s.id = dim.k PREFERRING LOWEST(s.d1) AND LOWEST(dim.e1)`,
		`SELECT * FROM small s, dim WHERE s.id = dim.k PREFERRING LOWEST(s.d1) CASCADE LOWEST(dim.e1)`,
		`SELECT * FROM small s LEFT JOIN dim ON s.id = dim.k PREFERRING LOWEST(s.d1) AND LOWEST(s.d2)`,
		`SELECT id, DISTANCE(s.d1) FROM small s, dim WHERE s.id = dim.k PREFERRING LOWEST(s.d1) AND LOWEST(s.d2)`,
		`SELECT * FROM big b, dim WHERE b.id = dim.k PREFERRING LOWEST(b.d1) AND LOWEST(b.d2)`,
		// the quality tail
		`SELECT id FROM small PREFERRING LOWEST(d1) AND LOWEST(d2) BUT ONLY DISTANCE(d1) < 0.05`,
		`SELECT id FROM small PREFERRING LOWEST(d1) CASCADE LOWEST(d2) BUT ONLY TOP(d1)`,
		`SELECT id, TOP(d1), LEVEL(d2), DISTANCE(d2) FROM small PREFERRING LOWEST(d1) AND LOWEST(d2)`,
		`SELECT id, LEVEL(price) FROM c PREFERRING LOWEST(price) AND LOWEST(km) GROUPING grp BUT ONLY DISTANCE(km) < 100`,
		`SELECT id FROM small PREFERRING LOWEST(d1) AND LOWEST(d2) ORDER BY DISTANCE(d1) DESC, id LIMIT 3 OFFSET 1`,
		`SELECT DISTINCT TOP(d1) FROM small PREFERRING LOWEST(d1) AND LOWEST(d2)`,
		`SELECT id FROM small PREFERRING LOWEST(d1) AND LOWEST(d2) ORDER BY id LIMIT 100 OFFSET 2`,
	}
	for _, q := range local {
		checkAnalyzeMatches(t, db.NewSession(), q)
	}

	// One sharded query: the same tail over a Gather.
	coord := Open()
	ls := &localShards{table: "data", hashCol: "id"}
	for i := 0; i < 4; i++ {
		ls.shards = append(ls.shards, Open())
	}
	coord.SetDistributor(ls)
	var b strings.Builder
	b.WriteString("CREATE TABLE data (id INT, x INT, y INT); INSERT INTO data VALUES ")
	for i := 0; i < 200; i++ {
		if i > 0 {
			b.WriteString(", ")
		}
		fmt.Fprintf(&b, "(%d, %d, %d)", i, (i*37)%101, (i*53)%97)
	}
	if _, err := coord.Exec(b.String()); err != nil {
		t.Fatal(err)
	}
	checkAnalyzeMatches(t, coord.NewSession(),
		`SELECT id, x FROM data WHERE y < 80 PREFERRING LOWEST(x) AND LOWEST(y) BUT ONLY x < 40 ORDER BY x, id`)
}

func checkAnalyzeMatches(t *testing.T, sess *Session, q string) {
	t.Helper()
	out, err := sess.ExplainAnalyze(q)
	if err != nil {
		t.Fatalf("%s: %v", q, err)
	}
	m := analyzeRows.FindStringSubmatch(out)
	if m == nil {
		t.Fatalf("%s: no footer in\n%s", q, out)
	}
	analyzed, _ := strconv.Atoi(m[1])
	res, err := sess.Query(q)
	if err != nil {
		t.Fatalf("%s: %v", q, err)
	}
	cur, err := sess.OpenCursor(q)
	if err != nil {
		t.Fatalf("%s: %v", q, err)
	}
	var rows []value.Row
	for cur.Next() {
		rows = append(rows, cur.Row())
	}
	if err := cur.Err(); err != nil {
		t.Fatalf("%s: %v", q, err)
	}
	cur.Close()
	if analyzed != len(res.Rows) || analyzed != len(rows) {
		t.Errorf("%s: EXPLAIN ANALYZE rows=%d, Query %d, cursor %d\n%s", q, analyzed, len(res.Rows), len(rows), out)
	}
	if canonicalRows(rows) != canonicalRows(res.Rows) {
		t.Errorf("%s: cursor rows differ from Query rows", q)
	}
}
