package core

import (
	"regexp"
	"strings"
	"testing"

	"repro/internal/bmo"
	"repro/internal/datagen"
	"repro/internal/storage"
	"repro/internal/value"
)

// explainDB loads skyline tables around the estimate from which the
// planner selects the vectorized BMO: big's bare scan estimate (30000)
// is over it and its filtered estimate (30000/3 = 10000) exactly on it;
// small's (600) and mid's filtered estimate (27000/3 = 9000) are below
// it.
func explainDB(t *testing.T) *DB {
	t.Helper()
	db := Open()
	cols := datagen.SkylineColumns(3)
	if err := datagen.Load(db.Engine(), "big", cols, datagen.Skyline(30000, 3, datagen.Independent, 1)); err != nil {
		t.Fatal(err)
	}
	if err := datagen.Load(db.Engine(), "mid", cols, datagen.Skyline(27000, 3, datagen.Independent, 2)); err != nil {
		t.Fatal(err)
	}
	if err := datagen.Load(db.Engine(), "small", cols, datagen.Skyline(600, 3, datagen.Independent, 3)); err != nil {
		t.Fatal(err)
	}
	// dim is the dimension side of the pushdown goldens: it keys only
	// ids 1..500, so joins against it do not preserve the fact side.
	dimCols := []storage.Column{{Name: "k", Kind: value.Int}, {Name: "e1", Kind: value.Float}}
	dimRows := make([]value.Row, 0, 500)
	for i := 1; i <= 500; i++ {
		dimRows = append(dimRows, value.Row{value.NewInt(int64(i)), value.NewFloat(float64(i) / 500)})
	}
	if err := datagen.Load(db.Engine(), "dim", dimCols, dimRows); err != nil {
		t.Fatal(err)
	}
	// c is the GROUPING example: two rows form the ungrouped skyline,
	// three the per-grp skylines.
	if _, err := db.Exec(`CREATE TABLE c (id INT, price INT, km INT, grp INT);
		INSERT INTO c VALUES (1, 10, 100, 1), (2, 20, 50, 1), (3, 15, 200, 2), (4, 30, 300, 2)`); err != nil {
		t.Fatal(err)
	}
	// s is the grouped-SQL example: three groups, one dropped by HAVING.
	if _, err := db.Exec(`CREATE TABLE s (r VARCHAR, v INT);
		INSERT INTO s VALUES ('a', 1), ('b', 2), ('a', 3), ('c', 1), ('b', 5)`); err != nil {
		t.Fatal(err)
	}
	return db
}

// TestExplainGolden pins the native plan rendering — especially the
// planner's statistics-derived vectorized selection — as readable golden
// strings, so a planner regression shows up as a plan diff rather than
// a silent performance cliff.
func TestExplainGolden(t *testing.T) {
	db := explainDB(t)
	cases := []struct {
		name string
		prep func(s *Session)
		sql  string
		want string
	}{
		{
			name: "vec-selected-big-table",
			sql:  `SELECT id FROM big PREFERRING LOWEST(d1) AND LOWEST(d2)`,
			want: "QualityProject id\n" +
				"  BMO vec est=30000 columnar [(LOWEST(d1) AND LOWEST(d2))]\n" +
				"    Project *\n" +
				"      SeqScan big\n",
		},
		{
			name: "vec-filtered-scan-generic-fill",
			sql:  `SELECT id FROM big WHERE d3 < 2 PREFERRING LOWEST(d1) AND LOWEST(d2)`,
			want: "QualityProject id\n" +
				"  BMO vec est=10000 [(LOWEST(d1) AND LOWEST(d2))]\n" +
				"    Project *\n" +
				"      SeqScan big [(d3 < 2)]\n",
		},
		{
			// An opaque computed score expression cannot map onto column
			// vectors, so the planner refuses vectorization.
			name: "vec-refused-opaque-expression",
			sql:  `SELECT id FROM big PREFERRING LOWEST(d1 + d2) AND LOWEST(d2)`,
			want: "QualityProject id\n" +
				"  BMO progressive auto [(LOWEST((d1 + d2)) AND LOWEST(d2))]\n" +
				"    Project *\n" +
				"      SeqScan big\n",
		},
		{
			// Subquery preferences stay row-at-a-time (and single-worker,
			// like the parallel path).
			name: "vec-refused-subquery-preference",
			sql:  `SELECT id FROM big PREFERRING LOWEST(d1) AND LOWEST((SELECT MIN(e1) FROM dim) + d2)`,
			want: "QualityProject id\n" +
				"  BMO progressive auto workers=1 [(LOWEST(d1) AND LOWEST(((SELECT MIN(e1) FROM dim) + d2)))]\n" +
				"    Project *\n" +
				"      SeqScan big\n",
		},
		{
			name: "hint-absent-small-table",
			sql:  `SELECT id FROM small PREFERRING LOWEST(d1) AND LOWEST(d2)`,
			want: "QualityProject id\n" +
				"  BMO progressive auto [(LOWEST(d1) AND LOWEST(d2))]\n" +
				"    Project *\n" +
				"      SeqScan small\n",
		},
		{
			name: "hint-absent-filtered-estimate",
			sql:  `SELECT id FROM mid WHERE d3 < 0.5 PREFERRING LOWEST(d1) AND LOWEST(d2)`,
			want: "QualityProject id\n" +
				"  BMO progressive auto [(LOWEST(d1) AND LOWEST(d2))]\n" +
				"    Project *\n" +
				"      SeqScan mid [(d3 < 0.5)]\n",
		},
		{
			name: "explicit-parallel-with-workers",
			prep: func(s *Session) {
				s.SetAlgorithm(bmo.Parallel)
				s.SetWorkers(4)
			},
			sql: `SELECT id FROM small PREFERRING LOWEST(d1) AND LOWEST(d2)`,
			want: "QualityProject id\n" +
				"  BMO progressive parallel-partition-merge workers=4 [(LOWEST(d1) AND LOWEST(d2))]\n" +
				"    Project *\n" +
				"      SeqScan small\n",
		},
		{
			name: "batch-shape-keeps-algorithm",
			sql:  `SELECT id FROM big PREFERRING LOWEST(d2) CASCADE EXPLICIT(d1, 1 > 2)`,
			want: "QualityProject id\n" +
				"  BMO auto [LOWEST(d2) CASCADE EXPLICIT(d1)]\n" +
				"    Project *\n" +
				"      SeqScan big\n",
		},
		{
			// GROUPING is part of the plan: a batch BMO per group.
			name: "grouping",
			sql:  `SELECT id FROM c PREFERRING LOWEST(price) AND LOWEST(km) GROUPING grp`,
			want: "QualityProject id\n" +
				"  BMO auto grouping=grp [(LOWEST(price) AND LOWEST(km))]\n" +
				"    Project *\n" +
				"      SeqScan c\n",
		},
		{
			name: "plain-select-pipeline",
			sql:  `SELECT id FROM big WHERE d1 < 0.1 LIMIT 5`,
			want: "Limit count=5 offset=0\n" +
				"  Project id\n" +
				"    SeqScan big [(d1 < 0.1)]\n",
		},
		{
			name: "aggregate-without-group-by",
			sql:  `SELECT COUNT(*) FROM big`,
			want: "Project COUNT(*)\n" +
				"  Aggregate calls=[COUNT(*)]\n" +
				"    SeqScan big\n",
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			sess := db.NewSession()
			if tc.prep != nil {
				tc.prep(sess)
			}
			got, err := sess.ExplainNative(tc.sql)
			if err != nil {
				t.Fatal(err)
			}
			if got != tc.want {
				t.Errorf("plan diff\n--- want ---\n%s--- got ---\n%s", tc.want, got)
			}
		})
	}
}

// analyzeTime matches the wall-time annotation of a node; runtimes vary
// run to run, so the goldens normalize them to time=X before comparing.
var analyzeTime = regexp.MustCompile(`time=[^ )]+`)

// TestExplainAnalyzeGolden pins EXPLAIN ANALYZE's per-node annotations:
// every operator line carries its own `(rows=N est=M time=T)` plus the
// operator-specific extras — BMO input rows, semijoin partner-filter
// drops, vectorized zone-map activity — and the footer totals the
// statement's row-level work. Everything except the wall times is
// deterministic for the seeded datasets: big is 30000 rows =
// ceil(30000/1024) = 30 blocks, 15 of which the zone maps skip; the
// pushed semijoin keeps dim's 500 partner keys and drops the 100
// candidates without a partner. A re-opened node (dim is scanned by
// both the hash join and the semijoin partner filter, which share the
// plan node) accumulates across executions: rows=1000 over two 500-row
// scans.
func TestExplainAnalyzeGolden(t *testing.T) {
	db := explainDB(t)
	cases := []struct {
		name    string
		workers int
		sql     string
		want    string
	}{
		{
			// One worker: each extra partition starts with an empty
			// window, so its first block cannot prune.
			name:    "vectorized-zone-map-counters",
			workers: 1,
			sql:     `SELECT id FROM big PREFERRING LOWEST(d1) AND LOWEST(d2)`,
			want: "QualityProject id (rows=15 est=30000 time=X)\n" +
				"  BMO vec est=30000 columnar workers=1 [(LOWEST(d1) AND LOWEST(d2))] (rows=15 est=30000 time=X in=30000 blocks=30 pruned=15)\n" +
				"    Project * (rows=30000 est=30000 time=X)\n" +
				"      SeqScan big (rows=30000 est=30000 time=X)\n" +
				"-- rows=15 scanned=30000 probes=0 join_in=0 bmo_in=30000 bmo_out=15\n",
		},
		{
			name: "row-at-a-time-no-block-counters",
			sql:  `SELECT id FROM small PREFERRING LOWEST(d1) AND LOWEST(d2)`,
			want: "QualityProject id (rows=6 est=600 time=X)\n" +
				"  BMO progressive auto [(LOWEST(d1) AND LOWEST(d2))] (rows=6 est=600 time=X in=600)\n" +
				"    Project * (rows=600 est=600 time=X)\n" +
				"      SeqScan small (rows=600 est=600 time=X)\n" +
				"-- rows=6 scanned=600 probes=0 join_in=0 bmo_in=600 bmo_out=6\n",
		},
		{
			name: "plain-select-scan",
			sql:  `SELECT id FROM big WHERE d1 < 0.1 LIMIT 5`,
			want: "Limit count=5 offset=0 (rows=5 est=5 time=X)\n" +
				"  Project id (rows=5 est=10000 time=X)\n" +
				"    SeqScan big [(d1 < 0.1)] (rows=5 est=10000 time=X)\n" +
				"-- rows=5 scanned=61 probes=0 join_in=0 bmo_in=0 bmo_out=0\n",
		},
		{
			name: "grouped-aggregate",
			sql:  `SELECT r, SUM(v) FROM s GROUP BY r HAVING SUM(v) > 1 ORDER BY SUM(v) DESC`,
			want: "Project r, SUM(v) sort=[SUM(v) DESC] (rows=2 est=1 time=X)\n" +
				"  Filter [(SUM(v) > 1)] (rows=2 est=1 time=X)\n" +
				"    Aggregate keys=[r] calls=[SUM(v)] (rows=3 est=5 time=X)\n" +
				"      SeqScan s (rows=5 est=5 time=X)\n" +
				"-- rows=2 scanned=5 probes=0 join_in=0 bmo_in=0 bmo_out=0\n",
		},
		{
			name: "join-pushdown-semijoin-drops",
			sql:  `SELECT * FROM small s, dim WHERE s.id = dim.k PREFERRING LOWEST(s.d1) AND LOWEST(s.d2)`,
			want: "QualityProject * (rows=6 est=600 time=X)\n" +
				"  Project * (rows=6 est=600 time=X)\n" +
				"    HashJoin on (s.id = dim.k) (rows=6 est=600 time=X)\n" +
				"      BMO auto pushdown=left semijoin [(LOWEST(s.d1) AND LOWEST(s.d2))] (rows=6 est=600 time=X in=500 semi_dropped=100)\n" +
				"        SeqScan s (rows=600 est=600 time=X)\n" +
				"      SeqScan dim (rows=1000 est=500 time=X)\n" +
				"-- rows=6 scanned=1100 probes=0 join_in=506 bmo_in=500 bmo_out=6\n",
		},
		{
			name: "cascade-batch-shape",
			sql:  `SELECT id FROM big PREFERRING LOWEST(d2) CASCADE EXPLICIT(d1, 1 > 2)`,
			want: "QualityProject id (rows=1 est=30000 time=X)\n" +
				"  BMO auto [LOWEST(d2) CASCADE EXPLICIT(d1)] (rows=1 est=30000 time=X in=30000)\n" +
				"    Project * (rows=30000 est=30000 time=X)\n" +
				"      SeqScan big (rows=30000 est=30000 time=X)\n" +
				"-- rows=1 scanned=30000 probes=0 join_in=0 bmo_in=30000 bmo_out=1\n",
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			sess := db.NewSession()
			sess.SetWorkers(tc.workers)
			got, err := sess.ExplainAnalyze(tc.sql)
			if err != nil {
				t.Fatal(err)
			}
			if norm := analyzeTime.ReplaceAllString(got, "time=X"); norm != tc.want {
				t.Errorf("analyze diff\n--- want ---\n%s--- got ---\n%s", tc.want, norm)
			}
		})
	}
}

// TestExplainPushdownGolden pins the preference-algebra rewrite rules as
// golden plans, one per law: whole-preference pushdown onto either join
// input (with the semijoin partner guard), the grouped Pareto split with
// its residual node, the cascade head decomposition, and every refusal
// guard (LEFT join, quality functions, session opt-out).
func TestExplainPushdownGolden(t *testing.T) {
	db := explainDB(t)
	cases := []struct {
		name string
		prep func(s *Session)
		sql  string
		want string
	}{
		{
			name: "pushed-left",
			sql:  `SELECT * FROM small s, dim WHERE s.id = dim.k PREFERRING LOWEST(s.d1) AND LOWEST(s.d2)`,
			want: "QualityProject *\n" +
				"  Project *\n" +
				"    HashJoin on (s.id = dim.k)\n" +
				"      BMO auto pushdown=left semijoin [(LOWEST(s.d1) AND LOWEST(s.d2))]\n" +
				"        SeqScan s\n" +
				"      SeqScan dim\n",
		},
		{
			name: "pushed-right",
			sql:  `SELECT * FROM small s, dim WHERE s.id = dim.k PREFERRING HIGHEST(dim.e1)`,
			want: "QualityProject *\n" +
				"  Project *\n" +
				"    HashJoin on (s.id = dim.k)\n" +
				"      SeqScan s\n" +
				"      BMO auto pushdown=right semijoin [HIGHEST(dim.e1)]\n" +
				"        SeqScan dim\n",
		},
		{
			name: "split-pareto",
			sql:  `SELECT * FROM small s, dim WHERE s.id = dim.k PREFERRING LOWEST(s.d1) AND LOWEST(dim.e1)`,
			want: "QualityProject *\n" +
				"  BMO progressive auto pushdown=split [(LOWEST(s.d1) AND LOWEST(dim.e1))]\n" +
				"    Project *\n" +
				"      HashJoin on (s.id = dim.k)\n" +
				"        BMO auto pushdown=left group=id [LOWEST(s.d1)]\n" +
				"          SeqScan s\n" +
				"        BMO auto pushdown=right group=k [LOWEST(dim.e1)]\n" +
				"          SeqScan dim\n",
		},
		{
			name: "cascade-head-pushed",
			sql:  `SELECT * FROM small s, dim WHERE s.id = dim.k PREFERRING LOWEST(s.d1) CASCADE LOWEST(dim.e1)`,
			want: "QualityProject *\n" +
				"  BMO progressive auto [LOWEST(dim.e1)]\n" +
				"    Project *\n" +
				"      HashJoin on (s.id = dim.k)\n" +
				"        BMO auto pushdown=left semijoin [LOWEST(s.d1)]\n" +
				"          SeqScan s\n" +
				"        SeqScan dim\n",
		},
		{
			name: "refused-left-join",
			sql:  `SELECT * FROM small s LEFT JOIN dim ON s.id = dim.k PREFERRING LOWEST(s.d1) AND LOWEST(s.d2)`,
			want: "QualityProject *\n" +
				"  BMO progressive auto [(LOWEST(s.d1) AND LOWEST(s.d2))]\n" +
				"    Project *\n" +
				"      HashJoin left on (s.id = dim.k)\n" +
				"        SeqScan s\n" +
				"        SeqScan dim\n",
		},
		{
			name: "refused-quality-function",
			sql:  `SELECT id, DISTANCE(s.d1) FROM small s, dim WHERE s.id = dim.k PREFERRING LOWEST(s.d1) AND LOWEST(s.d2)`,
			want: "QualityProject id, DISTANCE(s.d1)\n" +
				"  BMO progressive auto [(LOWEST(s.d1) AND LOWEST(s.d2))]\n" +
				"    Project *\n" +
				"      HashJoin on (s.id = dim.k)\n" +
				"        SeqScan s\n" +
				"        SeqScan dim\n",
		},
		{
			name: "refused-session-opt-out",
			prep: func(s *Session) { s.SetPushdown(false) },
			sql:  `SELECT * FROM small s, dim WHERE s.id = dim.k PREFERRING LOWEST(s.d1) AND LOWEST(s.d2)`,
			want: "QualityProject *\n" +
				"  BMO progressive auto [(LOWEST(s.d1) AND LOWEST(s.d2))]\n" +
				"    Project *\n" +
				"      HashJoin on (s.id = dim.k)\n" +
				"        SeqScan s\n" +
				"        SeqScan dim\n",
		},
		{
			name: "pushed-keeps-parallel-hint",
			sql:  `SELECT * FROM big b, dim WHERE b.id = dim.k PREFERRING LOWEST(b.d1) AND LOWEST(b.d2)`,
			want: "QualityProject *\n" +
				"  Project *\n" +
				"    HashJoin on (b.id = dim.k)\n" +
				"      BMO auto pushdown=left semijoin [(LOWEST(b.d1) AND LOWEST(b.d2))]\n" +
				"        SeqScan b\n" +
				"      SeqScan dim\n",
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			sess := db.NewSession()
			if tc.prep != nil {
				tc.prep(sess)
			}
			got, err := sess.ExplainNative(tc.sql)
			if err != nil {
				t.Fatal(err)
			}
			if got != tc.want {
				t.Errorf("plan diff\n--- want ---\n%s--- got ---\n%s", tc.want, got)
			}
		})
	}
}

// TestPushdownMatchesExecution pins that every golden rewrite shape
// returns the same rows as the session-disabled (unpushed) plan, over
// batch queries and streaming cursors alike.
func TestPushdownMatchesExecution(t *testing.T) {
	db := explainDB(t)
	queries := []string{
		`SELECT * FROM small s, dim WHERE s.id = dim.k PREFERRING LOWEST(s.d1) AND LOWEST(s.d2)`,
		`SELECT * FROM small s, dim WHERE s.id = dim.k PREFERRING HIGHEST(dim.e1)`,
		`SELECT * FROM small s, dim WHERE s.id = dim.k PREFERRING LOWEST(s.d1) AND LOWEST(dim.e1)`,
		`SELECT * FROM small s, dim WHERE s.id = dim.k PREFERRING LOWEST(s.d1) CASCADE LOWEST(dim.e1)`,
		`SELECT * FROM small s LEFT JOIN dim ON s.id = dim.k PREFERRING LOWEST(s.d1) AND LOWEST(s.d2)`,
		`SELECT id, DISTANCE(s.d1) FROM small s, dim WHERE s.id = dim.k PREFERRING LOWEST(s.d1) AND LOWEST(s.d2) ORDER BY id`,
	}
	on := db.NewSession()
	off := db.NewSession()
	off.SetPushdown(false)
	for _, q := range queries {
		want, err := off.Query(q)
		if err != nil {
			t.Fatalf("%s: %v", q, err)
		}
		got, err := on.Query(q)
		if err != nil {
			t.Fatalf("%s: %v", q, err)
		}
		if canonicalRows(got.Rows) != canonicalRows(want.Rows) {
			t.Fatalf("pushdown changes the result of %s (%d vs %d rows)", q, len(got.Rows), len(want.Rows))
		}
		// The streaming cursor takes the same rewritten plan.
		cur, err := on.OpenCursor(q)
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
		if canonicalRows(rows) != canonicalRows(want.Rows) {
			t.Fatalf("pushdown cursor changes the result of %s (%d vs %d rows)", q, len(rows), len(want.Rows))
		}
	}
}

// TestExplainMatchesExecution pins that the physical choice shown by
// EXPLAIN is the path the executor takes: the default Auto plan (the
// vectorized operator on the big table) returns the rows of the
// explicit sequential baseline, whose plan keeps the row-at-a-time BMO.
func TestExplainMatchesExecution(t *testing.T) {
	db := explainDB(t)
	q := `SELECT id FROM big PREFERRING LOWEST(d1) AND LOWEST(d2)`

	plan, err := db.ExplainNative(q)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(plan, "BMO vec") {
		t.Fatalf("expected vectorized selection in plan:\n%s", plan)
	}
	ref := db.NewSession()
	ref.SetAlgorithm(bmo.BlockNestedLoop)
	refPlan, err := ref.ExplainNative(q)
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(refPlan, "BMO vec") || !strings.Contains(refPlan, "block-nested-loop") {
		t.Fatalf("expected the row-at-a-time BNL operator in the bnl plan:\n%s", refPlan)
	}
	want, err := ref.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	got, err := db.NewSession().Query(q) // Auto: vectorized
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Rows) == 0 || canonicalRows(got.Rows) != canonicalRows(want.Rows) {
		t.Fatalf("vectorized auto result (%d rows) diverges from BNL (%d rows)", len(got.Rows), len(want.Rows))
	}
}

// TestPushdownRefusesQualitySubqueries is the regression test for the
// guard walker: quality-function calls reach the quality environment
// through subquery correlation too (`EXISTS (... DISTANCE(x) ...)`), so
// any subquery in the SELECT list, ORDER BY or BUT ONLY must keep the
// unpushed plan — the pushed plan never materializes the candidate
// relation the quality functions measure against, and a silently empty
// candidate set makes DISTANCE evaluate to -Inf instead of erroring.
func TestPushdownRefusesQualitySubqueries(t *testing.T) {
	db := explainDB(t)
	queries := []string{
		`SELECT id FROM small s, dim WHERE s.id = dim.k PREFERRING LOWEST(s.d1) AND LOWEST(s.d2) BUT ONLY DISTANCE(s.d1) IN (SELECT e1 FROM dim)`,
		`SELECT id FROM small s, dim WHERE s.id = dim.k PREFERRING LOWEST(s.d1) AND LOWEST(s.d2) BUT ONLY EXISTS (SELECT 1 FROM dim WHERE e1 >= DISTANCE(s.d1))`,
		`SELECT id FROM small s, dim WHERE s.id = dim.k PREFERRING LOWEST(s.d1) AND LOWEST(s.d2) BUT ONLY (SELECT MAX(e1) FROM dim) >= DISTANCE(s.d1)`,
	}
	on := db.NewSession()
	off := db.NewSession()
	off.SetPushdown(false)
	for _, q := range queries {
		plan, err := on.ExplainNative(q)
		if err != nil {
			t.Fatalf("%s: %v", q, err)
		}
		if strings.Contains(plan, "pushdown=") {
			t.Errorf("pushdown applied to a quality-bearing subquery:\n%s\n%s", q, plan)
		}
		want, err := off.Query(q)
		if err != nil {
			t.Fatalf("%s: %v", q, err)
		}
		got, err := on.Query(q)
		if err != nil {
			t.Fatalf("%s: %v", q, err)
		}
		if canonicalRows(got.Rows) != canonicalRows(want.Rows) {
			t.Fatalf("result drift on %s (%d vs %d rows)", q, len(got.Rows), len(want.Rows))
		}
	}
}
