// Package bench is the experiment harness: it regenerates every table and
// figure of the paper's evaluation (see DESIGN.md's experiment index) as
// printable text tables, with structured results for assertions and
// testing.B integration.
//
// Experiments:
//
//	E1 — §3.3 large-scale benchmark: SQL conjunctive vs SQL disjunctive vs
//	     Preference SQL (4-way Pareto) over pre-selections of 300/600/1000
//	     candidates, two second-selection condition sets.
//	E2 — §2.2.3 oldtimer answer-explanation table (golden output).
//	E3 — §3.2 Cars rewrite: the generated SQL92 script and its result.
//	E4 — §4.3 COSIMA: Pareto-set size histogram and timing breakdown.
//	E5 — §4.1 washing-machine search mask: hard SQL vs Preference SQL.
//	A1 — ablation: BMO algorithms vs SQL92 rewriting across candidate sizes.
//	A2 — ablation: Pareto dimensionality × data distribution.
//	P4 — sequential BNL vs parallel partition-merge BMO across input
//	     sizes and worker counts (BENCH_p4.json).
package bench

import (
	"fmt"
	"strings"
	"time"

	"repro/internal/bmo"
	"repro/internal/core"
	"repro/internal/cosima"
	"repro/internal/datagen"
)

// Config controls experiment scale. The zero value is unusable; use
// DefaultConfig (paper-shaped, minutes) or TestConfig (seconds).
type Config struct {
	JobRows            int     // size of the synthetic job relation
	Seed               int64   // generator seed
	CosimaRuns         int     // meta-searches in E4
	CosimaShops        int     // shops in E4
	CosimaCatalog      int     // per-shop catalog size in E4
	CosimaLatencyScale float64 // 1.0 = realistic 300-900ms, 0 = instant
	SkylineN           int     // points per A2 configuration
	A1Sizes            []int   // candidate-set sizes for A1
	PreSizes           []int   // pre-selection sizes for E1 (paper: 300/600/1000)
	P2Conns            []int   // client connection counts for P2
	P2QueriesPerConn   int     // statements per connection in P2
	P3Execs            int     // executions per workload variant in P3
	P4Sizes            []int   // input sizes for the parallel BMO experiment
	P4Workers          []int   // worker counts for P4
	P5Sizes            []int   // fact-side sizes for the join-pushdown experiment
	P7Sizes            []int   // input sizes for the instrumentation-overhead experiment
	P8Subs             []int   // active-subscription counts for the live-query experiment
	P8Ops              int     // DML statements per P8 measurement
	P9Sizes            []int   // input sizes for the distributed scale-out experiment
	P9Shards           []int   // shard counts for P9
	P10Sizes           []int   // input sizes for the durable-storage experiment
	P10Ops             int     // mixed read/write statements per P10 measurement
}

// DefaultConfig mirrors the paper's scale where feasible on a laptop:
// the job relation defaults to 140k tuples (1/10 of the paper's 1.4M).
func DefaultConfig() Config {
	return Config{
		JobRows:            140000,
		Seed:               2002,
		CosimaRuns:         200,
		CosimaShops:        4,
		CosimaCatalog:      400,
		CosimaLatencyScale: 0, // keep harness fast; set 1.0 for realism
		SkylineN:           5000,
		A1Sizes:            []int{250, 500, 1000, 2000},
		PreSizes:           []int{300, 600, 1000},
		P2Conns:            []int{1, 2, 4, 8, 16, 32},
		P2QueriesPerConn:   200,
		P3Execs:            200,
		P4Sizes:            []int{10000, 100000, 1000000},
		P4Workers:          []int{1, 2, 4, 8},
		P5Sizes:            []int{10000, 100000, 1000000},
		P7Sizes:            []int{100000, 1000000},
		P8Subs:             []int{0, 10, 100},
		P8Ops:              20000,
		P9Sizes:            []int{100000, 1000000},
		P9Shards:           []int{1, 2, 4},
		P10Sizes:           []int{100000, 1000000},
		P10Ops:             5000,
	}
}

// TestConfig is DefaultConfig shrunk for unit tests.
func TestConfig() Config {
	cfg := DefaultConfig()
	cfg.JobRows = 8000
	cfg.CosimaRuns = 20
	cfg.CosimaCatalog = 150
	cfg.SkylineN = 800
	cfg.A1Sizes = []int{100, 200}
	cfg.PreSizes = []int{100, 200}
	cfg.P2Conns = []int{4, 32}
	cfg.P2QueriesPerConn = 25
	cfg.P3Execs = 40
	cfg.P4Sizes = []int{5000, 20000}
	cfg.P4Workers = []int{1, 2, 4}
	cfg.P5Sizes = []int{5000, 20000}
	cfg.P7Sizes = []int{20000, 100000}
	cfg.P8Subs = []int{0, 10, 100}
	cfg.P8Ops = 4000
	cfg.P9Sizes = []int{20000, 100000}
	cfg.P9Shards = []int{1, 2, 4}
	cfg.P10Sizes = []int{20000, 100000}
	cfg.P10Ops = 1500
	return cfg
}

// Table is a printable experiment result.
type Table struct {
	Title  string
	Header []string
	Rows   [][]string
	Notes  []string
}

// String renders the table with aligned columns.
func (t *Table) String() string {
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	var b strings.Builder
	b.WriteString("== " + t.Title + " ==\n")
	line := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			b.WriteString(c)
			for p := len(c); p < widths[i]; p++ {
				b.WriteByte(' ')
			}
		}
		b.WriteByte('\n')
	}
	line(t.Header)
	sep := make([]string, len(t.Header))
	for i, w := range widths {
		sep[i] = strings.Repeat("-", w)
	}
	line(sep)
	for _, row := range t.Rows {
		line(row)
	}
	for _, n := range t.Notes {
		b.WriteString("note: " + n + "\n")
	}
	return b.String()
}

func ms(d time.Duration) string {
	return fmt.Sprintf("%.1fms", float64(d.Microseconds())/1000)
}

// ---------------------------------------------------------------------------
// E1 — §3.3 job-search benchmark
// ---------------------------------------------------------------------------

// E1Entry is one measurement of the E1 benchmark.
type E1Entry struct {
	CondSet    string
	PreSize    int // calibrated pre-selection candidate count
	Strategy   string
	Elapsed    time.Duration
	ResultSize int
}

// E1Result is the full §3.3 benchmark outcome.
type E1Result struct {
	Entries []E1Entry
}

// condSet is one "second selection": four criteria in hard (SQL) and soft
// (Preference SQL) form.
type condSet struct {
	name string
	hard [4]string
	soft [4]string
}

var e1CondSets = []condSet{
	{
		// cond-A is deliberately strict: conjunctively it almost always
		// returns the empty result the paper's introduction complains
		// about, while the Pareto-accumulated soft form still delivers
		// the best available candidates.
		name: "cond-A (strict)",
		hard: [4]string{
			"experience >= 25",
			"education IN ('phd')",
			"age <= 28",
			"mobility >= 180",
		},
		soft: [4]string{
			"experience >= 25",
			"education IN ('phd')",
			"age <= 28",
			"mobility >= 180",
		},
	},
	{
		name: "cond-B",
		hard: [4]string{
			"skill1 IN ('java', 'C++')",
			"salary <= 45000",
			"experience >= 5",
			"parttime = TRUE",
		},
		soft: [4]string{
			"skill1 IN ('java', 'C++')",
			"salary <= 45000",
			"experience >= 5",
			"parttime = TRUE",
		},
	},
}

// JobDB loads the synthetic job relation into a fresh Preference SQL
// database and indexes the pre-selection attribute.
func JobDB(cfg Config) (*core.DB, error) {
	db := core.Open()
	if err := datagen.Load(db.Engine(), "jobs", datagen.JobColumns(), datagen.Jobs(cfg.JobRows, cfg.Seed)); err != nil {
		return nil, err
	}
	if _, err := db.Exec("CREATE INDEX idx_jobs_region ON jobs (region)"); err != nil {
		return nil, err
	}
	return db, nil
}

// calibratePreSelection finds a salary cutoff such that the pre-selection
// `region = 'Bayern' AND salary < cutoff` yields approximately target
// candidates, mimicking the paper's pre-selection result-set sizes.
func calibratePreSelection(db *core.DB, target int) (string, int, error) {
	res, err := db.Exec(fmt.Sprintf(
		"SELECT salary FROM jobs WHERE region = 'Bayern' ORDER BY salary LIMIT 1 OFFSET %d", target))
	if err != nil {
		return "", 0, err
	}
	cutoff := int64(1 << 60)
	if len(res.Rows) > 0 {
		cutoff = res.Rows[0][0].I
	}
	pre := fmt.Sprintf("region = 'Bayern' AND salary < %d", cutoff)
	cnt, err := db.Exec("SELECT COUNT(*) FROM jobs WHERE " + pre)
	if err != nil {
		return "", 0, err
	}
	return pre, int(cnt.Rows[0][0].I), nil
}

// E1 runs the §3.3 benchmark and renders the paper-style table.
func E1(cfg Config) (*E1Result, *Table, error) {
	db, err := JobDB(cfg)
	if err != nil {
		return nil, nil, err
	}
	sess := db.DefaultSession()
	out := &E1Result{}
	for _, cs := range e1CondSets {
		for _, target := range cfg.PreSizes {
			pre, actual, err := calibratePreSelection(db, target)
			if err != nil {
				return nil, nil, err
			}
			queries := []struct {
				strategy string
				sql      string
				mode     core.Mode
			}{
				{"SQL conjunctive", fmt.Sprintf(
					"SELECT id FROM jobs WHERE %s AND %s AND %s AND %s AND %s",
					pre, cs.hard[0], cs.hard[1], cs.hard[2], cs.hard[3]), core.ModeNative},
				{"SQL disjunctive", fmt.Sprintf(
					"SELECT id FROM jobs WHERE %s AND (%s OR %s OR %s OR %s)",
					pre, cs.hard[0], cs.hard[1], cs.hard[2], cs.hard[3]), core.ModeNative},
				{"Preference SQL (rewrite)", fmt.Sprintf(
					"SELECT id FROM jobs WHERE %s PREFERRING %s AND %s AND %s AND %s",
					pre, cs.soft[0], cs.soft[1], cs.soft[2], cs.soft[3]), core.ModeRewrite},
				{"Preference SQL (native)", fmt.Sprintf(
					"SELECT id FROM jobs WHERE %s PREFERRING %s AND %s AND %s AND %s",
					pre, cs.soft[0], cs.soft[1], cs.soft[2], cs.soft[3]), core.ModeNative},
			}
			for _, q := range queries {
				sess.SetMode(q.mode)
				start := time.Now()
				res, err := db.Exec(q.sql)
				if err != nil {
					return nil, nil, fmt.Errorf("%s: %w", q.strategy, err)
				}
				out.Entries = append(out.Entries, E1Entry{
					CondSet:    cs.name,
					PreSize:    actual,
					Strategy:   q.strategy,
					Elapsed:    time.Since(start),
					ResultSize: len(res.Rows),
				})
			}
			sess.SetMode(core.ModeNative)
		}
	}

	tbl := &Table{
		Title:  fmt.Sprintf("E1: §3.3 job-search benchmark (%d tuples, scaled from the paper's 1.4M)", cfg.JobRows),
		Header: []string{"condition set", "pre-selection", "strategy", "time", "result size"},
		Notes: []string{
			"SQL conjunctive risks empty results; SQL disjunctive floods the user;",
			"Preference SQL returns the small Best-Matches-Only set in comparable time.",
		},
	}
	for _, e := range out.Entries {
		tbl.Rows = append(tbl.Rows, []string{
			e.CondSet, fmt.Sprintf("%d", e.PreSize), e.Strategy, ms(e.Elapsed), fmt.Sprintf("%d", e.ResultSize),
		})
	}
	return out, tbl, nil
}

// ---------------------------------------------------------------------------
// E2 — §2.2.3 oldtimer golden table
// ---------------------------------------------------------------------------

// OldtimerQuery is the paper's §2.2.3 answer-explanation query (with a
// deterministic ORDER BY matching the printed row order).
const OldtimerQuery = `SELECT ident, color, age, LEVEL(color), DISTANCE(age)
FROM oldtimer
PREFERRING color = 'white' ELSE color = 'yellow' AND age AROUND 40
ORDER BY DISTANCE(age)`

// E2 reproduces the adorned Pareto-optimal oldtimer result.
func E2() (*core.Result, *Table, error) {
	db := core.Open()
	if err := datagen.Load(db.Engine(), "oldtimer", datagen.OldtimerColumns(), datagen.Oldtimers()); err != nil {
		return nil, nil, err
	}
	res, err := db.Exec(OldtimerQuery)
	if err != nil {
		return nil, nil, err
	}
	tbl := &Table{
		Title:  "E2: §2.2.3 oldtimer answer explanation (paper: Selma/Homer/Maggie)",
		Header: res.Columns,
	}
	for _, r := range res.Rows {
		cells := make([]string, len(r))
		for i, v := range r {
			cells[i] = v.String()
		}
		tbl.Rows = append(tbl.Rows, cells)
	}
	return res, tbl, nil
}

// ---------------------------------------------------------------------------
// E3 — §3.2 Cars rewriting
// ---------------------------------------------------------------------------

// CarsQuery is the paper's §3.2 example query.
const CarsQuery = `SELECT * FROM Cars PREFERRING Make = 'Audi' AND Diesel = 'yes'`

// E3 shows the generated SQL92 script and the Pareto-optimal cars.
func E3() (string, *Table, error) {
	db := core.Open()
	if _, err := db.Exec(`CREATE TABLE Cars (
		Identifier INTEGER, Make VARCHAR, Model VARCHAR,
		Price INTEGER, Mileage INTEGER, Airbag VARCHAR, Diesel VARCHAR);
	INSERT INTO Cars VALUES
		(1, 'Audi', 'A6', 40000, 15000, 'yes', 'no'),
		(2, 'BMW', '5 series', 35000, 30000, 'yes', 'yes'),
		(3, 'Volkswagen', 'Beetle', 20000, 10000, 'yes', 'no')`); err != nil {
		return "", nil, err
	}
	plan, err := db.RewritePlan(CarsQuery)
	if err != nil {
		return "", nil, err
	}
	db.DefaultSession().SetMode(core.ModeRewrite)
	res, err := db.Exec(CarsQuery)
	if err != nil {
		return "", nil, err
	}
	tbl := &Table{
		Title:  "E3: §3.2 Cars — Pareto-optimal set via SQL92 rewriting",
		Header: res.Columns,
		Notes:  []string{"rewritten script printed separately"},
	}
	for _, r := range res.Rows {
		cells := make([]string, len(r))
		for i, v := range r {
			cells[i] = v.String()
		}
		tbl.Rows = append(tbl.Rows, cells)
	}
	return plan.Script(), tbl, nil
}

// ---------------------------------------------------------------------------
// E4 — §4.3 COSIMA meta-search
// ---------------------------------------------------------------------------

// E4Result summarizes the COSIMA simulation.
type E4Result struct {
	Runs        int
	SizeBuckets map[string]int // "1-5", "6-10", "11-20", ">20", "0"
	ShareSmall  float64        // fraction of runs with 1..20 results
	AvgShop     time.Duration
	AvgPref     time.Duration
	AvgTotal    time.Duration
}

// E4 runs the COSIMA pipeline repeatedly and reports the Pareto-set size
// distribution and the timing breakdown.
func E4(cfg Config) (*E4Result, *Table, error) {
	out := &E4Result{
		Runs:        cfg.CosimaRuns,
		SizeBuckets: map[string]int{"0": 0, "1-5": 0, "6-10": 0, "11-20": 0, ">20": 0},
	}
	var sumShop, sumPref, sumTotal time.Duration
	small := 0
	for run := 0; run < cfg.CosimaRuns; run++ {
		shops := cosima.DefaultShops(cfg.CosimaShops, cfg.CosimaCatalog,
			cfg.CosimaLatencyScale, cfg.Seed+int64(run)*977)
		m := &cosima.MetaSearcher{Shops: shops}
		category := cosima.Categories[run%len(cosima.Categories)]
		_, st, err := m.Search(category, "")
		if err != nil {
			return nil, nil, err
		}
		switch {
		case st.ResultSize == 0:
			out.SizeBuckets["0"]++
		case st.ResultSize <= 5:
			out.SizeBuckets["1-5"]++
		case st.ResultSize <= 10:
			out.SizeBuckets["6-10"]++
		case st.ResultSize <= 20:
			out.SizeBuckets["11-20"]++
		default:
			out.SizeBuckets[">20"]++
		}
		if st.ResultSize >= 1 && st.ResultSize <= 20 {
			small++
		}
		sumShop += st.ShopTime
		sumPref += st.PrefTime
		sumTotal += st.Total
	}
	out.ShareSmall = float64(small) / float64(cfg.CosimaRuns)
	out.AvgShop = sumShop / time.Duration(cfg.CosimaRuns)
	out.AvgPref = sumPref / time.Duration(cfg.CosimaRuns)
	out.AvgTotal = sumTotal / time.Duration(cfg.CosimaRuns)

	tbl := &Table{
		Title:  fmt.Sprintf("E4: §4.3 COSIMA meta-search (%d runs, %d shops)", cfg.CosimaRuns, cfg.CosimaShops),
		Header: []string{"Pareto-set size", "runs"},
		Notes: []string{
			fmt.Sprintf("share of runs with 1-20 results: %.0f%% (paper: 'predominantly between 1 and 20')", out.ShareSmall*100),
			fmt.Sprintf("avg shop access %s, avg preference processing %s, avg total %s",
				ms(out.AvgShop), ms(out.AvgPref), ms(out.AvgTotal)),
			"with latency scale 1.0 the total lands in the paper's 1-2s, dominated by shop access",
		},
	}
	for _, bucket := range []string{"0", "1-5", "6-10", "11-20", ">20"} {
		tbl.Rows = append(tbl.Rows, []string{bucket, fmt.Sprintf("%d", out.SizeBuckets[bucket])})
	}
	return out, tbl, nil
}

// ---------------------------------------------------------------------------
// E5 — §4.1 washing-machine search mask
// ---------------------------------------------------------------------------

// EshopHardQuery is the search-mask input naively translated to hard SQL.
const EshopHardQuery = `SELECT id FROM products WHERE manufacturer = 'Aturi'
AND width = 60 AND spinspeed = 1200 AND powerconsumption <= 0.9
AND price BETWEEN 1500 AND 2000`

// EshopPrefQuery is the paper's §4.1 dynamically generated query.
const EshopPrefQuery = `SELECT id FROM products WHERE manufacturer = 'Aturi'
PREFERRING (width AROUND 60 AND spinspeed AROUND 1200) CASCADE
(powerconsumption BETWEEN 0, 0.9 AND LOWEST(waterconsumption)
AND price BETWEEN 1500, 2000)`

// E5Result compares the naive hard-SQL search with the preference search.
type E5Result struct {
	CatalogSize int
	HardSize    int
	PrefSize    int
}

// E5 runs the washing-machine scenario.
func E5(cfg Config) (*E5Result, *Table, error) {
	db := core.Open()
	n := 300
	if err := datagen.Load(db.Engine(), "products", datagen.ApplianceColumns(), datagen.Appliances(n, cfg.Seed)); err != nil {
		return nil, nil, err
	}
	hard, err := db.Exec(EshopHardQuery)
	if err != nil {
		return nil, nil, err
	}
	pref, err := db.Exec(EshopPrefQuery)
	if err != nil {
		return nil, nil, err
	}
	out := &E5Result{CatalogSize: n, HardSize: len(hard.Rows), PrefSize: len(pref.Rows)}
	tbl := &Table{
		Title:  "E5: §4.1 washing-machine search mask — hard SQL vs Preference SQL",
		Header: []string{"strategy", "result size"},
		Rows: [][]string{
			{"hard SQL (exact match)", fmt.Sprintf("%d", out.HardSize)},
			{"Preference SQL (BMO)", fmt.Sprintf("%d", out.PrefSize)},
		},
		Notes: []string{"the exact-match form typically returns nothing; BMO always returns the best available offers"},
	}
	return out, tbl, nil
}

// ---------------------------------------------------------------------------
// A1 — ablation: BMO algorithms vs rewriting
// ---------------------------------------------------------------------------

// A1Entry is one (size, method) measurement.
type A1Entry struct {
	Candidates int
	Method     string
	Elapsed    time.Duration
	ResultSize int
}

// A1 compares the evaluation strategies on the job workload across
// candidate-set sizes.
func A1(cfg Config) ([]A1Entry, *Table, error) {
	db, err := JobDB(cfg)
	if err != nil {
		return nil, nil, err
	}
	sess := db.DefaultSession()
	var entries []A1Entry
	pref := "PREFERRING salary AROUND 50000 AND HIGHEST(experience) AND age AROUND 30 AND mobility AROUND 100"
	for _, size := range cfg.A1Sizes {
		where := fmt.Sprintf("id <= %d", size)
		query := fmt.Sprintf("SELECT id FROM jobs WHERE %s %s", where, pref)
		methods := []struct {
			name string
			run  func() (int, error)
		}{
			{"nested-loop (paper §3.2)", func() (int, error) {
				sess.SetMode(core.ModeNative)
				sess.SetAlgorithm(bmo.NestedLoop)
				res, err := db.Exec(query)
				if err != nil {
					return 0, err
				}
				return len(res.Rows), nil
			}},
			{"block-nested-loop [BKS01]", func() (int, error) {
				sess.SetMode(core.ModeNative)
				sess.SetAlgorithm(bmo.BlockNestedLoop)
				res, err := db.Exec(query)
				if err != nil {
					return 0, err
				}
				return len(res.Rows), nil
			}},
			{"score kernel (auto)", func() (int, error) {
				sess.SetMode(core.ModeNative)
				sess.SetAlgorithm(bmo.Auto)
				res, err := db.Exec(query)
				if err != nil {
					return 0, err
				}
				return len(res.Rows), nil
			}},
			{"SQL92 rewrite (NOT EXISTS)", func() (int, error) {
				sess.SetMode(core.ModeRewrite)
				res, err := db.Exec(query)
				if err != nil {
					return 0, err
				}
				return len(res.Rows), nil
			}},
		}
		for _, m := range methods {
			start := time.Now()
			n, err := m.run()
			if err != nil {
				return nil, nil, fmt.Errorf("%s: %w", m.name, err)
			}
			entries = append(entries, A1Entry{
				Candidates: size, Method: m.name,
				Elapsed: time.Since(start), ResultSize: n,
			})
		}
	}
	sess.SetMode(core.ModeNative)
	sess.SetAlgorithm(bmo.Auto)

	tbl := &Table{
		Title:  "A1: BMO evaluation strategies (4-way Pareto over job profiles)",
		Header: []string{"candidates", "method", "time", "result size"},
	}
	for _, e := range entries {
		tbl.Rows = append(tbl.Rows, []string{
			fmt.Sprintf("%d", e.Candidates), e.Method, ms(e.Elapsed), fmt.Sprintf("%d", e.ResultSize),
		})
	}
	return entries, tbl, nil
}

// ---------------------------------------------------------------------------
// A2 — ablation: dimensionality × distribution
// ---------------------------------------------------------------------------

// A2Entry is one (distribution, dimension) measurement.
type A2Entry struct {
	Dist        datagen.Distribution
	Dims        int
	SkylineSize int
	Elapsed     time.Duration
}

// A2 sweeps Pareto dimensionality 2..5 over the three [BKS01] data
// distributions, giving context for the paper's "Pareto sets of size 1-20"
// observation.
func A2(cfg Config) ([]A2Entry, *Table, error) {
	var entries []A2Entry
	for _, dist := range []datagen.Distribution{datagen.Correlated, datagen.Independent, datagen.AntiCorrelated} {
		for d := 2; d <= 5; d++ {
			db := core.Open()
			rows := datagen.Skyline(cfg.SkylineN, d, dist, cfg.Seed)
			if err := datagen.Load(db.Engine(), "pts", datagen.SkylineColumns(d), rows); err != nil {
				return nil, nil, err
			}
			parts := make([]string, d)
			for i := 1; i <= d; i++ {
				parts[i-1] = fmt.Sprintf("LOWEST(d%d)", i)
			}
			query := "SELECT id FROM pts PREFERRING " + strings.Join(parts, " AND ")
			start := time.Now()
			res, err := db.Exec(query)
			if err != nil {
				return nil, nil, err
			}
			entries = append(entries, A2Entry{
				Dist: dist, Dims: d, SkylineSize: len(res.Rows), Elapsed: time.Since(start),
			})
		}
	}
	tbl := &Table{
		Title:  fmt.Sprintf("A2: Pareto set size vs dimensionality and distribution (n=%d)", cfg.SkylineN),
		Header: []string{"distribution", "dims", "Pareto set size", "time"},
		Notes:  []string{"real catalog attributes are weakly correlated: small BMO sets, as COSIMA observed"},
	}
	for _, e := range entries {
		tbl.Rows = append(tbl.Rows, []string{
			e.Dist.String(), fmt.Sprintf("%d", e.Dims), fmt.Sprintf("%d", e.SkylineSize), ms(e.Elapsed),
		})
	}
	return entries, tbl, nil
}

// Names lists the available experiments.
func Names() []string {
	return []string{"e1", "e2", "e3", "e4", "e5", "a1", "a2", "p1", "p2", "p3", "p4", "p5", "p7", "p8", "p9", "p10"}
}

// Run executes one experiment by name and returns its printable output.
func Run(name string, cfg Config) (string, error) {
	switch strings.ToLower(name) {
	case "e1":
		_, tbl, err := E1(cfg)
		if err != nil {
			return "", err
		}
		return tbl.String(), nil
	case "e2":
		_, tbl, err := E2()
		if err != nil {
			return "", err
		}
		return tbl.String(), nil
	case "e3":
		script, tbl, err := E3()
		if err != nil {
			return "", err
		}
		return tbl.String() + "\n-- rewritten SQL92 script --\n" + script, nil
	case "e4":
		_, tbl, err := E4(cfg)
		if err != nil {
			return "", err
		}
		return tbl.String(), nil
	case "e5":
		_, tbl, err := E5(cfg)
		if err != nil {
			return "", err
		}
		return tbl.String(), nil
	case "a1":
		_, tbl, err := A1(cfg)
		if err != nil {
			return "", err
		}
		return tbl.String(), nil
	case "a2":
		_, tbl, err := A2(cfg)
		if err != nil {
			return "", err
		}
		return tbl.String(), nil
	case "p1":
		_, tbl, err := P1(cfg)
		if err != nil {
			return "", err
		}
		return tbl.String(), nil
	case "p2":
		_, tbl, err := P2(cfg)
		if err != nil {
			return "", err
		}
		return tbl.String(), nil
	case "p3":
		_, tbl, err := P3(cfg)
		if err != nil {
			return "", err
		}
		return tbl.String(), nil
	case "p4":
		_, tbl, err := P4(cfg)
		if err != nil {
			return "", err
		}
		return tbl.String(), nil
	case "p5":
		_, tbl, err := P5(cfg)
		if err != nil {
			return "", err
		}
		return tbl.String(), nil
	case "p7":
		_, tbl, err := P7(cfg)
		if err != nil {
			return "", err
		}
		return tbl.String(), nil
	case "p8":
		_, tbl, err := P8(cfg)
		if err != nil {
			return "", err
		}
		return tbl.String(), nil
	case "p9":
		_, tbl, err := P9(cfg)
		if err != nil {
			return "", err
		}
		return tbl.String(), nil
	case "p10":
		_, tbl, err := P10(cfg)
		if err != nil {
			return "", err
		}
		return tbl.String(), nil
	}
	return "", fmt.Errorf("bench: unknown experiment %q (have %s)", name, strings.Join(Names(), ", "))
}

// P1Entry is one pipeline measurement: a progressive TOP-k consumer on the
// streaming cursor against full batch evaluation of the same query.
type P1Entry struct {
	K          int
	BatchTime  time.Duration
	CursorTime time.Duration
	Scanned    int64
	Probed     int64
}

// P1 measures the Volcano operator pipeline: the preference query streams
// its BMO set progressively and the TOP-k consumer stops pulling after k
// rows, skipping the remaining dominance work; the batch column evaluates
// and materializes the full result first.
func P1(cfg Config) ([]P1Entry, *Table, error) {
	db, err := JobDB(cfg)
	if err != nil {
		return nil, nil, err
	}
	const pref = `SELECT id FROM jobs WHERE region = 'Bayern'
PREFERRING salary AROUND 50000 AND HIGHEST(experience) AND mobility AROUND 100`
	var entries []P1Entry
	for _, k := range []int{1, 10, 100} {
		q := fmt.Sprintf("%s LIMIT %d", pref, k)

		t0 := time.Now()
		if _, err := db.Exec(q); err != nil {
			return nil, nil, err
		}
		batch := time.Since(t0)

		t0 = time.Now()
		c, err := db.OpenCursor(q)
		if err != nil {
			return nil, nil, err
		}
		n := 0
		for c.Next() {
			n++
		}
		if err := c.Err(); err != nil {
			return nil, nil, err
		}
		cursor := time.Since(t0)
		e := P1Entry{K: k, BatchTime: batch, CursorTime: cursor}
		if st := c.Stats(); st != nil {
			e.Scanned, e.Probed = st.RowsScanned, st.IndexProbes
		}
		_ = c.Close()
		if n > k {
			return nil, nil, fmt.Errorf("bench: cursor returned %d rows for LIMIT %d", n, k)
		}
		entries = append(entries, e)
	}
	tbl := &Table{
		Title:  "P1: progressive TOP-k on the operator pipeline vs batch evaluation",
		Header: []string{"k", "batch", "pipeline", "rows scanned", "index probes"},
		Notes: []string{
			"pipeline streams the BMO set and stops dominance checks after k answers",
			"the WHERE pre-selection runs through the region index in both modes",
		},
	}
	for _, e := range entries {
		tbl.Rows = append(tbl.Rows, []string{
			fmt.Sprintf("%d", e.K), ms(e.BatchTime), ms(e.CursorTime),
			fmt.Sprintf("%d", e.Scanned), fmt.Sprintf("%d", e.Probed),
		})
	}
	return entries, tbl, nil
}
