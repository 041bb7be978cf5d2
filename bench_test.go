// Benchmarks regenerating the paper's evaluation, one bench per table and
// figure (see DESIGN.md's experiment index):
//
//	BenchmarkE1JobSearch          — §3.3 table (strategies × pre-selection sizes)
//	BenchmarkE2Oldtimer           — §2.2.3 answer-explanation query
//	BenchmarkE3CarsRewrite        — §3.2 Cars rewriting end-to-end
//	BenchmarkE4Cosima             — §4.3 meta-search pipeline
//	BenchmarkE5Eshop              — §4.1 washing-machine search mask
//	BenchmarkAblationAlgorithms   — A1: BMO algorithms vs SQL92 rewriting
//	BenchmarkAblationDimensions   — A2: Pareto dimensionality × distribution
//
// Run with: go test -bench=. -benchmem
package prefsql

import (
	"fmt"
	"sync"
	"testing"

	"repro/internal/bench"
	"repro/internal/bmo"
	"repro/internal/core"
	"repro/internal/cosima"
	"repro/internal/datagen"
	"repro/internal/preference"
	"repro/internal/value"
)

// benchJobRows keeps the standing job relation small enough for iterated
// benchmarking; cmd/prefbench runs the full 140k-row version.
const benchJobRows = 30000

var (
	jobDBOnce sync.Once
	jobDB     *core.DB
	jobDBErr  error
)

func sharedJobDB(b *testing.B) *core.DB {
	b.Helper()
	jobDBOnce.Do(func() {
		cfg := bench.DefaultConfig()
		cfg.JobRows = benchJobRows
		jobDB, jobDBErr = bench.JobDB(cfg)
	})
	if jobDBErr != nil {
		b.Fatal(jobDBErr)
	}
	return jobDB
}

// BenchmarkE1JobSearch measures the three strategies of the §3.3 table for
// each pre-selection size. The paper's shape: Preference SQL answers in
// time comparable to plain SQL while returning the small BMO set.
func BenchmarkE1JobSearch(b *testing.B) {
	db := sharedJobDB(b)
	for _, pre := range []int{300, 600, 1000} {
		where := fmt.Sprintf("region = 'Bayern' AND id <= %d", pre*8) // ~1/8 per region
		strategies := []struct {
			name string
			sql  string
			mode core.Mode
		}{
			{"conjunctive", fmt.Sprintf(
				`SELECT id FROM jobs WHERE %s AND experience >= 10 AND education IN ('master','phd') AND age <= 35 AND mobility >= 100`, where), core.ModeNative},
			{"disjunctive", fmt.Sprintf(
				`SELECT id FROM jobs WHERE %s AND (experience >= 10 OR education IN ('master','phd') OR age <= 35 OR mobility >= 100)`, where), core.ModeNative},
			{"preference-native", fmt.Sprintf(
				`SELECT id FROM jobs WHERE %s PREFERRING experience >= 10 AND education IN ('master','phd') AND age <= 35 AND mobility >= 100`, where), core.ModeNative},
			{"preference-rewrite", fmt.Sprintf(
				`SELECT id FROM jobs WHERE %s PREFERRING experience >= 10 AND education IN ('master','phd') AND age <= 35 AND mobility >= 100`, where), core.ModeRewrite},
		}
		for _, s := range strategies {
			b.Run(fmt.Sprintf("pre=%d/%s", pre, s.name), func(b *testing.B) {
				db.DefaultSession().SetMode(s.mode)
				defer db.DefaultSession().SetMode(core.ModeNative)
				for i := 0; i < b.N; i++ {
					if _, err := db.Exec(s.sql); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkE2Oldtimer runs the §2.2.3 answer-explanation query.
func BenchmarkE2Oldtimer(b *testing.B) {
	db := core.Open()
	if err := datagen.Load(db.Engine(), "oldtimer", datagen.OldtimerColumns(), datagen.Oldtimers()); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := db.Exec(bench.OldtimerQuery)
		if err != nil {
			b.Fatal(err)
		}
		if len(res.Rows) != 3 {
			b.Fatalf("rows: %d", len(res.Rows))
		}
	}
}

// BenchmarkE3CarsRewrite measures the §3.2 rewriting pipeline end-to-end
// (plan generation, view setup, NOT EXISTS query, teardown).
func BenchmarkE3CarsRewrite(b *testing.B) {
	db := core.Open()
	if _, err := db.Exec(`CREATE TABLE Cars (
		Identifier INTEGER, Make VARCHAR, Model VARCHAR,
		Price INTEGER, Mileage INTEGER, Airbag VARCHAR, Diesel VARCHAR);
	INSERT INTO Cars VALUES
		(1, 'Audi', 'A6', 40000, 15000, 'yes', 'no'),
		(2, 'BMW', '5 series', 35000, 30000, 'yes', 'yes'),
		(3, 'Volkswagen', 'Beetle', 20000, 10000, 'yes', 'no')`); err != nil {
		b.Fatal(err)
	}
	db.DefaultSession().SetMode(core.ModeRewrite)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := db.Exec(bench.CarsQuery)
		if err != nil {
			b.Fatal(err)
		}
		if len(res.Rows) != 2 {
			b.Fatalf("rows: %d", len(res.Rows))
		}
	}
}

// BenchmarkE4Cosima measures one full meta-search (gather + temp DB +
// Pareto preference) without shop latency, i.e. the Preference SQL
// overhead the paper calls "small".
func BenchmarkE4Cosima(b *testing.B) {
	shops := cosima.DefaultShops(4, 400, 0, 7)
	m := &cosima.MetaSearcher{Shops: shops}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, st, err := m.Search("book", "")
		if err != nil {
			b.Fatal(err)
		}
		if st.ResultSize == 0 {
			b.Fatal("empty result")
		}
	}
}

// BenchmarkE5Eshop measures the §4.1 washing-machine preference query.
func BenchmarkE5Eshop(b *testing.B) {
	db := core.Open()
	if err := datagen.Load(db.Engine(), "products", datagen.ApplianceColumns(), datagen.Appliances(300, 2002)); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := db.Exec(bench.EshopPrefQuery); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationAlgorithms is A1: the native BMO algorithms against the
// SQL92 rewriting for growing candidate sets.
func BenchmarkAblationAlgorithms(b *testing.B) {
	db := sharedJobDB(b)
	pref := "PREFERRING salary AROUND 50000 AND HIGHEST(experience) AND age AROUND 30 AND mobility AROUND 100"
	for _, size := range []int{250, 500, 1000} {
		query := fmt.Sprintf("SELECT id FROM jobs WHERE id <= %d %s", size, pref)
		for _, algo := range []bmo.Algorithm{bmo.NestedLoop, bmo.BlockNestedLoop, bmo.Auto} {
			b.Run(fmt.Sprintf("n=%d/native-%s", size, algo), func(b *testing.B) {
				db.DefaultSession().SetAlgorithm(algo)
				defer db.DefaultSession().SetAlgorithm(bmo.Auto)
				for i := 0; i < b.N; i++ {
					if _, err := db.Exec(query); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
		b.Run(fmt.Sprintf("n=%d/sql92-rewrite", size), func(b *testing.B) {
			db.DefaultSession().SetMode(core.ModeRewrite)
			defer db.DefaultSession().SetMode(core.ModeNative)
			for i := 0; i < b.N; i++ {
				if _, err := db.Exec(query); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblationDimensions is A2: BMO cost and size across Pareto
// dimensionality and data distribution.
func BenchmarkAblationDimensions(b *testing.B) {
	for _, dist := range []datagen.Distribution{datagen.Correlated, datagen.Independent, datagen.AntiCorrelated} {
		for _, d := range []int{2, 4} {
			rows := datagen.Skyline(2000, d, dist, 2002)
			parts := make([]preference.Preference, d)
			for j := 0; j < d; j++ {
				col := j + 1
				parts[j] = &preference.Lowest{
					Get:   func(r value.Row) (value.Value, error) { return r[col], nil },
					Label: fmt.Sprintf("d%d", col),
				}
			}
			p := &preference.Pareto{Parts: parts}
			b.Run(fmt.Sprintf("%s/d=%d", dist, d), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					if _, err := bmo.Evaluate(p, rows, bmo.Auto); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkParserOpel measures parsing of the paper's most complex query.
func BenchmarkParserOpel(b *testing.B) {
	const q = `SELECT * FROM car WHERE make = 'Opel'
PREFERRING (category = 'roadster' ELSE category <> 'passenger' AND
price AROUND 40000 AND HIGHEST(power))
CASCADE color = 'red' CASCADE LOWEST(mileage)`
	db := Open()
	db.MustExec("CREATE TABLE car (make VARCHAR, category VARCHAR, price INT, power INT, color VARCHAR, mileage INT)")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := db.Exec(q); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEngineBaseline measures the plain-SQL substrate (scan + filter
// + order) to contextualize the preference overhead.
func BenchmarkEngineBaseline(b *testing.B) {
	db := sharedJobDB(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := db.Exec("SELECT id FROM jobs WHERE region = 'Bayern' AND salary < 30000 ORDER BY salary LIMIT 10"); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPipelineTopK compares full materializing evaluation of a
// preference TOP-k query (Exec: complete BMO set built, then truncated)
// against the streaming cursor, where the LIMIT consumer stops pulling and
// the progressive BMO operator skips the remaining dominance work. The
// rows-scanned/op metric shows how many base rows the pipeline touched
// (the indexed WHERE pre-selection probes instead of scanning).
func BenchmarkPipelineTopK(b *testing.B) {
	db := sharedJobDB(b)
	const q = `SELECT id FROM jobs WHERE region = 'Bayern'
PREFERRING salary AROUND 50000 AND HIGHEST(experience) AND mobility AROUND 100 LIMIT 5`
	b.Run("batch-exec", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			res, err := db.Exec(q)
			if err != nil {
				b.Fatal(err)
			}
			if len(res.Rows) == 0 {
				b.Fatal("empty result")
			}
		}
	})
	b.Run("pipeline-cursor", func(b *testing.B) {
		var scanned int64
		for i := 0; i < b.N; i++ {
			c, err := db.OpenCursor(q)
			if err != nil {
				b.Fatal(err)
			}
			n := 0
			for c.Next() {
				n++
			}
			if err := c.Err(); err != nil {
				b.Fatal(err)
			}
			if n == 0 {
				b.Fatal("empty result")
			}
			scanned += c.Stats().RowsScanned
			c.Close()
		}
		b.ReportMetric(float64(scanned)/float64(b.N), "rows-scanned/op")
	})
}

// BenchmarkPipelineIndexedWhere measures the planner's equality-predicate →
// index-scan selection: the same WHERE workload against the jobs relation
// with and without the region index. The rows-scanned/op metric drops from
// the full relation to one hash bucket.
func BenchmarkPipelineIndexedWhere(b *testing.B) {
	run := func(b *testing.B, db *core.DB) {
		const q = `SELECT id FROM jobs WHERE region = 'Bayern' AND salary < 30000 ORDER BY salary LIMIT 10`
		var scanned int64
		for i := 0; i < b.N; i++ {
			c, err := db.OpenCursor(q)
			if err != nil {
				b.Fatal(err)
			}
			for c.Next() {
			}
			if err := c.Err(); err != nil {
				b.Fatal(err)
			}
			scanned += c.Stats().RowsScanned
			c.Close()
		}
		b.ReportMetric(float64(scanned)/float64(b.N), "rows-scanned/op")
	}
	b.Run("indexed", func(b *testing.B) {
		run(b, sharedJobDB(b)) // bench.JobDB creates idx_jobs_region
	})
	b.Run("seqscan", func(b *testing.B) {
		db := core.Open()
		if err := datagen.Load(db.Engine(), "jobs", datagen.JobColumns(), datagen.Jobs(benchJobRows, 2002)); err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		run(b, db)
	})
}
