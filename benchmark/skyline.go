package main

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"time"

	"repro/internal/bmo"
	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/storage"
	"repro/internal/value"
)

// skyline_scan is the mirror of portal_search: full-table skylines over
// two read-only 3-d tables on an embedded session. The bmo kernel and
// the storage columnar image do nearly all the work; parser, planner
// and wire almost none. The anti-correlated table has the larger
// skyline, so dominance cost, not scan cost, shows there.

const skylineRows = 100000

var skylineGrades = []string{"A", "B", "C", "D"}

type skylineQuery struct {
	query
	table string
	below float64 // WHERE d1 < below; +Inf for none
}

type skyline struct {
	cfg     config
	db      *core.DB
	sess    *core.Session
	raw     map[string][]value.Row
	cols    []string
	queries []skylineQuery
	i       int
	answers
}

func newSkyline(cfg config) workload { return &skyline{cfg: cfg, answers: newAnswers()} }

func (s *skyline) clients() int { return 1 }

func skylineColumns() []storage.Column {
	return append(datagen.SkylineColumns(3), storage.Column{Name: "grade", Kind: value.Text})
}

func (s *skyline) setup() error {
	n := s.cfg.scaled(skylineRows, 2000)
	s.db = core.Open()
	s.raw = map[string][]value.Row{}
	rng := rand.New(rand.NewSource(s.cfg.seed))
	for i, t := range []struct {
		name string
		dist datagen.Distribution
	}{{"ind", datagen.Independent}, {"anti", datagen.AntiCorrelated}} {
		rows := datagen.Skyline(n, 3, t.dist, s.cfg.seed*2+int64(i))
		for j := range rows {
			rows[j] = append(rows[j], value.NewText(skylineGrades[rng.Intn(len(skylineGrades))]))
		}
		if err := datagen.Load(s.db.Engine(), t.name, skylineColumns(), rows); err != nil {
			return err
		}
		s.raw[t.name] = rows
	}
	for _, c := range skylineColumns() {
		s.cols = append(s.cols, c.Name)
	}
	s.sess = s.db.NewSession()
	s.sess.SetWorkers(runtime.NumCPU())

	const pareto = "LOWEST(d1) AND LOWEST(d2) AND LOWEST(d3)"
	inf := math.Inf(1)
	for _, t := range []string{"ind", "anti"} {
		for _, sh := range []struct {
			kind, where, pref string
			below             float64
		}{
			{"pareto", "", pareto, inf},
			{"filtered", " WHERE d1 < 0.5", pareto, 0.5},
			{"cascade", "", "LOWEST(d1) AND LOWEST(d2) CASCADE LOWEST(d3)", inf},
			// EXPLICIT is not score-based: this one takes the row-at-a-time fallback.
			{"explicit", " WHERE d1 < 0.3", "LOWEST(d2) AND EXPLICIT(grade, 'A' > 'B', 'B' > 'C')", 0.3},
		} {
			s.queries = append(s.queries, skylineQuery{
				query: query{
					id: len(s.queries), kind: sh.kind + "." + t,
					sql:  "SELECT id FROM " + t + sh.where + " PREFERRING " + sh.pref,
					cand: "SELECT * FROM " + t + sh.where, pref: sh.pref,
				},
				table: t, below: sh.below,
			})
		}
	}
	// The rotation starts where the seed says, so two seeds do not time
	// the same statement first.
	s.i = int(uint64(s.cfg.seed) % uint64(len(s.queries)))
	for _, q := range s.queries {
		if _, err := s.sess.Query(q.sql); err != nil {
			return fmt.Errorf("%s: %w", q.sql, err)
		}
	}
	return nil
}

func (s *skyline) next() skylineQuery {
	q := s.queries[s.i%len(s.queries)]
	s.i++
	return q
}

func (s *skyline) nextStatement() string { return s.next().String() }

func (s *skyline) step(_ int, rec *recorder) error {
	q := s.next()
	t0 := time.Now()
	res, err := s.sess.Query(q.sql)
	d := time.Since(t0)
	if err != nil {
		return err
	}
	rec.observe(classQuery, d)
	return s.check(q.query, res.Rows)
}

// finish compares every statement with block-nested-loop evaluation
// over the raw generated rows.
func (s *skyline) finish(res *result) {
	for _, q := range s.queries {
		if s.runs[q.id] == 0 {
			continue
		}
		pref, err := compilePref(q.pref, s.cols)
		if err != nil {
			res.fail(s.runs[q.id], "oracle: %v", err)
			continue
		}
		cand := s.raw[q.table]
		if !math.IsInf(q.below, 1) {
			var kept []value.Row
			for _, r := range cand {
				if r[1].F < q.below {
					kept = append(kept, r)
				}
			}
			cand = kept
		}
		best, err := bmo.Evaluate(pref, cand, bmo.BlockNestedLoop)
		if err != nil {
			res.fail(s.runs[q.id], "oracle: %v", err)
			continue
		}
		ids := make([]value.Row, len(best))
		for i, r := range best {
			ids[i] = value.Row{r[0]}
		}
		s.verify(res, q.query, ids, "bmo.Evaluate(BNL) over the raw rows")
	}
	res.Notes = append(res.Notes, fmt.Sprintf("2 tables x %d rows (independent, anti-correlated), 3-d, embedded session, workers=%d",
		s.cfg.scaled(skylineRows, 2000), runtime.NumCPU()))
}

func (s *skyline) traced(tr *tracer, res *result, budget time.Duration) {
	// The columnar image is built during warm-up (it is in setup_s);
	// time one build per table on its own. The second call restores the
	// image for the current epoch.
	for _, name := range []string{"ind", "anti"} {
		tbl, _ := s.db.Engine().Catalog().Table(name)
		tr.child("storage.columnar_build", 0, 0, func() { tbl.Columnar(s.db.Epoch() + 1) })
		tbl.Columnar(s.db.Epoch())
	}
	var counts statCounts
	// Every third statement is traced: the rotation has eight statements,
	// so a stride of two would trace the same four every time.
	tr.replay(budget, 3, res,
		func() (string, time.Duration, error) {
			q := s.next()
			t0 := time.Now()
			r, err := s.sess.Query(q.sql)
			d := time.Since(t0)
			if err == nil {
				err = s.check(q.query, r.Rows)
			}
			return q.kind, d, err
		},
		func(stmt int) (string, time.Duration, error) {
			q := s.next()
			root := tr.begin("core.stmt", 0, stmt)
			r, err := s.sess.Query(q.sql)
			d := tr.end(root)
			if err != nil {
				return q.kind, d, err
			}
			if err := s.check(q.query, r.Rows); err != nil {
				return q.kind, d, err
			}
			counts.observe(s.sess.LastStats(), len(r.Rows), false, false)
			return q.kind, d, traceSelect(tr, root, stmt, s.db.Engine(), q.query, runtime.NumCPU(), layerSkips{})
		})
	counts.report(res)
}

func (s *skyline) close() {}
