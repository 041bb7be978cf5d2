package main

import (
	"context"
	"fmt"
	"math/rand"
	"sync"
	"time"

	"repro/client"
	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/server"
	"repro/internal/value"
)

// portal_search is the paper's §3.3: a job portal pre-selects a few
// hundred candidates by hard conditions through an index and ranks them
// with a 4-way Pareto preference. Statements are many and short, so
// parser, planner, statement cache, index scan, wire and server dominate
// and the dominance kernel does little.

const (
	portalRows = 100000
	// portalCache is the server's statement-cache capacity. It is below
	// the number of distinct statement texts (72 literal + 9 templates),
	// so the literal third of the stream keeps missing while the
	// parameterized and prepared thirds hit.
	portalCache = 64
)

// portalTargets are the candidate-set sizes of §3.3.
var portalTargets = []int{300, 600, 1000}

var portalShapes = []struct{ kind, pref, tail string }{
	{"pareto", "skill1 IN ('java', 'sql') AND salary <= %d AND HIGHEST(experience) AND parttime = TRUE", ""},
	{"cascade", "skill1 IN ('java', 'sql') AND salary <= %d CASCADE HIGHEST(experience) AND parttime = TRUE", ""},
	{"butonly", "skill1 IN ('java', 'sql') AND salary <= %d AND HIGHEST(experience) AND parttime = TRUE", " BUT ONLY DISTANCE(experience) <= 5"},
}

const (
	portalSelect = "SELECT id, salary, experience FROM jobs WHERE region = ? AND salary < ?"
	portalCand   = "SELECT * FROM jobs WHERE region = ? AND salary < ?"
)

type portal struct {
	cfg     config
	db      *core.DB
	srv     *server.Server
	conns   []*client.Conn
	queries []query // logical statements, parameterized form
	// prepared[c][template] is client c's server-side handle.
	prepared []map[string]*client.Stmt
	clis     []*portalClient
}

// portalClient is one closed-loop client's private state.
type portalClient struct {
	deck *deck // one card per logical statement
	i    int
	answers
}

func newPortal(cfg config) workload { return &portal{cfg: cfg} }

func (p *portal) clients() int { return 2 }

// portalQueries calibrates, per region, the salary cutoffs that leave
// about 300, 600 and 1000 candidates, and builds the logical statements.
func portalQueries(rows []value.Row) []query {
	const regionCol, salaryCol = 1, 6
	// salaries are multiples of 1000 in [20000, 100000]
	hists := map[string]*[81]int{}
	for _, r := range rows {
		h := hists[r[regionCol].S]
		if h == nil {
			h = new([81]int)
			hists[r[regionCol].S] = h
		}
		h[(r[salaryCol].I-20000)/1000]++
	}
	var qs []query
	for _, region := range datagen.Regions {
		hist := hists[region]
		if hist == nil {
			continue
		}
		for _, target := range portalTargets {
			cutoff, below, best := 21000, 0, -1
			for k := 0; k < len(hist); k++ {
				below += hist[k]
				if d := abs(below - target); best < 0 || d < best {
					best, cutoff = d, 20000+1000*(k+1)
				}
			}
			soft := 20000 + (cutoff-20000)/2000*1000
			for _, sh := range portalShapes {
				pref := fmt.Sprintf(sh.pref, soft)
				qs = append(qs, query{
					id: len(qs), kind: sh.kind,
					sql:  portalSelect + " PREFERRING " + pref + sh.tail,
					args: []any{region, cutoff},
					cand: portalCand, pref: pref,
				})
			}
		}
	}
	return qs
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}

func (p *portal) setup() error {
	rows := datagen.Jobs(p.cfg.scaled(portalRows, 4000), p.cfg.seed)
	p.db = core.Open()
	if err := datagen.Load(p.db.Engine(), "jobs", datagen.JobColumns(), rows); err != nil {
		return err
	}
	if _, err := p.db.Exec(`CREATE INDEX jobs_region ON jobs (region)`); err != nil {
		return err
	}
	p.queries = portalQueries(rows)
	p.srv = server.New(p.db, server.Options{CacheSize: portalCache})
	addr, err := p.srv.Start("127.0.0.1:0")
	if err != nil {
		return err
	}
	for c := 0; c < p.clients(); c++ {
		conn, err := client.Dial(addr.String())
		if err != nil {
			return err
		}
		p.conns = append(p.conns, conn)
		p.prepared = append(p.prepared, map[string]*client.Stmt{})
		ones := make([]int, len(p.queries))
		for i := range ones {
			ones[i] = 1
		}
		p.clis = append(p.clis, &portalClient{
			deck:    newDeck(rand.New(rand.NewSource(p.cfg.seed*1000003+int64(c))), ones...),
			answers: newAnswers(),
		})
	}
	// Warm-up: one pass over every distinct statement, through each of
	// the three ways the stream will send it, split between the clients.
	errs := make([]error, len(p.conns))
	var wg sync.WaitGroup
	for c := range p.conns {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i, q := range p.queries {
				for api := 0; api < 3 && i%len(p.conns) == c; api++ {
					if _, _, _, err := p.run(c, q, api, false); err != nil {
						errs[c] = err
						return
					}
				}
			}
		}(c)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// next draws client c's next statement: the logical statement from the
// seeded deck, the API in rotation, one in ten streamed.
func (p *portal) next(c int) (q query, api int, stream bool) {
	cl := p.clis[c]
	q = p.queries[cl.deck.next()]
	api, stream = cl.i%3, cl.i%10 == 9
	cl.i++
	return q, api, stream
}

func (p *portal) nextStatement() string {
	q, api, stream := p.next(0)
	return fmt.Sprintf("api=%d stream=%v %s", api, stream, q)
}

const (
	apiLiteral = iota
	apiParam
	apiPrepared
)

// run sends q over client c's connection and returns the rows, the
// server's statement flags and, for a streamed statement, the time to
// the first row.
func (p *portal) run(c int, q query, api int, stream bool) (rows []value.Row, flags byte, first time.Duration, err error) {
	conn := p.conns[c]
	ctx := context.Background()
	if stream {
		t0 := time.Now()
		var it *client.Rows
		if api == apiLiteral {
			it, err = conn.QueryIter(literal(q.sql, q.args...))
		} else {
			it, err = conn.QueryIterContext(ctx, q.sql, q.args...)
		}
		if err != nil {
			return nil, 0, 0, err
		}
		for it.Next() {
			if rows == nil {
				first = time.Since(t0)
			}
			rows = append(rows, it.Row())
		}
		if rows == nil {
			first = time.Since(t0)
		}
		err = it.Err()
		flags = it.Flags()
		if cerr := it.Close(); err == nil {
			err = cerr
		}
		return rows, flags, first, err
	}
	var res *client.Result
	switch api {
	case apiLiteral:
		res, flags, err = conn.ExecFlags(literal(q.sql, q.args...))
	case apiParam:
		res, flags, err = conn.ExecFlagsContext(ctx, q.sql, q.args...)
	default:
		st := p.prepared[c][q.sql]
		if st == nil {
			if st, err = conn.Prepare(q.sql); err != nil {
				return nil, 0, 0, err
			}
			p.prepared[c][q.sql] = st
		}
		res, flags, err = st.ExecFlags(q.args...)
	}
	if err != nil {
		return nil, 0, 0, err
	}
	return res.Rows, flags, 0, nil
}

func (p *portal) step(c int, rec *recorder) error {
	q, api, stream := p.next(c)
	t0 := time.Now()
	rows, _, first, err := p.run(c, q, api, stream)
	d := time.Since(t0)
	if err != nil {
		return err
	}
	rec.observe(classQuery, d)
	if stream {
		rec.observe(classFirstRow, first)
	}
	return p.clis[c].check(q, rows)
}

// finish checks every logical statement the run executed against the
// same statement under ModeRewrite, the paper's §3.2 semantics.
func (p *portal) finish(res *result) {
	want := make([][]value.Row, len(p.queries))
	errs := make([]error, len(p.queries))
	var wg sync.WaitGroup
	for w := range p.clis {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			sess := p.db.NewSession()
			sess.SetMode(core.ModeRewrite)
			for i := w; i < len(p.queries); i += len(p.clis) {
				q := p.queries[i]
				r, err := sess.QueryContext(context.Background(), q.sql, q.args...)
				if err != nil {
					errs[i] = err
					continue
				}
				want[i] = r.Rows
			}
		}(w)
	}
	wg.Wait()
	for i, q := range p.queries {
		for _, cl := range p.clis {
			if errs[i] != nil && cl.runs[q.id] > 0 {
				res.fail(cl.runs[q.id], "ModeRewrite: %v", errs[i])
			} else if errs[i] == nil {
				cl.verify(res, q, want[i], "the same statement under ModeRewrite")
			}
		}
	}
	res.Notes = append(res.Notes, fmt.Sprintf("jobs=%d rows, index on region, %d logical statements, 2 loopback clients, statement cache %d",
		p.cfg.scaled(portalRows, 4000), len(p.queries), portalCache))
}

func (p *portal) traced(tr *tracer, res *result, budget time.Duration) {
	sess := p.db.NewSession()
	cache0 := p.srv.CacheStats()
	var counts statCounts
	var reusable, reused int
	tr.replay(budget, 2, res,
		func() (string, time.Duration, error) {
			q, api, stream := p.next(0)
			t0 := time.Now()
			rows, _, _, err := p.run(0, q, api, stream)
			d := time.Since(t0)
			if err == nil {
				err = p.clis[0].check(q, rows)
			}
			return q.kind, d, err
		},
		func(stmt int) (string, time.Duration, error) {
			q, api, stream := p.next(0)
			root := tr.begin("client.stmt", 0, stmt)
			rows, flags, _, err := p.run(0, q, api, stream)
			d := tr.end(root)
			if err != nil {
				return q.kind, d, err
			}
			if err := p.clis[0].check(q, rows); err != nil {
				return q.kind, d, err
			}
			if api != apiLiteral {
				reusable++
				if flags&client.FlagPlanReused != 0 {
					reused++
				}
			}
			// The same statement on an embedded session: the difference
			// is what server, wire and client add.
			t0 := time.Now()
			emb, err := sess.QueryContext(context.Background(), q.sql, q.args...)
			embedded := time.Since(t0)
			if err != nil {
				return q.kind, d, err
			}
			tr.observe("server.roundtrip_overhead_us", us(d-embedded))
			counts.observe(sess.LastStats(), len(emb.Rows), true, false)
			skip := layerSkips{
				parse: flags&client.FlagCacheHit != 0 || api == apiPrepared,
				plan:  flags&client.FlagPlanReused != 0,
			}
			traceWire(tr, rows)
			return q.kind, d, traceSelect(tr, root, stmt, p.db.Engine(), q, 0, skip)
		})
	cache1 := p.srv.CacheStats()
	hits, misses := cache1.Hits-cache0.Hits, cache1.Misses-cache0.Misses
	res.add("server.stmt_cache_hit_rate", ratio(float64(hits), float64(hits+misses)), int(hits+misses))
	res.add("core.plan_reuse_rate", ratio(float64(reused), float64(reusable)), reusable)
	counts.report(res)
}

func (p *portal) close() {
	for _, m := range p.prepared {
		for _, st := range m {
			st.Close()
		}
	}
	for _, c := range p.conns {
		c.Close()
	}
	if p.srv != nil {
		p.srv.Close()
	}
}
