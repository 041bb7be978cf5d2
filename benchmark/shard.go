package main

import (
	"context"
	"fmt"
	"hash/fnv"
	"math/rand"
	"sync"
	"time"

	"repro/internal/bmo"
	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/dist"
	"repro/internal/parser"
	"repro/internal/preference"
	"repro/internal/server"
	"repro/internal/value"
)

// shard_gather is the cluster: a coordinator scatters skyline queries
// to two in-process shard servers over loopback, streams the partial
// skylines back and merges them, and hash-routes single-row inserts.
// Scatter-gather, shard streaming and the gather merge run only here; a
// read waits for its slowest shard.

const (
	shardRows  = 40000
	shardCount = 2
	shardTable = `CREATE TABLE pts (id INT PRIMARY KEY, d1 FLOAT, d2 FLOAT)`
)

// shardQuery is a read with the statement the coordinator forwards to
// every shard (all columns, the hard WHERE, the first cascade stage) and
// the residual stage it evaluates itself.
type shardQuery struct {
	query
	shardSQL string
	first    string // the stage the shards evaluate
	post     string // residual cascade stage; "" when the whole preference is pushed
}

type shard struct {
	cfg     config
	servers []*server.Server
	shards  []dist.Shard
	coord   *core.DB
	sess    *core.Session
	single  *core.DB // the union on one node: the oracle
	queries []shardQuery
	rng     *rand.Rand
	mix     *deck // 4 reads, 1 insert
	i       int
	nextID  int64
	pending []value.Row // acknowledged inserts not yet applied to the oracle
	answers
}

func newShard(cfg config) workload { return &shard{cfg: cfg, answers: newAnswers()} }

func (s *shard) clients() int { return 1 }

// ownerOf repeats the coordinator's routing: FNV-1a over the hash
// column's key, modulo the shard count.
func ownerOf(id int64) int {
	h := fnv.New32a()
	h.Write([]byte(value.NewInt(id).Key()))
	return int(h.Sum32() % shardCount)
}

func (s *shard) setup() error {
	n := s.cfg.scaled(shardRows, 1000)
	rows := datagen.Skyline(n, 2, datagen.Independent, s.cfg.seed)
	parts := make([][]value.Row, shardCount)
	for _, r := range rows {
		o := ownerOf(r[0].I)
		parts[o] = append(parts[o], r)
	}
	load := func(db *core.DB, rows []value.Row) error {
		if _, err := db.Exec(shardTable); err != nil {
			return err
		}
		_, err := db.Engine().InsertRows("pts", rows)
		return err
	}
	for i, part := range parts {
		db := core.Open()
		if err := load(db, part); err != nil {
			return err
		}
		srv := server.New(db, server.Options{})
		addr, err := srv.Start("127.0.0.1:0")
		if err != nil {
			return err
		}
		s.servers = append(s.servers, srv)
		s.shards = append(s.shards, dist.Shard{Name: fmt.Sprintf("s%d", i), Addr: addr.String()})
	}
	s.coord = core.Open()
	if err := load(s.coord, nil); err != nil {
		return err
	}
	s.coord.SetDistributor(dist.NewCoordinator(s.shards, map[string]string{"pts": "id"}, 0))
	s.sess = s.coord.NewSession()
	s.single = core.Open()
	if err := load(s.single, rows); err != nil {
		return err
	}
	s.nextID = int64(n) + 1
	s.rng = rand.New(rand.NewSource(s.cfg.seed))
	s.mix = newDeck(s.rng, 4, 1)

	const pareto = "LOWEST(d1) AND LOWEST(d2)"
	for _, sh := range []struct{ kind, where, pref, post string }{
		{"pareto", "", pareto, ""},                  // progressive merge
		{"filtered", " WHERE d1 < 0.5", pareto, ""}, // progressive merge over half the rows
		{"cascade", "", pareto, "HIGHEST(id)"},      // residual stage: batch merge
	} {
		pref := sh.pref
		if sh.post != "" {
			pref += " CASCADE " + sh.post
		}
		s.queries = append(s.queries, shardQuery{
			query: query{
				id: len(s.queries), kind: sh.kind,
				sql:  "SELECT id, d1, d2 FROM pts" + sh.where + " PREFERRING " + pref,
				cand: "SELECT * FROM pts" + sh.where, pref: pref,
			},
			shardSQL: "SELECT * FROM pts" + sh.where + " PREFERRING " + sh.pref,
			first:    sh.pref,
			post:     sh.post,
		})
	}
	for _, q := range s.queries {
		for _, stream := range []bool{false, true} {
			if _, _, err := s.read(q, stream); err != nil {
				return fmt.Errorf("%s: %w", q.sql, err)
			}
		}
	}
	_, err := s.insert(s.drawInsert())
	return err
}

// drawInsert generates a routed insert. New points fall in the upper
// right quadrant, where every one of them is dominated: the writes cost
// what any write costs, and the answer to every read stays the one the
// oracle can check.
func (s *shard) drawInsert() value.Row {
	r := value.Row{value.NewInt(s.nextID), value.NewFloat(0.5 + s.rng.Float64()/2), value.NewFloat(0.5 + s.rng.Float64()/2)}
	s.nextID++
	return r
}

func (s *shard) insert(r value.Row) (time.Duration, error) {
	t0 := time.Now()
	res, err := s.sess.ExecContext(context.Background(), `INSERT INTO pts VALUES (?, ?, ?)`, r[0], r[1], r[2])
	d := time.Since(t0)
	if err != nil {
		return d, err
	}
	if res.Affected != 1 {
		return d, fmt.Errorf("insert of %v affected %d rows", r, res.Affected)
	}
	s.pending = append(s.pending, r)
	return d, nil
}

// read runs q through the coordinator, as a batch or through a cursor,
// and returns the rows and the time to the first one.
func (s *shard) read(q shardQuery, stream bool) (rows []value.Row, first time.Duration, err error) {
	if !stream {
		res, err := s.sess.Query(q.sql)
		if err != nil {
			return nil, 0, err
		}
		return res.Rows, 0, nil
	}
	t0 := time.Now()
	cur, err := s.sess.OpenCursor(q.sql)
	if err != nil {
		return nil, 0, err
	}
	defer cur.Close()
	for cur.Next() {
		if rows == nil {
			first = time.Since(t0)
		}
		rows = append(rows, cur.Row())
	}
	if rows == nil {
		first = time.Since(t0)
	}
	return rows, first, cur.Err()
}

// next draws the stream: one statement in five is a routed insert (row
// non-nil), the rest are the three read shapes in rotation, one read in
// five through a cursor.
func (s *shard) next() (row value.Row, q shardQuery, stream bool) {
	if s.mix.next() == 1 {
		return s.drawInsert(), shardQuery{}, false
	}
	q = s.queries[s.i%len(s.queries)]
	stream = s.i%5 == 4
	s.i++
	return nil, q, stream
}

func (s *shard) nextStatement() string {
	row, q, stream := s.next()
	if row != nil {
		return "insert " + row.String()
	}
	return fmt.Sprintf("stream=%v %s", stream, q)
}

func (s *shard) step(_ int, rec *recorder) error {
	row, q, stream := s.next()
	if row != nil {
		d, err := s.insert(row)
		rec.observe(classWrite, d)
		return err
	}
	t0 := time.Now()
	rows, first, err := s.read(q, stream)
	d := time.Since(t0)
	if err != nil {
		return err
	}
	rec.observe(classQuery, d)
	if stream {
		rec.observe(classFirstRow, first)
	}
	return s.check(q.query, rows)
}

// finish applies the acknowledged inserts to the single node and checks
// every read against its answer over the union, and the union itself
// against what the shards hold.
func (s *shard) finish(res *result) {
	if _, err := s.single.Engine().InsertRows("pts", s.pending); err != nil {
		res.fail(1, "oracle: %v", err)
		return
	}
	for _, q := range s.queries {
		want, err := s.single.Query(q.sql)
		if err != nil {
			res.fail(1, "oracle: %v", err)
			continue
		}
		s.verify(res, q.query, want.Rows, "the single-node answer on the union")
	}
	all, err := s.sess.Query(`SELECT id, d1, d2 FROM pts`)
	union, err2 := s.single.Query(`SELECT id, d1, d2 FROM pts`)
	if err != nil || err2 != nil {
		res.fail(1, "reading the union: %v, %v", err, err2)
	} else if digest(all.Rows) != digest(union.Rows) {
		res.fail(1, "the shards hold %d rows, the union of loaded and acknowledged rows has %d", len(all.Rows), len(union.Rows))
	}
	res.Notes = append(res.Notes, fmt.Sprintf("pts=%d rows hash-sharded on id over %d in-process shard servers on loopback, 1 embedded coordinator client",
		s.cfg.scaled(shardRows, 1000), shardCount))
}

// sliceSource feeds captured partial results to the gather merge.
type sliceSource struct{ rows []value.Row }

func (s *sliceSource) Next() (value.Row, bool, error) {
	if len(s.rows) == 0 {
		return nil, false, nil
	}
	r := s.rows[0]
	s.rows = s.rows[1:]
	return r, true, nil
}

func (s *sliceSource) Close() error { return nil }

func (s *shard) traced(tr *tracer, res *result, budget time.Duration) {
	transport := dist.NewTransport(s.shards, 0)
	cols := []string{"id", "d1", "d2"}
	var shipped, returned int

	// traceRead adds a read's children: the coordinator's parse, one
	// stream per shard (concurrent, as the gather operator runs them)
	// and the merge over the captured partial results.
	traceRead := func(root, stmt int, q shardQuery, rows []value.Row) error {
		var err error
		tr.child("parser.parse", root, stmt, func() { _, err = parser.ParseAll(q.sql) })
		if err != nil {
			return err
		}
		progressive := q.post == ""
		partials := make([][]value.Row, shardCount)
		errs := make([]error, shardCount)
		var slowest, firstRow time.Duration
		var mu sync.Mutex
		var wg sync.WaitGroup
		for i := 0; i < shardCount; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				id := tr.begin("dist.shard_stream", root, stmt)
				t0 := time.Now()
				var first time.Duration
				st, err := transport.Query(context.Background(), i, q.shardSQL, nil, progressive)
				if err == nil {
					for {
						r, ok, nerr := st.Next()
						if nerr != nil || !ok {
							err = nerr
							break
						}
						if partials[i] == nil {
							first = time.Since(t0)
						}
						partials[i] = append(partials[i], r)
					}
					st.Close()
				}
				d := tr.end(id)
				errs[i] = err
				mu.Lock()
				if d > slowest {
					slowest = d
				}
				if firstRow == 0 || (first > 0 && first < firstRow) {
					firstRow = first
				}
				mu.Unlock()
			}(i)
		}
		wg.Wait()
		for _, err := range errs {
			if err != nil {
				return err
			}
		}
		tr.observe("dist.shard_stream_ms", ms(slowest))
		tr.observe("dist.first_shard_row_ms", ms(firstRow))
		pref, err := compilePref(q.first, cols)
		if err != nil {
			return err
		}
		var post preference.Preference
		if q.post != "" {
			if post, err = compilePref(q.post, cols); err != nil {
				return err
			}
		}
		sources := make([]bmo.RowSource, shardCount)
		for i, p := range partials {
			shipped += len(p)
			sources[i] = &sliceSource{rows: p}
			traceWire(tr, p)
		}
		returned += len(rows)
		merged := 0
		tr.child("dist.merge", root, stmt, func() {
			g := bmo.NewGatherMerge(pref, post, sources, bmo.Config{})
			defer g.Close()
			for {
				_, ok, nerr := g.Next()
				if nerr != nil || !ok {
					err = nerr
					return
				}
				merged++
			}
		})
		if err == nil && merged != len(rows) {
			err = fmt.Errorf("merge over captured partials gives %d rows, the statement returned %d", merged, len(rows))
		}
		return err
	}

	tr.replay(budget, 2, res,
		func() (string, time.Duration, error) {
			row, q, stream := s.next()
			if row != nil {
				d, err := s.insert(row)
				return "insert", d, err
			}
			t0 := time.Now()
			rows, _, err := s.read(q, stream)
			d := time.Since(t0)
			if err == nil {
				err = s.check(q.query, rows)
			}
			return q.kind, d, err
		},
		func(stmt int) (string, time.Duration, error) {
			row, q, stream := s.next()
			if row != nil {
				root := tr.begin("core.stmt", 0, stmt)
				_, err := s.insert(row)
				d := tr.end(root)
				if err != nil {
					return "insert", d, err
				}
				// The same kind of insert sent straight to the owning
				// shard: the difference is what routing adds.
				r := s.drawInsert()
				t0 := time.Now()
				n, err := transport.Exec(context.Background(), ownerOf(r[0].I), literal(`INSERT INTO pts VALUES (?, ?, ?)`, r[0], r[1], r[2]), nil)
				direct := time.Since(t0)
				if err == nil && n != 1 {
					err = fmt.Errorf("direct insert of %v affected %d rows", r, n)
				}
				if err != nil {
					return "insert", d, err
				}
				s.pending = append(s.pending, r)
				tr.observe("dist.route_overhead_us", us(d-direct))
				return "insert", d, nil
			}
			root := tr.begin("core.stmt", 0, stmt)
			rows, _, err := s.read(q, stream)
			d := tr.end(root)
			if err != nil {
				return q.kind, d, err
			}
			if err := s.check(q.query, rows); err != nil {
				return q.kind, d, err
			}
			return q.kind, d, traceRead(root, stmt, q, rows)
		})
	res.add("dist.rows_shipped_per_result", ratio(float64(shipped), float64(returned)), returned)
}

func (s *shard) close() {
	for _, srv := range s.servers {
		srv.Close()
	}
}
