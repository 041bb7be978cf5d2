package main

import (
	"context"
	"fmt"
	"math/rand"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/live"
	"repro/internal/storage"
	"repro/internal/value"
)

// live_feed is the only workload where internal/live runs: one writer
// streams inserts, updates and deletes into a small keyed table that
// carries 64 standing queries, and every delta is timed from the write
// to its receipt. The table is small on purpose, so incremental
// maintenance — not storage — is most of a write (the traced run checks
// that as live.maintain_share).

const (
	feedRows   = 1000
	feedSubs   = 64
	feedFilter = 16 // of feedSubs, plain filters without a preference
	feedGrades = 8  // distinct values of the grade column g
	// feedQueue is each subscription's delta queue, twice the default:
	// an evicted subscription cannot be checked, so a drainer that loses
	// the CPU for a moment must not be evicted. live.evictions reports
	// any that happen anyway (and they fail the run).
	feedQueue = 2048
)

const (
	feedCreate = `CREATE TABLE feed (id INT PRIMARY KEY, g INT, d1 FLOAT, d2 FLOAT, d3 FLOAT, d4 FLOAT)`
	feedInsert = `INSERT INTO feed VALUES (?, ?, ?, ?, ?, ?)`
	feedUpdate = `UPDATE feed SET d1 = ?, d3 = ? WHERE id = ?`
	feedDelete = `DELETE FROM feed WHERE id = ?`
)

type feedKind int

const (
	feedIns feedKind = iota
	feedUpd
	feedDel
	feedPoll
)

var feedKindNames = [...]string{"insert", "update", "delete", "poll"}

type feedOp struct {
	kind feedKind
	id   int64
	g    int64 // grade, fixed at insert
	d    [4]float64
	sub  int // feedPoll: which standing query to evaluate from scratch
}

func (o feedOp) String() string {
	return fmt.Sprintf("%s id=%d d=%v sub=%d", feedKindNames[o.kind], o.id, o.d, o.sub)
}

// feedSub is one standing query with its drainer's record.
type feedSub struct {
	sql    string
	sub    *live.Subscription
	deltas []live.Delta
	lat    []float64 // ms, write issued (change captured) to delta received
}

type feed struct {
	cfg    config
	db     *core.DB
	sess   *core.Session
	prep   map[string]*core.Prepared
	rng    *rand.Rand
	mix    *deck
	ids    []int64
	next   int64
	subs   []*feedSub
	drain  sync.WaitGroup
	writes struct{ ins, upd, del int }
	log    []feedOp // the traced run's writes, replayed on a twin without subscriptions
}

func newFeed(cfg config) workload { return &feed{cfg: cfg} }

func (f *feed) clients() int { return 1 }

// feedQueries builds the standing queries: 48 Pareto and cascade
// skylines over different dimensions and WHERE ranges, 16 plain filters.
// A cascade's first stage is the weak order LOWEST(g): live maintains a
// CASCADE by its lexicographic Compare, which equals the stage-wise BMO
// the from-scratch query computes only when the first stage leaves no
// two rows incomparable (a Pareto first stage does; see README.md).
func feedQueries(rng *rand.Rand) []string {
	dir := []string{"LOWEST", "HIGHEST"}
	var qs []string
	for i := 0; i < feedSubs-feedFilter; i++ {
		a := 1 + i%4
		b := 1 + (a+i/4%3)%4
		pref := fmt.Sprintf("%s(d%d) AND %s(d%d)", dir[i%2], a, dir[i/2%2], b)
		if i%4 == 3 {
			pref = dir[i/8%2] + "(g) CASCADE " + pref
		}
		where := ""
		if i%3 != 0 {
			where = fmt.Sprintf(" WHERE d%d < %.2f", 1+(a+1)%4, 0.3+0.6*rng.Float64())
		}
		qs = append(qs, "SELECT * FROM feed"+where+" PREFERRING "+pref)
	}
	for i := 0; i < feedFilter; i++ {
		lo := 0.8 * rng.Float64()
		qs = append(qs, fmt.Sprintf("SELECT * FROM feed WHERE d%d >= %.3f AND d%d < %.3f", 1+i%4, lo, 1+i%4, lo+0.1))
	}
	return qs
}

func (f *feed) setup() error {
	f.db = core.Open()
	f.sess = f.db.NewSession()
	if _, err := f.db.Exec(feedCreate); err != nil {
		return err
	}
	f.prep = map[string]*core.Prepared{}
	for _, sql := range []string{feedInsert, feedUpdate, feedDelete} {
		p, err := f.db.Prepare(sql)
		if err != nil {
			return err
		}
		f.prep[sql] = p
	}
	f.rng = rand.New(rand.NewSource(f.cfg.seed))
	f.mix = newDeck(f.rng, feedMix...)
	rows := make([]value.Row, f.cfg.scaled(feedRows, 500))
	for i := range rows {
		rows[i] = feedRow(f.draw(feedIns))
	}
	if _, err := f.db.Engine().InsertRows("feed", rows); err != nil {
		return err
	}
	for _, sql := range feedQueries(f.rng) {
		sub, err := f.sess.SubscribeValues(context.Background(), "SUBSCRIBE "+sql, nil, core.SubscribeOptions{Queue: feedQueue})
		if err != nil {
			return fmt.Errorf("%s: %w", sql, err)
		}
		fs := &feedSub{sql: sql, sub: sub}
		f.subs = append(f.subs, fs)
		f.drain.Add(1)
		go func() {
			defer f.drain.Done()
			for d := range sub.C() {
				fs.lat = append(fs.lat, ms(time.Since(d.Time)))
				fs.deltas = append(fs.deltas, d)
			}
		}()
	}
	// Warm-up: one statement of each kind.
	for _, k := range []feedKind{feedIns, feedUpd, feedDel, feedPoll} {
		if _, err := f.exec(f.sess, f.draw(k)); err != nil {
			return err
		}
	}
	return nil
}

func feedRow(op feedOp) value.Row {
	return value.Row{value.NewInt(op.id), value.NewInt(op.g), value.NewFloat(op.d[0]), value.NewFloat(op.d[1]), value.NewFloat(op.d[2]), value.NewFloat(op.d[3])}
}

// draw generates a statement of the given kind and applies it to the
// id list the later draws pick targets from.
func (f *feed) draw(k feedKind) feedOp {
	switch k {
	case feedIns:
		f.next++
		f.ids = append(f.ids, f.next)
		return feedOp{kind: feedIns, id: f.next, g: f.rng.Int63n(feedGrades),
			d: [4]float64{f.rng.Float64(), f.rng.Float64(), f.rng.Float64(), f.rng.Float64()}}
	case feedUpd:
		return feedOp{kind: feedUpd, id: f.ids[f.rng.Intn(len(f.ids))], d: [4]float64{f.rng.Float64(), 0, f.rng.Float64(), 0}}
	case feedDel:
		j := f.rng.Intn(len(f.ids))
		id := f.ids[j]
		f.ids[j] = f.ids[len(f.ids)-1]
		f.ids = f.ids[:len(f.ids)-1]
		return feedOp{kind: feedDel, id: id}
	default:
		return feedOp{kind: feedPoll, sub: f.rng.Intn(len(f.subs))}
	}
}

// feedMix is the statement mix by count, per two hundred, in feedKind
// order: one statement in ten polls a standing query from scratch (the
// client that does not subscribe); the writes are 70% insert, 15%
// update, 15% delete.
var feedMix = []int{feedIns: 126, feedUpd: 27, feedDel: 27, feedPoll: 20}

func (f *feed) nextOp() feedOp { return f.draw(feedKind(f.mix.next())) }

func (f *feed) nextStatement() string { return f.nextOp().String() }

func (f *feed) exec(sess *core.Session, op feedOp) (time.Duration, error) {
	run := func(sql string, args ...any) error {
		vals, err := value.FromGoArgs(args)
		if err != nil {
			return err
		}
		res, _, err := sess.ExecPreparedArgs(context.Background(), f.prep[sql], vals)
		if err == nil && res.Affected != 1 {
			err = fmt.Errorf("affected %d rows, want 1", res.Affected)
		}
		return err
	}
	var err error
	t0 := time.Now()
	switch op.kind {
	case feedIns:
		err = run(feedInsert, op.id, op.g, op.d[0], op.d[1], op.d[2], op.d[3])
	case feedUpd:
		err = run(feedUpdate, op.d[0], op.d[2], op.id)
	case feedDel:
		err = run(feedDelete, op.id)
	case feedPoll:
		_, err = sess.Query(f.subs[op.sub].sql)
	}
	d := time.Since(t0)
	if err != nil {
		return d, fmt.Errorf("%s: %w", op, err)
	}
	return d, nil
}

func (f *feed) count(op feedOp) {
	switch op.kind {
	case feedIns:
		f.writes.ins++
	case feedUpd:
		f.writes.upd++
	case feedDel:
		f.writes.del++
	}
}

func (f *feed) step(_ int, rec *recorder) error {
	op := f.nextOp()
	d, err := f.exec(f.sess, op)
	f.count(op)
	if op.kind == feedPoll {
		rec.observe(classQuery, d)
	} else {
		rec.observe(classWrite, d)
	}
	return err
}

// finish closes the subscriptions, joins the drainers and checks every
// standing query: its initial result plus its deltas, replayed in
// sequence, must equal the same query evaluated from scratch now.
func (f *feed) finish(res *result) {
	final := make([]*core.Result, len(f.subs))
	stats := make([]live.Stats, len(f.subs))
	for i, fs := range f.subs {
		r, err := f.sess.Query(fs.sql)
		if err != nil {
			res.fail(1, "%s: %v", fs.sql, err)
			return
		}
		final[i] = r
		stats[i] = fs.sub.Stats()
	}
	f.closeSubs()
	var lat []float64
	evicted := 0
	var compares, requalified, deltas int64
	for i, fs := range f.subs {
		lat = append(lat, fs.lat...)
		if err := fs.sub.Err(); err != nil {
			evicted++
			res.fail(1, "%s: %v", fs.sql, err)
			continue
		}
		if err := replayDeltas(fs.sub.Initial(), fs.deltas, final[i].Rows); err != nil {
			res.fail(1, "%s: %v", fs.sql, err)
		}
		compares += stats[i].Compares
		requalified += stats[i].Requalified
		deltas += stats[i].Adds + stats[i].Removes
	}
	res.addPercentiles("delta", lat, true)
	if f.cfg.trace {
		writes := f.writes.ins + f.writes.upd + f.writes.del
		res.add("live.compares_per_write", ratio(float64(compares), float64(writes)), writes)
		res.add("live.requalified_per_delete", ratio(float64(requalified), float64(f.writes.del+f.writes.upd)), f.writes.del+f.writes.upd)
		res.add("live.deltas_per_write", ratio(float64(deltas), float64(writes)), writes)
		res.add("live.evictions", float64(evicted), 0)
	}
	res.Notes = append(res.Notes, fmt.Sprintf("feed=%d rows, %d subscriptions (%d skylines, %d filters), 1 writer, 1 drainer per subscription, memory backend",
		f.cfg.scaled(feedRows, 500), feedSubs, feedSubs-feedFilter, feedFilter))
}

// replayDeltas applies deltas to the initial result and compares the
// outcome with want, checking that sequence numbers run from 1 without
// a gap and that every removal names a row that is there.
func replayDeltas(initial []value.Row, deltas []live.Delta, want []value.Row) error {
	have := map[string]int{}
	for _, r := range initial {
		have[r.Key()]++
	}
	for i, d := range deltas {
		if d.Seq != int64(i+1) {
			return fmt.Errorf("delta %d has seq %d", i+1, d.Seq)
		}
		k := d.Row.Key()
		if d.Op == live.OpAdd {
			have[k]++
			continue
		}
		if have[k] == 0 {
			return fmt.Errorf("delta %d removes a row that is not in the result: %v", d.Seq, d.Row)
		}
		if have[k]--; have[k] == 0 {
			delete(have, k)
		}
	}
	for _, r := range want {
		k := r.Key()
		if have[k] == 0 {
			return fmt.Errorf("after %d deltas the replayed result lacks %v", len(deltas), r)
		}
		if have[k]--; have[k] == 0 {
			delete(have, k)
		}
	}
	if len(have) != 0 {
		return fmt.Errorf("after %d deltas the replayed result has %d rows the query does not return", len(deltas), len(have))
	}
	return nil
}

func (f *feed) traced(tr *tracer, res *result, budget time.Duration) {
	// The twin table is where storage's share of a write is timed.
	tbl, _ := f.db.Engine().Catalog().Table("feed")
	twin := storage.NewTable("feed", tbl.Schema)
	start := tbl.Rows()
	if err := twin.InsertBatch(start); err != nil {
		res.fail(1, "twin: %v", err)
		return
	}
	byID := func(id int64) func(value.Row) (bool, error) {
		return func(r value.Row) (bool, error) { return r[0].I == id, nil }
	}
	// mutate applies op to the twin table.
	mutate := func(op feedOp) error {
		var err error
		switch op.kind {
		case feedIns:
			err = twin.Insert(feedRow(op))
		case feedUpd:
			_, err = twin.Update(byID(op.id), func(r value.Row) (value.Row, error) {
				r = r.Clone()
				r[2], r[4] = value.NewFloat(op.d[0]), value.NewFloat(op.d[2])
				return r, nil
			})
		case feedDel:
			_, err = twin.Delete(byID(op.id))
		}
		return err
	}
	var withSubs time.Duration
	tr.replay(budget, 2, res,
		func() (string, time.Duration, error) {
			op := f.nextOp()
			d, err := f.exec(f.sess, op)
			f.count(op)
			if op.kind != feedPoll {
				f.log = append(f.log, op)
				withSubs += d
				if err == nil {
					err = mutate(op)
				}
			}
			return feedKindNames[op.kind], d, err
		},
		func(stmt int) (string, time.Duration, error) {
			op := f.nextOp()
			kind := feedKindNames[op.kind]
			root := tr.begin("core.stmt", 0, stmt)
			_, err := f.exec(f.sess, op)
			d := tr.end(root)
			f.count(op)
			if err != nil {
				return kind, d, err
			}
			if op.kind == feedPoll {
				return kind, d, nil
			}
			f.log = append(f.log, op)
			withSubs += d
			tr.child("storage."+kind, root, stmt, func() { err = mutate(op) })
			return kind, d, err
		})

	// The same writes on a twin database without subscriptions: what is
	// left of a write when nothing is maintained.
	bare := core.Open()
	if _, err := bare.Exec(feedCreate); err != nil {
		res.fail(1, "twin database: %v", err)
		return
	}
	if _, err := bare.Engine().InsertRows("feed", start); err != nil {
		res.fail(1, "twin database: %v", err)
		return
	}
	sess := bare.NewSession()
	var without time.Duration
	for _, op := range f.log {
		d, err := f.exec(sess, op)
		if err != nil {
			res.fail(1, "twin database: %v", err)
			return
		}
		without += d
	}
	share := 1 - ratio(float64(without), float64(withSubs))
	res.add("live.maintain_share", share, len(f.log))
	if share < 0.5 {
		res.fail(1, "live.maintain_share = %.3f: with %d subscriptions a write should spend at least half its time in maintenance, or the workload re-measures storage", share, feedSubs)
	}
}

func (f *feed) closeSubs() {
	for _, fs := range f.subs {
		fs.sub.Close()
	}
	f.drain.Wait()
}

func (f *feed) close() { f.closeSubs() }
