package main

import (
	"context"
	"fmt"
	"io/fs"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/engine"
	"repro/internal/storage"
	"repro/internal/storage/disk"
	"repro/internal/storage/wal"
	"repro/internal/value"
	"repro/internal/wire"
)

// catalog_churn is the write path: a catalog table on the disk backend
// with wal.SyncAlways (the `prefserve -data-dir` default) takes single-
// row inserts, point reads, updates and deletes, with an occasional
// skyline read landing right after a write, one checkpoint at half
// time, and a crash-style reopen at the end. Log, storage mutation and
// recovery do the work here and nowhere else; reads sit beside writes,
// so a read-side gain that taxes writers (or the reverse) shows in one
// table.

const (
	churnRows = 50000
	// churnWarm statements of the stream run during setup, untimed.
	churnWarm = 40
	// churnReopens crash-style reopens are timed at the end of a run.
	churnReopens = 5
)

const (
	churnCreate  = `CREATE TABLE items (id INT PRIMARY KEY, cat INT, d1 FLOAT, d2 FLOAT)`
	churnInsert  = `INSERT INTO items VALUES (?, ?, ?, ?)`
	churnByID    = `SELECT id, cat, d1, d2 FROM items WHERE id = ?`
	churnByCat   = `SELECT id, cat, d1, d2 FROM items WHERE cat = ?`
	churnUpdate  = `UPDATE items SET d1 = ? WHERE id = ?`
	churnDelete  = `DELETE FROM items WHERE id = ?`
	churnSkyline = `SELECT id, cat, d1, d2 FROM items PREFERRING LOWEST(d1) AND LOWEST(d2)`
)

type churnKind int

const (
	opInsert churnKind = iota
	opByID
	opByCat
	opUpdate
	opDelete
	opSkyline
)

var churnKindNames = [...]string{"insert", "select_id", "select_cat", "update", "delete", "skyline"}

// churnOp is one statement of the stream.
type churnOp struct {
	kind churnKind
	id   int64
	cat  int64
	d1   float64
	d2   float64
}

// row is the row an insert writes.
func (o churnOp) row() value.Row {
	return value.Row{value.NewInt(o.id), value.NewInt(o.cat), value.NewFloat(o.d1), value.NewFloat(o.d2)}
}

func (o churnOp) String() string {
	return fmt.Sprintf("%s id=%d cat=%d d1=%.6f d2=%.6f", churnKindNames[o.kind], o.id, o.cat, o.d1, o.d2)
}

// twin is the in-memory model fed the same stream: the oracle for every
// read and for the state before and after recovery.
type twin struct {
	rows  map[int64]value.Row
	ids   []int64        // live ids, for drawing targets
	at    map[int64]int  // id → position in ids
	cats  map[int64]int  // cat → live rows
	bytes int64          // encoded bytes of every row written
	acked map[int64]bool // ids whose INSERT was acknowledged and not deleted since
}

func newTwin() *twin {
	return &twin{rows: map[int64]value.Row{}, at: map[int64]int{}, cats: map[int64]int{}, acked: map[int64]bool{}}
}

func encodedLen(r value.Row) int64 {
	var b wire.Buffer
	b.Row(r)
	return int64(len(b.B))
}

func (t *twin) insert(r value.Row) {
	id := r[0].I
	t.rows[id] = r
	t.at[id] = len(t.ids)
	t.ids = append(t.ids, id)
	t.cats[r[1].I]++
	t.bytes += encodedLen(r)
	t.acked[id] = true
}

func (t *twin) update(id int64, d1 float64) {
	r := t.rows[id].Clone()
	r[2] = value.NewFloat(d1)
	t.rows[id] = r
	t.bytes += encodedLen(r)
}

func (t *twin) remove(id int64) {
	r := t.rows[id]
	t.cats[r[1].I]--
	delete(t.rows, id)
	delete(t.acked, id)
	p, last := t.at[id], len(t.ids)-1
	t.ids[p] = t.ids[last]
	t.at[t.ids[p]] = p
	t.ids = t.ids[:last]
	delete(t.at, id)
}

func (t *twin) all() []value.Row {
	out := make([]value.Row, 0, len(t.rows))
	for _, r := range t.rows {
		out = append(out, r)
	}
	return out
}

// skyline2 is the LOWEST(d1) AND LOWEST(d2) skyline by sort and sweep,
// independent of internal/bmo.
func skyline2(rows []value.Row, c1, c2 int) []value.Row {
	s := append([]value.Row(nil), rows...)
	sort.Slice(s, func(i, j int) bool {
		if s[i][c1].F != s[j][c1].F {
			return s[i][c1].F < s[j][c1].F
		}
		return s[i][c2].F < s[j][c2].F
	})
	var out []value.Row
	for i := 0; i < len(s); {
		// rows equal in both dimensions do not dominate each other
		j := i
		for j < len(s) && s[j][c1].F == s[i][c1].F && s[j][c2].F == s[i][c2].F {
			j++
		}
		if len(out) == 0 || s[i][c2].F < out[len(out)-1][c2].F {
			out = append(out, s[i:j]...)
		}
		i = j
		// skip the rest of this d1 value: same d1, larger d2 is dominated
		for i < len(s) && s[i][c1].F == s[i-1][c1].F {
			i++
		}
	}
	return out
}

type churn struct {
	cfg  config
	dir  string
	bk   *disk.DB
	db   *core.DB
	sess *core.Session
	prep map[string]*core.Prepared
	rng  *rand.Rand
	mix  *deck
	tw   *twin
	next int64 // next fresh id
	cats int64

	start        time.Time
	checkpointed bool
	walBefore    wal.Stats // the log's counters up to the checkpoint
	// recovered is the backend reopened after the crash-style abandon.
	recovered *disk.DB
	probe     *churnProbes
}

func newChurn(cfg config) workload { return &churn{cfg: cfg, tw: newTwin()} }

func (c *churn) clients() int { return 1 }

func (c *churn) setup() error {
	n := c.cfg.scaled(churnRows, 1000)
	c.cats = int64(n / 100)
	if err := os.MkdirAll(c.cfg.workDir, 0o755); err != nil {
		return err
	}
	dir, err := os.MkdirTemp(c.cfg.workDir, "churn-")
	if err != nil {
		return err
	}
	c.dir = dir
	bk, _, err := disk.Open(c.dir, disk.Options{Sync: wal.SyncAlways})
	if err != nil {
		return err
	}
	c.bk = bk
	c.db = core.OpenOn(engine.NewOn(bk.Catalog()))
	c.sess = c.db.NewSession()
	if _, err := c.db.Exec(churnCreate); err != nil {
		return err
	}
	c.rng = rand.New(rand.NewSource(c.cfg.seed))
	c.mix = newDeck(c.rng, churnMix...)
	pts := datagen.Skyline(n, 2, datagen.Independent, c.cfg.seed)
	rows := make([]value.Row, n)
	for i, p := range pts {
		rows[i] = value.Row{p[0], value.NewInt(c.rng.Int63n(c.cats)), p[1], p[2]}
		c.tw.insert(rows[i])
	}
	c.next = int64(n) + 1
	if _, err := c.db.Engine().InsertRows("items", rows); err != nil {
		return err
	}
	if _, err := c.db.Exec(`CREATE INDEX items_cat ON items (cat)`); err != nil {
		return err
	}
	c.prep = map[string]*core.Prepared{}
	for _, sql := range []string{churnInsert, churnByID, churnByCat, churnUpdate, churnDelete, churnSkyline} {
		p, err := c.db.Prepare(sql)
		if err != nil {
			return err
		}
		c.prep[sql] = p
	}
	for i := 0; i < churnWarm; i++ {
		if _, _, err := c.exec(c.draw()); err != nil {
			return err
		}
	}
	if _, _, err := c.exec(churnOp{kind: opSkyline}); err != nil {
		return err
	}
	return nil
}

// churnMix is the statement mix by count, per hundred, in churnKind order.
var churnMix = []int{opInsert: 50, opByID: 30, opByCat: 9, opUpdate: 8, opDelete: 2, opSkyline: 1}

// draw generates the next statement.
func (c *churn) draw() churnOp {
	target := func() int64 { return c.tw.ids[c.rng.Intn(len(c.tw.ids))] }
	switch churnKind(c.mix.next()) {
	case opInsert:
		id := c.next
		c.next++
		return churnOp{kind: opInsert, id: id, cat: c.rng.Int63n(c.cats), d1: c.rng.Float64(), d2: c.rng.Float64()}
	case opByID:
		return churnOp{kind: opByID, id: target()}
	case opByCat:
		return churnOp{kind: opByCat, cat: c.rng.Int63n(c.cats)}
	case opUpdate:
		return churnOp{kind: opUpdate, id: target(), d1: c.rng.Float64()}
	case opDelete:
		return churnOp{kind: opDelete, id: target()}
	default:
		return churnOp{kind: opSkyline}
	}
}

func (c *churn) nextStatement() string { return c.draw().String() }

func (c *churn) run(sql string, args ...any) (*core.Result, bool, error) {
	vals, err := value.FromGoArgs(args)
	if err != nil {
		return nil, false, err
	}
	return c.sess.ExecPreparedArgs(context.Background(), c.prep[sql], vals)
}

// exec runs one statement, checks it against the twin and applies it
// there. It returns the statement's latency; checking is outside it.
func (c *churn) exec(op churnOp) (d time.Duration, res *core.Result, err error) {
	t0 := time.Now()
	switch op.kind {
	case opInsert:
		res, _, err = c.run(churnInsert, op.id, op.cat, op.d1, op.d2)
	case opByID:
		res, _, err = c.run(churnByID, op.id)
	case opByCat:
		res, _, err = c.run(churnByCat, op.cat)
	case opUpdate:
		res, _, err = c.run(churnUpdate, op.d1, op.id)
	case opDelete:
		res, _, err = c.run(churnDelete, op.id)
	case opSkyline:
		res, _, err = c.run(churnSkyline)
	}
	d = time.Since(t0)
	if err != nil {
		return d, nil, fmt.Errorf("%s: %w", op, err)
	}
	return d, res, c.apply(op, res)
}

// apply checks res against the twin and mirrors a write into it.
func (c *churn) apply(op churnOp, res *core.Result) error {
	switch op.kind {
	case opInsert, opUpdate, opDelete:
		if res.Affected != 1 {
			return fmt.Errorf("%s: affected %d rows, want 1", op, res.Affected)
		}
	}
	switch op.kind {
	case opInsert:
		c.tw.insert(op.row())
	case opUpdate:
		c.tw.update(op.id, op.d1)
	case opDelete:
		c.tw.remove(op.id)
	case opByID:
		if len(res.Rows) != 1 || !res.Rows[0].Equal(c.tw.rows[op.id]) {
			return fmt.Errorf("%s: got %v, twin has %v", op, res.Rows, c.tw.rows[op.id])
		}
	case opByCat:
		if len(res.Rows) != c.tw.cats[op.cat] {
			return fmt.Errorf("%s: got %d rows, twin has %d", op, len(res.Rows), c.tw.cats[op.cat])
		}
		for _, r := range res.Rows {
			if !r.Equal(c.tw.rows[r[0].I]) {
				return fmt.Errorf("%s: got %v, twin has %v", op, r, c.tw.rows[r[0].I])
			}
		}
	case opSkyline:
		if want := skyline2(c.tw.all(), 2, 3); digest(res.Rows) != digest(want) {
			return fmt.Errorf("%s: got %d rows, twin's skyline has %d", op, len(res.Rows), len(want))
		}
	}
	return nil
}

// maybeCheckpoint runs the one checkpoint once half the time is gone.
func (c *churn) maybeCheckpoint(tr *tracer) error {
	if c.start.IsZero() {
		c.start = time.Now()
	}
	if c.checkpointed || time.Since(c.start).Seconds() < c.cfg.seconds/2 {
		return nil
	}
	c.checkpointed = true
	c.walBefore = c.bk.WalStats()
	var err error
	if tr != nil {
		tr.child("disk.checkpoint", 0, 0, func() { err = c.db.Checkpoint(c.bk) })
	} else {
		err = c.db.Checkpoint(c.bk)
	}
	return err
}

func (c *churn) step(_ int, rec *recorder) error {
	if err := c.maybeCheckpoint(nil); err != nil {
		return err
	}
	op := c.draw()
	d, _, err := c.exec(op)
	switch op.kind {
	case opInsert, opUpdate, opDelete:
		rec.observe(classWrite, d)
	default:
		rec.observe(classQuery, d)
	}
	return err
}

// state reads back the whole table and the skyline and compares both
// with the twin: row count, content and skyline must agree.
func (c *churn) state(db *core.DB, when string, res *result) {
	all, err := db.Query(`SELECT id, cat, d1, d2 FROM items`)
	if err != nil {
		res.fail(1, "%s: %v", when, err)
		return
	}
	if want := c.tw.all(); len(all.Rows) != len(want) || digest(all.Rows) != digest(want) {
		res.fail(1, "%s: table has %d rows (digest %x), twin has %d (digest %x)",
			when, len(all.Rows), digest(all.Rows), len(want), digest(want))
	}
	have := map[int64]bool{}
	for _, r := range all.Rows {
		have[r[0].I] = true
	}
	for id := range c.tw.acked {
		if !have[id] {
			res.fail(1, "%s: acknowledged insert id %d is missing", when, id)
			break
		}
	}
	sky, err := db.Query(churnSkyline)
	if err != nil {
		res.fail(1, "%s: %v", when, err)
		return
	}
	if want := skyline2(c.tw.all(), 2, 3); digest(sky.Rows) != digest(want) {
		res.fail(1, "%s: skyline has %d rows, twin's has %d", when, len(sky.Rows), len(want))
	}
}

func dirBytes(dir string) (int64, error) {
	var n int64
	err := filepath.WalkDir(dir, func(_ string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		info, err := d.Info()
		if err != nil {
			return err
		}
		n += info.Size()
		return nil
	})
	return n, err
}

// finish checks the state against the twin, then abandons the handle
// without Close — what a killed process leaves — reopens the directory,
// times recovery up to the first answered query, and checks again.
func (c *churn) finish(res *result) {
	c.state(c.db, "before recovery", res)
	size, err := dirBytes(c.dir)
	if err != nil {
		res.fail(1, "data directory: %v", err)
	}
	res.add("disk_bytes_per_user_byte", ratio(float64(size), float64(c.tw.bytes)), 0)
	walStats := c.bk.WalStats()
	// Each reopen finds what a killed process leaves — the previous
	// handle is never closed — and does the same work: no write happens
	// in between. recover_s is the median, because one reopen takes tens
	// of milliseconds and a single timing of that length is mostly noise.
	var db *core.DB
	var rs disk.RecoveryStats
	var times []float64
	id := c.tw.ids[0]
	for i := 0; i < churnReopens; i++ {
		t0 := time.Now()
		bk, stats, err := disk.Open(c.dir, disk.Options{Sync: wal.SyncAlways})
		if err != nil {
			res.fail(1, "reopen: %v", err)
			return
		}
		c.recovered, rs = bk, stats
		db = core.OpenOn(engine.NewOn(bk.Catalog()))
		first, err := db.QueryContext(context.Background(), churnByID, id)
		times = append(times, time.Since(t0).Seconds())
		if err != nil || len(first.Rows) != 1 || !first.Rows[0].Equal(c.tw.rows[id]) {
			res.fail(1, "first query after recovery: %v, %v", first, err)
		}
	}
	res.add("recover_s", median(times), len(times))
	c.state(db, "after recovery", res)

	if c.cfg.trace {
		appends := walStats.Appends + c.walBefore.Appends
		res.add("wal.records_per_sync", ratio(float64(appends), float64(walStats.Syncs+c.walBefore.Syncs)), int(appends))
		res.add("wal.bytes_per_record", ratio(float64(walStats.Bytes+c.walBefore.Bytes), float64(appends)), int(appends))
		res.add("disk.recover_wal_records", float64(rs.WalRecords), 0)
		res.add("disk.recover_heap_rows", float64(rs.HeapRows), 0)
		pool := c.recovered.PoolStats()
		res.add("disk.pool_hit_rate", ratio(float64(pool.Hits), float64(pool.Hits+pool.Misses)), int(pool.Hits+pool.Misses))
	}
	res.Notes = append(res.Notes, fmt.Sprintf("items=%d rows preloaded, disk backend, wal=%s (the prefserve -data-dir default), 1 embedded client, checkpoint at half time=%v",
		c.cfg.scaled(churnRows, 1000), c.bk.SyncMode(), c.checkpointed))
}

// churnProbes are the twins the traced run times single layers on: a
// memory table at workload size fed the same writes, a second disk
// backend for LogInsert, and a bare log for Append.
type churnProbes struct {
	tbl *storage.Table
	bk  *disk.DB
	log *wal.Log
}

func (c *churn) openProbes(items *storage.Table) error {
	p := &churnProbes{tbl: storage.NewTable("items", items.Schema)}
	c.probe = p
	if err := p.tbl.InsertBatch(items.Rows()); err != nil {
		return err
	}
	if _, err := p.tbl.CreateIndex("items_cat", []string{"cat"}); err != nil {
		return err
	}
	var err error
	if p.bk, _, err = disk.Open(filepath.Join(c.dir+"-probe", "db"), disk.Options{Sync: wal.SyncAlways}); err != nil {
		return err
	}
	p.log, _, err = wal.Open(filepath.Join(c.dir+"-probe", "append.log"), wal.SyncAlways)
	return err
}

// write applies a write of the stream to the twin table, which so stays
// at the workload's size and content.
func (p *churnProbes) write(op churnOp) error {
	byID := func(r value.Row) (bool, error) { return r[0].I == op.id, nil }
	var err error
	switch op.kind {
	case opInsert:
		err = p.tbl.Insert(op.row())
	case opUpdate:
		_, err = p.tbl.Update(byID, func(r value.Row) (value.Row, error) {
			r = r.Clone()
			r[2] = value.NewFloat(op.d1)
			return r, nil
		})
	case opDelete:
		_, err = p.tbl.Delete(byID)
	}
	return err
}

func (c *churn) traced(tr *tracer, res *result, budget time.Duration) {
	items, _ := c.db.Engine().Catalog().Table("items")
	if err := c.openProbes(items); err != nil {
		res.fail(1, "probes: %v", err)
		return
	}
	var counts statCounts
	var allocs []float64
	tr.replay(budget, 2, res,
		func() (string, time.Duration, error) {
			if err := c.maybeCheckpoint(tr); err != nil {
				return "checkpoint", 0, err
			}
			op := c.draw()
			d, _, err := c.exec(op)
			if err == nil {
				err = c.probe.write(op)
			}
			return churnKindNames[op.kind], d, err
		},
		func(stmt int) (string, time.Duration, error) {
			op := c.draw()
			kind := churnKindNames[op.kind]
			root := tr.begin("core.stmt", 0, stmt)
			_, r, err := c.exec(op)
			d := tr.end(root)
			if err != nil {
				return kind, d, err
			}
			st := c.sess.LastStats()
			switch op.kind {
			case opInsert, opUpdate, opDelete:
				counts.observe(st, 0, op.kind != opInsert, true)
				// The storage mutation on the twin table, with what it allocates.
				var m0, m1 runtime.MemStats
				runtime.ReadMemStats(&m0)
				tr.child("storage."+kind, root, stmt, func() { err = c.probe.write(op) })
				runtime.ReadMemStats(&m1)
				allocs = append(allocs, float64(m1.TotalAlloc-m0.TotalAlloc)/1024)
				if err != nil || op.kind != opInsert {
					return kind, d, err
				}
				logged := tr.begin("disk.log_insert", root, stmt)
				err = c.probe.bk.LogInsert("items", []value.Row{op.row()})
				tr.end(logged)
				if err != nil {
					return kind, d, err
				}
				var b wire.Buffer
				b.Row(op.row())
				tr.child("wal.append", logged, stmt, func() { err = c.probe.log.Append(b.B) })
				return kind, d, err
			}
			counts.observe(st, len(r.Rows), op.kind != opSkyline, false)
			q := query{sql: churnSkyline, cand: `SELECT * FROM items`, pref: "LOWEST(d1) AND LOWEST(d2)"}
			switch op.kind {
			case opByID:
				q = query{sql: churnByID, args: []any{op.id}, cand: `SELECT * FROM items WHERE id = ?`}
			case opByCat:
				q = query{sql: churnByCat, args: []any{op.cat}, cand: `SELECT * FROM items WHERE cat = ?`}
			}
			// Prepared statements skip the parser; the plan cache is
			// invalidated by every write, so planning is paid.
			if err := traceSelect(tr, root, stmt, c.db.Engine(), q, runtime.NumCPU(), layerSkips{parse: true}); err != nil {
				return kind, d, err
			}
			var snap *storage.Snapshot
			tr.child("storage.snapshot", root, stmt, func() { snap = items.Snapshot() })
			switch op.kind {
			case opByCat:
				ix := items.IndexOn(1)
				tr.child("storage.probe", root, stmt, func() {
					for it := snap.Probe(ix, value.NewInt(op.cat)); ; {
						if _, ok := it.Next(); !ok {
							break
						}
					}
				})
			case opSkyline:
				// The statement paid for a fresh columnar image: it
				// follows a write. Build one more to time it, then
				// restore the image for the current epoch.
				tr.child("storage.columnar_build", root, stmt, func() { items.Columnar(c.db.Epoch() + 1) })
				items.Columnar(c.db.Epoch())
			}
			return kind, d, nil
		})
	counts.report(res)
	if len(allocs) > 0 {
		res.add("storage.alloc_kb_per_write", median(allocs), len(allocs))
	}
}

func (c *churn) close() {
	if c.probe != nil {
		if c.probe.bk != nil {
			c.probe.bk.Close()
		}
		if c.probe.log != nil {
			c.probe.log.Close()
		}
	}
	switch {
	case c.recovered != nil:
		// The original handle was abandoned on purpose; only the
		// reopened one is shut down.
		c.recovered.Close()
	case c.bk != nil:
		c.bk.Close()
	}
	if c.dir != "" {
		os.RemoveAll(c.dir)
		os.RemoveAll(c.dir + "-probe")
	}
}
