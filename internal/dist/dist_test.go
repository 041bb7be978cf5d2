package dist_test

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sort"
	"strings"
	"testing"
	"time"

	"repro/internal/bmo"
	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/server"
	"repro/internal/value"
)

// cluster is an in-process shard topology: n prefserve-equivalent shard
// servers plus a coordinator database wired to them over loopback TCP.
type cluster struct {
	coord   *core.DB
	shards  []*core.DB
	servers []*server.Server
}

func startCluster(t *testing.T, n int, tables map[string]string) *cluster {
	t.Helper()
	cl := &cluster{}
	shards := make([]dist.Shard, n)
	for i := 0; i < n; i++ {
		db := core.Open()
		srv := server.New(db, server.Options{CacheSize: 16})
		addr, err := srv.Start("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { srv.Close() })
		cl.shards = append(cl.shards, db)
		cl.servers = append(cl.servers, srv)
		shards[i] = dist.Shard{Name: fmt.Sprintf("s%d", i), Addr: addr.String()}
	}
	cl.coord = core.Open()
	cl.coord.SetDistributor(dist.NewCoordinator(shards, tables, 2*time.Second))
	return cl
}

func mustExec(t *testing.T, db *core.DB, sql string) *core.Result {
	t.Helper()
	res, err := db.Exec(sql)
	if err != nil {
		t.Fatalf("%s: %v", sql, err)
	}
	return res
}

func canonicalRows(rows []value.Row) string {
	keys := make([]string, len(rows))
	for i, r := range rows {
		keys[i] = r.Key()
	}
	sort.Strings(keys)
	return strings.Join(keys, "|")
}

func orderedRows(rows []value.Row) string {
	keys := make([]string, len(rows))
	for i, r := range rows {
		keys[i] = r.Key()
	}
	return strings.Join(keys, "|")
}

// randomSetup builds one CREATE TABLE + INSERT script with random data,
// NULL scores sprinkled in (the merge must agree with single-node NULL
// saturation).
func randomSetup(rng *rand.Rand, n int) string {
	colors := []string{"red", "blue", "green", "white", "yellow"}
	var sb strings.Builder
	sb.WriteString("CREATE TABLE data (id INT, x INT, y INT, color VARCHAR); INSERT INTO data VALUES ")
	for i := 0; i < n; i++ {
		if i > 0 {
			sb.WriteString(", ")
		}
		xs := value.NewInt(int64(rng.Intn(10))).String()
		ys := value.NewInt(int64(rng.Intn(10))).String()
		if rng.Intn(12) == 0 {
			xs = "NULL"
		}
		if rng.Intn(12) == 0 {
			ys = "NULL"
		}
		color := colors[rng.Intn(len(colors))]
		sb.WriteString("(" + value.NewInt(int64(i)).String() + ", " + xs + ", " + ys + ", '" + color + "')")
	}
	return sb.String()
}

// TestDistributedEquivalence is the acceptance gate: a 4-shard cluster
// must return byte-identical result multisets to a single node for
// randomized preference queries across all constructor kinds, including
// rows with NULL scores. Ordered shapes (ORDER BY) compare in order.
func TestDistributedEquivalence(t *testing.T) {
	unordered := []string{
		"SELECT * FROM data",
		"SELECT * FROM data WHERE color = 'red'",
		"SELECT id, x FROM data PREFERRING LOWEST(x)",
		"SELECT * FROM data PREFERRING LOWEST(x)",
		"SELECT * FROM data PREFERRING HIGHEST(y)",
		"SELECT * FROM data PREFERRING x AROUND 5",
		"SELECT * FROM data PREFERRING x BETWEEN 3, 6",
		"SELECT * FROM data PREFERRING color IN ('red', 'blue')",
		"SELECT * FROM data PREFERRING color <> 'green'",
		"SELECT * FROM data PREFERRING color = 'white' ELSE color = 'yellow'",
		"SELECT * FROM data PREFERRING LOWEST(x) AND HIGHEST(y)",
		"SELECT * FROM data PREFERRING x AROUND 5 AND y AROUND 5",
		"SELECT * FROM data PREFERRING LOWEST(x) CASCADE HIGHEST(y)",
		"SELECT * FROM data PREFERRING color IN ('red') CASCADE LOWEST(x) CASCADE LOWEST(y)",
		"SELECT * FROM data PREFERRING (LOWEST(x) AND LOWEST(y)) CASCADE color = 'red'",
		"SELECT * FROM data PREFERRING EXPLICIT(color, 'red' > 'blue', 'white' > 'blue', 'blue' > 'green')",
		"SELECT * FROM data PREFERRING EXPLICIT(color, 'red' > 'blue') AND LOWEST(x)",
		"SELECT * FROM data WHERE x > 2 PREFERRING LOWEST(x) AND HIGHEST(y)",
		"SELECT DISTINCT color FROM data PREFERRING LOWEST(x)",
	}
	ordered := []string{
		"SELECT id FROM data PREFERRING LOWEST(x) ORDER BY id",
		"SELECT id FROM data PREFERRING LOWEST(x) AND HIGHEST(y) ORDER BY id LIMIT 3",
		"SELECT id, x, y FROM data PREFERRING x AROUND 5 ORDER BY id DESC",
	}

	rng := rand.New(rand.NewSource(20020827))
	for trial := 0; trial < 4; trial++ {
		setup := randomSetup(rng, 5+rng.Intn(60))

		cl := startCluster(t, 4, map[string]string{"data": "id"})
		mustExec(t, cl.coord, setup)
		single := core.Open()
		mustExec(t, single, setup)

		for _, q := range unordered {
			got, err := cl.coord.Query(q)
			if err != nil {
				t.Fatalf("trial %d %q: distributed: %v", trial, q, err)
			}
			want := mustExec(t, single, q)
			if canonicalRows(got.Rows) != canonicalRows(want.Rows) {
				t.Fatalf("trial %d %q:\ndistributed (%d rows):\n%s\nsingle (%d rows):\n%s",
					trial, q, len(got.Rows), core.FormatResult(got), len(want.Rows), core.FormatResult(want))
			}
		}
		for _, q := range ordered {
			got, err := cl.coord.Query(q)
			if err != nil {
				t.Fatalf("trial %d %q: distributed: %v", trial, q, err)
			}
			want := mustExec(t, single, q)
			if orderedRows(got.Rows) != orderedRows(want.Rows) {
				t.Fatalf("trial %d %q:\ndistributed:\n%s\nsingle:\n%s",
					trial, q, core.FormatResult(got), core.FormatResult(want))
			}
		}
	}
}

// TestDistributedProgressive checks the streaming path: a preference
// with no residual pulls rows progressively through the k-way merge and still agrees with the batch single-node answer. Table
// big holds more than bmo.AutoParallelThreshold rows on every shard, so
// the shards run the vectorized operator, whose batch output the merge
// relies on arriving in key order just like a shard's stream.
func TestDistributedProgressive(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	setup := randomSetup(rng, 80) + "; " +
		strings.ReplaceAll(randomSetup(rng, 4*bmo.AutoParallelThreshold+2000), " data ", " big ")

	cl := startCluster(t, 4, map[string]string{"data": "id", "big": "id"})
	mustExec(t, cl.coord, setup)
	single := core.Open()
	mustExec(t, single, setup)
	for i, shard := range cl.shards {
		plan, err := shard.ExplainNative("SELECT * FROM big PREFERRING LOWEST(x) AND HIGHEST(y)")
		if err != nil {
			t.Fatal(err)
		}
		if !strings.Contains(plan, "BMO vec") {
			t.Fatalf("shard %d does not plan the vectorized operator:\n%s", i, plan)
		}
	}

	for _, q := range []string{
		"SELECT * FROM data PREFERRING LOWEST(x) AND HIGHEST(y)",
		"SELECT * FROM data PREFERRING x AROUND 5",
		"SELECT * FROM big PREFERRING LOWEST(x) AND HIGHEST(y)",
		"SELECT * FROM big PREFERRING x AROUND 5 AND y AROUND 5",
		// EXPLICIT, a chain and not, and a CASCADE nested in a Pareto.
		"SELECT * FROM data PREFERRING EXPLICIT(color, 'red' > 'blue', 'blue' > 'green')",
		"SELECT * FROM data PREFERRING EXPLICIT(color, 'red' > 'green', 'blue' > 'green') AND LOWEST(x)",
		"SELECT * FROM data PREFERRING (LOWEST(x) CASCADE HIGHEST(y)) AND EXPLICIT(color, 'red' > 'blue')",
		"SELECT * FROM big PREFERRING EXPLICIT(color, 'red' > 'blue', 'blue' > 'green') AND HIGHEST(y)",
		"SELECT * FROM big PREFERRING EXPLICIT(color, 'red' > 'green', 'blue' > 'green', 'green' > 'white') AND LOWEST(x)",
		"SELECT * FROM big PREFERRING (LOWEST(x) CASCADE HIGHEST(y)) AND EXPLICIT(color, 'white' > 'red')",
	} {
		var rows []value.Row
		if _, err := cl.coord.QueryProgressive(q, func(r value.Row) bool {
			rows = append(rows, r)
			return true
		}); err != nil {
			t.Fatalf("%q: %v", q, err)
		}
		want := mustExec(t, single, q)
		if canonicalRows(rows) != canonicalRows(want.Rows) {
			t.Fatalf("%q: progressive gather disagrees with single node:\ngot  %d rows\nwant %d rows",
				q, len(rows), len(want.Rows))
		}
	}
}

// TestDistributedDML checks hash-routed INSERT (rows spread over the
// shards, none lost or duplicated) and broadcast UPDATE / DELETE.
func TestDistributedDML(t *testing.T) {
	cl := startCluster(t, 4, map[string]string{"data": "id"})
	mustExec(t, cl.coord, "CREATE TABLE data (id INT, x INT, y INT, color VARCHAR)")

	var sb strings.Builder
	sb.WriteString("INSERT INTO data VALUES ")
	for i := 0; i < 100; i++ {
		if i > 0 {
			sb.WriteString(", ")
		}
		fmt.Fprintf(&sb, "(%d, %d, %d, 'c')", i, i%10, i%7)
	}
	if res := mustExec(t, cl.coord, sb.String()); res.Affected != 100 {
		t.Fatalf("affected = %d, want 100", res.Affected)
	}

	// Every row on exactly one shard, more than one shard used.
	seen := map[string]int{}
	used := 0
	for i, sdb := range cl.shards {
		res := mustExec(t, sdb, "SELECT id FROM data")
		if len(res.Rows) > 0 {
			used++
		}
		for _, r := range res.Rows {
			seen[r.Key()]++
		}
		_ = i
	}
	if len(seen) != 100 {
		t.Fatalf("shards hold %d distinct ids, want 100", len(seen))
	}
	for k, n := range seen {
		if n != 1 {
			t.Fatalf("id %s stored on %d shards", k, n)
		}
	}
	if used < 2 {
		t.Fatalf("hash routing used %d shards, want >= 2", used)
	}

	if res := mustExec(t, cl.coord, "UPDATE data SET x = 0 WHERE id < 50"); res.Affected != 50 {
		t.Fatalf("update affected = %d, want 50", res.Affected)
	}
	got := mustExec(t, cl.coord, "SELECT id FROM data WHERE x = 0 AND id < 50")
	if len(got.Rows) != 50 {
		t.Fatalf("post-update rows = %d, want 50", len(got.Rows))
	}
	if res := mustExec(t, cl.coord, "DELETE FROM data WHERE id >= 90"); res.Affected != 10 {
		t.Fatalf("delete affected = %d, want 10", res.Affected)
	}
	got = mustExec(t, cl.coord, "SELECT id FROM data")
	if len(got.Rows) != 90 {
		t.Fatalf("post-delete rows = %d, want 90", len(got.Rows))
	}
}

// TestDistributedInsertNonFinite: a routed INSERT renders each value as
// SQL for its shard, and every FLOAT — the zeros of both signs, the
// extremes, the infinities and NaN — reads back from the coordinator as
// the value a single node stores.
func TestDistributedInsertNonFinite(t *testing.T) {
	cl := startCluster(t, 2, map[string]string{"n": "id"})
	mustExec(t, cl.coord, "CREATE TABLE n (id INT, f FLOAT)")
	want := []float64{0, math.Copysign(0, -1), 5e-324, 1e308, math.Inf(1), math.Inf(-1), math.NaN()}
	mustExec(t, cl.coord, `INSERT INTO n VALUES (0, 0), (1, -0.0), (2, 5e-324), (3, 1e308),
		(4, 1e308 * 10), (5, -1e308 * 10), (6, 0 * (1e308 * 10))`)
	res := mustExec(t, cl.coord, "SELECT id, f FROM n ORDER BY id")
	if len(res.Rows) != len(want) {
		t.Fatalf("%d rows, want %d", len(res.Rows), len(want))
	}
	for i, r := range res.Rows {
		f, w := r[1].Num(), want[i]
		if r[1].K != value.Float || math.IsNaN(w) != math.IsNaN(f) || !math.IsNaN(w) && math.Float64bits(f) != math.Float64bits(w) {
			t.Errorf("id %d: read back %s (%v), want %v", i, r[1], r[1].K, w)
		}
	}
}

// TestDistributedCascadeFormsAgree: the coordinator applies the residual
// CASCADE stages stage by stage after its merge, and stops once a stage
// leaves at most one candidate, as a single node does: row 1 wins stage
// 1 alone, and its NaN f is never ranked by LOWEST(f). The batch result
// and the cursor agree with a single node. (The strict progressive form
// refuses a residual stage over a sharded table.)
func TestDistributedCascadeFormsAgree(t *testing.T) {
	const setup = `CREATE TABLE n (id INT, a INT, b INT, f FLOAT);
		INSERT INTO n VALUES (1, 1, 5, 0 * (1e308 * 10)), (2, 2, 1, 0.5), (3, 3, 2, 1), (4, 4, 3, 2)`
	cl := startCluster(t, 2, map[string]string{"n": "id"})
	mustExec(t, cl.coord, setup)
	single := core.Open()
	mustExec(t, single, setup)
	for _, q := range []string{
		`SELECT id FROM n PREFERRING LOWEST(a) CASCADE LOWEST(f)`,
		`SELECT id FROM n PREFERRING (LOWEST(a) CASCADE HIGHEST(b)) CASCADE LOWEST(f)`,
	} {
		want := orderedRows(mustExec(t, single, q).Rows)
		res, err := cl.coord.Query(q)
		if err != nil {
			t.Errorf("%s: distributed: %v", q, err)
		} else if got := orderedRows(res.Rows); got != want {
			t.Errorf("%s: distributed %s, single node %s", q, got, want)
		}
		c, err := cl.coord.OpenCursor(q)
		if err != nil {
			t.Fatalf("%s: cursor: %v", q, err)
		}
		var rows []value.Row
		for c.Next() {
			rows = append(rows, c.Row())
		}
		c.Close()
		if c.Err() != nil {
			t.Errorf("%s: distributed cursor: %v", q, c.Err())
		} else if got := orderedRows(rows); got != want {
			t.Errorf("%s: distributed cursor %s, single node %s", q, got, want)
		}
	}
}

// TestDistributedRejections pins the error surface for shapes the
// distributed executor cannot run soundly.
func TestDistributedRejections(t *testing.T) {
	cl := startCluster(t, 2, map[string]string{"data": "id"})
	mustExec(t, cl.coord, `CREATE TABLE data (id INT, x INT, y INT, color VARCHAR);
		CREATE TABLE local (id INT, tag VARCHAR);
		INSERT INTO data VALUES (1, 1, 1, 'red')`)

	for _, q := range []string{
		"SELECT * FROM data d, local l WHERE d.id = l.id",
		"SELECT * FROM data WHERE id IN (SELECT id FROM local)",
		"SELECT * FROM local WHERE id IN (SELECT id FROM data)",
		"SELECT color FROM data GROUP BY color",
		"SELECT COUNT(*) FROM data",
		"SELECT MAX(x) FROM data",
		"SELECT * FROM data PREFERRING LOWEST(x) GROUPING color",
		"SELECT id, TOP(x) FROM data PREFERRING x AROUND 5",
		"SELECT * FROM data PREFERRING x AROUND 5 BUT ONLY DISTANCE(x) <= 2",
		"UPDATE data SET id = 9",
		"INSERT INTO data SELECT id, id, id, tag FROM local",
		"INSERT INTO local SELECT id, color FROM data",
		"CREATE VIEW v AS SELECT * FROM data",
	} {
		if _, err := cl.coord.Exec(q); err == nil {
			t.Errorf("%q: want rejection, got success", q)
		}
	}

	// Local statements stay unaffected by the distributor being present.
	mustExec(t, cl.coord, "INSERT INTO local VALUES (1, 'a')")
	if res := mustExec(t, cl.coord, "SELECT * FROM local"); len(res.Rows) != 1 {
		t.Fatalf("local table: %v", res.Rows)
	}
}

// TestDistributedExplain pins the Gather node rendering: shard count and
// the progressive-vs-batch merge marker.
func TestDistributedExplain(t *testing.T) {
	cl := startCluster(t, 4, map[string]string{"data": "id"})
	mustExec(t, cl.coord, "CREATE TABLE data (id INT, x INT, y INT, color VARCHAR)")

	out, err := cl.coord.ExplainNative("SELECT * FROM data PREFERRING LOWEST(x)")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "shards=4") || !strings.Contains(out, "progressive merge") {
		t.Fatalf("plan:\n%s", out)
	}
	out, err = cl.coord.ExplainNative("SELECT * FROM data PREFERRING EXPLICIT(color, 'red' > 'blue')")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "shards=4") || !strings.Contains(out, "progressive merge") {
		t.Fatalf("plan:\n%s", out)
	}
	// A residual cascade stage runs after the merge, which is then batch.
	out, err = cl.coord.ExplainNative("SELECT * FROM data PREFERRING LOWEST(x) CASCADE EXPLICIT(color, 'red' > 'blue')")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "shards=4") || strings.Contains(out, "progressive") {
		t.Fatalf("plan:\n%s", out)
	}
}

// TestShardFailureMidGather kills one shard server while the
// coordinator is mid-merge: the statement must fail with one clean
// error naming the shard, the surviving streams must be cancelled, and
// no gather goroutines may leak.
func TestShardFailureMidGather(t *testing.T) {
	cl := startCluster(t, 2, map[string]string{"data": "id"})

	// Anticorrelated rows with one coordinate sum, plus one row that
	// dominates them all. The shard holding that row streams it and
	// little else; the other shard's local skyline is all of its rows,
	// each one checked against every row admitted before it, so its
	// stream is computation-bound for a long time and the kill after the
	// first merged row lands mid-stream, not after the whole result
	// already sits in socket buffers. The coordinator's window holds the
	// dominator only, so its merge stays cheap. The dominator goes to
	// shard 0: the gather opens shard 0 first, so shard 1 — the victim —
	// starts computing last.
	const rows = 16000
	var sb strings.Builder
	sb.WriteString("CREATE TABLE data (id INT, x INT, y INT, color VARCHAR); INSERT INTO data VALUES ")
	for i := 0; i < rows; i++ {
		if i > 0 {
			sb.WriteString(", ")
		}
		fmt.Fprintf(&sb, "(%d, %d, %d, 'c')", i, i, rows-i)
	}
	mustExec(t, cl.coord, sb.String())
	for id := rows; ; id++ {
		mustExec(t, cl.coord, fmt.Sprintf("INSERT INTO data VALUES (%d, -1, -1, 'c')", id))
		if res := mustExec(t, cl.shards[0], "SELECT id FROM data WHERE x < 0"); len(res.Rows) == 1 {
			break
		}
		mustExec(t, cl.coord, "DELETE FROM data WHERE x < 0")
	}

	// Warm up (and sanity-check) the healthy path.
	if res := mustExec(t, cl.coord, "SELECT id FROM data PREFERRING LOWEST(x) AND LOWEST(y)"); len(res.Rows) != 1 {
		t.Fatalf("skyline = %d rows, want 1", len(res.Rows))
	}
	base := runtime.NumGoroutine()

	n := 0
	_, err := cl.coord.QueryProgressive(
		"SELECT id FROM data PREFERRING LOWEST(x) AND LOWEST(y)",
		func(value.Row) bool {
			n++
			if n == 1 {
				cl.servers[1].Close()
			}
			return true
		})
	if err == nil {
		t.Fatal("want a statement error after the shard died")
	}
	if !strings.Contains(err.Error(), "shard") {
		t.Fatalf("error does not name the shard: %v", err)
	}

	// The gather must tear everything down: pumps joined, surviving
	// streams cancelled, client connections closed.
	deadline := time.Now().Add(3 * time.Second)
	for runtime.NumGoroutine() > base+2 && time.Now().Before(deadline) {
		time.Sleep(20 * time.Millisecond)
	}
	if g := runtime.NumGoroutine(); g > base+2 {
		buf := make([]byte, 1<<16)
		t.Fatalf("goroutines leaked: %d -> %d\n%s", base, g, buf[:runtime.Stack(buf, true)])
	}

	// A dead shard also fails statement open cleanly (dial error), and
	// the coordinator stays usable for local tables.
	if _, err := cl.coord.Query("SELECT id FROM data PREFERRING LOWEST(x)"); err == nil {
		t.Fatal("want dial error with a dead shard")
	}
	mustExec(t, cl.coord, "CREATE TABLE aux (id INT); INSERT INTO aux VALUES (1)")
	if res := mustExec(t, cl.coord, "SELECT * FROM aux"); len(res.Rows) != 1 {
		t.Fatalf("coordinator unusable after shard failure: %v", res.Rows)
	}
}

// TestParseFlags covers the topology flag grammar.
func TestParseFlags(t *testing.T) {
	sh, err := dist.ParseShard("s0=host:1234")
	if err != nil || sh.Name != "s0" || sh.Addr != "host:1234" {
		t.Fatalf("ParseShard: %+v, %v", sh, err)
	}
	sh, err = dist.ParseShard("host:1234")
	if err != nil || sh.Name != "host:1234" || sh.Addr != "host:1234" {
		t.Fatalf("ParseShard bare: %+v, %v", sh, err)
	}
	if _, err := dist.ParseShard("=x"); err == nil {
		t.Fatal("ParseShard: want error for empty name")
	}
	tab, col, err := dist.ParseTable("jobs:id")
	if err != nil || tab != "jobs" || col != "id" {
		t.Fatalf("ParseTable: %q %q %v", tab, col, err)
	}
	if _, _, err := dist.ParseTable("jobs"); err == nil {
		t.Fatal("ParseTable: want error without hash column")
	}
}
