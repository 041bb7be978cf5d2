package server_test

import (
	"bytes"
	"encoding/json"
	"io"
	"log/slog"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"

	prefsql "repro"
	"repro/internal/server"
)

// syncBuffer is a goroutine-safe log sink: the server's per-connection
// handler writes from its own goroutine.
type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

func loadTrips(t *testing.T, c interface {
	Exec(string) (*prefsql.Result, error)
}) {
	t.Helper()
	if _, err := c.Exec(`CREATE TABLE trips (id INT, destination VARCHAR, duration INT, price INT);
		INSERT INTO trips VALUES
			(1, 'Rome',     7, 900),
			(2, 'Lisbon',  13, 750),
			(3, 'Crete',   15, 820),
			(4, 'Iceland', 28, 2100)`); err != nil {
		t.Fatal(err)
	}
}

// TestMetricsEndpoint drives a live server, then scrapes the
// observability listener: /metrics must expose the query latency
// histogram, the statement counters and the plan-cache series in
// Prometheus text format; /debug/vars must serve expvar JSON with the
// same registry under the "prefsql" key; /debug/pprof/ must answer.
func TestMetricsEndpoint(t *testing.T) {
	_, _, addr := startServer(t, 16)
	c := dial(t, addr)
	loadTrips(t, c)
	if _, err := c.Query(`SELECT destination FROM trips PREFERRING duration AROUND 14`); err != nil {
		t.Fatal(err)
	}

	hs, maddr, err := server.ServeMetrics("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { hs.Close() })

	get := func(path string) string {
		t.Helper()
		resp, err := http.Get("http://" + maddr.String() + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: status %d", path, resp.StatusCode)
		}
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return string(body)
	}

	metricsText := get("/metrics")
	for _, want := range []string{
		"# TYPE prefsql_query_seconds histogram",
		"prefsql_query_seconds_bucket{le=\"+Inf\"}",
		"prefsql_query_seconds_count",
		"prefsql_statements_total{kind=\"pref_select\"}",
		"prefsql_stmt_cache_hits_total",
		"prefsql_stmt_cache_misses_total",
		"prefsql_connections_total",
		"prefsql_active_sessions",
		"prefsql_rows_scanned_total",
	} {
		if !strings.Contains(metricsText, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
	// The workload above must have moved the counters: at least one
	// pref_select observed, at least one connection accepted, rows read.
	for _, wantPrefix := range []string{
		"prefsql_statements_total{kind=\"pref_select\"} ",
		"prefsql_connections_total ",
		"prefsql_rows_scanned_total ",
	} {
		found := false
		for _, line := range strings.Split(metricsText, "\n") {
			if v, ok := strings.CutPrefix(line, wantPrefix); ok {
				found = true
				if v == "0" {
					t.Errorf("%s is 0, want > 0 after the workload", strings.TrimSpace(wantPrefix))
				}
			}
		}
		if !found {
			t.Errorf("/metrics has no sample for %q", wantPrefix)
		}
	}

	var vars map[string]json.RawMessage
	if err := json.Unmarshal([]byte(get("/debug/vars")), &vars); err != nil {
		t.Fatalf("/debug/vars is not JSON: %v", err)
	}
	raw, ok := vars["prefsql"]
	if !ok {
		t.Fatal("/debug/vars missing the prefsql registry")
	}
	var reg map[string]any
	if err := json.Unmarshal(raw, &reg); err != nil {
		t.Fatalf("prefsql expvar value is not a map: %v", err)
	}
	if _, ok := reg["prefsql_query_seconds"]; !ok {
		t.Error("expvar registry missing prefsql_query_seconds")
	}

	if !strings.Contains(get("/debug/pprof/"), "goroutine") {
		t.Error("/debug/pprof/ index looks wrong")
	}
}

// TestSlowQueryLog pins the structured slow-query log: with a session
// threshold of 0ms every statement qualifies, and the record carries the
// query id, the SQL and the work counters. A connection without a
// threshold logs nothing.
func TestSlowQueryLog(t *testing.T) {
	db := prefsql.Open()
	var sink syncBuffer
	logger := slog.New(slog.NewTextHandler(&sink, &slog.HandlerOptions{Level: slog.LevelWarn}))
	srv := server.New(db.Internal(), server.Options{CacheSize: 16, Logger: logger})
	addr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })

	quiet := dial(t, addr.String())
	loadTrips(t, quiet)
	if _, err := quiet.Query(`SELECT destination FROM trips PREFERRING LOWEST(price)`); err != nil {
		t.Fatal(err)
	}
	if got := sink.String(); strings.Contains(got, "slow query") {
		t.Fatalf("no-threshold connection produced a slow-query record:\n%s", got)
	}

	noisy := dial(t, addr.String())
	if _, err := noisy.Exec(`SET slow_query_ms = 0`); err != nil {
		t.Fatal(err)
	}
	if _, err := noisy.Query(`SELECT destination FROM trips PREFERRING duration AROUND 14`); err != nil {
		t.Fatal(err)
	}
	// The server writes the record after it has flushed the Done frame
	// (the logged duration covers the wire), so the client can be back
	// here first: wait for the record instead of reading the sink once.
	got := sink.String()
	for deadline := time.Now().Add(5 * time.Second); !strings.Contains(got, "kind=pref_select") && time.Now().Before(deadline); got = sink.String() {
		time.Sleep(time.Millisecond)
	}
	for _, want := range []string{"slow query", "qid=", "PREFERRING duration AROUND 14", "rows_scanned=4", "kind=pref_select"} {
		if !strings.Contains(got, want) {
			t.Errorf("slow-query log missing %q:\n%s", want, got)
		}
	}
}

// TestQueryStatsOverWire pins the per-statement stats flag end to end:
// RequestStats makes the server attach a Stats frame with the work
// counters and the per-operator annotated plan, on both the materialized
// Query path and the streaming QueryIter path.
func TestQueryStatsOverWire(t *testing.T) {
	_, _, addr := startServer(t, 16)
	c := dial(t, addr)
	loadTrips(t, c)

	// Without RequestStats nothing is attached.
	if _, err := c.Query(`SELECT destination FROM trips PREFERRING LOWEST(price)`); err != nil {
		t.Fatal(err)
	}
	if st := c.LastStats(); st != nil {
		t.Fatalf("LastStats = %+v before RequestStats", st)
	}

	c.RequestStats(true)
	res, err := c.Query(`SELECT destination FROM trips PREFERRING duration AROUND 14`)
	if err != nil {
		t.Fatal(err)
	}
	st := c.LastStats()
	if st == nil {
		t.Fatal("LastStats = nil after RequestStats(true)")
	}
	if st.Rows != int64(len(res.Rows)) {
		t.Errorf("stats rows = %d, result rows = %d", st.Rows, len(res.Rows))
	}
	if st.RowsScanned != 4 {
		t.Errorf("rows scanned = %d, want 4", st.RowsScanned)
	}
	if st.Nanos <= 0 {
		t.Errorf("nanos = %d, want > 0", st.Nanos)
	}
	if !strings.Contains(st.Plan, "rows=") || !strings.Contains(st.Plan, "BMO") {
		t.Errorf("plan missing per-node annotations:\n%s", st.Plan)
	}

	// Streaming path: the Stats frame arrives between the last row and
	// Done and must not disturb iteration.
	rows, err := c.QueryIter(`SELECT destination FROM trips PREFERRING LOWEST(price)`)
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	for rows.Next() {
		n++
	}
	if err := rows.Err(); err != nil {
		t.Fatal(err)
	}
	rows.Close()
	st = c.LastStats()
	if st == nil {
		t.Fatal("LastStats = nil after streamed query")
	}
	if st.Rows != int64(n) {
		t.Errorf("streamed stats rows = %d, iterated %d", st.Rows, n)
	}
	if !strings.Contains(st.Plan, "SeqScan trips") {
		t.Errorf("streamed plan missing scan node:\n%s", st.Plan)
	}

	// Old-style queries (no flags byte) keep working after stats were on.
	c.RequestStats(false)
	if _, err := c.Query(`SELECT destination FROM trips PREFERRING LOWEST(price)`); err != nil {
		t.Fatal(err)
	}
}
