// Package dist is the coordinator side of distributed preference SQL:
// it connects a coordinator node to the prefserve shard nodes that own
// the hash partitions of sharded tables, reusing the wire client as the
// inter-node transport. The coordinator ships the per-shard preference
// query to each shard (move the preference to the data, not the rows to
// the coordinator), streams the partial skylines back concurrently, and
// the exec layer's gather operator merges them with the dominance-
// filtered partition merge — the network form of the parallel
// partition-merge algebra, sound by the same argument.
//
// Topology is static configuration: `prefserve -shard name=addr`
// (repeatable, in shard order) and `-shard-table table:hashcol` declare
// which nodes exist and which tables are hash-partitioned over them.
// Every node runs the same unmodified prefserve binary; a shard is just
// a server that happens to hold one partition of the rows.
package dist

import (
	"context"
	"fmt"
	"strings"
	"time"

	"repro/client"
	"repro/internal/metrics"
	"repro/internal/plan"
	"repro/internal/value"
)

// Shard is one shard node: a display name (for EXPLAIN, metrics and
// errors) and its wire address.
type Shard struct {
	Name string
	Addr string
}

// ParseShard parses a -shard flag value: "name=host:port", or bare
// "host:port" (the address doubles as the name).
func ParseShard(s string) (Shard, error) {
	name, addr, ok := strings.Cut(s, "=")
	if !ok {
		name, addr = s, s
	}
	if name == "" || addr == "" {
		return Shard{}, fmt.Errorf("dist: invalid shard %q (want name=addr or addr)", s)
	}
	return Shard{Name: name, Addr: addr}, nil
}

// ParseTable parses a -shard-table flag value: "table:hashcol".
func ParseTable(s string) (table, hashCol string, err error) {
	table, hashCol, ok := strings.Cut(s, ":")
	if !ok || table == "" || hashCol == "" {
		return "", "", fmt.Errorf("dist: invalid shard table %q (want table:hashcol)", s)
	}
	return table, hashCol, nil
}

// Per-shard scatter-gather metrics: queries and rows tell how evenly
// the hash partitioning spreads work, nanoseconds/queries gives the
// per-shard mean latency, and errors count failed shard requests.
var (
	mShardSeconds = metrics.Default.Histogram("prefsql_dist_shard_query_seconds",
		"Latency of one shard's portion of a scatter-gather query.")
)

type shardMetrics struct {
	queries *metrics.Counter
	rows    *metrics.Counter
	nanos   *metrics.Counter
	errors  *metrics.Counter
}

func newShardMetrics(name string) shardMetrics {
	l := fmt.Sprintf("shard=%q", name)
	return shardMetrics{
		queries: metrics.Default.CounterL("prefsql_dist_shard_queries_total", l,
			"Scatter-gather statements forwarded to this shard."),
		rows: metrics.Default.CounterL("prefsql_dist_shard_rows_total", l,
			"Partial-result rows streamed back from this shard."),
		nanos: metrics.Default.CounterL("prefsql_dist_shard_nanoseconds_total", l,
			"Total time spent in this shard's streams (divide by queries for the mean)."),
		errors: metrics.Default.CounterL("prefsql_dist_shard_errors_total", l,
			"Failed shard requests (dial, forward, or mid-stream)."),
	}
}

// Transport opens per-shard statement streams over the wire client; it
// implements plan.ShardTransport. Each stream uses its own connection
// (connections are cheap and carry the per-session settings the stream
// needs), dialed with the configured connect+handshake timeout so a
// dead shard fails the statement instead of hanging it.
type Transport struct {
	shards      []Shard
	names       []string
	dialTimeout time.Duration
	sm          []shardMetrics
}

// NewTransport builds a transport over the shard nodes. dialTimeout
// bounds connect+handshake per shard; 0 means no bound beyond ctx.
func NewTransport(shards []Shard, dialTimeout time.Duration) *Transport {
	t := &Transport{shards: shards, dialTimeout: dialTimeout}
	for _, s := range shards {
		t.names = append(t.names, s.Name)
		t.sm = append(t.sm, newShardMetrics(s.Name))
	}
	return t
}

// ShardNames implements plan.ShardTransport.
func (t *Transport) ShardNames() []string { return t.names }

// dial connects to shard i under the transport's dial timeout.
func (t *Transport) dial(ctx context.Context, i int) (*client.Conn, error) {
	dctx := ctx
	if t.dialTimeout > 0 {
		var cancel context.CancelFunc
		dctx, cancel = context.WithTimeout(ctx, t.dialTimeout)
		defer cancel()
	}
	conn, err := client.DialContext(dctx, t.shards[i].Addr)
	if err != nil {
		t.sm[i].errors.Inc()
		return nil, fmt.Errorf("dist: dial shard %s (%s): %w", t.shards[i].Name, t.shards[i].Addr, err)
	}
	return conn, nil
}

// Query implements plan.ShardTransport: it runs sql on shard i and
// returns the row stream. The shard session keeps its own algorithm
// selection either way: every evaluation emits its skyline in the key
// order the coordinator's progressive merge requires, and the merge
// fails loudly on a stream that does not.
func (t *Transport) Query(ctx context.Context, i int, sql string, args []value.Value, progressive bool) (plan.ShardStream, error) {
	conn, err := t.dial(ctx, i)
	if err != nil {
		return nil, err
	}
	goArgs := make([]any, len(args))
	for j, v := range args {
		goArgs[j] = v
	}
	rows, err := conn.QueryIterContext(ctx, sql, goArgs...)
	if err != nil {
		conn.Close()
		t.sm[i].errors.Inc()
		return nil, fmt.Errorf("dist: shard %s: %w", t.shards[i].Name, err)
	}
	t.sm[i].queries.Inc()
	return &shardStream{conn: conn, rows: rows, sm: t.sm[i], start: time.Now()}, nil
}

// Exec runs sql on shard i and returns the affected-row count (the
// coordinator's INSERT routing and broadcast DML path).
func (t *Transport) Exec(ctx context.Context, i int, sql string, args []value.Value) (int64, error) {
	conn, err := t.dial(ctx, i)
	if err != nil {
		return 0, err
	}
	defer conn.Close()
	goArgs := make([]any, len(args))
	for j, v := range args {
		goArgs[j] = v
	}
	start := time.Now()
	res, err := conn.ExecContext(ctx, sql, goArgs...)
	t.sm[i].queries.Inc()
	t.sm[i].nanos.Add(time.Since(start).Nanoseconds())
	if err != nil {
		t.sm[i].errors.Inc()
		return 0, fmt.Errorf("dist: shard %s: %w", t.shards[i].Name, err)
	}
	return int64(res.Affected), nil
}

// ExecAll broadcasts sql to every shard and sums the affected counts
// (DDL and un-routable DML). Shards execute in order; the first failure
// aborts — the caller surfaces it as the statement's error, and the
// acceptance of partial DDL application matches single-node scripts
// failing mid-statement-list.
func (t *Transport) ExecAll(ctx context.Context, sql string, args []value.Value) (int64, error) {
	var total int64
	for i := range t.shards {
		n, err := t.Exec(ctx, i, sql, args)
		if err != nil {
			return total, err
		}
		total += n
	}
	return total, nil
}

// Coordinator couples the transport with the sharded-table catalog: it
// is the object a coordinator node injects into the core layer (it
// satisfies core's Distributor interface; core cannot import this
// package because the client imports core).
type Coordinator struct {
	t      *Transport
	tables map[string]string // lower(table) → hash column
}

// NewCoordinator builds a coordinator over the shard nodes. tables maps
// each sharded table name to its hash column.
func NewCoordinator(shards []Shard, tables map[string]string, dialTimeout time.Duration) *Coordinator {
	lt := make(map[string]string, len(tables))
	for k, v := range tables {
		lt[strings.ToLower(k)] = v
	}
	return &Coordinator{t: NewTransport(shards, dialTimeout), tables: lt}
}

// Lookup reports whether table is hash-partitioned and over which
// column.
func (c *Coordinator) Lookup(table string) (hashCol string, ok bool) {
	col, ok := c.tables[strings.ToLower(table)]
	return col, ok
}

// Transport exposes the shard transport for gather plans.
func (c *Coordinator) Transport() plan.ShardTransport { return c.t }

// Exec runs sql on one shard.
func (c *Coordinator) Exec(ctx context.Context, shard int, sql string, args []value.Value) (int64, error) {
	return c.t.Exec(ctx, shard, sql, args)
}

// ExecAll broadcasts sql to every shard.
func (c *Coordinator) ExecAll(ctx context.Context, sql string, args []value.Value) (int64, error) {
	return c.t.ExecAll(ctx, sql, args)
}

// shardStream adapts client.Rows to plan.ShardStream, folding the
// shard's per-row and latency metrics in as the stream is consumed.
type shardStream struct {
	conn   *client.Conn
	rows   *client.Rows
	sm     shardMetrics
	start  time.Time
	closed bool
}

func (s *shardStream) Next() (value.Row, bool, error) {
	if s.rows.Next() {
		s.sm.rows.Inc()
		return s.rows.Row(), true, nil
	}
	if err := s.rows.Err(); err != nil {
		s.sm.errors.Inc()
		return nil, false, err
	}
	return nil, false, nil
}

func (s *shardStream) Close() error {
	if s.closed {
		return nil
	}
	s.closed = true
	d := time.Since(s.start)
	s.sm.nanos.Add(d.Nanoseconds())
	mShardSeconds.Observe(d.Seconds())
	s.rows.Close()
	return s.conn.Close()
}
