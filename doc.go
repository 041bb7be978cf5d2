// Package prefsql is a pure-Go reimplementation of Preference SQL
// (Kießling & Köstler, VLDB 2002): standard SQL extended with soft
// constraints under a strict-partial-order preference model and the
// Best-Matches-Only (BMO) query semantics.
//
// A Preference SQL query block is standard SQL plus three clauses:
//
//	SELECT <selection>              -- may use TOP / LEVEL / DISTANCE
//	FROM   <tables>
//	WHERE  <hard conditions>
//	PREFERRING <soft conditions>    -- AROUND, BETWEEN, LOWEST, HIGHEST,
//	                                -- POS (IN / =), NEG (NOT IN / <>),
//	                                -- CONTAINS, EXPLICIT, ELSE layering,
//	                                -- AND (Pareto), CASCADE (priorities)
//	GROUPING <attributes>           -- soft-constraint analogue of GROUP BY
//	BUT ONLY <quality conditions>   -- quality thresholds on the result
//	ORDER BY ... / LIMIT ...
//
// Quickstart:
//
//	db := prefsql.Open()
//	db.MustExec(`CREATE TABLE trips (id INT, duration INT)`)
//	db.MustExec(`INSERT INTO trips VALUES (1, 7), (2, 13), (3, 15)`)
//	res, err := db.Query(`SELECT * FROM trips PREFERRING duration AROUND 14`)
//
// Preference queries are evaluated natively — one score-vector kernel
// (presort, then a window of undominated rows) for weak orders and their
// Pareto combinations, block-nested-loop over the preference's Compare
// for everything else — or — matching the commercial product's architecture — by rewriting into
// plain SQL92 (level-annotated views plus a correlated NOT EXISTS
// dominance test) that runs on the embedded SQL engine. Both paths return
// identical results.
//
// Queries execute on a Volcano-style operator pipeline (plan → iterate):
// every SELECT, grouped and aggregate ones included, compiles to a logical
// plan (predicate pushdown, index-scan selection, hash joins, a hash
// Aggregate node, limit pushdown) executed by pull-based operators.
// Expressions are compiled with the plan, not interpreted per row: a
// column reference is bound to its row slot once, when the plan is first
// built, and the programs — which hold no per-execution state — are reused
// by every later execution of a cached or prepared statement (see
// ARCHITECTURE.md, "Expression evaluation"). The streaming cursor exposes
// the pipeline directly:
//
//	rows, err := db.QueryIter(`SELECT id FROM cars
//	    PREFERRING LOWEST(price) AND LOWEST(mileage) LIMIT 5`)
//	defer rows.Close()
//	for rows.Next() {
//	    use(rows.Row())
//	}
//	err = rows.Err()
//
// Score-based preference queries stream their Best-Matches-Only set
// progressively: each row is emitted as soon as it is known maximal, and a
// consumer that stops pulling (TOP-k, first result page) skips the
// remaining dominance comparisons (the candidate scan itself must complete
// — dominance is a property of the whole set). Plain SQL cursors stop the
// underlying scans outright. QueryProgressive is the callback flavour of
// the same machinery.
//
// A preference query is one plan: candidate relation (FROM + hard WHERE)
// → BMO (grouped under GROUPING) → ButOnly → QualityProject (SELECT list
// with TOP/LEVEL/DISTANCE, ORDER BY, DISTINCT, OFFSET, LIMIT). Query,
// the cursor, QueryProgressive and both EXPLAINs build that one tree and
// differ only in how they run it, so EXPLAIN prints the plan that
// executes (see ARCHITECTURE.md, "A preference query is one plan").
//
// # Bind parameters and contexts
//
// Every query API has a context-first, parameterized form; the
// string-only methods above are convenience wrappers over it with a
// background context and no arguments. Positional `?` (or `$n`)
// placeholders are real bind parameters — the statement parses to an
// ast.Param placeholder node, so one parsed statement (and, for plain
// SELECTs, one cached plan) serves every argument set, and argument
// values never pass through SQL text:
//
//	res, err := db.QueryContext(ctx, `SELECT * FROM trips
//	    WHERE price < ? PREFERRING duration AROUND ?`, 1000, 14)
//
//	st, err := db.Prepare(`SELECT id FROM trips WHERE price < ?`)
//	res, err = st.Exec(900)   // planned once, re-run per argument
//	res, err = st.Exec(1200)  // same plan, fresh argument
//
// Placeholders bind anywhere an expression is allowed — WHERE literals,
// preference parameters like the AROUND target, select items — plus the
// outermost LIMIT/OFFSET. Cancelling the context stops in-flight work
// mid-scan (embedded) or via the wire protocol's Cancel message
// (remote):
//
//	rows, err := db.QueryIterContext(ctx, `SELECT ...`, args...)
//
// # Concurrency and sessions
//
// A DB is safe for concurrent use: SELECTs (preference or plain) share a
// read lock and run concurrently against copy-on-write storage snapshots,
// while DML/DDL statements serialize. Per-client execution settings live
// on sessions, so concurrent clients cannot flip each other's mode or BMO
// algorithm mid-query:
//
//	sess := db.NewSession()
//	sess.SetMode(prefsql.ModeRewrite) // other sessions stay native
//	res, err := sess.Query(`SELECT ...`)
//
// Session settings are also plain SQL statements — `SET mode = rewrite`,
// `SET algorithm = parallel`, `SET workers = 4`, `SET pushdown = off` —
// accepted embedded and over the wire, affecting only the executing
// session. The algorithm is one of auto, nl, bnl and parallel; the
// retired tokens sfs, bestlevel and vec are accepted as auto.
//
// # Preference-algebra optimizer
//
// The planner implements the paper's preference relational algebra: on
// join queries it moves Best-Matches-Only evaluation below the join
// whenever the transformation laws are sound, so dominance work runs on
// the small join inputs instead of the multiplied join output. A
// preference reading one input pushes whole (guarded by a semijoin
// partner filter, so tuples dominated only by partner-less tuples
// survive exactly as they would above the join); a Pareto accumulation
// whose components split cleanly across the inputs becomes per-side
// group-wise pre-filters below the join plus the residual preference
// above it; cascade stages push head-first. LEFT joins, theta joins,
// preferences spanning both sides and quality-function queries refuse
// the rewrite. ExplainNative renders every decision
// (`BMO ... pushdown=left|right|split`), `SET pushdown = off` pins the
// unpushed plan, and the differential harness in internal/bmo holds
// pushed and unpushed plans result-identical over randomized join
// scenarios. See ARCHITECTURE.md, "Preference-algebra pushdown".
//
// # Parallel BMO
//
// Every preference has a presort key — a weak order's score, EXPLICIT's
// level, a Pareto's part keys after their sum, a nested CASCADE's stage
// keys — that is strictly smaller for a better tuple, so one sorted
// window serves them all. Where the key is exact (weak orders, chain
// EXPLICITs and Pareto accumulations of them) dominance is a pure float
// comparison of keys; otherwise the window compares the two rows. The
// parallel partition-merge evaluation splits the candidate set into
// per-worker partitions, runs the kernel on each concurrently (each
// row's key computed up front) and merges the sorted partials k-way, in
// exactly the sequential output order. Select it explicitly
// (SetAlgorithm(prefsql.Parallel), `SET algorithm = parallel`) or let
// the Auto path switch at 10k+ actual candidate rows on multicore.
// Every algorithm — this one included — must pass the cross-algorithm
// differential harness in internal/bmo before it ships; see
// ARCHITECTURE.md, "Differential testing policy".
//
// # Vectorized BMO
//
// Tables additionally cache column vectors — per numeric column a typed
// float64 vector, per TEXT column a dictionary code vector, each with a
// validity bitmap, built on demand for the heap version a reader
// captured, so a write invalidates only its own table's vectors. Scans
// test numeric WHERE conjuncts against them before fetching a row, and
// they feed the skyline operator's key fill. Every BMO evaluates a heap
// and candidate positions in it — over a scan, the scan's selection
// (the captured heap and the surviving positions); over any other
// input, its rows drained once — presorts the positions by the key,
// runs dominance block-at-a-time with per-block zone maps for an exact
// key (a block whose best corner the window of accepted rows dominates
// is skipped wholesale), and fetches only the winners' rows. On a
// vectorized node it fills key vectors from column vectors without
// boxing (POS, NEG and EXPLICIT through one per-value table). The
// planner vectorizes from table statistics when the session's
// algorithm is auto; a component no column vector serves (an
// expression over several columns, a subquery operand), and every
// component of a node that is not vectorized, is scored row by row at
// the same positions, and the output is byte-identical either way.
// ExplainNative shows the decision
// (`BMO vec est=N columnar`); ExplainAnalyze executes the plan and adds
// per-node and row-level work counters. See ARCHITECTURE.md, "Columnar
// layout & vectorized BMO".
//
// # Observability
//
// ExplainAnalyze executes a SELECT and annotates every plan node with
// its actual work — `(rows=N est=M time=T)` plus operator-specific
// counters such as index probes, semijoin partner drops and zone-map
// pruning — and appends a footer of statement-level counters:
//
//	out, err := db.ExplainAnalyze(`SELECT id FROM trips
//	    PREFERRING LOWEST(price) AND LOWEST(duration)`)
//
// Per-operator recording is off unless asked for (`SET node_stats = on`
// per session, or implicitly via ExplainAnalyze, an armed slow-query
// log, or a client stats request); row counts are exact and timing is
// sampled, so leaving it armed costs a few percent at most (the p7
// benchmark pins the budget). Each session also keeps its last
// statement's record — kind, duration, rows, work counters, annotated
// plan — behind Session.LastStats; `SET slow_query_ms = N` makes the
// server log statements at or above the threshold as structured
// slog records, and client.Conn.RequestStats(true) asks the server to
// attach the same record to each result, readable via
// client.Conn.LastStats (the prefsql shell's \stats shows it).
// Engine-wide, internal/metrics aggregates counters, gauges and latency
// histograms (statements and errors by kind, rows scanned, BMO in/out
// rows, statement-cache hits, connections); `prefserve -metrics-addr`
// serves them as Prometheus text on /metrics, expvar JSON on
// /debug/vars, and mounts pprof under /debug/pprof/. See
// ARCHITECTURE.md, "Observability".
//
// # Continuous queries
//
// SUBSCRIBE registers a standing query whose result set is maintained
// incrementally under DML, streaming +row/-row deltas instead of being
// re-run:
//
//	sub, err := db.Subscribe(ctx, `SUBSCRIBE SELECT * FROM offers
//	    PREFERRING LOWEST(price) AND HIGHEST(rating)`)
//	defer sub.Close()
//	for _, row := range sub.Initial() { show(row) }
//	for d := range sub.C() {
//	    switch d.Op {
//	    case prefsql.OpAdd:    show(d.Row)
//	    case prefsql.OpRemove: hide(d.Row)
//	    }
//	}
//
// Preference subscriptions maintain the skyline incrementally: an
// insert pays one dominance pass (evicting members it now dominates),
// and removing a skyline member requalifies only the rows it had been
// dominating — never a full recompute. Deltas carry a per-subscription
// sequence number contiguous from 1, and delivery is bounded: a
// consumer that lets its queue overflow is evicted (the channel closes
// and Err reports the eviction) rather than silently losing deltas.
// The same statement works remotely via client.Conn.Subscribe, and the
// prefsql shell's \watch follows a query live. See ARCHITECTURE.md,
// "Continuous queries".
//
// # Client/server
//
// The original system ran as middleware that applications reached over
// the network (§4.3). cmd/prefserve reproduces that deployment: a TCP
// server with one session per connection and a shared LRU
// prepared-statement cache (parse + plan once, re-execute many times),
// speaking the internal/wire protocol; the Execute and Query messages
// carry typed bind arguments, and the statement cache is keyed on SQL
// text alone, so a parameterized statement hits it across distinct
// argument values. The repro/client package mirrors this package's API —
// Dial, Exec, Query, QueryIter, QueryProgressive, Prepare, SetMode,
// SetAlgorithm and the *Context(ctx, sql, args...) forms — so
// application code runs unmodified against an embedded database or a
// remote server; closing a streaming iterator early (or cancelling its
// context) cancels the server-side work:
//
//	conn, err := client.Dial("localhost:7654")
//	defer conn.Close()
//	rows, err := conn.QueryIter(`SELECT * FROM trips PREFERRING duration AROUND 14`)
//	defer rows.Close()
//	for rows.Next() {
//	    use(rows.Row())
//	}
//
// The server optionally guards connections with an idle deadline
// (silent clients with no statement in flight are disconnected) and a
// write deadline (peers that stop reading mid-stream are dropped
// instead of parking a handler goroutine forever) — `prefserve
// -idle-timeout`, `-write-timeout`. The shell's \explain and \plan
// work remotely too, via the protocol's Explain message.
//
// # Durable storage
//
// The database is in-memory by default and stays that way for
// evaluation; durability is an opt-in backend underneath the catalog.
// A server started with a data directory logs every committed mutation
// to a write-ahead log before applying it (group commit: concurrent
// writers share one fsync), writes checkpoint images as sequential
// files of the same records, and recovers on start by replaying the
// last checkpoint's image and then the WAL tail — a torn final record
// is truncated, anything worse refuses the directory rather than
// silently dropping committed history:
//
//	prefserve -data-dir /var/lib/pref            # fsync per group commit
//	prefserve -data-dir /var/lib/pref -fsync off # leave flushing to the OS
//
// Clean shutdown (SIGINT/SIGTERM) checkpoints, so the next start
// replays an empty tail. Embedded use opens the same backend directly:
//
//	d, stats, err := disk.Open(dir, disk.Options{Sync: wal.SyncAlways})
//	db := core.OpenOn(engine.NewOn(d.Catalog()))
//
// The kill -9 torture harness (cmd/crashtest, CI's crash-recovery job)
// holds the contract that an acknowledged commit is never lost, and
// the p10 benchmark prices the overhead against the in-memory backend
// with the results identity-checked. See ARCHITECTURE.md, "Durable
// storage".
//
// # Distributed execution
//
// A prefserve node becomes a coordinator over hash-sharded tables by
// naming its shards and each table's hash column:
//
//	prefserve -shard s0=host0:7654 -shard s1=host1:7654 -shard-table jobs:id
//
// Shards are plain prefserve nodes serving their partition. A SELECT
// over a sharded table scatters to every shard with the hard WHERE and
// the first preference stage pushed (sound because a skyline
// distributes over a partition union: skyline(R) ⊆ ∪ skyline(Rᵢ)),
// gathers the partial results concurrently, and merges them under the
// same preference at the coordinator — progressively, when no residual
// cascade stage remains (every evaluation emits its skyline in the
// kernel's key order, whatever algorithm the shard picked), so answers
// emit before the slowest shard finishes. Residual cascade stages, BUT ONLY, DISTINCT, ORDER BY and
// LIMIT evaluate at the coordinator over the merged relation. INSERTs
// hash-route by the shard column; UPDATE/DELETE broadcast. Statements
// whose distributed evaluation would be unsound (joins over sharded
// tables, subqueries, aggregates, GROUPING, TOP/LEVEL/DISTANCE,
// SUBSCRIBE) are
// rejected with a clear error, and a shard failing mid-query fails the
// statement rather than truncating its result. See ARCHITECTURE.md,
// "Distributed execution".
//
// See ARCHITECTURE.md for the layer map and the protocol message table.
package prefsql
