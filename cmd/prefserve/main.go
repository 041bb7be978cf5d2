// Command prefserve runs the Preference SQL server: a TCP front end
// serving concurrent client sessions over one shared in-memory database,
// speaking the internal/wire protocol (see ARCHITECTURE.md for the
// message table).
//
// Usage:
//
//	prefserve                          # serve an empty database on :7654
//	prefserve -addr :6000 -f init.sql  # bulk-load a script, then serve
//	prefserve -cache 512 -v            # bigger statement cache, verbose
//	prefserve -metrics-addr :9090      # expose /metrics, /debug/vars, /debug/pprof
//	prefserve -slow-query-ms 250       # log statements at or above 250ms
//	prefserve -data-dir /var/lib/pref  # durable storage: checkpoint image + WAL
//	prefserve -data-dir d -fsync off   # durable, but skip the per-commit fsync
//
// With -data-dir the server opens the durable backend (recovering from
// the write-ahead log if the previous process crashed), logs every
// mutation before applying it, and checkpoints on SIGINT/SIGTERM.
//
// A coordinator node for distributed preference SQL declares its shard
// topology with repeatable flags (every node runs this same binary):
//
//	prefserve -shard s0=host0:7654 -shard s1=host1:7654 \
//	          -shard-table jobs:id -f schema.sql
//
// Clients connect with the repro/client package or `prefsql -addr`.
package main

import (
	"flag"
	"fmt"
	"log"
	"log/slog"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/dist"
	"repro/internal/engine"
	"repro/internal/server"
	"repro/internal/storage/disk"
	"repro/internal/storage/wal"
)

// repeatedFlag collects every occurrence of a repeatable string flag.
type repeatedFlag []string

func (f *repeatedFlag) String() string { return strings.Join(*f, ",") }

func (f *repeatedFlag) Set(s string) error {
	*f = append(*f, s)
	return nil
}

func main() {
	var (
		addr        = flag.String("addr", ":7654", "listen address")
		file        = flag.String("f", "", "SQL script to execute before serving (schema + data)")
		cache       = flag.Int("cache", 128, "prepared-statement cache capacity")
		demo        = flag.String("demo", "", "pre-load a demo dataset: jobs[:N] (synthetic job relation)")
		verbose     = flag.Bool("v", false, "log connections")
		metricsAddr = flag.String("metrics-addr", "", "observability HTTP listener (/metrics, /debug/vars, /debug/pprof); empty = off")
		slowMs      = flag.Int64("slow-query-ms", 0, "log statements taking at least this many milliseconds; 0 = off")
		logJSON     = flag.Bool("log-json", false, "emit structured logs as JSON instead of text")
		idleTO      = flag.Duration("idle-timeout", 0, "disconnect a client silent this long with no statement in flight; 0 = off")
		writeTO     = flag.Duration("write-timeout", 0, "per-write socket deadline (disconnects peers that stop reading); 0 = off")
		dialTO      = flag.Duration("dial-timeout", 5*time.Second, "connect+handshake deadline per shard; 0 = off")
		dataDir     = flag.String("data-dir", "", "durable storage directory (checkpoint image + WAL); empty = in-memory")
		fsyncMode   = flag.String("fsync", "always", "WAL durability with -data-dir: always (fsync per group commit) or off")

		shardFlags repeatedFlag
		tableFlags repeatedFlag
	)
	flag.Var(&shardFlags, "shard", "shard node as name=addr or addr (repeatable, in shard order); makes this node a coordinator")
	flag.Var(&tableFlags, "shard-table", "hash-partitioned table as table:hashcol (repeatable)")
	flag.Parse()

	// Structured logging: connection lifecycle at Info (behind -v) and
	// slow queries at Warn (always, when a threshold is set). Built
	// before the database so recovery can report through it.
	level := slog.LevelWarn
	if *verbose {
		level = slog.LevelInfo
	}
	var handler slog.Handler
	if *logJSON {
		handler = slog.NewJSONHandler(os.Stderr, &slog.HandlerOptions{Level: level})
	} else {
		handler = slog.NewTextHandler(os.Stderr, &slog.HandlerOptions{Level: level})
	}
	logger := slog.New(handler)

	var db *core.DB
	var backend *disk.DB
	if *dataDir != "" {
		mode, err := wal.ParseSyncMode(*fsyncMode)
		if err != nil {
			fmt.Fprintf(os.Stderr, "prefserve: %v\n", err)
			os.Exit(1)
		}
		d, stats, err := disk.Open(*dataDir, disk.Options{Sync: mode})
		if err != nil {
			fmt.Fprintf(os.Stderr, "prefserve: open %s: %v\n", *dataDir, err)
			os.Exit(1)
		}
		backend = d
		db = core.OpenOn(engine.NewOn(d.Catalog()))
		recLog := logger.Info
		if stats.TornBytes > 0 {
			// A torn WAL tail means the previous process died mid-write;
			// that is worth seeing without -v.
			recLog = logger.Warn
		}
		recLog("recovered durable database",
			"dir", *dataDir, "fsync", mode.String(), "gen", stats.Gen,
			"tables", stats.Tables, "heap_rows", stats.HeapRows,
			"wal_records", stats.WalRecords, "wal_bytes", stats.WalBytes,
			"torn_bytes", stats.TornBytes, "elapsed", stats.Elapsed)
		log.Printf("prefserve: durable storage in %s (fsync=%s, generation %d, %d tables, %d rows recovered)",
			*dataDir, mode, stats.Gen, stats.Tables, stats.HeapRows+stats.WalRecords)
	} else {
		db = core.Open()
	}
	if len(shardFlags) > 0 || len(tableFlags) > 0 {
		coord, err := buildCoordinator(shardFlags, tableFlags, *dialTO)
		if err != nil {
			fmt.Fprintf(os.Stderr, "prefserve: %v\n", err)
			os.Exit(1)
		}
		db.SetDistributor(coord)
	}
	if *demo != "" {
		if err := loadDemo(db, *demo); err != nil {
			fmt.Fprintf(os.Stderr, "prefserve: %v\n", err)
			os.Exit(1)
		}
	}
	if *file != "" {
		data, err := os.ReadFile(*file)
		if err != nil {
			fmt.Fprintf(os.Stderr, "prefserve: %v\n", err)
			os.Exit(1)
		}
		if _, err := db.Exec(string(data)); err != nil {
			fmt.Fprintf(os.Stderr, "prefserve: init script: %v\n", err)
			os.Exit(1)
		}
	}

	opts := server.Options{
		CacheSize:    *cache,
		Banner:       "prefserve",
		Logger:       logger,
		SlowQueryMs:  *slowMs,
		IdleTimeout:  *idleTO,
		WriteTimeout: *writeTO,
	}
	srv := server.New(db, opts)
	if *metricsAddr != "" {
		_, maddr, err := server.ServeMetrics(*metricsAddr)
		if err != nil {
			log.Fatalf("prefserve: metrics listener: %v", err)
		}
		log.Printf("prefserve: metrics on http://%s/metrics (pprof under /debug/pprof/)", maddr)
	}
	// SIGINT/SIGTERM drain the server, then checkpoint and close the
	// durable backend so the next start recovers from a clean image
	// with an empty WAL tail.
	sigCh := make(chan os.Signal, 1)
	signal.Notify(sigCh, os.Interrupt, syscall.SIGTERM)
	go func() {
		sig := <-sigCh
		logger.Info("shutting down", "signal", sig.String())
		srv.Close()
	}()

	log.Printf("prefserve: listening on %s (statement cache %d)", *addr, *cache)
	if err := srv.ListenAndServe(*addr); err != nil {
		log.Fatalf("prefserve: %v", err)
	}
	if backend != nil {
		// The quiesced close: the statement write lock excludes any
		// stragglers while the final checkpoint runs.
		if err := db.Checkpoint(core.CheckpointerFunc(backend.Close)); err != nil {
			log.Fatalf("prefserve: shutdown checkpoint: %v", err)
		}
		st := backend.WalStats()
		logger.Info("checkpointed on shutdown",
			"gen", backend.Generation(), "wal_appends", st.Appends,
			"wal_batches", st.Batches, "max_batch", st.MaxBatch)
		log.Printf("prefserve: checkpointed %s at generation %d", *dataDir, backend.Generation())
	}
}

// buildCoordinator validates the shard topology flags and builds the
// distributor this node injects into core. Declaring shards without
// sharded tables (or vice versa) is a configuration mistake.
func buildCoordinator(shardFlags, tableFlags []string, dialTimeout time.Duration) (*dist.Coordinator, error) {
	if len(shardFlags) == 0 {
		return nil, fmt.Errorf("-shard-table requires at least one -shard node")
	}
	if len(tableFlags) == 0 {
		return nil, fmt.Errorf("-shard requires at least one -shard-table declaration")
	}
	shards := make([]dist.Shard, 0, len(shardFlags))
	for _, s := range shardFlags {
		sh, err := dist.ParseShard(s)
		if err != nil {
			return nil, err
		}
		shards = append(shards, sh)
	}
	tables := make(map[string]string, len(tableFlags))
	for _, t := range tableFlags {
		table, hashCol, err := dist.ParseTable(t)
		if err != nil {
			return nil, err
		}
		tables[table] = hashCol
	}
	return dist.NewCoordinator(shards, tables, dialTimeout), nil
}

// loadDemo pre-loads a named synthetic dataset, so a server with data to
// query is one flag away.
func loadDemo(db *core.DB, spec string) error {
	name, rows := spec, 0
	if _, err := fmt.Sscanf(spec, "jobs:%d", &rows); err == nil {
		name = "jobs"
	}
	switch name {
	case "jobs":
		if rows <= 0 {
			rows = bench.DefaultConfig().JobRows
		}
		if err := datagen.Load(db.Engine(), "jobs", datagen.JobColumns(), datagen.Jobs(rows, 2002)); err != nil {
			return err
		}
		_, err := db.Exec("CREATE INDEX idx_jobs_region ON jobs (region)")
		return err
	}
	return fmt.Errorf("unknown demo dataset %q", spec)
}
