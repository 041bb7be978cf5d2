// Command prefbench regenerates the paper's evaluation tables and figures
// (the experiments are listed in package internal/bench).
//
// Usage:
//
//	prefbench -exp all                  # every experiment at default scale
//	prefbench -exp e1 -rows 140000      # the §3.3 benchmark at 1/10 scale
//	prefbench -exp e4 -latency 1.0      # COSIMA with realistic shop latency
//	prefbench -exp p2                   # server throughput; writes BENCH_p2.json
//	prefbench -exp p3                   # parameterized vs literal; writes BENCH_p3.json
//	prefbench -exp p4                   # sequential vs parallel BMO; writes BENCH_p4.json
//	prefbench -exp p5                   # BMO-through-join pushdown; writes BENCH_p5.json
//	prefbench -exp p7                   # per-operator instrumentation overhead; writes BENCH_p7.json
//	prefbench -exp p8                   # live-query maintenance cost; writes BENCH_p8.json
//	prefbench -exp p9                   # distributed scale-out vs scale-up; writes BENCH_p9.json
//	prefbench -exp p10                  # durable-storage overhead; writes BENCH_p10.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"

	"repro/internal/bench"
)

func main() {
	var (
		exp     = flag.String("exp", "all", "experiment to run: "+strings.Join(bench.Names(), ", ")+" or 'all'")
		rows    = flag.Int("rows", 0, "job relation size for e1/a1 (default 140000)")
		seed    = flag.Int64("seed", 0, "generator seed (default 2002)")
		latency = flag.Float64("latency", -1, "COSIMA latency scale; 1.0 = realistic 300-900ms shops (default 0)")
		runs    = flag.Int("cosima-runs", 0, "COSIMA meta-searches for e4 (default 200)")
		quick   = flag.Bool("quick", false, "use the small test-scale configuration")
		p2json  = flag.String("json", "BENCH_p2.json", "file for the structured p2 results ('' disables)")
		p3json  = flag.String("json-p3", "BENCH_p3.json", "file for the structured p3 results ('' disables)")
		p4json  = flag.String("json-p4", "BENCH_p4.json", "file for the structured p4 results ('' disables)")
		p5json  = flag.String("json-p5", "BENCH_p5.json", "file for the structured p5 results ('' disables)")
		p7json  = flag.String("json-p7", "BENCH_p7.json", "file for the structured p7 results ('' disables)")
		p8json  = flag.String("json-p8", "BENCH_p8.json", "file for the structured p8 results ('' disables)")
		p9json  = flag.String("json-p9", "BENCH_p9.json", "file for the structured p9 results ('' disables)")
		p10json = flag.String("json-p10", "BENCH_p10.json", "file for the structured p10 results ('' disables)")
	)
	flag.Parse()

	cfg := bench.DefaultConfig()
	if *quick {
		cfg = bench.TestConfig()
	}
	if *rows > 0 {
		cfg.JobRows = *rows
	}
	if *seed != 0 {
		cfg.Seed = *seed
	}
	if *latency >= 0 {
		cfg.CosimaLatencyScale = *latency
	}
	if *runs > 0 {
		cfg.CosimaRuns = *runs
	}

	names := []string{*exp}
	if *exp == "all" {
		names = bench.Names()
	}
	// emitJSON renders a table and writes the structured results next to
	// it, so CI and regression tooling can track throughput, latency
	// percentiles and cache hit rates.
	emitJSON := func(name, path string, res any, tbl *bench.Table, err error) {
		if err != nil {
			fmt.Fprintf(os.Stderr, "prefbench: %s: %v\n", name, err)
			os.Exit(1)
		}
		fmt.Println(tbl.String())
		data, err := json.MarshalIndent(res, "", "  ")
		if err != nil {
			fmt.Fprintf(os.Stderr, "prefbench: %s: %v\n", name, err)
			os.Exit(1)
		}
		if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
			fmt.Fprintf(os.Stderr, "prefbench: %s: %v\n", name, err)
			os.Exit(1)
		}
		fmt.Printf("wrote %s\n", path)
	}

	for _, name := range names {
		switch {
		case name == "p2" && *p2json != "":
			res, tbl, err := bench.P2(cfg)
			emitJSON(name, *p2json, res, tbl, err)
			continue
		case name == "p3" && *p3json != "":
			res, tbl, err := bench.P3(cfg)
			emitJSON(name, *p3json, res, tbl, err)
			continue
		case name == "p4" && *p4json != "":
			res, tbl, err := bench.P4(cfg)
			emitJSON(name, *p4json, res, tbl, err)
			continue
		case name == "p5" && *p5json != "":
			res, tbl, err := bench.P5(cfg)
			emitJSON(name, *p5json, res, tbl, err)
			continue
		case name == "p7" && *p7json != "":
			res, tbl, err := bench.P7(cfg)
			emitJSON(name, *p7json, res, tbl, err)
			continue
		case name == "p8" && *p8json != "":
			res, tbl, err := bench.P8(cfg)
			emitJSON(name, *p8json, res, tbl, err)
			continue
		case name == "p9" && *p9json != "":
			res, tbl, err := bench.P9(cfg)
			emitJSON(name, *p9json, res, tbl, err)
			continue
		case name == "p10" && *p10json != "":
			res, tbl, err := bench.P10(cfg)
			emitJSON(name, *p10json, res, tbl, err)
			continue
		}
		out, err := bench.Run(name, cfg)
		if err != nil {
			fmt.Fprintf(os.Stderr, "prefbench: %s: %v\n", name, err)
			os.Exit(1)
		}
		fmt.Println(out)
	}
}
