// Command benchgate is the CI performance-regression gate: it compares
// fresh quick-run benchmark JSONs (p4: parallel BMO, p5: join pushdown,
// p7: instrumentation overhead, p8: live-query maintenance, p9:
// distributed scale-out, p10: durable-storage overhead)
// against the committed baselines and fails when a headline speedup
// regressed by more than the tolerance (default 25%).
//
// The gate compares speedup ratios, not wall-clock milliseconds: a ratio
// (pushed vs unpushed plan, parallel vs sequential BNL) divides out the
// runner's absolute speed, so the same baseline works on any CI machine.
// Cells are matched by their identifying fields; baseline cells without
// a fresh counterpart (e.g. full-scale sizes against a quick run) are
// skipped, but at least one cell must match per supplied pair.
//
// Experiments register in the gates table; a new experiment adds an
// extract function (result JSON → gated cells) and rides the shared
// flag, matching and verdict machinery.
//
// Usage:
//
//	benchgate -fresh-p5 BENCH_p5.json -base-p5 internal/bench/baselines/BENCH_p5.quick.json \
//	          -fresh-p4 BENCH_p4.json -base-p4 internal/bench/baselines/BENCH_p4.quick.json \
//	          -fresh-p7 BENCH_p7.json -base-p7 internal/bench/baselines/BENCH_p7.quick.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"

	"repro/internal/bench"
)

// gateSpec is one experiment's entry in the gate registry. extract
// reduces a result file to its gated cells: identifying key → headline
// speedup, omitting cells that are denominators rather than claims (the
// sequential baseline rows). floor, when true, additionally requires
// every fresh cell to keep the -min-speedup absolute ratio — the "the
// optimization still wins at all" check on top of the relative one.
type gateSpec struct {
	name    string
	what    string // one-line description for the flag help
	extract func(path string) (map[string]float64, error)
	floor   bool
	min     float64 // per-gate floor override; 0 = use the -min-speedup flag

	fresh, base *string // filled from flags
}

func load(path string, v any) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	return json.Unmarshal(data, v)
}

func extractP4(path string) (map[string]float64, error) {
	var res bench.P4Result
	if err := load(path, &res); err != nil {
		return nil, err
	}
	out := map[string]float64{}
	for _, e := range res.Entries {
		if e.Workers == 0 {
			continue // the sequential baseline is the denominator, not a cell
		}
		out[fmt.Sprintf("%d/%s", e.Rows, e.Variant)] = e.Speedup
	}
	return out, nil
}

func extractP5(path string) (map[string]float64, error) {
	var res bench.P5Result
	if err := load(path, &res); err != nil {
		return nil, err
	}
	out := map[string]float64{}
	for _, e := range res.Entries {
		if e.Variant != "pushdown-on" {
			continue
		}
		out[fmt.Sprintf("%d/%s/%s", e.Rows, e.Query, e.Variant)] = e.Speedup
	}
	return out, nil
}

func extractP7(path string) (map[string]float64, error) {
	var res bench.P7Result
	if err := load(path, &res); err != nil {
		return nil, err
	}
	out := map[string]float64{}
	for _, e := range res.Entries {
		if e.Variant != "recorded" {
			continue
		}
		out[fmt.Sprintf("%d/%s", e.Rows, e.Variant)] = e.Speedup
	}
	return out, nil
}

func extractP8(path string) (map[string]float64, error) {
	var res bench.P8Result
	if err := load(path, &res); err != nil {
		return nil, err
	}
	out := map[string]float64{}
	for _, e := range res.Entries {
		// Gate only the headline 10-subscription cell: its ratio vs the
		// subscription-free baseline is the "writers stay within 2x"
		// claim. The 0-sub row is the denominator and the 100-sub row is
		// a scaling observation, not a bound.
		if e.Subs != 10 {
			continue
		}
		out[fmt.Sprintf("subs=%d", e.Subs)] = e.Ratio
	}
	return out, nil
}

func extractP9(path string) (map[string]float64, error) {
	var res bench.P9Result
	if err := load(path, &res); err != nil {
		return nil, err
	}
	// Gate only the headline cell: the largest shard count at the largest
	// size. The single-node rows are denominators, the small sizes and
	// lower shard counts are protocol-overhead observations where dial
	// cost can dominate on a shared runner.
	maxRows, maxShards := 0, 0
	for _, e := range res.Entries {
		if e.Rows > maxRows {
			maxRows = e.Rows
		}
		if e.Shards > maxShards {
			maxShards = e.Shards
		}
	}
	out := map[string]float64{}
	for _, e := range res.Entries {
		if e.Rows == maxRows && e.Shards == maxShards && e.Shards > 0 {
			out[fmt.Sprintf("%d/%s", e.Rows, e.Variant)] = e.Speedup
		}
	}
	return out, nil
}

func extractP10(path string) (map[string]float64, error) {
	var res bench.P10Result
	if err := load(path, &res); err != nil {
		return nil, err
	}
	// Gate only the fsync-off disk cell at the largest size: its ratio vs
	// the in-memory run is the structural cost of logging and paging
	// every commit. The fsync-on cell is recorded but not gated — its
	// cost is whatever the runner's storage charges for fsync, which a
	// shared CI box cannot hold to a floor.
	maxRows := 0
	for _, e := range res.Entries {
		if e.Rows > maxRows {
			maxRows = e.Rows
		}
	}
	out := map[string]float64{}
	for _, e := range res.Entries {
		if e.Rows == maxRows && e.Variant == "disk" {
			out[fmt.Sprintf("%d/%s", e.Rows, e.Variant)] = e.Ratio
		}
	}
	return out, nil
}

var gates = []*gateSpec{
	{name: "p4", what: "parallel BMO", extract: extractP4},
	{name: "p5", what: "join pushdown", extract: extractP5, floor: true},
	// p7's ratio is instrumented-off vs instrumented-on of the same plan:
	// the ideal is 1.0x and the budget is 3% (0.97x, held by the
	// committed full-scale BENCH_p7.json). The quick-run CI floor sits at
	// 0.90x: the overhead signal at quick scale is itself a few percent
	// and shared runners jitter by about as much — a tighter floor would
	// flake, while a 10% drop still catches any structural regression
	// (the un-sampled recorder cost 40%).
	{name: "p7", what: "instrumentation overhead", extract: extractP7, floor: true, min: 0.90},
	// p8's ratio is DML throughput with 10 live subscriptions vs none —
	// the incremental-maintenance tax on writers. The claim is "within
	// 2x" (0.50); the quick CI floor sits at 0.40 to absorb shared-runner
	// scheduling noise on a concurrency-sensitive measurement, while
	// still catching a structural regression (a full recompute per DML
	// statement lands far below it).
	{name: "p8", what: "live-query maintenance", extract: extractP8, floor: true, min: 0.40},
	// p9's ratio is scatter-gather over 4 shard servers vs one local
	// worker on the same data. The in-process cluster shares the runner's
	// cores, so on a 1-2 core CI box the distributed path pays the wire
	// round-trips and the shards' presort with little parallel scan gain
	// to show for it (~0.35x observed single-core). The 0.25 floor is the
	// catastrophe check: a ship-all-rows regression (shards returning raw
	// partitions instead of local skylines) lands far below it.
	{name: "p9", what: "distributed scale-out", extract: extractP9, floor: true, min: 0.25},
	// p10's ratio is mixed read/write throughput on the disk backend
	// (WAL + paged heap, fsync off) vs the in-memory backend. Scans
	// dominate the workload, so the observed ratio sits near 1.0; the
	// 0.25 floor is the catastrophe check — an fsync accidentally forced
	// per statement, or a page pool thrashing on every commit, lands far
	// below it.
	{name: "p10", what: "durable-storage overhead", extract: extractP10, floor: true, min: 0.25},
}

// check compares one matched cell, printing the verdict line; the
// returned flag reports a regression beyond tolerance.
func check(name string, fresh, base, tol float64) bool {
	floor := base * (1 - tol)
	status := "ok"
	bad := fresh < floor
	if bad {
		status = "REGRESSED"
	}
	fmt.Printf("%-60s baseline %6.2fx  fresh %6.2fx  floor %6.2fx  %s\n",
		name, base, fresh, floor, status)
	return bad
}

// run executes one gate pair: every baseline cell with a fresh
// counterpart must hold its speedup within tolerance (and above the
// absolute floor where the gate demands one).
func (g *gateSpec) run(tol, minSpeedup float64) (matched int, failed bool, err error) {
	freshCells, err := g.extract(*g.fresh)
	if err != nil {
		return 0, false, err
	}
	baseCells, err := g.extract(*g.base)
	if err != nil {
		return 0, false, err
	}
	keys := make([]string, 0, len(baseCells))
	for k := range baseCells {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, key := range keys {
		f, ok := freshCells[key]
		if !ok {
			continue
		}
		matched++
		if check(g.name+" "+key, f, baseCells[key], tol) {
			failed = true
		}
		floor := minSpeedup
		if g.min > 0 {
			floor = g.min
		}
		if g.floor && f < floor {
			fmt.Printf("%s %s: the optimized plan no longer beats its baseline (%.2fx < %.2fx)\n",
				g.name, key, f, floor)
			failed = true
		}
	}
	return matched, failed, nil
}

func main() {
	for _, g := range gates {
		g.fresh = flag.String("fresh-"+g.name, "", fmt.Sprintf("fresh BENCH_%s.json for the %s gate ('' skips it)", g.name, g.what))
		g.base = flag.String("base-"+g.name, "", fmt.Sprintf("committed %s baseline JSON", g.name))
	}
	var (
		tol        = flag.Float64("tolerance", 0.25, "allowed relative speedup regression")
		minSpeedup = flag.Float64("min-speedup", 1.0, "p5 optimized plans must keep at least this speedup")
	)
	flag.Parse()

	fail := false
	ran := false
	for _, g := range gates {
		if *g.fresh == "" {
			continue
		}
		ran = true
		n, bad, err := g.run(*tol, *minSpeedup)
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchgate: %s: %v\n", g.name, err)
			os.Exit(1)
		}
		if n == 0 {
			fmt.Fprintf(os.Stderr, "benchgate: %s: no baseline cell matched the fresh run\n", g.name)
			os.Exit(1)
		}
		fail = fail || bad
	}
	if !ran {
		fmt.Fprintln(os.Stderr, "benchgate: nothing to compare (pass -fresh-p4/-fresh-p5/-fresh-p7/-fresh-p8/-fresh-p9/-fresh-p10)")
		os.Exit(1)
	}
	if fail {
		fmt.Println("benchgate: FAIL — performance regressed beyond tolerance")
		os.Exit(1)
	}
	fmt.Println("benchgate: all gates passed")
}
