// Command benchmark is the repository's ruler: five named workloads,
// each verified against an oracle, reporting end-to-end metrics and — in
// a separate traced run — per-layer metrics taken from outside the
// engine. BENCHMARK.json at the repository root declares the names;
// README.md explains the workloads and how to read the output.
//
//	benchmark -workload <name|all> -seed N [-seconds S] [-trace 1] [-repeat N]
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"text/tabwriter"
)

// workloads are the benchmark's traffic mixes; the names are fixed,
// later issues cite them. workloadOrder is the order `all` runs them in.
var workloads = map[string]func(config) workload{
	"portal_search": newPortal,
	"skyline_scan":  newSkyline,
	"catalog_churn": newChurn,
	"live_feed":     newFeed,
	"shard_gather":  newShard,
}

var workloadOrder = []string{"portal_search", "skyline_scan", "catalog_churn", "live_feed", "shard_gather"}

// defaultSeconds equals run_seconds in BENCHMARK.json.
const defaultSeconds = 10

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is main without the exit, so the tests can check exit codes.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "all", "workload name, or all")
	seed := fs.Int64("seed", 1, "seed every input is generated from")
	seconds := fs.Float64("seconds", defaultSeconds, "length of the measured phase")
	trace := fs.String("trace", "0", "1 = traced run (per-layer metrics), 0 = end-to-end metrics")
	repeat := fs.Int("repeat", 0, "run the set N times and compare the sets")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() > 0 {
		fmt.Fprintf(stderr, "benchmark: unexpected argument %q\n", fs.Arg(0))
		return 2
	}
	traced, err := strconv.ParseBool(*trace)
	if err != nil {
		fmt.Fprintf(stderr, "benchmark: -trace wants 0 or 1, got %q\n", *trace)
		return 2
	}
	names := workloadOrder
	if *name != "all" {
		if _, ok := workloads[*name]; !ok {
			fmt.Fprintf(stderr, "benchmark: unknown workload %q (have %s, all)\n", *name, strings.Join(workloadOrder, ", "))
			return 2
		}
		names = []string{*name}
	}
	// Everything the run writes stays under the working directory: data
	// directories under a per-process scratch directory that is removed
	// on every exit path, span files under benchmark/out.
	workDir, err := os.MkdirTemp(".", ".bench_run-")
	if err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 1
	}
	defer os.RemoveAll(workDir)
	// A run that is interrupted leaves nothing behind either.
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sig
		os.RemoveAll(workDir)
		os.Exit(130)
	}()
	cfg := config{
		seed: *seed, seconds: *seconds, scale: 1, trace: traced,
		workDir: workDir, outDir: filepath.Join("benchmark", "out"),
	}
	if *repeat > 0 {
		return runRepeat(names, cfg, *repeat, stdout, stderr)
	}
	return runOnce(names, workloads, cfg, stdout, stderr)
}

// runOnce runs each named workload once and reports it; the exit code
// is non-zero when any statement failed or any oracle disagreed.
func runOnce(names []string, mk map[string]func(config) workload, cfg config, stdout, stderr io.Writer) int {
	code := 0
	for _, n := range names {
		res, err := runWorkload(n, mk[n], cfg)
		if err != nil {
			fmt.Fprintln(stderr, "benchmark:", err)
			return 1
		}
		if err := report(stdout, res); err != nil {
			fmt.Fprintln(stderr, "benchmark:", err)
			return 1
		}
		if !res.correct() {
			code = 1
		}
	}
	return code
}

// report prints one workload's result three ways: a text table of every
// metric with unit and sample count, one JSON object with the same, and
// — last — the one-line summary a driver parses: correct, attempted,
// failed, and the declared metrics (end-to-end for an untraced run,
// per-layer for a traced one; a layer the workload does not exercise
// reads 0).
func report(w io.Writer, res *result) error {
	res.add("failed_ops_share", ratio(float64(res.Failed), float64(res.Attempted)), res.Attempted)
	mode := "end-to-end"
	if res.Traced {
		mode = "traced"
	}
	fmt.Fprintf(w, "== %s (%s) seed=%d seconds=%g gomaxprocs=%d nproc=%d\n",
		res.Workload, mode, res.Seed, res.Seconds, res.Gomaxprocs, res.Nproc)
	for _, n := range res.Notes {
		fmt.Fprintln(w, "   "+n)
	}
	tw := tabwriter.NewWriter(w, 0, 8, 2, ' ', 0)
	fmt.Fprintln(tw, "metric\tvalue\tunit\tsamples")
	ms := append([]metric(nil), res.Metrics...)
	if res.Traced {
		sort.SliceStable(ms, func(i, j int) bool { return ms[i].Name < ms[j].Name })
	}
	for _, m := range ms {
		n := "-"
		if m.N > 0 {
			n = fmt.Sprint(m.N)
		}
		fmt.Fprintf(tw, "%s\t%.6g\t%s\t%s\n", m.Name, m.Value, m.Unit, n)
	}
	tw.Flush()
	for _, e := range res.Errors {
		fmt.Fprintln(w, "   FAILED:", e)
	}
	detail, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "%s\n", detail)

	declared := endToEnd
	if res.Traced {
		declared = perLayer
	}
	type mv struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	summary := struct {
		Correct   bool          `json:"correct"`
		Attempted int           `json:"attempted"`
		Failed    int           `json:"failed"`
		Metrics   map[string]mv `json:"metrics"`
	}{res.correct(), res.Attempted, res.Failed, map[string]mv{}}
	for _, d := range declared {
		m, ok := res.get(d.name)
		if !ok && !res.Traced {
			return fmt.Errorf("%s: too few samples for %s; raise -seconds", res.Workload, d.name)
		}
		summary.Metrics[d.name] = mv{m.Value, d.unit}
	}
	line, err := json.Marshal(summary)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "%s\n", line)
	return nil
}
