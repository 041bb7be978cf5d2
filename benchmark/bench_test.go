package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// testConfig is a run at 1/50 scale: big enough for every code path,
// small enough that the whole file runs in a few seconds.
func testConfig(t *testing.T, seed int64, trace bool) config {
	t.Helper()
	dir := t.TempDir()
	return config{
		seed: seed, seconds: 0.25, scale: 0.02, trace: trace,
		workDir: filepath.Join(dir, "run"), outDir: filepath.Join(dir, "out"),
	}
}

// Every workload passes its own oracle: end to end on the default seed,
// traced on a second one.
func TestWorkloadsPassTheirOracles(t *testing.T) {
	for _, name := range workloadOrder {
		for _, run := range []struct {
			seed  int64
			trace bool
		}{{1, false}, {7, true}} {
			res, err := runWorkload(name, workloads[name], testConfig(t, run.seed, run.trace))
			if err != nil {
				t.Fatalf("%s seed=%d trace=%v: %v", name, run.seed, run.trace, err)
			}
			if !res.correct() {
				t.Errorf("%s seed=%d trace=%v: attempted=%d failed=%d: %v", name, run.seed, run.trace, res.Attempted, res.Failed, res.Errors)
			}
		}
	}
}

func stream(t *testing.T, name string, seed int64, n int) []string {
	t.Helper()
	w := workloads[name](testConfig(t, seed, false))
	defer w.close()
	if err := w.setup(); err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	out := make([]string, n)
	for i := range out {
		out[i] = w.nextStatement()
	}
	return out
}

// The statement stream is a function of the seed alone.
func TestSameSeedSameStream(t *testing.T) {
	for _, name := range workloadOrder {
		a, b, c := stream(t, name, 3, 100), stream(t, name, 3, 100), stream(t, name, 4, 100)
		if strings.Join(a, "\n") != strings.Join(b, "\n") {
			t.Errorf("%s: two streams from seed 3 differ", name)
		}
		if strings.Join(a, "\n") == strings.Join(c, "\n") {
			t.Errorf("%s: seeds 3 and 4 give the same stream", name)
		}
	}
}

type declaredMetric struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound"`
}

// BENCHMARK.json and metrics.go declare the same workloads and metrics.
func TestDeclaredNamesMatchBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct{ Name, Why string }
		EndToEnd   []declaredMetric `json:"end_to_end"`
		PerLayer   []declaredMetric `json:"per_layer"`
	}
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&doc); err != nil {
		t.Fatal(err)
	}
	if doc.RunSeconds != defaultSeconds {
		t.Errorf("run_seconds = %d, the program's default is %d", doc.RunSeconds, defaultSeconds)
	}
	if len(doc.Workloads) != len(workloadOrder) {
		t.Fatalf("BENCHMARK.json has %d workloads, the program %d", len(doc.Workloads), len(workloadOrder))
	}
	for i, w := range doc.Workloads {
		if w.Name != workloadOrder[i] {
			t.Errorf("workload %d is %q in BENCHMARK.json, %q in the program", i, w.Name, workloadOrder[i])
		}
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	compare := func(kind string, got []declaredMetric, want []metricDef, bounded bool) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json has %d metrics, the program %d", kind, len(got), len(want))
			return
		}
		for i, g := range got {
			w := want[i]
			better := "higher"
			if w.lower {
				better = "lower"
			}
			if !name.MatchString(g.Name) {
				t.Errorf("%s: bad metric name %q", kind, g.Name)
			}
			if g.Name != w.name || g.Unit != w.unit || g.Better != better {
				t.Errorf("%s[%d]: BENCHMARK.json has %+v, the program %+v", kind, i, g, w)
			}
			if bounded && (g.Bound == nil || *g.Bound != w.bound) {
				t.Errorf("%s[%d] %s: bound in BENCHMARK.json differs from the program's %v", kind, i, g.Name, w.bound)
			}
			if !bounded && g.Bound != nil {
				t.Errorf("%s[%d] %s: a per-layer metric has no bound", kind, i, g.Name)
			}
		}
	}
	compare("end_to_end", doc.EndToEnd, endToEnd, true)
	compare("per_layer", doc.PerLayer, perLayer, false)
	for _, d := range workloadEndToEnd {
		if !name.MatchString(d.name) {
			t.Errorf("bad metric name %q", d.name)
		}
	}
}

// corrupted is skyline_scan with rows missing from the oracle's copy of
// the data, so the engine's answers are "wrong".
type corrupted struct{ *skyline }

func (c corrupted) setup() error {
	err := c.skyline.setup()
	for name, rows := range c.raw {
		kept := rows[:0:0]
		for _, r := range rows {
			if r[1].F >= 0.02 { // drop the points with the best d1: the skyline changes
				kept = append(kept, r)
			}
		}
		c.raw[name] = kept
	}
	return err
}

// A wrong answer is reported as failed statements, and fails the run.
func TestCorruptedResultFailsTheRun(t *testing.T) {
	mk := map[string]func(config) workload{
		"skyline_scan": func(cfg config) workload { return corrupted{newSkyline(cfg).(*skyline)} },
	}
	var stdout, stderr bytes.Buffer
	code := runOnce([]string{"skyline_scan"}, mk, testConfig(t, 1, false), &stdout, &stderr)
	if code == 0 {
		t.Errorf("exit code 0 for a run with wrong answers\n%s", stdout.String())
	}
	// The detail object is always printed; the summary line only when the
	// run was long enough for every declared percentile.
	var detail result
	var summary struct {
		Correct   *bool
		Attempted int
		Failed    int
	}
	for _, line := range strings.Split(stdout.String(), "\n") {
		switch {
		case strings.HasPrefix(line, `{"workload"`):
			if err := json.Unmarshal([]byte(line), &detail); err != nil {
				t.Fatalf("detail line: %v", err)
			}
		case strings.HasPrefix(line, `{"correct"`):
			if err := json.Unmarshal([]byte(line), &summary); err != nil {
				t.Fatalf("summary line: %v", err)
			}
		}
	}
	if m, ok := detail.get("failed_ops_share"); !ok || m.Value <= 0 || detail.Failed == 0 {
		t.Errorf("failed_ops_share = %v, failed = %d; want both > 0\n%s", m.Value, detail.Failed, stdout.String())
	}
	if summary.Correct != nil && (*summary.Correct || summary.Failed == 0) {
		t.Errorf("summary says correct=%v failed=%d", *summary.Correct, summary.Failed)
	}
}

// The span file is valid JSON, every child names an existing parent of
// the same statement, and a traced run reports every per-layer metric
// that the summary line declares.
func TestSpanFileAndSummary(t *testing.T) {
	cfg := testConfig(t, 1, true)
	var stdout, stderr bytes.Buffer
	if code := runOnce([]string{"shard_gather"}, workloads, cfg, &stdout, &stderr); code != 0 {
		t.Fatalf("exit code %d\n%s%s", code, stdout.String(), stderr.String())
	}
	raw, err := os.ReadFile(filepath.Join(cfg.outDir, "shard_gather.trace.json"))
	if err != nil {
		t.Fatal(err)
	}
	var file struct {
		Workload string
		Spans    []span
	}
	if err := json.Unmarshal(raw, &file); err != nil {
		t.Fatal(err)
	}
	if len(file.Spans) == 0 {
		t.Fatal("no spans")
	}
	children := 0
	for _, s := range file.Spans {
		if s.End < s.Start || s.Self < 0 || s.Self > s.End-s.Start {
			t.Errorf("span %+v: bad times", s)
		}
		if s.Parent == 0 {
			continue
		}
		children++
		if s.Parent < 1 || s.Parent > len(file.Spans) {
			t.Fatalf("span %d names parent %d, which does not exist", s.ID, s.Parent)
		}
		if p := file.Spans[s.Parent-1]; p.ID != s.Parent || p.Stmt != s.Stmt {
			t.Errorf("span %+v: parent is %+v", s, p)
		}
	}
	if children == 0 {
		t.Error("no child spans")
	}
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	var summary struct {
		Metrics map[string]struct {
			Value float64
			Unit  string
		}
	}
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &summary); err != nil {
		t.Fatal(err)
	}
	if len(summary.Metrics) != len(perLayer) {
		t.Errorf("summary has %d metrics, want the %d per-layer ones", len(summary.Metrics), len(perLayer))
	}
	for _, want := range []string{"dist.shard_stream_ms", "dist.merge_us", "trace.unattributed_share"} {
		if summary.Metrics[want].Value == 0 {
			t.Errorf("%s is 0 on shard_gather", want)
		}
	}
	if _, err := os.Stat(cfg.workDir); err == nil {
		if left, _ := os.ReadDir(cfg.workDir); len(left) != 0 {
			t.Errorf("run left %d entries in its work directory", len(left))
		}
	}
}
