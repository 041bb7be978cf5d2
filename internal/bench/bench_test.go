package bench

import (
	"strconv"
	"strings"
	"testing"
)

func TestE1ShapeMatchesPaper(t *testing.T) {
	cfg := TestConfig()
	res, tbl, err := E1(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Entries) != len(cfg.PreSizes)*len(e1CondSets)*4 {
		t.Fatalf("entries: %d", len(res.Entries))
	}
	// The qualitative shape the paper's table demonstrates: per (cond set,
	// pre-size), conjunctive returns few (often zero) rows, disjunctive
	// floods, Preference SQL returns a small non-empty BMO set whenever
	// candidates exist, and the two preference execution paths agree.
	byKey := map[string]map[string]E1Entry{}
	for _, e := range res.Entries {
		key := e.CondSet + "/" + strconv.Itoa(e.PreSize)
		if byKey[key] == nil {
			byKey[key] = map[string]E1Entry{}
		}
		byKey[key][e.Strategy] = e
	}
	for key, group := range byKey {
		conj := group["SQL conjunctive"]
		disj := group["SQL disjunctive"]
		prefR := group["Preference SQL (rewrite)"]
		prefN := group["Preference SQL (native)"]
		if prefR.ResultSize != prefN.ResultSize {
			t.Errorf("%s: rewrite (%d) and native (%d) disagree", key, prefR.ResultSize, prefN.ResultSize)
		}
		if conj.PreSize > 0 && prefN.ResultSize == 0 {
			t.Errorf("%s: BMO must be non-empty when candidates exist", key)
		}
		if prefN.ResultSize > disj.ResultSize && disj.ResultSize > 0 {
			t.Errorf("%s: BMO (%d) larger than disjunctive (%d)", key, prefN.ResultSize, disj.ResultSize)
		}
		if conj.ResultSize > disj.ResultSize {
			t.Errorf("%s: conjunctive (%d) larger than disjunctive (%d)", key, conj.ResultSize, disj.ResultSize)
		}
	}
	if !strings.Contains(tbl.String(), "Preference SQL") {
		t.Error("table rendering")
	}
}

func TestE2GoldenTable(t *testing.T) {
	res, tbl, err := E2()
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 3 {
		t.Fatalf("rows: %d", len(res.Rows))
	}
	out := tbl.String()
	for _, want := range []string{"Selma", "Homer", "Maggie"} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %s:\n%s", want, out)
		}
	}
	if strings.Contains(out, "Bart") || strings.Contains(out, "Smithers") || strings.Contains(out, "Skinner") {
		t.Errorf("dominated tuples leaked:\n%s", out)
	}
}

func TestE3RewriteScript(t *testing.T) {
	script, tbl, err := E3()
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"CREATE VIEW", "NOT EXISTS", "CASE WHEN"} {
		if !strings.Contains(script, want) {
			t.Errorf("script lacks %q", want)
		}
	}
	if len(tbl.Rows) != 2 {
		t.Errorf("cars result: %v", tbl.Rows)
	}
}

func TestE4CosimaShape(t *testing.T) {
	cfg := TestConfig()
	res, tbl, err := E4(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Runs != cfg.CosimaRuns {
		t.Errorf("runs: %d", res.Runs)
	}
	if res.ShareSmall < 0.7 {
		t.Errorf("Pareto sets in 1-20 only %.0f%% of runs", res.ShareSmall*100)
	}
	if !strings.Contains(tbl.String(), "Pareto-set size") {
		t.Error("table rendering")
	}
}

func TestE5EshopShape(t *testing.T) {
	res, tbl, err := E5(TestConfig())
	if err != nil {
		t.Fatal(err)
	}
	if res.PrefSize == 0 {
		t.Error("preference search must return offers")
	}
	if res.HardSize > res.PrefSize*10 {
		t.Errorf("unexpected sizes: hard=%d pref=%d", res.HardSize, res.PrefSize)
	}
	if !strings.Contains(tbl.String(), "Preference SQL") {
		t.Error("table rendering")
	}
}

func TestA1AlgorithmsAgree(t *testing.T) {
	cfg := TestConfig()
	entries, tbl, err := A1(cfg)
	if err != nil {
		t.Fatal(err)
	}
	bySize := map[int]map[string]int{}
	for _, e := range entries {
		if bySize[e.Candidates] == nil {
			bySize[e.Candidates] = map[string]int{}
		}
		bySize[e.Candidates][e.Method] = e.ResultSize
	}
	for size, methods := range bySize {
		var first int
		var set bool
		for m, n := range methods {
			if !set {
				first, set = n, true
				continue
			}
			if n != first {
				t.Errorf("size %d: %s returned %d, others %d", size, m, n, first)
			}
		}
	}
	if !strings.Contains(tbl.String(), "block-nested-loop") {
		t.Error("table rendering")
	}
}

func TestA2DistributionShape(t *testing.T) {
	cfg := TestConfig()
	entries, tbl, err := A2(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// For fixed dims, anti-correlated skylines are the largest and
	// correlated the smallest; size grows with dimensionality per
	// distribution.
	get := func(dist, dims int) int {
		for _, e := range entries {
			if int(e.Dist) == dist && e.Dims == dims {
				return e.SkylineSize
			}
		}
		t.Fatalf("missing entry %d/%d", dist, dims)
		return 0
	}
	for d := 2; d <= 5; d++ {
		corr := get(1, d) // datagen.Correlated
		anti := get(2, d) // datagen.AntiCorrelated
		if corr > anti {
			t.Errorf("d=%d: correlated (%d) larger than anti-correlated (%d)", d, corr, anti)
		}
	}
	if get(0, 2) > get(0, 5) {
		t.Errorf("independent skyline should grow with dims: d2=%d d5=%d", get(0, 2), get(0, 5))
	}
	if !strings.Contains(tbl.String(), "anti-correlated") {
		t.Error("table rendering")
	}
}

func TestRunDispatch(t *testing.T) {
	cfg := TestConfig()
	for _, name := range []string{"e2", "e3", "e5", "p1"} {
		out, err := Run(name, cfg)
		if err != nil {
			t.Errorf("%s: %v", name, err)
		}
		if out == "" {
			t.Errorf("%s: empty output", name)
		}
	}
	if _, err := Run("nope", cfg); err == nil {
		t.Error("unknown experiment should fail")
	}
	if len(Names()) != 16 {
		t.Errorf("names: %v", Names())
	}
}

// TestP2ServerThroughput runs the concurrent-client experiment at test
// scale and sanity-checks the structured results: repeated statements
// must hit the shared cache, and the prepared plain SELECTs must
// re-execute cached plans.
func TestP2ServerThroughput(t *testing.T) {
	cfg := TestConfig()
	cfg.P2Conns = []int{4}
	cfg.P2QueriesPerConn = 20
	res, tbl, err := P2(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if tbl.String() == "" {
		t.Fatal("empty table")
	}
	if len(res.Entries) != 1 {
		t.Fatalf("entries = %d", len(res.Entries))
	}
	e := res.Entries[0]
	if e.Queries != 4*20 || e.QPS <= 0 {
		t.Errorf("bad entry: %+v", e)
	}
	if e.CacheHitRate <= 0.5 {
		t.Errorf("cache hit rate %.2f, want > 0.5 for a repeated mix", e.CacheHitRate)
	}
	if e.PlanReuses == 0 {
		t.Error("prepared plain SELECTs should reuse cached plans")
	}
}

// TestP3ParameterizedWorkload runs the parameterized-vs-literal
// experiment at test scale and checks the acceptance shape: the
// parameterized variants hit the text-keyed statement cache across
// distinct argument values (hit rate > 0), the prepared plain SELECT
// re-uses its cached plan, and the literal variant (a fresh text per
// call) cannot hit at all.
func TestP3ParameterizedWorkload(t *testing.T) {
	cfg := TestConfig()
	res, tbl, err := P3(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if tbl.String() == "" {
		t.Fatal("empty table")
	}
	if len(res.Entries) != len(p3Variants)*len(p3Workloads) {
		t.Fatalf("entries = %d", len(res.Entries))
	}
	for _, e := range res.Entries {
		switch e.Variant {
		case "literal":
			if e.CacheHitRate != 0 {
				t.Errorf("%s literal: hit rate %.2f, want 0 (every text distinct)", e.Workload, e.CacheHitRate)
			}
		case "params", "prepared":
			if e.CacheHitRate <= 0 {
				t.Errorf("%s %s: hit rate %.2f, want > 0 across distinct args", e.Workload, e.Variant, e.CacheHitRate)
			}
			if e.Variant == "prepared" && e.Workload == "plain-select" && e.PlanReuses == 0 {
				t.Error("prepared plain SELECT should re-execute its cached plan")
			}
		}
		if e.P50Us <= 0 || e.P95Us < e.P50Us {
			t.Errorf("%s %s: bad percentiles %+v", e.Workload, e.Variant, e)
		}
	}
}

// TestP4Smoke runs the parallel BMO experiment at tiny scale and pins
// its structural invariants: every (size, variant) cell present, skyline
// sizes identical across variants, and positive timings.
func TestP4Smoke(t *testing.T) {
	cfg := TestConfig()
	cfg.P4Sizes = []int{3000}
	cfg.P4Workers = []int{1, 2}
	res, tbl, err := P4(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Entries) != 3 { // bnl + two worker counts
		t.Fatalf("entries = %d, want 3", len(res.Entries))
	}
	sky := res.Entries[0].SkylineSize
	for _, e := range res.Entries {
		if e.SkylineSize != sky {
			t.Fatalf("skyline size drifted: %v", res.Entries)
		}
		if e.Millis < 0 || e.Comparisons <= 0 {
			t.Fatalf("degenerate measurement: %+v", e)
		}
	}
	if len(tbl.Rows) != len(res.Entries) {
		t.Fatalf("table rows = %d, entries = %d", len(tbl.Rows), len(res.Entries))
	}
}

// TestP5Smoke runs the join-pushdown experiment at tiny scale and pins
// its structural invariants: both query shapes measured with pushdown
// off and on, identical result sizes within a cell, and the pushed
// variant feeding fewer rows into dominance evaluation.
func TestP5Smoke(t *testing.T) {
	cfg := TestConfig()
	cfg.P5Sizes = []int{4000}
	res, tbl, err := P5(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Entries) != 4 { // 2 queries x off/on
		t.Fatalf("entries = %d, want 4", len(res.Entries))
	}
	for i := 0; i < len(res.Entries); i += 2 {
		off, on := res.Entries[i], res.Entries[i+1]
		if off.Variant != "pushdown-off" || on.Variant != "pushdown-on" || off.Query != on.Query {
			t.Fatalf("cell order drifted: %+v / %+v", off, on)
		}
		if off.ResultRows != on.ResultRows {
			t.Fatalf("%s: result drift %d vs %d", off.Query, off.ResultRows, on.ResultRows)
		}
		if on.BMOInputRows >= off.BMOInputRows {
			t.Errorf("%s: pushdown did not shrink the dominance input (%d >= %d)",
				off.Query, on.BMOInputRows, off.BMOInputRows)
		}
		if off.Millis <= 0 || on.Millis <= 0 {
			t.Fatalf("degenerate timing: %+v / %+v", off, on)
		}
	}
	if len(tbl.Rows) != len(res.Entries) {
		t.Fatalf("table rows = %d, entries = %d", len(tbl.Rows), len(res.Entries))
	}
}

// TestP8Smoke runs the live-query maintenance experiment at small scale
// and pins its structural invariants: one entry per subscription count,
// the 0-sub baseline carries ratio 1.0 and no deltas, and the subscribed
// cells actually produced delta traffic with sane latency percentiles.
// The 2x throughput budget itself is the CI gate's job.
func TestP8Smoke(t *testing.T) {
	cfg := TestConfig()
	cfg.P8Subs = []int{0, 4}
	cfg.P8Ops = 600
	res, tbl, err := P8(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Entries) != 2 {
		t.Fatalf("entries = %d, want 2", len(res.Entries))
	}
	base, subbed := res.Entries[0], res.Entries[1]
	if base.Subs != 0 || subbed.Subs != 4 {
		t.Fatalf("cell order drifted: %+v / %+v", base, subbed)
	}
	if base.Ratio != 1.0 || base.Deltas != 0 {
		t.Fatalf("baseline cell not a baseline: %+v", base)
	}
	if subbed.Deltas == 0 {
		t.Fatal("subscribed run produced no deltas")
	}
	if subbed.Ratio <= 0 || subbed.DeltaP50Us < 0 || subbed.DeltaP95Us < subbed.DeltaP50Us {
		t.Fatalf("degenerate measurement: %+v", subbed)
	}
	if base.Millis <= 0 || subbed.Millis <= 0 {
		t.Fatalf("degenerate timing: %+v / %+v", base, subbed)
	}
	if len(tbl.Rows) != len(res.Entries) {
		t.Fatalf("table rows = %d, entries = %d", len(tbl.Rows), len(res.Entries))
	}
}

// TestP7Smoke runs the instrumentation-overhead experiment at small
// scale and pins its structural invariants: a plain and a recorded cell
// per size, identical skylines, and a sane (positive, near-1) ratio.
// The 3% budget itself is the CI gate's job, not this smoke test's —
// at smoke scale the ratio is all noise.
func TestP7Smoke(t *testing.T) {
	cfg := TestConfig()
	cfg.P7Sizes = []int{12000}
	res, tbl, err := P7(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Entries) != 2 {
		t.Fatalf("entries = %d, want 2", len(res.Entries))
	}
	plain, rec := res.Entries[0], res.Entries[1]
	if plain.Variant != "plain" || rec.Variant != "recorded" {
		t.Fatalf("cell order drifted: %+v / %+v", plain, rec)
	}
	if plain.SkylineSize != rec.SkylineSize || plain.SkylineSize <= 0 {
		t.Fatalf("skyline drift: %d vs %d", plain.SkylineSize, rec.SkylineSize)
	}
	if plain.Millis <= 0 || rec.Millis <= 0 || rec.Speedup <= 0 {
		t.Fatalf("degenerate measurement: %+v / %+v", plain, rec)
	}
	if len(tbl.Rows) != len(res.Entries) {
		t.Fatalf("table rows = %d, entries = %d", len(tbl.Rows), len(res.Entries))
	}
}

// TestP9Smoke runs the distributed scale-out experiment at small scale
// and pins its structural invariants: a single-node baseline cell with
// speedup 1.0 plus one cell per shard count, all reporting the same
// skyline size (P9 itself errors on a mismatch — the cross-check that
// the scatter-gather path returns the single-node result). The scale-out
// floor itself is the CI gate's job; at smoke scale the distributed
// cells only measure protocol overhead.
func TestP9Smoke(t *testing.T) {
	cfg := TestConfig()
	cfg.P9Sizes = []int{3000}
	cfg.P9Shards = []int{2}
	res, tbl, err := P9(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Entries) < 2 {
		t.Fatalf("entries = %d, want a baseline and a shard cell", len(res.Entries))
	}
	base := res.Entries[0]
	if base.Variant != "single-w1" || base.Speedup != 1.0 || base.Shards != 0 {
		t.Fatalf("baseline cell drifted: %+v", base)
	}
	sharded := res.Entries[len(res.Entries)-1]
	if sharded.Variant != "shards-2" || sharded.Shards != 2 {
		t.Fatalf("shard cell drifted: %+v", sharded)
	}
	if sharded.SkylineSize != base.SkylineSize || base.SkylineSize == 0 {
		t.Fatalf("skyline mismatch: %+v vs %+v", base, sharded)
	}
	if base.Millis <= 0 || sharded.Millis <= 0 || sharded.Speedup <= 0 {
		t.Fatalf("degenerate timing: %+v / %+v", base, sharded)
	}
	if len(tbl.Rows) != len(res.Entries) {
		t.Fatalf("table rows = %d, entries = %d", len(tbl.Rows), len(res.Entries))
	}
}

// TestP10Smoke runs the durable-storage experiment at a tiny scale and
// sanity-checks the structure: all three variants present, skylines
// identical (P10 itself fails otherwise), and the disk cells carrying a
// recovery measurement.
func TestP10Smoke(t *testing.T) {
	cfg := TestConfig()
	cfg.P10Sizes = []int{2000}
	cfg.P10Ops = 200
	res, tbl, err := P10(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Entries) != 3 {
		t.Fatalf("entries = %d, want memory/disk/disk-fsync", len(res.Entries))
	}
	mem := res.Entries[0]
	if mem.Variant != "memory" || mem.Ratio != 1.0 {
		t.Fatalf("baseline cell drifted: %+v", mem)
	}
	for _, e := range res.Entries[1:] {
		if e.SkylineSize != mem.SkylineSize {
			t.Fatalf("skyline mismatch: %+v vs %+v", mem, e)
		}
		if e.OpsPerSec <= 0 || e.Ratio <= 0 {
			t.Fatalf("degenerate timing: %+v", e)
		}
		if e.RecoverRows+e.WalReplayed == 0 {
			t.Fatalf("disk cell without recovery work: %+v", e)
		}
	}
	if len(tbl.Rows) != len(res.Entries) {
		t.Fatalf("table rows = %d, entries = %d", len(tbl.Rows), len(res.Entries))
	}
}
