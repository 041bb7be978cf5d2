package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"
)

// The traced run attributes statement time to layers from outside the
// engine. Each sampled statement gets a root span around its real
// execution through the public API; the child spans are re-executions
// of that statement's own inputs through one layer's public functions
// (parser.ParseAll on its text, engine.PlanStream on its candidate
// query, bmo.EvaluateConfig on its candidate rows, ...), timed right
// after the statement and linked to it by parent id. Children therefore
// do not nest inside the root's wall-clock interval; attribution is by
// duration: a span's self time is its duration minus what its children
// cover. README.md says how to read the file.

type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // 0 for a root span
	Stmt   int    `json:"stmt"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the traced run began
	End    int64  `json:"end_ns"`
	Self   int64  `json:"self_ns"`
}

type tracer struct {
	workload string
	t0       time.Time
	// mu guards spans and obs: shard streams are traced concurrently,
	// as the gather operator runs them.
	mu    sync.Mutex
	spans []span
	// obs holds the counts taken at the same boundaries as the spans
	// (rows in, bytes per row, ...), keyed by metric name.
	obs map[string][]float64
	// plain and rooted are statement latencies (ms) by statement kind,
	// outside and inside a root span: their ratio is the tracing
	// overhead on the statement itself.
	plain, rooted map[string][]float64
	stmts         int
}

func newTracer(workload string) *tracer {
	return &tracer{
		workload: workload, t0: time.Now(),
		obs: map[string][]float64{}, plain: map[string][]float64{}, rooted: map[string][]float64{},
	}
}

// maxTraced bounds the sampled statements per workload.
const maxTraced = 500

// begin opens a span and returns its id; parent 0 makes it a root.
func (t *tracer) begin(name string, parent, stmt int) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{
		ID: len(t.spans) + 1, Parent: parent, Stmt: stmt, Name: name,
		Start: time.Since(t.t0).Nanoseconds(),
	})
	return len(t.spans)
}

func (t *tracer) end(id int) time.Duration {
	t.mu.Lock()
	defer t.mu.Unlock()
	s := &t.spans[id-1]
	s.End = time.Since(t.t0).Nanoseconds()
	return time.Duration(s.End - s.Start)
}

// child times fn as a child span of parent.
func (t *tracer) child(name string, parent, stmt int, fn func()) {
	id := t.begin(name, parent, stmt)
	fn()
	t.end(id)
}

func (t *tracer) observe(name string, v float64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.obs[name] = append(t.obs[name], v)
}

// replay drives a single-threaded pass over a workload's stream until
// the budget or the span cap runs out. Every `every`-th statement runs
// inside a root span via traced (which adds the child spans); the rest
// run plain, so write workloads see their whole stream in order and the
// plain statements give the untraced reference latency. Both callbacks
// return the statement's kind and its latency.
func (t *tracer) replay(budget time.Duration, every int, res *result,
	plain func() (kind string, d time.Duration, err error),
	traced func(stmt int) (kind string, d time.Duration, err error)) {
	deadline := time.Now().Add(budget)
	for i := 0; time.Now().Before(deadline) && t.stmts < maxTraced; i++ {
		var kind string
		var d time.Duration
		var err error
		res.Attempted++
		if i%every == 0 {
			t.stmts++
			kind, d, err = traced(t.stmts)
			t.rooted[kind] = append(t.rooted[kind], ms(d))
		} else {
			kind, d, err = plain()
			t.plain[kind] = append(t.plain[kind], ms(d))
		}
		if err != nil {
			res.fail(1, "traced replay, statement %d (%s): %v", i, kind, err)
		}
	}
}

// finish computes self times and turns spans and observations into the
// per-layer metrics. A span with statement id 0 is a probe outside any
// statement (a checkpoint, a columnar build) and counts toward its
// metric only.
func (t *tracer) finish(res *result) {
	// What a span's children cover is the union of their intervals:
	// re-executed layers run one after the other, shard streams overlap.
	children := make([][]span, len(t.spans)+1)
	for _, s := range t.spans {
		children[s.Parent] = append(children[s.Parent], s)
	}
	covered := func(id int) int64 {
		cs := children[id]
		sort.Slice(cs, func(i, j int) bool { return cs[i].Start < cs[j].Start })
		var sum, end int64
		for _, c := range cs {
			lo := c.Start
			if lo < end {
				lo = end
			}
			if c.End > lo {
				sum += c.End - lo
				end = c.End
			}
		}
		return sum
	}
	byName := map[string][]float64{}
	var rootTotal, rootCovered int64
	for i := range t.spans {
		s := &t.spans[i]
		d, c := s.End-s.Start, covered(s.ID)
		s.Self = d - c
		if s.Self < 0 {
			s.Self = 0
		}
		if s.Parent == 0 && s.Stmt > 0 {
			rootTotal += d
			rootCovered += c
		}
		byName[s.Name] = append(byName[s.Name], float64(d))
	}
	// A span named like a per-layer timing metric minus its unit suffix
	// ("parser.parse" for parser.parse_us) reports the median per call.
	for _, def := range perLayer {
		div := map[string]float64{"us": 1e3, "ms": 1e6}[def.unit]
		ds := byName[strings.TrimSuffix(def.name, "_"+def.unit)]
		if _, observed := t.obs[def.name]; div == 0 || len(ds) == 0 || observed {
			continue
		}
		res.add(def.name, median(ds)/div, len(ds))
	}
	for name, xs := range t.obs {
		res.add(name, median(xs), len(xs))
	}
	if rootTotal > 0 {
		// Not clamped: a negative share says the re-executed layers cost
		// more than the statement did, i.e. the statement took a cheaper
		// path than the layer functions the benchmark can call.
		res.add("trace.unattributed_share", 1-float64(rootCovered)/float64(rootTotal), t.stmts)
	}
	var num, den float64
	for kind, in := range t.rooted {
		out := t.plain[kind]
		if len(in) < 3 || len(out) < 3 {
			continue
		}
		w := float64(len(in))
		num += w * (median(in)/median(out) - 1)
		den += w
	}
	if den > 0 {
		res.add("trace.overhead_share", num/den, int(den))
	}
}

// write stores the buffered spans as <outDir>/<workload>.trace.json.
func (t *tracer) write(outDir string) error {
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return err
	}
	data, err := json.Marshal(struct {
		Workload string `json:"workload"`
		Spans    []span `json:"spans"`
	}{t.workload, t.spans})
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(outDir, t.workload+".trace.json"), data, 0o644)
}
