package main

import (
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"runtime"
	"sort"
	"sync"
	"time"

	"repro/internal/value"
)

// config is one run's inputs. Everything a workload generates derives
// from seed; scale shrinks table sizes for the tests (1 = the sizes in
// README.md).
type config struct {
	seed    int64
	seconds float64
	scale   float64
	trace   bool
	// workDir holds per-run data directories and span files; it lives
	// inside the checkout and is removed on every exit path.
	workDir string
	// outDir receives <workload>.trace.json.
	outDir string
}

// scaled applies cfg.scale to a row count, never going below min.
func (c config) scaled(n, min int) int {
	s := int(float64(n) * c.scale)
	if s < min {
		return min
	}
	return s
}

// workload is one named traffic mix. The driver calls setup (timed as
// setup_s), then either the measured closed loop (step from `clients`
// goroutines until the deadline) or the traced single-threaded replay,
// then finish (end-of-run oracles and the metrics only this workload
// has), then close. close must release every listener, goroutine and
// temp directory and is safe after a failed setup.
type workload interface {
	setup() error
	clients() int
	// step executes client c's next statement, recording its latency
	// and checking its answer; an error is a failed statement.
	step(c int, rec *recorder) error
	// nextStatement draws client 0's next statement and renders it
	// without running it: the stream is a function of the seed alone,
	// and the tests hold the workloads to that.
	nextStatement() string
	// finish runs the end-of-run oracles, adding workload-specific
	// end-to-end metrics to res and oracle failures to res.fail.
	finish(res *result)
	// traced replays the stream single-threaded under tr for at most
	// budget, then adds the per-layer metrics to res.
	traced(tr *tracer, res *result, budget time.Duration)
	close()
}

// recorder collects one client's samples; clients never share one, so
// the measured loop takes no lock.
type recorder struct {
	ms                [numClasses][]float64 // latencies by statement class
	attempted, failed int
	errs              []string
}

type sampleClass int

const (
	classQuery sampleClass = iota
	classWrite
	classFirstRow
	numClasses
)

func (r *recorder) observe(class sampleClass, d time.Duration) {
	r.ms[class] = append(r.ms[class], ms(d))
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }
func us(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }

func (r *recorder) fail(format string, args ...any) {
	r.failed++
	if len(r.errs) < 5 {
		r.errs = append(r.errs, fmt.Sprintf(format, args...))
	}
}

// metric is one reported number. N is the sample count behind a
// percentile or median, 0 for a ratio or a count.
type metric struct {
	Name  string  `json:"name"`
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	N     int     `json:"n,omitempty"`
}

type result struct {
	Workload   string   `json:"workload"`
	Seed       int64    `json:"seed"`
	Seconds    float64  `json:"seconds"`
	Gomaxprocs int      `json:"gomaxprocs"`
	Nproc      int      `json:"nproc"`
	Traced     bool     `json:"traced"`
	Attempted  int      `json:"attempted"`
	Failed     int      `json:"failed"`
	Metrics    []metric `json:"metrics"`
	Notes      []string `json:"notes,omitempty"`
	Errors     []string `json:"errors,omitempty"`
}

// add reports a declared metric; the unit comes from metrics.go, so a
// name that is not declared there is a bug in the benchmark.
func (r *result) add(name string, v float64, n int) {
	unit, ok := units[name]
	if !ok {
		panic("benchmark: undeclared metric " + name)
	}
	r.Metrics = append(r.Metrics, metric{Name: name, Value: v, Unit: unit, N: n})
}

func (r *result) get(name string) (metric, bool) {
	for _, m := range r.Metrics {
		if m.Name == name {
			return m, true
		}
	}
	return metric{}, false
}

// fail records n statements as failed or wrong.
func (r *result) fail(n int, format string, args ...any) {
	r.Failed += n
	if len(r.Errors) < 10 {
		r.Errors = append(r.Errors, fmt.Sprintf(format, args...))
	}
}

func (r *result) correct() bool { return r.Failed == 0 && r.Attempted > 0 }

// percentile returns the nearest-rank q-quantile of xs and whether at
// least ten samples lie beyond it — the condition under which the
// benchmark reports it at all.
func percentile(xs []float64, q float64) (v float64, ok bool) {
	n := len(xs)
	if n == 0 {
		return 0, false
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(math.Ceil(q*float64(n))) - 1
	if i < 0 {
		i = 0
	}
	return s[i], n-(i+1) >= 10
}

func median(xs []float64) float64 {
	n := len(xs)
	if n == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// addPercentiles reports <prefix>_p50_ms and <prefix>_p90_ms when the
// sample supports them.
func (r *result) addPercentiles(prefix string, xs []float64, p90 bool) {
	if v, ok := percentile(xs, 0.50); ok {
		r.add(prefix+"_p50_ms", v, len(xs))
	}
	if v, ok := percentile(xs, 0.90); ok && p90 {
		r.add(prefix+"_p90_ms", v, len(xs))
	}
}

// digest is an order-independent fingerprint of a result set: BMO sets
// come back in algorithm-dependent order, so oracles compare multisets.
func digest(rows []value.Row) uint64 {
	var sum uint64
	for _, r := range rows {
		h := fnv.New64a()
		h.Write([]byte(r.Key()))
		sum += h.Sum64()
	}
	return sum + uint64(len(rows))<<48
}

// deck deals a workload's statement mix "by count": every pass over the
// deck holds each kind exactly as often as the mix says, in seeded random
// order. Two runs of different length then execute the same proportions,
// which independent draws would only approach.
type deck struct {
	rng   *rand.Rand
	cards []int
	pos   int
}

// newDeck builds a deck with counts[k] cards of kind k.
func newDeck(rng *rand.Rand, counts ...int) *deck {
	d := &deck{rng: rng}
	for k, n := range counts {
		for i := 0; i < n; i++ {
			d.cards = append(d.cards, k)
		}
	}
	d.pos = len(d.cards)
	return d
}

func (d *deck) next() int {
	if d.pos == len(d.cards) {
		d.rng.Shuffle(len(d.cards), func(i, j int) { d.cards[i], d.cards[j] = d.cards[j], d.cards[i] })
		d.pos = 0
	}
	d.pos++
	return d.cards[d.pos-1]
}

// setupRepeats is how many times an untraced run sets up: setup_s is
// the median, so one slow page-cache miss or GC pause does not decide it.
const setupRepeats = 5

// runWorkload drives one workload end to end and returns its result.
// The returned error is for harness failures (unknown name, setup
// error); oracle failures are in result.Failed.
func runWorkload(name string, mk func(config) workload, cfg config) (*result, error) {
	res := &result{
		Workload: name, Seed: cfg.seed, Seconds: cfg.seconds, Traced: cfg.trace,
		Gomaxprocs: runtime.GOMAXPROCS(0), Nproc: runtime.NumCPU(),
	}
	repeats := setupRepeats
	if cfg.trace {
		repeats = 1
	}
	var w workload
	var setups []float64
	for i := 0; i < repeats; i++ {
		w = mk(cfg)
		t0 := time.Now()
		err := w.setup()
		setups = append(setups, time.Since(t0).Seconds())
		if err != nil {
			w.close()
			return nil, fmt.Errorf("%s: setup: %w", name, err)
		}
		if i < repeats-1 {
			w.close()
			runtime.GC()
		}
	}
	defer w.close()
	res.add("setup_s", median(setups), len(setups))

	if cfg.trace {
		tr := newTracer(name)
		w.traced(tr, res, time.Duration(cfg.seconds*float64(time.Second)))
		tr.finish(res)
		if err := tr.write(cfg.outDir); err != nil {
			return nil, err
		}
	} else {
		measure(w, res, cfg)
	}
	w.finish(res)
	return res, nil
}

// measure runs the closed loop: each client issues its next statement
// when the previous one returns, until the deadline.
func measure(w workload, res *result, cfg config) {
	n := w.clients()
	recs := make([]*recorder, n)
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for i := range recs {
		recs[i] = &recorder{}
	}
	start := time.Now()
	deadline := start.Add(time.Duration(cfg.seconds * float64(time.Second)))
	var wg sync.WaitGroup
	for c := 0; c < n; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			rec := recs[c]
			for time.Now().Before(deadline) {
				rec.attempted++
				if err := w.step(c, rec); err != nil {
					rec.fail("client %d: %v", c, err)
				}
			}
		}(c)
	}
	wg.Wait()
	wall := time.Since(start)
	runtime.ReadMemStats(&m1)

	var lat [numClasses][]float64
	for _, rec := range recs {
		res.Attempted += rec.attempted
		res.Failed += rec.failed
		for _, e := range rec.errs {
			if len(res.Errors) < 10 {
				res.Errors = append(res.Errors, e)
			}
		}
		for class, xs := range rec.ms {
			lat[class] = append(lat[class], xs...)
		}
	}
	if res.Attempted == 0 {
		return
	}
	res.add("ops_per_s", float64(res.Attempted)/wall.Seconds(), res.Attempted)
	res.addPercentiles("query", lat[classQuery], true)
	res.addPercentiles("write", lat[classWrite], true)
	res.addPercentiles("first_row", lat[classFirstRow], false)
	res.add("alloc_kb_per_op", float64(m1.TotalAlloc-m0.TotalAlloc)/1024/float64(res.Attempted), res.Attempted)

	// Data is still open here: this is what the process holds to serve
	// the next statement, not what the run churned through.
	recs, lat = nil, [numClasses][]float64{}
	runtime.GC()
	runtime.ReadMemStats(&m1)
	res.add("live_heap_mb", float64(m1.HeapAlloc)/(1<<20), 0)
}
