package bmo

import (
	"runtime"
	"sync"
)

// This file holds the settings every kernel shares (Config) and the
// goroutine plumbing of the partitioned evaluation; vectorized.go
// partitions and merges.

// Config tunes the partitioned evaluation.
type Config struct {
	// Workers caps the number of concurrent partitions (and merge
	// goroutines); 0 means runtime.GOMAXPROCS. Workers=1 runs the
	// partition-merge plan on the calling goroutine only, which is
	// also the fallback for preferences whose Compare is not safe for
	// concurrent use (e.g. getters embedding subqueries).
	Workers int
	// Stop, when non-nil, is polled by every worker about every
	// stopInterval comparisons; a non-nil return aborts the evaluation
	// with that error. The exec layer wires it to the statement's
	// cancellation context.
	Stop func() error
}

// AutoParallelThreshold is the actual input row count at and above
// which the Auto algorithm uses more than one worker; below it Auto runs
// on the calling goroutine, since the partition and merge overhead is
// not worth setting up. The planner also requires an estimate of this
// many candidates before it selects the columnar score fill.
const AutoParallelThreshold = 10000

// stopInterval is how many comparisons a kernel performs between Stop
// polls (mirrors the exec layer's scan interval).
const stopInterval = 1024

// workerCount resolves the configured worker count.
func (cfg Config) workerCount() int {
	if cfg.Workers > 0 {
		return cfg.Workers
	}
	return runtime.GOMAXPROCS(0)
}

// checkStop polls cfg.Stop every stopInterval ticks of *n.
func (cfg Config) checkStop(n *int) error {
	*n++
	if cfg.Stop != nil && *n%stopInterval == 0 {
		return cfg.Stop()
	}
	return nil
}

// runConcurrent executes f(0..n-1) on up to w goroutines (w<=1 runs
// inline) and returns the first error. Remaining tasks are skipped once
// an error occurred.
func runConcurrent(n, w int, f func(i int) error) error {
	if w > n {
		w = n
	}
	if w <= 1 {
		for i := 0; i < n; i++ {
			if err := f(i); err != nil {
				return err
			}
		}
		return nil
	}
	var (
		mu    sync.Mutex
		first error
		wg    sync.WaitGroup
		next  int
	)
	take := func() (int, bool) {
		mu.Lock()
		defer mu.Unlock()
		if first != nil || next >= n {
			return 0, false
		}
		i := next
		next++
		return i, true
	}
	fail := func(err error) {
		mu.Lock()
		if first == nil {
			first = err
		}
		mu.Unlock()
	}
	wg.Add(w)
	for g := 0; g < w; g++ {
		go func() {
			defer wg.Done()
			for {
				i, ok := take()
				if !ok {
					return
				}
				if err := f(i); err != nil {
					fail(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	return first
}

// mergeStats folds per-worker counters into the shared statement stats.
func mergeStats(st *Stats, parts []Stats) {
	for _, p := range parts {
		st.Comparisons += p.Comparisons
		if p.MaxWindow > st.MaxWindow {
			st.MaxWindow = p.MaxWindow
		}
	}
}
