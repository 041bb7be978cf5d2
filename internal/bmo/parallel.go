package bmo

import (
	"runtime"
	"sync"

	"repro/internal/preference"
	"repro/internal/value"
)

// This file holds the settings every kernel shares (Config) and the
// Compare family's partition-merge evaluation: the input is split into
// contiguous partitions, each worker computes the local skyline of its
// partition with BNL, and the partial skylines are then merged pairwise —
// also concurrently — until one dominance-filtered result remains. (The
// score family partitions and merges in vectorized.go.)
//
// Correctness rests on two properties of strict partial orders:
//
//  1. skyline(R) ⊆ ∪ᵢ skyline(Rᵢ): a globally maximal tuple is maximal
//     in its own partition, so the partition phase never loses a result.
//  2. Filtering a partial skyline against the *unfiltered* members of
//     the other partials is exact: if t ∈ Sᵢ is dominated by s ∈ Sⱼ and
//     s is itself dominated by u, then u dominates t by transitivity —
//     so no dominator is ever "filtered away before it can act".
//
// Equality never dominates (only Better does), so substitutable tuples
// in different partitions all survive, exactly as in the sequential
// algorithms.

// Config tunes the parallel partition-merge evaluation.
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

// minPartition is the smallest partition worth handing to a worker;
// fewer rows per worker and goroutine overhead dominates.
const minPartition = 512

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

// compareSkyline is the Compare family's partition-merge evaluation.
func compareSkyline(p preference.Preference, rows []value.Row, st *Stats, cfg Config) ([]value.Row, error) {
	parts, err := comparePartials(p, rows, st, cfg)
	if err != nil {
		return nil, err
	}
	// Merge pairwise until one partial remains; each round's merges run
	// concurrently.
	for len(parts) > 1 {
		npairs := len(parts) / 2
		next := make([][]value.Row, (len(parts)+1)/2)
		stats := make([]Stats, npairs)
		if len(parts)%2 == 1 {
			next[len(next)-1] = parts[len(parts)-1]
		}
		err := runConcurrent(npairs, cfg.workerCount(), func(i int) error {
			m, err := mergeCompare(p, parts[2*i], parts[2*i+1], &stats[i], cfg)
			next[i] = m
			return err
		})
		mergeStats(st, stats)
		if err != nil {
			return nil, err
		}
		parts = next
	}
	return parts[0], nil
}

// comparePartials splits rows into contiguous partitions and computes
// their BNL skylines concurrently; one partition is plain BNL.
func comparePartials(p preference.Preference, rows []value.Row, st *Stats, cfg Config) ([][]value.Row, error) {
	nw := max(1, min(cfg.workerCount(), (len(rows)+minPartition-1)/minPartition))
	if nw == 1 {
		sky, err := blockNestedLoop(p, rows, st, cfg)
		return [][]value.Row{sky}, err
	}
	chunk := (len(rows) + nw - 1) / nw
	partials := make([][]value.Row, nw)
	stats := make([]Stats, nw)
	err := runConcurrent(nw, nw, func(i int) error {
		sky, err := blockNestedLoop(p, rows[min(i*chunk, len(rows)):min((i+1)*chunk, len(rows))], &stats[i], cfg)
		partials[i] = sky
		return err
	})
	mergeStats(st, stats)
	return partials, err
}

// mergeCompare dominance-filters two partial skylines against each
// other: survivors of a not dominated by any member of b, then survivors
// of b not dominated by any member of a. Filtering is against the
// original members of the other side (see the transitivity note above).
func mergeCompare(p preference.Preference, a, b []value.Row, st *Stats, cfg Config) ([]value.Row, error) {
	out := make([]value.Row, 0, len(a)+len(b))
	ticks := 0
	for _, side := range [2][2][]value.Row{{a, b}, {b, a}} {
		for _, cand := range side[0] {
			dom, err := dominatedBy(p, cand, side[1], st, cfg, &ticks)
			if err != nil {
				return nil, err
			}
			if !dom {
				out = append(out, cand)
			}
		}
	}
	st.MaxWindow = max(st.MaxWindow, len(out))
	return out, nil
}

// dominatedBy reports whether some member of against is better than
// cand under p, polling cfg.Stop on the caller's tick counter.
func dominatedBy(p preference.Preference, cand value.Row, against []value.Row, st *Stats, cfg Config, ticks *int) (bool, error) {
	for _, w := range against {
		if err := cfg.checkStop(ticks); err != nil {
			return false, err
		}
		st.Comparisons++
		o, err := p.Compare(w, cand)
		if err != nil {
			return false, err
		}
		if o == preference.Better {
			return true, nil
		}
	}
	return false, nil
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
