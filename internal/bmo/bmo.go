// Package bmo evaluates the Best-Matches-Only query model (§2.2.5): given
// a preference (strict partial order) and a set of candidate tuples, it
// returns all maximal (non-dominated) tuples.
//
// Every preference has a presort key (preference.Key): a float vector,
// ordered lexicographically, that is strictly smaller for a Better
// tuple and identical for an Equal one. One kernel serves every
// preference (see vectorized.go): rows are keyed once into a matrix,
// thinned, for an exact key, by one elimination pass that drops the
// rows a few good ones dominate, presorted by (head, key, input index)
// and filtered through one window that admits a candidate unless a
// member dominates it — sequentially
// block by block, over block-aligned partitions merged k-way when more
// than one worker is available, lazily as a Stream, and as the
// coordinator's merge of shard streams (GatherMerge). For an exact key
// (weak orders, chain EXPLICITs and Pareto accumulations of them) the
// window's test is dominance on the keys, with zone-map pruning; for an
// inexact one (a non-chain EXPLICIT, a CASCADE nested in a Pareto) it is
// Preference.Compare on the rows.
//
// The algorithm tokens select among these: NestedLoop is the paper's
// abstract §3.2 selection method and BlockNestedLoop plain BNL, both over
// Compare (Reference; the tests compare against them); Auto and Parallel
// run the key kernel. Auto uses more than one worker from
// AutoParallelThreshold rows on; Parallel always does, and its Stream
// partitions up front.
//
// CASCADE evaluates stage-wise, per the paper's "applying preferences one
// after the other": BMO(P1 CASCADE P2, R) = BMO(P2, BMO(P1, R)). Stages
// flattens a CASCADE, nested ones included, and ReduceStages is the one
// loop every form runs them through — batch evaluation, the exec
// layer's BMO operator (batch, grouped and progressive alike) and the
// coordinator's merge. It stops once at most one candidate is left, so a
// statement's rows and errors do not depend on its form. Stage k's input
// is stage k-1's output in key order, indexed 0..m-1. The exec layer
// fills stage k's key matrix at stage k-1's winners in that same order
// and runs EvaluateVecInput on it, which gives the same (head, key,
// index) order and so the same rows in the same order.
package bmo

import (
	"fmt"

	"repro/internal/preference"
	"repro/internal/value"
)

// Algorithm selects the evaluation strategy.
type Algorithm int

// Available algorithms; the package comment says which kernel each
// selects.
const (
	Auto Algorithm = iota
	NestedLoop
	BlockNestedLoop
	Parallel
)

// String names the algorithm.
func (a Algorithm) String() string {
	switch a {
	case Auto:
		return "auto"
	case NestedLoop:
		return "nested-loop"
	case BlockNestedLoop:
		return "block-nested-loop"
	case Parallel:
		return "parallel-partition-merge"
	}
	return fmt.Sprintf("Algorithm(%d)", int(a))
}

// config returns cfg for a kernel evaluation of n candidates under a:
// Auto runs on the calling goroutine below AutoParallelThreshold, since
// the partition and merge overhead is not worth setting up.
func (a Algorithm) config(cfg Config, n int) Config {
	if a == Auto && n < AutoParallelThreshold {
		cfg.Workers = 1
	}
	return cfg
}

// Stats reports work done by an evaluation.
type Stats struct {
	Comparisons int // preference comparisons performed
	MaxWindow   int // peak window size (BNL or key window)
	Stages      int // stages evaluated; a preference that is no CASCADE is one
}

// Evaluate returns the BMO set of rows under p.
func Evaluate(p preference.Preference, rows []value.Row, algo Algorithm) ([]value.Row, error) {
	out, _, err := EvaluateConfig(p, rows, algo, Config{})
	return out, err
}

// EvaluateConfig is Evaluate with a parallel-evaluation Config (worker
// count, cancellation hook), plus work counters.
func EvaluateConfig(p preference.Preference, rows []value.Row, algo Algorithm, cfg Config) ([]value.Row, Stats, error) {
	var st Stats
	out, err := evaluate(Stages(p), rows, algo, &st, cfg)
	return out, st, err
}

// Stages flattens a CASCADE, nested ones included, into the stages a
// stage-wise evaluation applies one after the other; any other
// preference is one stage.
func Stages(p preference.Preference) []preference.Preference {
	c, ok := p.(*preference.Cascade)
	if !ok {
		return []preference.Preference{p}
	}
	var out []preference.Preference
	for _, part := range c.Parts {
		out = append(out, Stages(part)...)
	}
	return out
}

// ReduceStages applies stages 0..n-1 to the candidates (rows, or heap
// positions), each stage to the previous one's output in that order. It
// stops once a stage leaves at most one candidate: a later stage cannot
// change the result one row already holds, so it never scores, nor
// fails on, that row. It counts the stages it runs in st.Stages and
// polls cfg.Stop between them.
func ReduceStages[T any](n int, cands []T, st *Stats, cfg Config, stage func(k int, cands []T) ([]T, error)) ([]T, error) {
	for k := 0; k < n && (k == 0 || len(cands) > 1); k++ {
		if k > 0 && cfg.Stop != nil {
			if err := cfg.Stop(); err != nil {
				return nil, err
			}
		}
		st.Stages++
		var err error
		if cands, err = stage(k, cands); err != nil {
			return nil, err
		}
	}
	return cands, nil
}

// evaluate runs the stages over rows through ReduceStages.
func evaluate(stages []preference.Preference, rows []value.Row, algo Algorithm, st *Stats, cfg Config) ([]value.Row, error) {
	return ReduceStages(len(stages), rows, st, cfg, func(k int, rows []value.Row) ([]value.Row, error) {
		if len(rows) == 0 {
			return nil, nil
		}
		var idx []int32
		var err error
		switch algo {
		case NestedLoop, BlockNestedLoop:
			idx, err = reference(stages[k], rows, algo, st, cfg)
		default:
			var in VecInput
			if in, err = BuildVecInput(preference.KeyOf(stages[k]), rows); err == nil {
				idx, err = keySkyline(&in, st, &VecStats{}, algo.config(cfg, len(rows)))
			}
		}
		out := make([]value.Row, len(idx))
		for j, i := range idx {
			out[j] = rows[i]
		}
		return out, err
	})
}

// Reference evaluates one stage, a preference that is no CASCADE, over
// rows with a reference algorithm — NestedLoop, or BlockNestedLoop —
// which tests Compare on the rows themselves. It returns the winners'
// indices into rows.
func Reference(p preference.Preference, rows []value.Row, algo Algorithm, cfg Config) ([]int32, Stats, error) {
	var st Stats
	idx, err := reference(p, rows, algo, &st, cfg)
	return idx, st, err
}

// reference is Reference with the caller's counters.
func reference(p preference.Preference, rows []value.Row, algo Algorithm, st *Stats, cfg Config) ([]int32, error) {
	if algo == NestedLoop {
		return nestedLoop(p, rows, st)
	}
	return blockNestedLoop(p, rows, st, cfg)
}

// nestedLoop is the paper's §3.2 abstract selection method.
func nestedLoop(p preference.Preference, rows []value.Row, st *Stats) ([]int32, error) {
	var max []int32
	for i, t1 := range rows {
		dominated := false
		for j, t2 := range rows {
			if i == j {
				continue
			}
			st.Comparisons++
			o, err := p.Compare(t2, t1)
			if err != nil {
				return nil, err
			}
			if o == preference.Better {
				dominated = true
				break
			}
		}
		if !dominated {
			max = append(max, int32(i))
		}
	}
	return max, nil
}

// blockNestedLoop is BNL with an unbounded in-memory window, polling
// cfg.Stop every stopInterval comparisons.
func blockNestedLoop(p preference.Preference, rows []value.Row, st *Stats, cfg Config) ([]int32, error) {
	var window []int32
	ticks := 0
	for i, t := range rows {
		dominated := false
		keep := window[:0]
		for _, w := range window {
			if err := cfg.checkStop(&ticks); err != nil {
				return nil, err
			}
			st.Comparisons++
			o, err := p.Compare(rows[w], t)
			if err != nil {
				return nil, err
			}
			if o == preference.Better {
				// Window elements are mutually non-dominated, so if w
				// dominates t, no earlier window element can have been
				// dominated by t (that would imply it is dominated by w,
				// violating the invariant): the window is unchanged.
				dominated = true
				break
			}
			if o == preference.Worse {
				continue // w is dominated by t: drop it
			}
			keep = append(keep, w)
		}
		if !dominated {
			window = append(keep, int32(i))
		}
		if len(window) > st.MaxWindow {
			st.MaxWindow = len(window)
		}
	}
	return window, nil
}

// Token returns the short session-setting token for the algorithm, the
// form the wire protocol and the shell's \algo command use.
func (a Algorithm) Token() string {
	switch a {
	case Auto:
		return "auto"
	case NestedLoop:
		return "nl"
	case BlockNestedLoop:
		return "bnl"
	case Parallel:
		return "parallel"
	}
	return ""
}

// ParseToken resolves a short algorithm token (see Token); ok is false
// for unknown tokens. Every surface that accepts an algorithm name —
// the shell, the server's Set handler, the client — shares this one
// mapping. The retired tokens sfs, bestlevel and vec named the score
// kernel Auto already runs, so they parse as Auto.
func ParseToken(tok string) (Algorithm, bool) {
	switch tok {
	case "sfs", "bestlevel", "vec":
		return Auto, true
	}
	for _, a := range []Algorithm{Auto, NestedLoop, BlockNestedLoop, Parallel} {
		if a.Token() == tok {
			return a, true
		}
	}
	return Auto, false
}
