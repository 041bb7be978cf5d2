// Package bmo evaluates the Best-Matches-Only query model (§2.2.5): given
// a preference (strict partial order) and a set of candidate tuples, it
// returns all maximal (non-dominated) tuples.
//
// Every preference falls into one of two families, each with one kernel:
//
//   - The score family (ScoreBased: a weak order, or a Pareto accumulation
//     of weak orders) is decided on score vectors alone. Rows are scored
//     once, presorted by the monotone key (sum, vector, input index) and
//     filtered through one window that admits a candidate unless a member
//     dominates it (see vectorized.go): sequentially block by block with
//     zone-map pruning, over block-aligned partitions merged k-way when
//     more than one worker is available, lazily as a Stream, and as the
//     coordinator's merge of shard streams (GatherMerge). A single weak
//     order keeps its O(n) minimum pass, which yields the same rows in
//     the same order.
//   - The Compare family (EXPLICIT, ELSE and nested non-score terms) runs
//     BlockNestedLoop — the BNL algorithm of [BKS01] over
//     Preference.Compare — per partition, with pairwise merges of the
//     partials when more than one worker is available (parallel.go).
//
// The algorithm tokens select among these: NestedLoop is the paper's
// abstract §3.2 selection method and BlockNestedLoop plain BNL, both over
// Compare for every preference (the references the tests compare
// against); Auto and Parallel run the family's kernel. Auto uses more
// than one worker from AutoParallelThreshold rows on; Parallel always
// does, and is the one token whose progressive stream serves the
// Compare family (NewParallelStream).
//
// CASCADE evaluates stage-wise, per the paper's "applying preferences one
// after the other": BMO(P1 CASCADE P2, R) = BMO(P2, BMO(P1, R)).
package bmo

import (
	"fmt"
	"math"

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

// Stats reports work done by an evaluation.
type Stats struct {
	Comparisons int // preference comparisons performed
	MaxWindow   int // peak window size (BNL or score window)
	Stages      int // cascade stages evaluated
}

// Evaluate returns the BMO set of rows under p.
func Evaluate(p preference.Preference, rows []value.Row, algo Algorithm) ([]value.Row, error) {
	out, _, err := EvaluateStats(p, rows, algo)
	return out, err
}

// EvaluateStats is Evaluate plus work counters.
func EvaluateStats(p preference.Preference, rows []value.Row, algo Algorithm) ([]value.Row, Stats, error) {
	return EvaluateConfig(p, rows, algo, Config{})
}

// EvaluateConfig is EvaluateStats with a parallel-evaluation Config
// (worker count, cancellation hook).
func EvaluateConfig(p preference.Preference, rows []value.Row, algo Algorithm, cfg Config) ([]value.Row, Stats, error) {
	var st Stats
	out, err := evaluate(p, rows, algo, &st, cfg)
	return out, st, err
}

func evaluate(p preference.Preference, rows []value.Row, algo Algorithm, st *Stats, cfg Config) ([]value.Row, error) {
	if len(rows) == 0 {
		return nil, nil
	}
	// CASCADE: stage-wise reduction.
	if c, ok := p.(*preference.Cascade); ok {
		current := rows
		for _, part := range c.Parts {
			st.Stages++
			next, err := evaluate(part, current, algo, st, cfg)
			if err != nil {
				return nil, err
			}
			current = next
			if len(current) <= 1 {
				break
			}
		}
		return current, nil
	}

	switch algo {
	case NestedLoop:
		return nestedLoop(p, rows, st)
	case BlockNestedLoop:
		return blockNestedLoop(p, rows, st, cfg)
	case Auto:
		if len(rows) < AutoParallelThreshold {
			cfg.Workers = 1
		}
	}
	if scorers, ok := ScoreBased(p); ok {
		if len(scorers) == 1 {
			return bestLevel(scorers[0], rows, st)
		}
		in, err := BuildVecInput(scorers, rows)
		if err != nil {
			return nil, err
		}
		return scoreSkyline(&in, st, &VecStats{}, cfg)
	}
	return compareSkyline(p, rows, st, cfg)
}

// nestedLoop is the paper's §3.2 abstract selection method.
func nestedLoop(p preference.Preference, rows []value.Row, st *Stats) ([]value.Row, error) {
	var max []value.Row
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
			max = append(max, t1)
		}
	}
	return max, nil
}

// blockNestedLoop is BNL with an unbounded in-memory window, polling
// cfg.Stop every stopInterval comparisons.
func blockNestedLoop(p preference.Preference, rows []value.Row, st *Stats, cfg Config) ([]value.Row, error) {
	var window []value.Row
	ticks := 0
	for _, t := range rows {
		dominated := false
		keep := window[:0]
		for _, w := range window {
			if err := cfg.checkStop(&ticks); err != nil {
				return nil, err
			}
			st.Comparisons++
			o, err := p.Compare(w, t)
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
			window = append(keep, t)
		}
		if len(window) > st.MaxWindow {
			st.MaxWindow = len(window)
		}
	}
	return window, nil
}

// bestLevel returns all rows with the minimum score in one pass.
func bestLevel(s preference.Scored, rows []value.Row, st *Stats) ([]value.Row, error) {
	best := math.Inf(1)
	var out []value.Row
	for _, r := range rows {
		st.Comparisons++
		v, err := s.Score(r)
		if err != nil {
			return nil, err
		}
		switch {
		case v < best:
			best = v
			out = out[:0]
			out = append(out, r)
		case v == best:
			out = append(out, r)
		}
	}
	return out, nil
}

// EvaluateGrouped applies BMO independently within each group (the
// GROUPING clause of §2.2.5: "performing with soft constraints what
// GROUP BY does with hard constraints"). Group order follows first
// appearance; rows keep their relative order within groups.
func EvaluateGrouped(p preference.Preference, rows []value.Row,
	groupKey func(value.Row) (string, error), algo Algorithm) ([]value.Row, error) {
	return EvaluateGroupedConfig(p, rows, groupKey, algo, Config{})
}

// EvaluateGroupedConfig is EvaluateGrouped with a parallel-evaluation
// Config; each group evaluates with the given settings.
func EvaluateGroupedConfig(p preference.Preference, rows []value.Row,
	groupKey func(value.Row) (string, error), algo Algorithm, cfg Config) ([]value.Row, error) {

	var keys []string
	groups := map[string][]value.Row{}
	for _, r := range rows {
		k, err := groupKey(r)
		if err != nil {
			return nil, err
		}
		if _, ok := groups[k]; !ok {
			keys = append(keys, k)
		}
		groups[k] = append(groups[k], r)
	}
	var out []value.Row
	for _, k := range keys {
		part, _, err := EvaluateConfig(p, groups[k], algo, cfg)
		if err != nil {
			return nil, err
		}
		out = append(out, part...)
	}
	return out, nil
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
