package bmo

import (
	"fmt"

	"repro/internal/preference"
	"repro/internal/value"
)

// Stream computes the BMO set incrementally in pull form: each call to Next
// returns one maximal tuple as soon as it is known to be in the result — the
// "progressive skyline" behaviour of [TEO01] that the paper cites as an
// alternative implementation strategy. A first answer can be shown to the
// e-shopper while the scan is still running, and a consumer that stops
// pulling (TOP-k / first result page) saves all remaining dominance work.
//
// A CASCADE's stages but the last run through ReduceStages; only the last
// streams. In the score family the kernel's window admits the presorted
// rows lazily (see vectorized.go): no later row can dominate an earlier
// one, so each admitted row is final, best score first. NewParallelStream
// instead runs the block kernel on partitions up front and drains their
// k-way merge, in the same order; for the Compare family it computes the
// partitions' BNL skylines up front and emits each candidate, partition
// by partition, once no other partition's partial dominates it. Rows the
// prestages left alone (at most one) form one partition, emitted as is.
type Stream struct {
	cfg Config
	st  Stats
	mg  *merger // score family

	// Compare family, or the rows the prestages left alone.
	pref  preference.Preference // the last stage; nil when it never ran
	parts [][]value.Row
	ticks int // Stop-poll counter, persists across Next calls
	pi    int // current partition
	ri    int // next row within the partition
}

// Streamable reports whether p can be evaluated progressively by
// NewStreamConfig: a score-based preference, or a CASCADE whose last
// stage is.
func Streamable(p preference.Preference) bool {
	stages := Stages(p)
	if len(stages) == 0 {
		return false
	}
	_, ok := ScoreBased(stages[len(stages)-1])
	return ok
}

// NewStreamConfig prepares a progressive evaluation of p over rows. It
// returns an error when p is not Streamable (EXPLICIT and nested
// non-score terms require batch evaluation). The CASCADE prestages run
// through the Auto path with the given worker cap, and every stage polls
// the cancellation hook. Callers whose preferences are not safe for
// concurrent Compare (getters embedding subqueries) must pass Workers: 1
// — the core layer's session plumbing does.
func NewStreamConfig(p preference.Preference, rows []value.Row, cfg Config) (*Stream, error) {
	if !Streamable(p) {
		return nil, fmt.Errorf("bmo: progressive evaluation requires score-based preferences, got %s", p.Describe())
	}
	return newStream(p, rows, Auto, cfg)
}

// NewParallelStream prepares the progressive partition-merge evaluation
// of p over rows, for any preference. The CASCADE prestages run through
// the Parallel path.
func NewParallelStream(p preference.Preference, rows []value.Row, cfg Config) (*Stream, error) {
	return newStream(p, rows, Parallel, cfg)
}

// newStream runs p's prestages with algo and opens the last stage's
// stream; algo Parallel partitions it.
func newStream(p preference.Preference, rows []value.Row, algo Algorithm, cfg Config) (*Stream, error) {
	stages := Stages(p)
	s := &Stream{cfg: cfg}
	last := len(stages) - 1
	rest, err := ReduceStages(len(stages), rows, &s.st, cfg, func(k int, rows []value.Row) ([]value.Row, error) {
		if k < last {
			return evaluateStage(stages[k], rows, algo, &s.st, cfg)
		}
		return nil, s.open(stages[k], rows, algo == Parallel)
	})
	if err != nil {
		return nil, err
	}
	if s.pref == nil {
		// The prestages left at most one row, which is the result.
		s.parts = [][]value.Row{rest}
	}
	return s, nil
}

// open prepares the stream of the last stage p over rows.
func (s *Stream) open(p preference.Preference, rows []value.Row, parallel bool) error {
	s.pref = p
	if scorers, ok := ScoreBased(p); ok {
		in, err := BuildVecInput(scorers, rows)
		if err != nil {
			return err
		}
		var parts [][]int32
		if parallel {
			parts, err = scorePartials(&in, &s.st, &VecStats{}, s.cfg)
		} else {
			order := make([]int32, len(rows))
			for i := range order {
				order[i] = int32(i)
			}
			parts, err = [][]int32{order}, sortVecOrder(order, &in)
		}
		if err != nil {
			return err
		}
		s.mg = mergePartials(&in, parts, &s.st, s.cfg)
		return nil
	}
	parts, err := comparePartials(p, rows, &s.st, s.cfg)
	s.parts = parts
	return err
}

// Next returns the next maximal tuple, or ok=false once the BMO set is
// exhausted.
func (s *Stream) Next() (value.Row, bool, error) {
	if s.mg != nil {
		return s.mg.Next()
	}
	for s.pi < len(s.parts) {
		part := s.parts[s.pi]
		for s.ri < len(part) {
			cand := part[s.ri]
			s.ri++
			dominated := false
			for oi, other := range s.parts {
				if oi == s.pi {
					continue // locally maximal by construction
				}
				dom, err := dominatedBy(s.pref, cand, other, &s.st, s.cfg, &s.ticks)
				if err != nil {
					return nil, false, err
				}
				if dom {
					dominated = true
					break
				}
			}
			if !dominated {
				return cand, true, nil
			}
		}
		s.pi++
		s.ri = 0
	}
	return nil, false, nil
}
