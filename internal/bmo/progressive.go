package bmo

import (
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
// Every preference streams. A CASCADE's stages but the last run through
// ReduceStages; only the last streams. The kernel's window admits the
// presorted rows lazily (see vectorized.go): no later row can dominate
// an earlier one, so each admitted row is final, in key order.
// NewParallelStream instead runs the block kernel on partitions up
// front and drains their k-way merge, in the same order. Rows the
// prestages left alone (at most one) are emitted as they are.
type Stream struct {
	cfg  Config
	st   Stats
	mg   *merger
	rest []value.Row // the result when the last stage never ran
}

// NewStreamConfig prepares a progressive evaluation of p over rows. The
// CASCADE prestages run through the Auto path with the given worker
// cap, and every stage polls the cancellation hook. Callers whose
// preferences are not safe for concurrent Compare (getters embedding
// subqueries) must pass Workers: 1 — the core layer's session plumbing
// does.
func NewStreamConfig(p preference.Preference, rows []value.Row, cfg Config) (*Stream, error) {
	return newStream(p, rows, Auto, cfg)
}

// NewParallelStream prepares the progressive partition-merge evaluation
// of p over rows. The CASCADE prestages run through the Parallel path.
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
	if s.mg == nil {
		s.rest = rest
	}
	return s, nil
}

// open prepares the stream of the last stage p over rows.
func (s *Stream) open(p preference.Preference, rows []value.Row, parallel bool) error {
	in, err := BuildVecInput(preference.KeyOf(p), rows)
	if err != nil {
		return err
	}
	var parts [][]int32
	if parallel {
		parts, err = keyPartials(&in, &s.st, &VecStats{}, s.cfg)
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

// Next returns the next maximal tuple, or ok=false once the BMO set is
// exhausted.
func (s *Stream) Next() (value.Row, bool, error) {
	if s.mg != nil {
		return s.mg.Next()
	}
	if len(s.rest) == 0 {
		return nil, false, nil
	}
	row := s.rest[0]
	s.rest = s.rest[1:]
	return row, true, nil
}
