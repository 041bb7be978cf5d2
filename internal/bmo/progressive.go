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
// It is the score kernel's window applied lazily to the presorted order
// (see vectorized.go): no later tuple can dominate an earlier one, so
// every admitted tuple is final and can be emitted immediately. It
// requires a score-based preference (a single weak order or a Pareto
// accumulation of weak orders).
//
// CASCADE is supported by evaluating all stages but the last eagerly and
// streaming only the final stage.
type Stream struct {
	mg *merger
}

// Streamable reports whether p can be evaluated progressively: a score-based
// preference, or a CASCADE whose last stage is.
func Streamable(p preference.Preference) bool {
	if c, ok := p.(*preference.Cascade); ok {
		if len(c.Parts) == 0 {
			return false
		}
		return Streamable(c.Parts[len(c.Parts)-1])
	}
	_, ok := ScoreBased(p)
	return ok
}

// NewStream prepares a progressive evaluation of p over rows. It returns an
// error when the preference is not score-based (EXPLICIT and nested
// non-score terms require batch evaluation). CASCADE prestages evaluate
// on the calling goroutine; use NewStreamConfig to let them go parallel
// under a caller-controlled worker cap.
func NewStream(p preference.Preference, rows []value.Row) (*Stream, error) {
	return NewStreamConfig(p, rows, Config{Workers: 1})
}

// NewStreamConfig is NewStream with a parallel-evaluation Config: the
// eager CASCADE prestages run through the Auto path with the given
// worker cap, and every stage polls the cancellation hook. Callers whose
// preferences are not safe for concurrent Compare (getters embedding
// subqueries) must pass Workers: 1 — the core layer's session plumbing
// does.
func NewStreamConfig(p preference.Preference, rows []value.Row, cfg Config) (*Stream, error) {
	if c, ok := p.(*preference.Cascade); ok && len(c.Parts) > 0 {
		current := rows
		for _, part := range c.Parts[:len(c.Parts)-1] {
			next, _, err := EvaluateConfig(part, current, Auto, cfg)
			if err != nil {
				return nil, err
			}
			current = next
		}
		return NewStreamConfig(c.Parts[len(c.Parts)-1], current, cfg)
	}

	scorers, ok := ScoreBased(p)
	if !ok {
		return nil, fmt.Errorf("bmo: progressive evaluation requires score-based preferences, got %s", p.Describe())
	}
	in, err := BuildVecInput(scorers, rows)
	if err != nil {
		return nil, err
	}
	order := make([]int32, len(rows))
	for i := range order {
		order[i] = int32(i)
	}
	if err := sortVecOrder(order, &in); err != nil {
		return nil, err
	}
	return &Stream{mg: mergePartials(&in, [][]int32{order}, &Stats{}, cfg)}, nil
}

// Next returns the next maximal tuple, or ok=false once the BMO set is
// exhausted.
func (s *Stream) Next() (value.Row, bool, error) { return s.mg.Next() }

// EvaluateProgressive computes the BMO set incrementally, calling yield for
// each maximal tuple as soon as it is known to be in the result. yield
// returning false stops the evaluation early — the "first page of results"
// use case. It is the push-style convenience wrapper over Stream.
func EvaluateProgressive(p preference.Preference, rows []value.Row, yield func(value.Row) bool) error {
	s, err := NewStream(p, rows)
	if err != nil {
		return err
	}
	for {
		row, ok, err := s.Next()
		if err != nil || !ok {
			return err
		}
		if !yield(row) {
			return nil
		}
	}
}
