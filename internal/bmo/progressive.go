package bmo

// Stream computes the BMO set incrementally in pull form: each call to Next
// returns one maximal tuple as soon as it is known to be in the result — the
// "progressive skyline" behaviour of [TEO01] that the paper cites as an
// alternative implementation strategy. A first answer can be shown to the
// e-shopper while the scan is still running, and a consumer that stops
// pulling (TOP-k / first result page) saves all remaining dominance work.
//
// Every preference streams. A Stream evaluates one stage over its filled
// key matrix; a CASCADE's caller runs the stages but the last through
// ReduceStages and streams only the last. The window admits the
// presorted rows lazily (see vectorized.go): no later row can dominate
// an earlier one, so each admitted row is final, in key order. Under
// Parallel the block kernel runs on partitions up front instead, and
// the Stream drains their k-way merge, in the same order.
type Stream struct {
	mg *merger
}

// NewStream prepares the progressive evaluation of the filled key
// matrix in; algo Parallel partitions it up front, any other algorithm
// sorts it and admits lazily. Every step polls cfg.Stop.
func NewStream(in VecInput, algo Algorithm, cfg Config) (*Stream, error) {
	var st Stats
	var parts [][]int32
	var err error
	if algo == Parallel {
		parts, err = keyPartials(&in, &st, &VecStats{}, cfg)
	} else {
		order := identity(in.Len())
		parts, err = [][]int32{order}, sortVecOrder(order, &in)
	}
	if err != nil {
		return nil, err
	}
	return &Stream{mg: mergePartials(&in, parts, &st, cfg)}, nil
}

// Next returns the matrix index of the next maximal row, or ok=false
// once the BMO set is exhausted.
func (s *Stream) Next() (int32, bool, error) { return s.mg.next() }
