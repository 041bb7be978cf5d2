package bmo

import (
	"repro/internal/preference"
	"repro/internal/value"
)

// rowStream streams p over rows the way the exec layer does: the
// prestages run through ReduceStages under algo, and a Stream evaluates
// the last stage over the matrix BuildVecInput fills from its input.
// Rows the prestages left alone (at most one) are returned as they are.
type rowStream struct {
	s    *Stream
	in   VecInput
	rest []value.Row
}

func streamRows(p preference.Preference, rows []value.Row, algo Algorithm, cfg Config) (*rowStream, error) {
	stages := Stages(p)
	last := len(stages) - 1
	rs := &rowStream{}
	rest, err := ReduceStages(len(stages), rows, &Stats{}, cfg, func(k int, rows []value.Row) ([]value.Row, error) {
		if k < last {
			return evaluate(stages[k:k+1], rows, algo, &Stats{}, cfg)
		}
		in, err := BuildVecInput(preference.KeyOf(stages[k]), rows)
		if err != nil {
			return nil, err
		}
		rs.in = in
		rs.s, err = NewStream(in, algo, cfg)
		return nil, err
	})
	if err != nil {
		return nil, err
	}
	if rs.s == nil {
		rs.rest = rest
	}
	return rs, nil
}

// StreamRows is streamRows for the external test package.
var StreamRows = streamRows

// Next returns the next maximal row, or ok=false once the BMO set is
// exhausted.
func (rs *rowStream) Next() (value.Row, bool, error) {
	if rs.s != nil {
		i, ok, err := rs.s.Next()
		if err != nil || !ok {
			return nil, false, err
		}
		return rs.in.Rows[i], true, nil
	}
	if len(rs.rest) == 0 {
		return nil, false, nil
	}
	row := rs.rest[0]
	rs.rest = rs.rest[1:]
	return row, true, nil
}

// rowsAt returns the rows of in at the indices idx.
func rowsAt(in *VecInput, idx []int32) []value.Row {
	out := make([]value.Row, len(idx))
	for k, i := range idx {
		out[k] = in.Rows[i]
	}
	return out
}

// evaluateGrouped applies BMO independently within each group of rows
// with equal keys, the way the exec layer evaluates GROUPING: groups in
// order of first appearance, rows in input order within a group.
func evaluateGrouped(p preference.Preference, rows []value.Row, key func(value.Row) string) ([]value.Row, error) {
	var keys []string
	groups := map[string][]value.Row{}
	for _, r := range rows {
		k := key(r)
		if _, ok := groups[k]; !ok {
			keys = append(keys, k)
		}
		groups[k] = append(groups[k], r)
	}
	var out []value.Row
	for _, k := range keys {
		part, err := Evaluate(p, groups[k], Auto)
		if err != nil {
			return nil, err
		}
		out = append(out, part...)
	}
	return out, nil
}
