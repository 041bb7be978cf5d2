package preference

import "repro/internal/value"

// Scorer scores one element of a presort key; lower is better. Every
// Scored preference is one, and so is each Position of an EXPLICIT.
type Scorer interface {
	Score(row value.Row) (float64, error)
}

// Key is a preference's presort key: per row the vector (h, e₁, …, e_d),
// ordered lexicographically, where e_j is Comps[j]'s score and the head
// h is the +Inf-saturated sum of the elements, or 0 when the key has
// segments. The key is exact: a row is Better exactly where its key
// dominates, and Equal where it is identical. Dominance implies a
// smaller key, so sorting by it is a topological presort. A Scored
// preference's key is its score, EXPLICIT's its realizer's positions, a
// Pareto's its parts' elements, dominating componentwise (≤ in each, <
// in one) in a flat key, and a CASCADE's its stages', in a Lex segment.
type Key struct {
	Comps []Scorer
	Seg   *Seg // the segment layout of a key holding a CASCADE
}

// Seg is one node of a key's segment layout, over elements [Lo, Hi). A
// Lex node dominates on the first of its Kids, its stages, where the
// keys are not identical. Any other node, a Pareto, dominates where it
// is ≤ on its elements outside its Kids, which are Lex nodes, dominates
// or is identical on each Kid, and is strict somewhere.
type Seg struct {
	Lo, Hi int
	Lex    bool
	Kids   []Seg
}

// Order returns -1 when key vector a dominates b on s, 0 when they are
// identical there, and 1 otherwise.
func (s *Seg) Order(a, b []float64) int {
	o, j := 0, s.Lo
	for k := 0; ; k++ {
		end := s.Hi
		if k < len(s.Kids) {
			end = s.Kids[k].Lo
		}
		for ; j < end; j++ {
			if a[j] > b[j] {
				return 1
			}
			if a[j] < b[j] {
				o = -1
			}
		}
		if k == len(s.Kids) {
			return o
		}
		ko := s.Kids[k].Order(a, b)
		if ko > 0 || s.Lex && ko < 0 {
			return ko
		}
		o, j = min(o, ko), s.Kids[k].Hi
	}
}

// KeyOf returns p's presort key.
func KeyOf(p Preference) Key {
	var k Key
	if s := k.add(p); s.Lex || len(s.Kids) > 0 {
		k.Seg = &s
	}
	return k
}

// add appends p's elements to k and returns p's segment; a Pareto takes
// its nested Paretos' Kids as its own.
func (k *Key) add(p Preference) Seg {
	s := Seg{Lo: len(k.Comps)}
	switch x := p.(type) {
	case *Explicit:
		for _, e := range x.exts {
			k.Comps = append(k.Comps, e)
		}
	case Scorer:
		k.Comps = append(k.Comps, x)
	case *Pareto:
		for _, part := range x.Parts {
			if ps := k.add(part); ps.Lex {
				s.Kids = append(s.Kids, ps)
			} else {
				s.Kids = append(s.Kids, ps.Kids...)
			}
		}
	case *Cascade:
		if len(x.Parts) == 1 {
			return k.add(x.Parts[0])
		}
		s.Lex = true
		for _, stage := range x.Parts {
			s.Kids = append(s.Kids, k.add(stage))
		}
	}
	s.Hi = len(k.Comps)
	return s
}
