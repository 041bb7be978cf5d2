package preference

import "repro/internal/value"

// Scorer scores one element of a presort key; lower is better. Every
// Scored preference is one, and so is EXPLICIT, whose score is its level.
type Scorer interface {
	Preference
	Score(row value.Row) (float64, error)
}

// Key is a preference's presort key: per row the vector (h, e₁, …, e_d),
// ordered lexicographically, where e_j is Comps[j]'s score. The head h
// is the +Inf-saturated sum of every element when the key is Monotone
// and 0 otherwise, so a non-monotone key orders by its elements alone.
// Better implies a strictly smaller key and Equal an identical one, so
// sorting by the key is a topological presort: no row is dominated by a
// row that sorts after it.
//
//   - A Scored preference's key is its score, EXPLICIT's its level.
//   - A Pareto's elements are its parts' elements in order. A part
//     Better or Equal has a key ≤ lexicographically, an Equal one an
//     identical key, so the first part whose key differs is a Better
//     one and the Pareto's key is smaller too. For Scored parts the key
//     is (sum, score vector).
//   - A CASCADE's elements are its stages' elements in order, which is
//     its lexicographic order.
type Key struct {
	Pref  Preference
	Comps []Scorer
	// Monotone reports that Better implies a componentwise ≤ key with one
	// strict <: a row whose key does not dominate so cannot be Better.
	// A nested CASCADE, lexicographic, is not.
	Monotone bool
	// Exact reports that the key dominates exactly where Better holds:
	// Monotone, and every EXPLICIT in it a Chain.
	Exact bool
}

// KeyOf returns p's presort key.
func KeyOf(p Preference) Key {
	k := Key{Pref: p, Monotone: true, Exact: true}
	switch x := p.(type) {
	case *Explicit:
		k.Comps, k.Exact = []Scorer{x}, x.Chain()
	case Scorer:
		k.Comps = []Scorer{x}
	case *Pareto:
		for _, part := range x.Parts {
			pk := KeyOf(part)
			k.Comps = append(k.Comps, pk.Comps...)
			k.Monotone = k.Monotone && pk.Monotone
			k.Exact = k.Exact && pk.Exact
		}
	case *Cascade:
		if len(x.Parts) == 1 {
			k = KeyOf(x.Parts[0])
			k.Pref = p
			return k
		}
		k.Monotone, k.Exact = false, false
		for _, stage := range x.Parts {
			k.Comps = append(k.Comps, KeyOf(stage).Comps...)
		}
	}
	return k
}
