// Package preference implements the paper's preference model (§2): a
// preference P = (A, <_P) is a strict partial order over tuples, built
// inductively from base preference types (AROUND, BETWEEN, LOWEST, HIGHEST,
// POS, NEG, CONTAINS, EXPLICIT, soft boolean conditions and ELSE-layering)
// with the constructors Pareto accumulation (equal importance, `AND`) and
// cascade (ordered importance, `CASCADE`).
//
// Base preferences other than EXPLICIT are weak orders represented by a
// score function (lower is better); EXPLICIT is a genuine partial order
// given by the transitive closure of its better-than graph. Pareto
// accumulation introduces incomparability between tuples; that is what
// makes the Best-Matches-Only result a Pareto-optimal (skyline) set.
package preference

import (
	"fmt"
	"math"
	"slices"
	"strings"

	"repro/internal/value"
)

// Ordering is the outcome of comparing two tuples under a preference.
type Ordering int8

// Ordering values. Better means the first tuple is preferred.
const (
	Equal Ordering = iota
	Better
	Worse
	Incomparable
)

// String returns a readable name.
func (o Ordering) String() string {
	switch o {
	case Equal:
		return "equal"
	case Better:
		return "better"
	case Worse:
		return "worse"
	case Incomparable:
		return "incomparable"
	}
	return fmt.Sprintf("Ordering(%d)", int8(o))
}

// Flip reverses the direction of an ordering.
func (o Ordering) Flip() Ordering {
	switch o {
	case Better:
		return Worse
	case Worse:
		return Better
	}
	return o
}

// Getter extracts one attribute (or expression) value from a tuple.
type Getter func(value.Row) (value.Value, error)

// Preference is a strict partial order over tuples. Compare(a, b) reports
// whether a is better than, worse than, equal to, or incomparable with b.
type Preference interface {
	Compare(a, b value.Row) (Ordering, error)
	// Describe returns a short human-readable form for diagnostics.
	Describe() string
}

// Scored is a base preference that is a weak order: tuples are ranked by a
// numeric score where lower is better. All built-in base types except
// EXPLICIT are Scored; the SQL rewriter and the quality functions
// (TOP/LEVEL/DISTANCE) rely on scores.
type Scored interface {
	Preference
	// Score returns the tuple's quality; lower is better. NULL attribute
	// values score worst (+Inf).
	Score(row value.Row) (float64, error)
	// Discrete reports whether scores are small integers (levels) rather
	// than continuous distances.
	Discrete() bool
	// HasOptimum reports whether score 0 is the a-priori perfect match
	// (true for AROUND/BETWEEN/POS/...; false for LOWEST/HIGHEST where the
	// optimum depends on the candidate set).
	HasOptimum() bool
	// Attr returns the attribute label used by quality functions.
	Attr() string
}

// Attributed is the provenance side of a preference: it reports which
// relation attributes the preference reads. Every constructor in this
// package implements it; the planner's preference-algebra rewriter uses
// the labels to decide whether a BMO operator may move below a join
// (all attributes on one join input) or must stay above it.
//
// A label is either a column reference in `name` / `qualifier.name`
// form (what the compiler records for column-backed preferences) or an
// arbitrary expression string that deliberately resolves to no schema
// column — the conservative "provenance unknown" signal that refuses
// any pushdown.
type Attributed interface {
	// Attributes returns the attribute labels the preference reads, in
	// no particular order. It never returns an empty slice: a
	// preference with unknown provenance reports its Describe()/Label
	// text, which no schema resolves.
	Attributes() []string
}

// AttributesOf collects the attribute labels of an arbitrary preference
// tree (descending through Pareto and Cascade constructors). ok is
// false when some node does not expose provenance — the caller must
// then treat the whole preference as unsplittable.
func AttributesOf(p Preference) (attrs []string, ok bool) {
	switch x := p.(type) {
	case *Pareto:
		return attrsOfParts(x.Parts)
	case *Cascade:
		return attrsOfParts(x.Parts)
	case Attributed:
		return x.Attributes(), true
	}
	return nil, false
}

func attrsOfParts(parts []Preference) ([]string, bool) {
	var out []string
	for _, part := range parts {
		a, ok := AttributesOf(part)
		if !ok {
			return nil, false
		}
		out = append(out, a...)
	}
	return out, true
}

// attrsOr is the Attributes() body of the column-backed constructors:
// attrs, their Attrs field, is the compiler-recorded provenance, the
// column references the preference reads. It is empty for direct
// constructions, which conventionally label a preference with the one
// attribute it reads, so Label stands in.
func attrsOr(attrs []string, label string) []string {
	if len(attrs) > 0 {
		return attrs
	}
	return []string{label}
}

// SplitParts partitions a constructor's sub-preferences by the join
// input their attributes come from: classify maps an attribute label to
// a side (conventionally 0 = left, 1 = right) or reports that it
// resolves to neither. A part whose attributes all land on one side
// joins that side's list; parts spanning both sides, reading no
// classifiable attribute, or lacking provenance land in mixed — the
// rewriter must keep them (and, for Pareto, the whole residual
// preference) above the join.
func SplitParts(parts []Preference, classify func(attr string) (int, bool)) (sides [2][]Preference, mixed []Preference) {
	for _, part := range parts {
		side, ok := partSide(part, classify)
		if !ok {
			mixed = append(mixed, part)
			continue
		}
		sides[side] = append(sides[side], part)
	}
	return sides, mixed
}

// partSide resolves the single side all of a part's attributes belong
// to; ok is false for unknown provenance or attributes spanning sides.
func partSide(p Preference, classify func(attr string) (int, bool)) (int, bool) {
	attrs, ok := AttributesOf(p)
	if !ok || len(attrs) == 0 {
		return 0, false
	}
	side := -1
	for _, a := range attrs {
		s, ok := classify(a)
		if !ok {
			return 0, false
		}
		if side >= 0 && s != side {
			return 0, false
		}
		side = s
	}
	return side, true
}

// Split partitions the Pareto accumulation's components by join side;
// see SplitParts. The paper's law L7 (splitting a Pareto preference
// over a join) is sound only when mixed is empty.
func (p *Pareto) Split(classify func(attr string) (int, bool)) (sides [2][]Preference, mixed []Preference) {
	return SplitParts(p.Parts, classify)
}

// compareScores orders two scores as preference outcomes.
func compareScores(a, b float64) Ordering {
	switch {
	case a < b:
		return Better
	case a > b:
		return Worse
	default:
		return Equal
	}
}

// scoreOrInf returns +Inf and ok=false for NULL, the worst score, and
// the value's number otherwise. A non-numeric value's number is NaN, on
// which LOWEST, HIGHEST, AROUND and BETWEEN fail ("LOWEST: non-numeric
// value m for s").
func scoreOrInf(v value.Value) (float64, bool) {
	if v.IsNull() {
		return math.Inf(1), false
	}
	return v.Num(), true
}

// ---------------------------------------------------------------------------
// Base preference types (§2.2.1)
// ---------------------------------------------------------------------------

// Slot records the column a base preference's operand is, in the
// relation the preference was compiled against, when the operand is a
// bare column reference that resolves there uniquely: a vectorized BMO
// then reads the preference's scores from that column's vector. The
// zero Slot names no column — a computed operand, or a preference
// constructed directly.
type Slot struct{ col int } // the column + 1

// ColumnSlot returns the Slot naming column col.
func ColumnSlot(col int) Slot { return Slot{col + 1} }

// Column returns the column s names; ok=false when it names none.
func (s Slot) Column() (col int, ok bool) { return s.col - 1, s.col > 0 }

// Around prefers values close to Target ("duration AROUND 14").
type Around struct {
	Get    Getter
	Target float64
	Label  string
	Attrs  []string // the compiler-recorded provenance (see attrsOr)
	Slot
}

// Score is |v - target|, and 0 when v equals the target: the same
// infinity on both sides would otherwise give Inf - Inf, which is NaN.
func (p *Around) Score(row value.Row) (float64, error) {
	v, err := p.Get(row)
	if err != nil {
		return 0, err
	}
	n, ok := scoreOrInf(v)
	if !ok {
		return n, nil
	}
	if math.IsNaN(n) {
		return 0, fmt.Errorf("AROUND: non-numeric value %v for %s", v, p.Label)
	}
	return AroundDistance(n, p.Target), nil
}

// AroundDistance is AROUND's score of n for target t, for numbers that
// are not NaN: |n - t|, and 0 when n equals t.
func AroundDistance(n, t float64) float64 {
	if n == t {
		return 0
	}
	return math.Abs(n - t)
}

// Compare implements Preference.
func (p *Around) Compare(a, b value.Row) (Ordering, error) { return scoredCompare(p, a, b) }

// Discrete implements Scored.
func (p *Around) Discrete() bool { return false }

// HasOptimum implements Scored.
func (p *Around) HasOptimum() bool { return true }

// Attr implements Scored.
func (p *Around) Attr() string { return p.Label }

// Attributes implements Attributed.
func (p *Around) Attributes() []string { return attrsOr(p.Attrs, p.Label) }

// Describe implements Preference.
func (p *Around) Describe() string { return fmt.Sprintf("%s AROUND %g", p.Label, p.Target) }

// Between prefers values inside [Lo, Hi]; outside, closer to the nearest
// boundary is better.
type Between struct {
	Get    Getter
	Lo, Hi float64
	Label  string
	Attrs  []string // the compiler-recorded provenance (see attrsOr)
	Slot
}

// Score is 0 inside the interval, distance to the nearest bound outside.
func (p *Between) Score(row value.Row) (float64, error) {
	v, err := p.Get(row)
	if err != nil {
		return 0, err
	}
	n, ok := scoreOrInf(v)
	if !ok {
		return n, nil
	}
	if math.IsNaN(n) {
		return 0, fmt.Errorf("BETWEEN: non-numeric value %v for %s", v, p.Label)
	}
	switch {
	case n < p.Lo:
		return p.Lo - n, nil
	case n > p.Hi:
		return n - p.Hi, nil
	default:
		return 0, nil
	}
}

// Compare implements Preference.
func (p *Between) Compare(a, b value.Row) (Ordering, error) { return scoredCompare(p, a, b) }

// Discrete implements Scored.
func (p *Between) Discrete() bool { return false }

// HasOptimum implements Scored.
func (p *Between) HasOptimum() bool { return true }

// Attr implements Scored.
func (p *Between) Attr() string { return p.Label }

// Attributes implements Attributed.
func (p *Between) Attributes() []string { return attrsOr(p.Attrs, p.Label) }

// Describe implements Preference.
func (p *Between) Describe() string {
	return fmt.Sprintf("%s BETWEEN [%g, %g]", p.Label, p.Lo, p.Hi)
}

// Lowest prefers minimal values; Highest prefers maximal values.
type Lowest struct {
	Get   Getter
	Label string
	Attrs []string // the compiler-recorded provenance (see attrsOr)
	Slot
}

// Score is the value itself.
func (p *Lowest) Score(row value.Row) (float64, error) {
	v, err := p.Get(row)
	if err != nil {
		return 0, err
	}
	n, ok := scoreOrInf(v)
	if !ok {
		return n, nil
	}
	if math.IsNaN(n) {
		return 0, fmt.Errorf("LOWEST: non-numeric value %v for %s", v, p.Label)
	}
	return n, nil
}

// Compare implements Preference.
func (p *Lowest) Compare(a, b value.Row) (Ordering, error) { return scoredCompare(p, a, b) }

// Discrete implements Scored.
func (p *Lowest) Discrete() bool { return false }

// HasOptimum implements Scored.
func (p *Lowest) HasOptimum() bool { return false }

// Attr implements Scored.
func (p *Lowest) Attr() string { return p.Label }

// Attributes implements Attributed.
func (p *Lowest) Attributes() []string { return attrsOr(p.Attrs, p.Label) }

// Describe implements Preference.
func (p *Lowest) Describe() string { return "LOWEST(" + p.Label + ")" }

// Highest prefers maximal values of the attribute.
type Highest struct {
	Get   Getter
	Label string
	Attrs []string // the compiler-recorded provenance (see attrsOr)
	Slot
}

// Score is the negated value.
func (p *Highest) Score(row value.Row) (float64, error) {
	v, err := p.Get(row)
	if err != nil {
		return 0, err
	}
	n, ok := scoreOrInf(v)
	if !ok {
		return n, nil
	}
	if math.IsNaN(n) {
		return 0, fmt.Errorf("HIGHEST: non-numeric value %v for %s", v, p.Label)
	}
	return -n, nil
}

// Compare implements Preference.
func (p *Highest) Compare(a, b value.Row) (Ordering, error) { return scoredCompare(p, a, b) }

// Discrete implements Scored.
func (p *Highest) Discrete() bool { return false }

// HasOptimum implements Scored.
func (p *Highest) HasOptimum() bool { return false }

// Attr implements Scored.
func (p *Highest) Attr() string { return p.Label }

// Attributes implements Attributed.
func (p *Highest) Attributes() []string { return attrsOr(p.Attrs, p.Label) }

// Describe implements Preference.
func (p *Highest) Describe() string { return "HIGHEST(" + p.Label + ")" }

// Pos prefers values from a favourite set ("exp IN ('java','C++')").
type Pos struct {
	Get   Getter
	Set   map[string]bool // keys via value.Value.Key
	Label string
	Attrs []string      // the compiler-recorded provenance (see attrsOr)
	Vals  []value.Value // original values, for diagnostics and rewriting
	Slot
}

// NewSet builds the lookup set for POS/NEG preferences.
func NewSet(vals []value.Value) map[string]bool {
	m := make(map[string]bool, len(vals))
	for _, v := range vals {
		m[v.Key()] = true
	}
	return m
}

// Score is 0 for favourites, 1 otherwise.
func (p *Pos) Score(row value.Row) (float64, error) {
	v, err := p.Get(row)
	if err != nil {
		return 0, err
	}
	if v.IsNull() {
		return math.Inf(1), nil
	}
	if p.Set[v.Key()] {
		return 0, nil
	}
	return 1, nil
}

// Compare implements Preference.
func (p *Pos) Compare(a, b value.Row) (Ordering, error) { return scoredCompare(p, a, b) }

// Discrete implements Scored.
func (p *Pos) Discrete() bool { return true }

// HasOptimum implements Scored.
func (p *Pos) HasOptimum() bool { return true }

// Attr implements Scored.
func (p *Pos) Attr() string { return p.Label }

// Attributes implements Attributed.
func (p *Pos) Attributes() []string { return attrsOr(p.Attrs, p.Label) }

// Describe implements Preference.
func (p *Pos) Describe() string { return fmt.Sprintf("POS(%s, %v)", p.Label, p.Vals) }

// Neg dis-prefers values from a set ("location <> 'downtown'").
type Neg struct {
	Get   Getter
	Set   map[string]bool
	Label string
	Attrs []string // the compiler-recorded provenance (see attrsOr)
	Vals  []value.Value
	Slot
}

// Score is 1 for disliked values, 0 otherwise.
func (p *Neg) Score(row value.Row) (float64, error) {
	v, err := p.Get(row)
	if err != nil {
		return 0, err
	}
	if v.IsNull() {
		return math.Inf(1), nil
	}
	if p.Set[v.Key()] {
		return 1, nil
	}
	return 0, nil
}

// Compare implements Preference.
func (p *Neg) Compare(a, b value.Row) (Ordering, error) { return scoredCompare(p, a, b) }

// Discrete implements Scored.
func (p *Neg) Discrete() bool { return true }

// HasOptimum implements Scored.
func (p *Neg) HasOptimum() bool { return true }

// Attr implements Scored.
func (p *Neg) Attr() string { return p.Label }

// Attributes implements Attributed.
func (p *Neg) Attributes() []string { return attrsOr(p.Attrs, p.Label) }

// Describe implements Preference.
func (p *Neg) Describe() string { return fmt.Sprintf("NEG(%s, %v)", p.Label, p.Vals) }

// Bool treats an arbitrary condition as a soft constraint: satisfied is
// better than not satisfied.
type Bool struct {
	Cond  func(value.Row) (bool, error)
	Label string
	Attrs []string // the compiler-recorded provenance (see attrsOr)
	// Cmp is the condition as `col op bound`, when it has that shape;
	// nil otherwise, and for direct constructions.
	Cmp *Comparison
}

// Score is 0 when the condition holds, 1 otherwise.
func (p *Bool) Score(row value.Row) (float64, error) {
	ok, err := p.Cond(row)
	if err != nil {
		return 0, err
	}
	if ok {
		return 0, nil
	}
	return 1, nil
}

// Compare implements Preference.
func (p *Bool) Compare(a, b value.Row) (Ordering, error) { return scoredCompare(p, a, b) }

// Discrete implements Scored.
func (p *Bool) Discrete() bool { return true }

// HasOptimum implements Scored.
func (p *Bool) HasOptimum() bool { return true }

// Attr implements Scored.
func (p *Bool) Attr() string { return p.Label }

// Attributes implements Attributed.
func (p *Bool) Attributes() []string { return attrsOr(p.Attrs, p.Label) }

// Describe implements Preference.
func (p *Bool) Describe() string { return "REGULAR(" + p.Label + ")" }

// Contains prefers text containing more of the given terms (simple
// full-text preference, cf. [LeK99]). Matching is case-insensitive.
type Contains struct {
	Get   Getter
	Terms []string
	Label string
	Attrs []string // the compiler-recorded provenance (see attrsOr)
}

// Score counts the missing terms: 0 means all terms present.
func (p *Contains) Score(row value.Row) (float64, error) {
	v, err := p.Get(row)
	if err != nil {
		return 0, err
	}
	if v.IsNull() {
		return math.Inf(1), nil
	}
	text := strings.ToLower(v.String())
	missing := 0
	for _, term := range p.Terms {
		if !strings.Contains(text, strings.ToLower(term)) {
			missing++
		}
	}
	return float64(missing), nil
}

// Compare implements Preference.
func (p *Contains) Compare(a, b value.Row) (Ordering, error) { return scoredCompare(p, a, b) }

// Discrete implements Scored.
func (p *Contains) Discrete() bool { return true }

// HasOptimum implements Scored.
func (p *Contains) HasOptimum() bool { return true }

// Attr implements Scored.
func (p *Contains) Attr() string { return p.Label }

// Attributes implements Attributed.
func (p *Contains) Attributes() []string { return attrsOr(p.Attrs, p.Label) }

// Describe implements Preference.
func (p *Contains) Describe() string {
	return fmt.Sprintf("%s CONTAINS %v", p.Label, p.Terms)
}

// Layered is the ELSE constructor (§2.2.1 POS/POS, POS/NEG, ...): the first
// layer whose perfect-match condition holds determines the tuple's level;
// tuples perfect in no layer share the bottom level len(Layers).
//
// Every layer must have an a-priori optimum (HasOptimum); LOWEST/HIGHEST
// cannot be layered because "perfect" is undefined for them.
type Layered struct {
	Layers []Scored
	Label  string
	Attrs  []string // the compiler-recorded provenance (see attrsOr)
}

// Score is the index of the first perfectly matched layer.
func (p *Layered) Score(row value.Row) (float64, error) {
	for i, layer := range p.Layers {
		s, err := layer.Score(row)
		if err != nil {
			return 0, err
		}
		if s == 0 {
			return float64(i), nil
		}
	}
	return float64(len(p.Layers)), nil
}

// Compare implements Preference.
func (p *Layered) Compare(a, b value.Row) (Ordering, error) { return scoredCompare(p, a, b) }

// Discrete implements Scored.
func (p *Layered) Discrete() bool { return true }

// HasOptimum implements Scored.
func (p *Layered) HasOptimum() bool { return true }

// Attr implements Scored.
func (p *Layered) Attr() string { return p.Label }

// Attributes implements Attributed.
func (p *Layered) Attributes() []string { return attrsOr(p.Attrs, p.Label) }

// Describe implements Preference.
func (p *Layered) Describe() string {
	parts := make([]string, len(p.Layers))
	for i, l := range p.Layers {
		parts[i] = l.Describe()
	}
	return strings.Join(parts, " ELSE ")
}

func scoredCompare(p Scored, a, b value.Row) (Ordering, error) {
	sa, err := p.Score(a)
	if err != nil {
		return Incomparable, err
	}
	sb, err := p.Score(b)
	if err != nil {
		return Incomparable, err
	}
	return compareScores(sa, sb), nil
}

// ---------------------------------------------------------------------------
// EXPLICIT: finite better-than graph (§2.2.1)
// ---------------------------------------------------------------------------

// Explicit is the EXPLICIT base preference: a strict partial order over
// attribute values given as the transitive closure of better-than edges.
// Values not mentioned in the graph form a bottom layer: every mentioned
// value is better than every unmentioned one, and unmentioned values are
// substitutable (Equal) among themselves.
//
// Its presort key is a realizer (Dushnik, Miller, "Partially Ordered
// Sets", 1941), linear extensions whose intersection is the order: one
// Position per extension, bottom for an unmentioned value. Mentioned
// values differ in every extension, so Better is a componentwise smaller
// key and Equal an identical one. A chain has one extension, its levels.
type Explicit struct {
	Get   Getter
	Label string
	Attrs []string      // the compiler-recorded provenance (see attrsOr)
	Vals  []value.Value // the mentioned values, once each, in order of first appearance
	Slot

	index  map[string]int // a mentioned value's Key -> its index in Vals
	less   [][]bool       // less[i][j]: Vals[i] is better than Vals[j] (transitive)
	depth  []int          // longest path from a top value, for LEVEL
	maxDep int
	exts   []*Position // the realizer, one extension each
}

// NewExplicit builds the preference from better/worse value pairs. It
// rejects graphs with cycles (which would violate irreflexivity).
func NewExplicit(get Getter, label string, edges [][2]value.Value) (*Explicit, error) {
	p := &Explicit{Get: get, Label: label, index: map[string]int{}}
	ids := make([][2]int, len(edges))
	for k, e := range edges {
		for s, v := range e {
			i, ok := p.index[v.Key()]
			if !ok {
				i = len(p.Vals)
				p.index[v.Key()], p.Vals = i, append(p.Vals, v)
			}
			ids[k][s] = i
		}
	}
	n := len(p.Vals)
	p.less, p.depth = make([][]bool, n), make([]int, n)
	for i := range n {
		p.less[i] = make([]bool, n)
	}
	for _, e := range ids {
		p.less[e[0]][e[1]] = true
	}
	// Transitive closure (Warshall); a cycle puts a value below itself.
	for k := range n {
		for i := range n {
			if p.less[i][k] {
				for j := range n {
					p.less[i][j] = p.less[i][j] || p.less[k][j]
				}
			}
		}
	}
	for i := range n {
		if p.less[i][i] {
			return nil, fmt.Errorf("EXPLICIT preference on %s has a cycle involving %s", label, p.Vals[i].Key())
		}
	}
	// Depth by repeated relaxation over the edges (graphs are tiny).
	for changed := true; changed; {
		changed = false
		for _, e := range ids {
			if d := p.depth[e[0]] + 1; d > p.depth[e[1]] {
				p.depth[e[1]], p.maxDep, changed = d, max(p.maxDep, d), true
			}
		}
	}
	p.realize()
	return p, nil
}

// realize computes the realizer greedily over Vals in order, so a graph
// always gets the same one. Each extension extends the order by "i
// before j" and closes it, first for every pair no earlier extension
// orders so, then for every pair still unordered, so a value's position
// is 1 + its betters. Each realizes a pair the earlier ones miss, so
// the loop ends.
func (p *Explicit) realize() {
	n := len(p.Vals)
	for {
		rel, fresh := make([][]bool, n), false
		for i := range n {
			rel[i] = slices.Clone(p.less[i])
		}
		for pass := range 2 {
			for i := range n {
				for j := range n {
					if i == j || rel[i][j] || rel[j][i] || pass == 0 && slices.ContainsFunc(p.exts, func(e *Position) bool { return e.pos[i] < e.pos[j] }) {
						continue
					}
					fresh = fresh || pass == 0
					for a := range n {
						if a == i || rel[a][i] {
							for b := range n {
								rel[a][b] = rel[a][b] || b == j || rel[j][b]
							}
						}
					}
				}
			}
		}
		if !fresh && len(p.exts) > 0 {
			return
		}
		pos := make([]int, n)
		for i := range n {
			for a := range n {
				if a == i || rel[a][i] {
					pos[i]++
				}
			}
		}
		p.exts = append(p.exts, &Position{p, pos})
	}
}

// Compare implements Preference using the closure.
func (p *Explicit) Compare(a, b value.Row) (Ordering, error) {
	va, err := p.Get(a)
	if err != nil {
		return Incomparable, err
	}
	vb, err := p.Get(b)
	if err != nil {
		return Incomparable, err
	}
	ka, kb := va.Key(), vb.Key()
	if ka == kb {
		return Equal, nil
	}
	ia, aMentioned := p.index[ka]
	ib, bMentioned := p.index[kb]
	switch {
	case aMentioned && bMentioned && p.less[ia][ib], aMentioned && !bMentioned:
		return Better, nil
	case aMentioned && bMentioned && p.less[ib][ia], bMentioned && !aMentioned:
		return Worse, nil
	case aMentioned && bMentioned:
		return Incomparable, nil
	}
	return Equal, nil // both unmentioned: substitutable
}

// Level reports the 1-based quality level of a tuple's value: depth+1
// for a value the graph mentions, NULL too when an edge names it, and
// the bottom level maxDepth+2 for any other.
func (p *Explicit) Level(row value.Row) (int, error) {
	v, err := p.Get(row)
	if err != nil {
		return 0, err
	}
	if i, ok := p.index[v.Key()]; ok {
		return p.depth[i] + 1, nil
	}
	return p.maxDep + 2, nil
}

// Position is one element of an EXPLICIT's presort key: a value's
// 1-based position in one extension of the realizer.
type Position struct {
	*Explicit
	pos []int // pos[i] is Vals[i]'s position
}

// Of returns v's position: the bottom one, len(Vals)+1, for a value the
// graph does not mention.
func (p *Position) Of(v value.Value) float64 {
	if i, ok := p.index[v.Key()]; ok {
		return float64(p.pos[i])
	}
	return float64(len(p.Vals) + 1)
}

// Score implements Scorer.
func (p *Position) Score(row value.Row) (float64, error) {
	v, err := p.Get(row)
	if err != nil {
		return 0, err
	}
	return p.Of(v), nil
}

// Attr returns the attribute label.
func (p *Explicit) Attr() string { return p.Label }

// Attributes implements Attributed.
func (p *Explicit) Attributes() []string { return attrsOr(p.Attrs, p.Label) }

// Describe implements Preference.
func (p *Explicit) Describe() string { return "EXPLICIT(" + p.Label + ")" }

// ---------------------------------------------------------------------------
// Constructors (§2.2.2)
// ---------------------------------------------------------------------------

// Pareto is Pareto accumulation of equally important preferences: a tuple
// dominates another iff it is equal-or-better in every component and
// strictly better in at least one.
type Pareto struct {
	Parts []Preference
}

// Compare implements Preference (product order).
func (p *Pareto) Compare(a, b value.Row) (Ordering, error) {
	sawBetter, sawWorse := false, false
	for _, part := range p.Parts {
		o, err := part.Compare(a, b)
		if err != nil {
			return Incomparable, err
		}
		switch o {
		case Incomparable:
			return Incomparable, nil
		case Better:
			sawBetter = true
		case Worse:
			sawWorse = true
		}
		if sawBetter && sawWorse {
			return Incomparable, nil
		}
	}
	switch {
	case sawBetter:
		return Better, nil
	case sawWorse:
		return Worse, nil
	default:
		return Equal, nil
	}
}

// Describe implements Preference.
func (p *Pareto) Describe() string {
	parts := make([]string, len(p.Parts))
	for i, q := range p.Parts {
		parts[i] = q.Describe()
	}
	return "(" + strings.Join(parts, " AND ") + ")"
}

// Cascade is ordered importance: earlier preferences dominate later ones.
// Compare is lexicographic; BMO evaluation applies the parts "one after the
// other" (§2.2.2), i.e. BMO(P1 CASCADE P2) = BMO(P2, BMO(P1, R)).
type Cascade struct {
	Parts []Preference
}

// Compare implements Preference (lexicographic composition).
func (p *Cascade) Compare(a, b value.Row) (Ordering, error) {
	for _, part := range p.Parts {
		o, err := part.Compare(a, b)
		if err != nil {
			return Incomparable, err
		}
		if o != Equal {
			return o, nil
		}
	}
	return Equal, nil
}

// Describe implements Preference.
func (p *Cascade) Describe() string {
	parts := make([]string, len(p.Parts))
	for i, q := range p.Parts {
		parts[i] = q.Describe()
	}
	return strings.Join(parts, " CASCADE ")
}

// ---------------------------------------------------------------------------
// Registry of base preferences for quality functions
// ---------------------------------------------------------------------------

// Registry maps attribute labels (normalized lower-case) to the base
// preference applied to them, so that the quality functions TOP(attr),
// LEVEL(attr) and DISTANCE(attr) in the SELECT list and the BUT ONLY clause
// can find "the preference on that attribute".
type Registry struct {
	byAttr map[string]Preference
	order  []string
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry { return &Registry{byAttr: map[string]Preference{}} }

// Add registers a base preference under its attribute label. The first
// registration for a label wins (an attribute rarely appears in two base
// preferences; if it does, quality functions refer to the first).
func (r *Registry) Add(label string, p Preference) {
	key := strings.ToLower(label)
	if _, ok := r.byAttr[key]; ok {
		return
	}
	r.byAttr[key] = p
	r.order = append(r.order, key)
}

// Lookup finds the base preference on an attribute label.
func (r *Registry) Lookup(label string) (Preference, bool) {
	p, ok := r.byAttr[strings.ToLower(label)]
	return p, ok
}

// Labels lists registered attribute labels in registration order.
func (r *Registry) Labels() []string { return r.order }
