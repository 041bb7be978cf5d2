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
// the compiler-recorded provenance when present, otherwise the Label
// (direct constructions conventionally label a preference with the one
// attribute it reads).
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

// Split partitions the cascade's stages by join side; see SplitParts.
// Unlike Pareto, a cascade is rewritten stage-wise: only a prefix of
// one-sided stages may move below the join, so callers typically look
// at partSide of Parts[0] — Split is provided for symmetry and
// diagnostics.
func (p *Cascade) Split(classify func(attr string) (int, bool)) (sides [2][]Preference, mixed []Preference) {
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
	// Attrs is the compiler-recorded provenance: the column references
	// the preference reads (see Attributed). Empty for direct
	// constructions, where Label stands in as the single attribute.
	Attrs []string
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
	// Attrs is the compiler-recorded provenance: the column references
	// the preference reads (see Attributed). Empty for direct
	// constructions, where Label stands in as the single attribute.
	Attrs []string
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
	// Attrs is the compiler-recorded provenance: the column references
	// the preference reads (see Attributed). Empty for direct
	// constructions, where Label stands in as the single attribute.
	Attrs []string
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
	// Attrs is the compiler-recorded provenance: the column references
	// the preference reads (see Attributed). Empty for direct
	// constructions, where Label stands in as the single attribute.
	Attrs []string
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
	// Attrs is the compiler-recorded provenance: the column references
	// the preference reads (see Attributed). Empty for direct
	// constructions, where Label stands in as the single attribute.
	Attrs []string
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
	// Attrs is the compiler-recorded provenance: the column references
	// the preference reads (see Attributed). Empty for direct
	// constructions, where Label stands in as the single attribute.
	Attrs []string
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
	// Attrs is the compiler-recorded provenance: the column references
	// the preference reads (see Attributed). Empty for direct
	// constructions, where Label stands in as the single attribute.
	Attrs []string
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
	// Attrs is the compiler-recorded provenance: the column references
	// the preference reads (see Attributed). Empty for direct
	// constructions, where Label stands in as the single attribute.
	Attrs []string
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
	// Attrs is the compiler-recorded provenance: the column references
	// the preference reads (see Attributed). Empty for direct
	// constructions, where Label stands in as the single attribute.
	Attrs []string
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
type Explicit struct {
	Get   Getter
	Label string
	// Attrs is the compiler-recorded provenance: the column references
	// the preference reads (see Attributed). Empty for direct
	// constructions, where Label stands in as the single attribute.
	Attrs []string
	Vals  []value.Value // the mentioned values, once each
	Slot

	closure map[string]map[string]bool // better -> set of worse (transitive)
	depth   map[string]int             // longest path from a top value, for LEVEL
	maxDep  int
}

// NewExplicit builds the preference from better/worse value pairs. It
// rejects graphs with cycles (which would violate irreflexivity).
func NewExplicit(get Getter, label string, edges [][2]value.Value) (*Explicit, error) {
	adj := map[string][]string{}
	nodes := map[string]bool{}
	var vals []value.Value
	for _, e := range edges {
		b, w := e[0].Key(), e[1].Key()
		adj[b] = append(adj[b], w)
		for i, k := range []string{b, w} {
			if !nodes[k] {
				nodes[k] = true
				vals = append(vals, e[i])
			}
		}
	}
	// Transitive closure by DFS from each node, with cycle detection.
	closure := make(map[string]map[string]bool, len(nodes))
	for n := range nodes {
		reach := map[string]bool{}
		var stack []string
		stack = append(stack, adj[n]...)
		for len(stack) > 0 {
			top := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			if reach[top] {
				continue
			}
			reach[top] = true
			stack = append(stack, adj[top]...)
		}
		if reach[n] {
			return nil, fmt.Errorf("EXPLICIT preference on %s has a cycle involving %s", label, n)
		}
		closure[n] = reach
	}
	// Depth = longest chain of strictly-better predecessors; 0 for maximal
	// values. Computed by repeated relaxation (graphs are tiny).
	depth := map[string]int{}
	maxDep := 0
	for changed := true; changed; {
		changed = false
		for b, ws := range adj {
			for _, w := range ws {
				if d := depth[b] + 1; d > depth[w] {
					depth[w] = d
					if d > maxDep {
						maxDep = d
					}
					changed = true
				}
			}
		}
	}
	return &Explicit{Get: get, Label: label, Vals: vals, closure: closure, depth: depth, maxDep: maxDep}, nil
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
	_, aMentioned := p.closure[ka]
	_, bMentioned := p.closure[kb]
	switch {
	case aMentioned && bMentioned:
		if p.closure[ka][kb] {
			return Better, nil
		}
		if p.closure[kb][ka] {
			return Worse, nil
		}
		return Incomparable, nil
	case aMentioned:
		return Better, nil
	case bMentioned:
		return Worse, nil
	default:
		return Equal, nil // both unmentioned: substitutable
	}
}

// Level reports the 1-based quality level of a tuple's value (see
// ValueLevel).
func (p *Explicit) Level(row value.Row) (int, error) {
	v, err := p.Get(row)
	if err != nil {
		return 0, err
	}
	return p.ValueLevel(v), nil
}

// ValueLevel is depth+1 for a value the graph mentions, NULL too when
// an edge names it, and the bottom level for any other. A better value
// has a smaller level and substitutable values share one, so the level
// is EXPLICIT's presort key (see Key).
func (p *Explicit) ValueLevel(v value.Value) int {
	k := v.Key()
	if _, ok := p.closure[k]; ok {
		return p.depth[k] + 1
	}
	return p.Bottom()
}

// Bottom is the level of the values the graph does not mention,
// maxDepth+2.
func (p *Explicit) Bottom() int { return p.maxDep + 2 }

// Score is the level, as a key element.
func (p *Explicit) Score(row value.Row) (float64, error) {
	l, err := p.Level(row)
	return float64(l), err
}

// Chain reports whether the graph is a chain, one value per depth: then
// the preference is a weak order, Better exactly where the level is
// smaller. Every depth up to the deepest holds a value, so that is one
// value per depth exactly when there are as many values as depths.
func (p *Explicit) Chain() bool { return len(p.closure) == p.maxDep+1 }

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
