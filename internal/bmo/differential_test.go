// Differential property harness: every BMO algorithm — including the
// parallel partition-merge path at several worker counts and its
// progressive stream — must return a result set-identical to the §3.2
// nested-loop reference on randomized preference trees over randomized
// row sets. This is the correctness gate any future BMO algorithm has to
// pass (see ARCHITECTURE.md, "Differential testing policy"): add the
// algorithm to diffAlgorithms and the harness covers it across every
// preference constructor the paper defines (AROUND, BETWEEN, LOWEST,
// HIGHEST, POS, NEG, CONTAINS, REGULAR/Bool, EXPLICIT, ELSE-layering,
// Pareto, CASCADE), NULL attribute values included.
//
// Failures shrink: the harness greedily removes rows while the
// disagreement persists and reports the minimal row set, so a diff
// reproduces as a handful of literal tuples instead of a 60-row dump.
package bmo_test

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"testing"

	"repro/internal/ast"
	"repro/internal/bmo"
	"repro/internal/datagen"
	"repro/internal/exec"
	"repro/internal/plan"
	"repro/internal/preference"
	"repro/internal/value"
)

// carCols mirrors datagen.CarColumns positions.
const (
	colID = iota
	colMake
	colCategory
	colPrice
	colPower
	colColor
	colMileage
	colDiesel
	colAirbag
)

func colGet(i int) preference.Getter {
	return func(r value.Row) (value.Value, error) { return r[i], nil }
}

// prefGen builds random preference trees over the car schema. It tracks
// which constructor kinds it produced so the harness can assert full
// coverage over a run.
type prefGen struct {
	rng  *rand.Rand
	used map[string]bool
}

func (g *prefGen) mark(kind string) { g.used[kind] = true }

// numericCols are the columns numeric preferences may target.
var numericCols = []int{colID, colPrice, colPower, colMileage}

func (g *prefGen) base() preference.Preference {
	switch g.rng.Intn(9) {
	case 0:
		g.mark("around")
		col := numericCols[g.rng.Intn(len(numericCols))]
		return &preference.Around{Get: colGet(col), Target: float64(g.rng.Intn(100000)), Label: fmt.Sprintf("c%d", col)}
	case 1:
		g.mark("between")
		col := numericCols[g.rng.Intn(len(numericCols))]
		lo := float64(g.rng.Intn(50000))
		return &preference.Between{Get: colGet(col), Lo: lo, Hi: lo + float64(g.rng.Intn(50000)), Label: fmt.Sprintf("c%d", col)}
	case 2:
		g.mark("lowest")
		col := numericCols[g.rng.Intn(len(numericCols))]
		return &preference.Lowest{Get: colGet(col), Label: fmt.Sprintf("c%d", col)}
	case 3:
		g.mark("highest")
		col := numericCols[g.rng.Intn(len(numericCols))]
		return &preference.Highest{Get: colGet(col), Label: fmt.Sprintf("c%d", col)}
	case 4:
		g.mark("pos")
		vals := g.textVals(datagen.CarMakes)
		return &preference.Pos{Get: colGet(colMake), Set: preference.NewSet(vals), Label: "make", Vals: vals}
	case 5:
		g.mark("neg")
		vals := g.textVals(datagen.CarColors)
		return &preference.Neg{Get: colGet(colColor), Set: preference.NewSet(vals), Label: "color", Vals: vals}
	case 6:
		g.mark("contains")
		terms := []string{datagen.CarCategories[g.rng.Intn(len(datagen.CarCategories))]}
		if g.rng.Intn(2) == 0 {
			terms = append(terms, "oa") // substring hitting roadster/coupe
		}
		return &preference.Contains{Get: colGet(colCategory), Terms: terms, Label: "category"}
	case 7:
		g.mark("bool")
		limit := int64(g.rng.Intn(100000))
		return &preference.Bool{
			Cond: func(r value.Row) (bool, error) {
				v := r[colPrice]
				if v.IsNull() {
					return false, nil
				}
				return v.I < limit, nil
			},
			Label: fmt.Sprintf("price < %d", limit),
			// Provenance for the pushdown harness: the condition reads
			// the price column only.
			Attrs: []string{"c3"},
		}
	default:
		g.mark("explicit")
		// Acyclic by construction: edges only from lower to higher index
		// in the color pool.
		var edges [][2]value.Value
		for i := 0; i < len(datagen.CarColors)-1; i++ {
			for j := i + 1; j < len(datagen.CarColors); j++ {
				if g.rng.Intn(3) == 0 {
					edges = append(edges, [2]value.Value{
						value.NewText(datagen.CarColors[i]),
						value.NewText(datagen.CarColors[j]),
					})
				}
			}
		}
		if len(edges) == 0 {
			edges = append(edges, [2]value.Value{value.NewText("red"), value.NewText("black")})
		}
		ex, err := preference.NewExplicit(colGet(colColor), "color", edges)
		if err != nil {
			panic(err) // impossible: edges are topologically ordered
		}
		return ex
	}
}

// layered builds an ELSE chain (2-3 layers with a-priori optima).
func (g *prefGen) layered() preference.Preference {
	g.mark("else")
	n := 2 + g.rng.Intn(2)
	layers := make([]preference.Scored, 0, n)
	for len(layers) < n {
		if s, ok := g.base().(preference.Scored); ok && s.HasOptimum() {
			layers = append(layers, s)
		}
	}
	return &preference.Layered{Layers: layers, Label: layers[0].Attr()}
}

// gen builds a random preference tree of bounded depth.
func (g *prefGen) gen(depth int) preference.Preference {
	if depth <= 0 {
		return g.base()
	}
	switch g.rng.Intn(6) {
	case 0, 1:
		g.mark("pareto")
		n := 2 + g.rng.Intn(2)
		parts := make([]preference.Preference, n)
		for i := range parts {
			parts[i] = g.gen(depth - 1)
		}
		return &preference.Pareto{Parts: parts}
	case 2:
		g.mark("cascade")
		n := 2 + g.rng.Intn(2)
		parts := make([]preference.Preference, n)
		for i := range parts {
			parts[i] = g.gen(depth - 1)
		}
		return &preference.Cascade{Parts: parts}
	case 3:
		return g.layered()
	default:
		return g.base()
	}
}

func (g *prefGen) textVals(pool []string) []value.Value {
	n := 1 + g.rng.Intn(3)
	out := make([]value.Value, n)
	for i := range out {
		out[i] = value.NewText(pool[g.rng.Intn(len(pool))])
	}
	return out
}

// genRows draws a random car catalog and punches ~8% NULL holes into the
// non-id columns (NULL scores are the historical trouble spot: they made
// the SFS sum sort non-monotone before the lexicographic tiebreak).
func genRows(rng *rand.Rand, n int) []value.Row {
	rows := datagen.Cars(n, rng.Int63())
	null := value.NewNull()
	for _, r := range rows {
		for c := 1; c < len(r); c++ {
			if rng.Intn(12) == 0 {
				r[c] = null
			}
		}
	}
	return rows
}

// multiset canonicalizes a result for order-insensitive comparison.
func multiset(rows []value.Row) string {
	keys := make([]string, len(rows))
	for i, r := range rows {
		keys[i] = r.Key()
	}
	sort.Strings(keys)
	return strings.Join(keys, "\n")
}

// diffAlgorithm is one algorithm variant under differential test.
type diffAlgorithm struct {
	name string
	run  func(p preference.Preference, rows []value.Row) ([]value.Row, error)
	// applicable filters preferences the algorithm cannot take.
	applicable func(p preference.Preference) bool
}

func always(preference.Preference) bool { return true }

// oneStage holds for a preference that is no CASCADE: a matrix holds
// one stage's keys.
func oneStage(p preference.Preference) bool { return len(bmo.Stages(p)) == 1 }

func batch(algo bmo.Algorithm, workers int) func(preference.Preference, []value.Row) ([]value.Row, error) {
	return func(p preference.Preference, rows []value.Row) ([]value.Row, error) {
		out, _, err := bmo.EvaluateConfig(p, rows, algo, bmo.Config{Workers: workers})
		return out, err
	}
}

// vecInput is the exec layer's entry into the block kernel: key the
// rows into a matrix, then evaluate it.
func vecInput(workers int) func(preference.Preference, []value.Row) ([]value.Row, error) {
	return func(p preference.Preference, rows []value.Row) ([]value.Row, error) {
		in, err := bmo.BuildVecInput(preference.KeyOf(p), rows)
		if err != nil {
			return nil, err
		}
		idx, _, _, err := bmo.EvaluateVecInput(in, bmo.Parallel, bmo.Config{Workers: workers})
		out := make([]value.Row, len(idx))
		for k, i := range idx {
			out[k] = in.Rows[i]
		}
		return out, err
	}
}

func parallelStream(workers int) func(preference.Preference, []value.Row) ([]value.Row, error) {
	return func(p preference.Preference, rows []value.Row) ([]value.Row, error) {
		s, err := bmo.StreamRows(p, rows, bmo.Parallel, bmo.Config{Workers: workers})
		if err != nil {
			return nil, err
		}
		var out []value.Row
		for {
			row, ok, err := s.Next()
			if err != nil {
				return nil, err
			}
			if !ok {
				return out, nil
			}
			out = append(out, row)
		}
	}
}

// diffAlgorithms is the roster every future BMO algorithm joins.
var diffAlgorithms = []diffAlgorithm{
	{name: "bnl", run: batch(bmo.BlockNestedLoop, 0), applicable: always},
	{name: "auto", run: batch(bmo.Auto, 0), applicable: always},
	{name: "parallel-w1", run: batch(bmo.Parallel, 1), applicable: always},
	{name: "parallel-w2", run: batch(bmo.Parallel, 2), applicable: always},
	{name: "parallel-w4", run: batch(bmo.Parallel, 4), applicable: always},
	{name: "parallel-w7", run: batch(bmo.Parallel, 7), applicable: always},
	{name: "parallel-stream-w3", run: parallelStream(3), applicable: always},
	{name: "vec-input", run: vecInput(0), applicable: oneStage},
	{name: "vec-input-w3", run: vecInput(3), applicable: oneStage},
}

// shrink greedily removes rows while the two algorithms still disagree,
// returning a (locally) minimal failing row set.
func shrink(p preference.Preference, rows []value.Row,
	ref, alg diffAlgorithm) []value.Row {
	disagree := func(rs []value.Row) bool {
		want, err1 := ref.run(p, rs)
		got, err2 := alg.run(p, rs)
		if err1 != nil || err2 != nil {
			return err1 == nil || err2 == nil // one-sided error still counts
		}
		return multiset(want) != multiset(got)
	}
	cur := rows
	for removed := true; removed; {
		removed = false
		for i := 0; i < len(cur); i++ {
			cand := append(append([]value.Row{}, cur[:i]...), cur[i+1:]...)
			if disagree(cand) {
				cur = cand
				removed = true
				break
			}
		}
	}
	return cur
}

func formatRows(rows []value.Row) string {
	var b strings.Builder
	for _, r := range rows {
		cells := make([]string, len(r))
		for i, v := range r {
			cells[i] = v.SQL()
		}
		fmt.Fprintf(&b, "  (%s)\n", strings.Join(cells, ", "))
	}
	return b.String()
}

// TestDifferentialAllAlgorithms is the cross-algorithm harness: 1200
// randomized cases (random preference tree × random rows with NULLs),
// every algorithm against the nested-loop reference.
func TestDifferentialAllAlgorithms(t *testing.T) {
	const cases = 1200
	rng := rand.New(rand.NewSource(20020527)) // the paper's VLDB year
	g := &prefGen{rng: rng, used: map[string]bool{}}
	ref := diffAlgorithm{name: "nested-loop", run: batch(bmo.NestedLoop, 0), applicable: always}

	for trial := 0; trial < cases; trial++ {
		p := g.gen(2)
		rows := genRows(rng, 5+rng.Intn(56))
		want, err := ref.run(p, rows)
		if err != nil {
			t.Fatalf("trial %d: reference failed on %s: %v", trial, p.Describe(), err)
		}
		wantSet := multiset(want)
		for _, alg := range diffAlgorithms {
			if !alg.applicable(p) {
				continue
			}
			got, err := alg.run(p, rows)
			if err != nil {
				t.Fatalf("trial %d: %s failed on %s: %v", trial, alg.name, p.Describe(), err)
			}
			if multiset(got) != wantSet {
				min := shrink(p, rows, ref, alg)
				mw, _ := ref.run(p, min)
				mg, _ := alg.run(p, min)
				t.Fatalf("trial %d: %s diverges from nested-loop\npreference: %s\nminimal rows (%d):\n%s"+
					"nested-loop -> %v\n%s -> %v",
					trial, alg.name, p.Describe(), len(min), formatRows(min), mw, alg.name, mg)
			}
		}
	}

	for _, kind := range []string{"around", "between", "lowest", "highest", "pos",
		"neg", "contains", "bool", "explicit", "else", "pareto", "cascade"} {
		if !g.used[kind] {
			t.Errorf("constructor kind %q never generated — harness coverage regressed", kind)
		}
	}
}

// TestDifferentialLargeInput runs fewer, bigger cases so the partition
// phase actually splits (several partitions above minPartition) and the
// Auto path crosses its parallel threshold.
func TestDifferentialLargeInput(t *testing.T) {
	if testing.Short() {
		t.Skip("large differential cases skipped in -short mode")
	}
	rng := rand.New(rand.NewSource(42))
	g := &prefGen{rng: rng, used: map[string]bool{}}
	ref := diffAlgorithm{name: "bnl", run: batch(bmo.BlockNestedLoop, 0), applicable: always}
	for trial := 0; trial < 6; trial++ {
		p := g.gen(1)
		rows := genRows(rng, 4000)
		want, err := ref.run(p, rows)
		if err != nil {
			t.Fatalf("trial %d: reference failed: %v", trial, err)
		}
		for _, alg := range []diffAlgorithm{
			{name: "parallel-w4", run: batch(bmo.Parallel, 4), applicable: always},
			{name: "parallel-stream-w4", run: parallelStream(4), applicable: always},
		} {
			got, err := alg.run(p, rows)
			if err != nil {
				t.Fatalf("trial %d: %s failed on %s: %v", trial, alg.name, p.Describe(), err)
			}
			if multiset(got) != multiset(want) {
				t.Fatalf("trial %d: %s diverges on %s (%d vs %d rows)",
					trial, alg.name, p.Describe(), len(got), len(want))
			}
		}
	}
}

// ---------------------------------------------------------------------------
// Planner pushdown differential harness
// ---------------------------------------------------------------------------
//
// Every randomized case below also runs through the planner's
// preference-algebra rewriter: the same preference is evaluated once on
// the unpushed plan (BMO above the join) and once on plan.PushBMO's
// rewrite (BMO moved below the join where the laws allow), and both must
// match the nested-loop reference over the materialized join result.
// The scenario mix deliberately includes the cases where pushdown must
// be refused — non-key-preserving joins are the default (the dimension
// side only covers a subset of the join keys), LEFT and theta joins, and
// preferences spanning both sides — so the refusal guards are exercised
// by the same assertion, not just the happy path.

// lSchema mirrors the car columns under the labels prefGen generates
// (numeric columns c0/c3/c4/c6, plus make/category/color by name).
func lSchema() plan.Schema {
	names := []string{"c0", "make", "category", "c3", "c4", "color", "c6", "c7", "c8"}
	out := make(plan.Schema, len(names))
	for i, n := range names {
		out[i] = plan.ColRef{Qual: "l", Name: n}
	}
	return out
}

// rSchema is the dimension side: a join key plus two numeric attributes.
func rSchema() plan.Schema {
	return plan.Schema{
		{Qual: "r", Name: "rkey"},
		{Qual: "r", Name: "e1"},
		{Qual: "r", Name: "e2"},
	}
}

// rightPref builds a random preference over the dimension columns,
// bound against the full join schema (L width 9, so e1/e2 live at
// indexes 10/11 — exactly how the core binder compiles them).
func rightPref(rng *rand.Rand) preference.Preference {
	col := 10 + rng.Intn(2)
	label := []string{"e1", "e2"}[col-10]
	switch rng.Intn(3) {
	case 0:
		return &preference.Lowest{Get: colGet(col), Label: label}
	case 1:
		return &preference.Highest{Get: colGet(col), Label: label}
	default:
		return &preference.Around{Get: colGet(col), Target: rng.Float64(), Label: label}
	}
}

// mixedPref reads both sides in one component — the shape the split law
// must refuse.
func mixedPref() preference.Preference {
	return &preference.Bool{
		Cond: func(r value.Row) (bool, error) {
			p, e := r[colPrice], r[10]
			if p.IsNull() || e.IsNull() {
				return false, nil
			}
			return float64(p.I) < e.Num()*100000, nil
		},
		Label: "price-vs-e1",
		Attrs: []string{"c3", "e1"},
	}
}

// pushScenario is one randomized join+preference configuration.
type pushScenario struct {
	join       *plan.Join
	pref       preference.Preference
	mustRefuse bool
}

func genPushScenario(rng *rand.Rand, g *prefGen) pushScenario {
	lrows := genRows(rng, 5+rng.Intn(56))
	lvals := &plan.Values{Name: "l", Cols: lSchema(), Rows: lrows}

	// Dimension rows over a key pool: either the make strings (fan-out,
	// duplicates) or the numeric ids. Only a random subset of the pool
	// gets partner rows, so the join usually does NOT preserve the left
	// side — the semijoin guard has to earn its keep.
	joinKind := rng.Intn(5)
	var rrows []value.Row
	var lcol int
	switch joinKind {
	case 1: // equi on id
		lcol = colID
		for id := 1; id <= len(lrows); id++ {
			if rng.Intn(3) == 0 {
				continue // absent key: these left rows lose their partners
			}
			for f := 0; f < 1+rng.Intn(2); f++ {
				rrows = append(rrows, value.Row{
					value.NewInt(int64(id)), value.NewFloat(rng.Float64()), value.NewFloat(rng.Float64()),
				})
			}
		}
	default: // equi/left/theta/cross share the make-keyed dimension
		lcol = colMake
		for _, mk := range datagen.CarMakes {
			if rng.Intn(3) == 0 {
				continue
			}
			for f := 0; f < 1+rng.Intn(3); f++ {
				row := value.Row{
					value.NewText(mk), value.NewFloat(rng.Float64()), value.NewFloat(rng.Float64()),
				}
				if rng.Intn(10) == 0 {
					row[1] = value.NewNull()
				}
				rrows = append(rrows, row)
			}
		}
	}
	rvals := &plan.Values{Name: "r", Cols: rSchema(), Rows: rrows}

	var join *plan.Join
	mustRefuse := false
	switch joinKind {
	case 2: // cross join
		join = plan.NewJoin(lvals, rvals, ast.CrossJoin, nil, -1, -1)
	case 3: // LEFT join: preserved side must not be pre-filtered
		join = plan.NewJoin(lvals, rvals, ast.LeftJoin, nil, lcol, 0)
		mustRefuse = true
	case 4: // theta join: no key to group or hash partners by
		on := &ast.Binary{Op: "<", L: &ast.Column{Table: "l", Name: "c0"}, R: &ast.Column{Table: "r", Name: "e1"}}
		join = plan.NewJoin(lvals, rvals, ast.InnerJoin, on, -1, -1)
		mustRefuse = true
	default: // hash equi-join
		join = plan.NewJoin(lvals, rvals, ast.InnerJoin, nil, lcol, 0)
	}

	var pref preference.Preference
	switch rng.Intn(6) {
	case 0: // left side only
		pref = g.gen(1)
	case 1: // right side only
		pref = rightPref(rng)
	case 2: // split Pareto
		parts := []preference.Preference{g.base(), rightPref(rng)}
		if rng.Intn(2) == 0 {
			parts = append(parts, g.base())
		}
		pref = &preference.Pareto{Parts: parts}
	case 3: // cascade across sides
		pref = &preference.Cascade{Parts: []preference.Preference{g.gen(0), rightPref(rng)}}
	case 4: // component spanning both sides: split must refuse
		pref = &preference.Pareto{Parts: []preference.Preference{g.base(), mixedPref()}}
		mustRefuse = true
	default: // unresolvable provenance: label matches no column
		pref = &preference.Pareto{Parts: []preference.Preference{
			g.base(),
			&preference.Lowest{Get: colGet(colPrice), Label: "no_such_col"},
		}}
		mustRefuse = true
	}
	return pushScenario{join: join, pref: pref, mustRefuse: mustRefuse}
}

func drainPlan(t *testing.T, n plan.Node) []value.Row {
	t.Helper()
	op, err := exec.Build(n, &exec.Env{})
	if err != nil {
		t.Fatal(err)
	}
	rows, err := exec.Drain(op)
	if err != nil {
		t.Fatal(err)
	}
	return rows
}

// TestDifferentialPlannerPushdown runs randomized join scenarios through
// plan.PushBMO: pushed and unpushed plans must produce identical result
// sets, and the refusal guards must hold exactly where the laws are
// unsound.
func TestDifferentialPlannerPushdown(t *testing.T) {
	const trials = 400
	rng := rand.New(rand.NewSource(20020528))
	g := &prefGen{rng: rng, used: map[string]bool{}}

	shapes := map[string]int{}
	for trial := 0; trial < trials; trial++ {
		sc := genPushScenario(rng, g)
		root := plan.NewBMO(sc.join, sc.pref, bmo.Auto, false, 0)
		pushed := plan.PushBMO(root)

		rewritten := pushed != plan.Node(root)
		if sc.mustRefuse && rewritten {
			t.Fatalf("trial %d: pushdown applied where it must be refused\npreference: %s\nplan:\n%s",
				trial, sc.pref.Describe(), plan.Format(pushed))
		}
		switch {
		case !rewritten:
			shapes["refused"]++
		case strings.Contains(plan.Format(pushed), "pushdown=split"):
			shapes["split"]++
		case strings.Contains(plan.Format(pushed), "pushdown=left"):
			shapes["left"]++
		case strings.Contains(plan.Format(pushed), "pushdown=right"):
			shapes["right"]++
		}

		// Reference: materialize the join, then the §3.2 nested loop.
		joined := drainPlan(t, sc.join)
		want, err := bmo.Evaluate(sc.pref, joined, bmo.NestedLoop)
		if err != nil {
			t.Fatalf("trial %d: reference failed on %s: %v", trial, sc.pref.Describe(), err)
		}
		got := drainPlan(t, root)
		if multiset(got) != multiset(want) {
			t.Fatalf("trial %d: unpushed plan diverges from reference on %s (%d vs %d rows)",
				trial, sc.pref.Describe(), len(got), len(want))
		}
		gotPushed := drainPlan(t, pushed)
		if multiset(gotPushed) != multiset(want) {
			t.Fatalf("trial %d: pushed plan diverges on %s (%d vs %d rows)\nplan:\n%s",
				trial, sc.pref.Describe(), len(gotPushed), len(want), plan.Format(pushed))
		}
	}

	for _, shape := range []string{"left", "right", "split", "refused"} {
		if shapes[shape] == 0 {
			t.Errorf("pushdown shape %q never produced — harness coverage regressed (got %v)", shape, shapes)
		}
	}
}
