package preference

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/value"
)

func colGetter(i int) Getter {
	return func(r value.Row) (value.Value, error) { return r[i], nil }
}

func row(vals ...any) value.Row {
	out := make(value.Row, len(vals))
	for i, v := range vals {
		switch x := v.(type) {
		case int:
			out[i] = value.NewInt(int64(x))
		case float64:
			out[i] = value.NewFloat(x)
		case string:
			out[i] = value.NewText(x)
		case nil:
			out[i] = value.NewNull()
		default:
			panic("bad test value")
		}
	}
	return out
}

func mustCompare(t *testing.T, p Preference, a, b value.Row) Ordering {
	t.Helper()
	o, err := p.Compare(a, b)
	if err != nil {
		t.Fatalf("compare: %v", err)
	}
	return o
}

func TestAround(t *testing.T) {
	p := &Around{Get: colGetter(0), Target: 14, Label: "duration"}
	if o := mustCompare(t, p, row(14), row(13)); o != Better {
		t.Errorf("14 vs 13: %v", o)
	}
	if o := mustCompare(t, p, row(12), row(16)); o != Equal {
		t.Errorf("12 vs 16 both distance 2: %v", o)
	}
	if o := mustCompare(t, p, row(20), row(15)); o != Worse {
		t.Errorf("20 vs 15: %v", o)
	}
	s, err := p.Score(row(nil))
	if err != nil || !math.IsInf(s, 1) {
		t.Errorf("null score: %v %v", s, err)
	}
	if _, err := p.Score(row("abc")); err == nil {
		t.Error("text in AROUND should error")
	}
}

func TestBetween(t *testing.T) {
	p := &Between{Get: colGetter(0), Lo: 10, Hi: 20, Label: "x"}
	for _, v := range []int{10, 15, 20} {
		if s, _ := p.Score(row(v)); s != 0 {
			t.Errorf("score(%d) = %v, want 0", v, s)
		}
	}
	if s, _ := p.Score(row(8)); s != 2 {
		t.Errorf("score(8) = %v", s)
	}
	if s, _ := p.Score(row(25)); s != 5 {
		t.Errorf("score(25) = %v", s)
	}
}

func TestLowestHighest(t *testing.T) {
	lo := &Lowest{Get: colGetter(0), Label: "mileage"}
	hi := &Highest{Get: colGetter(0), Label: "power"}
	if o := mustCompare(t, lo, row(10), row(20)); o != Better {
		t.Errorf("lowest: %v", o)
	}
	if o := mustCompare(t, hi, row(10), row(20)); o != Worse {
		t.Errorf("highest: %v", o)
	}
	if lo.HasOptimum() || hi.HasOptimum() {
		t.Error("LOWEST/HIGHEST have no a-priori optimum")
	}
}

func TestPosNeg(t *testing.T) {
	pos := &Pos{Get: colGetter(0), Set: NewSet([]value.Value{value.NewText("java"), value.NewText("C++")}), Label: "exp"}
	if o := mustCompare(t, pos, row("java"), row("cobol")); o != Better {
		t.Error("java should beat cobol")
	}
	if o := mustCompare(t, pos, row("java"), row("C++")); o != Equal {
		t.Error("both favourites are equal")
	}
	if o := mustCompare(t, pos, row("cobol"), row("perl")); o != Equal {
		t.Error("both non-favourites are equal")
	}
	neg := &Neg{Get: colGetter(0), Set: NewSet([]value.Value{value.NewText("downtown")}), Label: "location"}
	if o := mustCompare(t, neg, row("suburb"), row("downtown")); o != Better {
		t.Error("suburb should beat downtown")
	}
	if s, _ := pos.Score(row(nil)); !math.IsInf(s, 1) {
		t.Error("null scores worst")
	}
}

func TestBoolPreference(t *testing.T) {
	p := &Bool{Cond: func(r value.Row) (bool, error) { return r[0].Num() < 500, nil }, Label: "price < 500"}
	if o := mustCompare(t, p, row(400), row(600)); o != Better {
		t.Error("satisfying row should win")
	}
	if o := mustCompare(t, p, row(100), row(499)); o != Equal {
		t.Error("both satisfy")
	}
}

func TestContains(t *testing.T) {
	p := &Contains{Get: colGetter(0), Terms: []string{"database", "preference"}, Label: "body"}
	full := row("a PREFERENCE paper about Database systems")
	half := row("a database paper")
	none := row("cooking recipes")
	if o := mustCompare(t, p, full, half); o != Better {
		t.Error("2 terms beats 1")
	}
	if o := mustCompare(t, p, half, none); o != Better {
		t.Error("1 term beats 0")
	}
	if s, _ := p.Score(full); s != 0 {
		t.Errorf("full match score %v", s)
	}
}

// §2.2.3: color = 'white' ELSE color = 'yellow' gives levels white=0,
// yellow=1, others=2 (LEVEL reports 1-based).
func TestLayeredPosPos(t *testing.T) {
	white := &Pos{Get: colGetter(0), Set: NewSet([]value.Value{value.NewText("white")}), Label: "color"}
	yellow := &Pos{Get: colGetter(0), Set: NewSet([]value.Value{value.NewText("yellow")}), Label: "color"}
	p := &Layered{Layers: []Scored{white, yellow}, Label: "color"}
	for _, tt := range []struct {
		color string
		score float64
	}{{"white", 0}, {"yellow", 1}, {"red", 2}, {"green", 2}} {
		if s, _ := p.Score(row(tt.color)); s != tt.score {
			t.Errorf("score(%s) = %v, want %v", tt.color, s, tt.score)
		}
	}
	if o := mustCompare(t, p, row("white"), row("yellow")); o != Better {
		t.Error("white beats yellow")
	}
	if o := mustCompare(t, p, row("red"), row("green")); o != Equal {
		t.Error("red and green substitutable")
	}
}

// The paper's POS/NEG layering: roadster ELSE NOT passenger.
func TestLayeredPosNeg(t *testing.T) {
	roadster := &Pos{Get: colGetter(0), Set: NewSet([]value.Value{value.NewText("roadster")}), Label: "category"}
	notPassenger := &Neg{Get: colGetter(0), Set: NewSet([]value.Value{value.NewText("passenger")}), Label: "category"}
	p := &Layered{Layers: []Scored{roadster, notPassenger}, Label: "category"}
	if s, _ := p.Score(row("roadster")); s != 0 {
		t.Error("roadster is perfect")
	}
	if s, _ := p.Score(row("suv")); s != 1 {
		t.Error("suv is acceptable")
	}
	if s, _ := p.Score(row("passenger")); s != 2 {
		t.Error("passenger is worst")
	}
}

func TestExplicit(t *testing.T) {
	p, err := NewExplicit(colGetter(0), "color", [][2]value.Value{
		{value.NewText("red"), value.NewText("blue")},
		{value.NewText("blue"), value.NewText("green")},
		{value.NewText("yellow"), value.NewText("green")},
	})
	if err != nil {
		t.Fatal(err)
	}
	// transitivity through closure: red > green
	if o := mustCompare(t, p, row("red"), row("green")); o != Better {
		t.Error("red beats green transitively")
	}
	// red and yellow are on different chains: incomparable
	if o := mustCompare(t, p, row("red"), row("yellow")); o != Incomparable {
		t.Error("red vs yellow incomparable")
	}
	// mentioned beats unmentioned
	if o := mustCompare(t, p, row("green"), row("purple")); o != Better {
		t.Error("mentioned green beats unmentioned purple")
	}
	// unmentioned are substitutable
	if o := mustCompare(t, p, row("purple"), row("black")); o != Equal {
		t.Error("unmentioned equal")
	}
	// same value is equal
	if o := mustCompare(t, p, row("red"), row("red")); o != Equal {
		t.Error("reflexive equality")
	}
	// levels: red/yellow=1, blue=2, green=3, purple=4
	for _, tt := range []struct {
		color string
		level int
	}{{"red", 1}, {"yellow", 1}, {"blue", 2}, {"green", 3}, {"purple", 4}} {
		l, err := p.Level(row(tt.color))
		if err != nil || l != tt.level {
			t.Errorf("level(%s) = %d, want %d", tt.color, l, tt.level)
		}
	}
}

func TestExplicitRejectsCycle(t *testing.T) {
	_, err := NewExplicit(colGetter(0), "c", [][2]value.Value{
		{value.NewText("a"), value.NewText("b")},
		{value.NewText("b"), value.NewText("a")},
	})
	if err == nil {
		t.Fatal("cycle should be rejected")
	}
}

func TestParetoDominance(t *testing.T) {
	mem := &Highest{Get: colGetter(0), Label: "main_memory"}
	cpu := &Highest{Get: colGetter(1), Label: "cpu_speed"}
	p := &Pareto{Parts: []Preference{mem, cpu}}

	if o := mustCompare(t, p, row(512, 3000), row(256, 2000)); o != Better {
		t.Error("dominating in both")
	}
	if o := mustCompare(t, p, row(512, 2000), row(256, 2000)); o != Better {
		t.Error("better in one, equal in other")
	}
	if o := mustCompare(t, p, row(512, 1000), row(256, 2000)); o != Incomparable {
		t.Error("trade-off is incomparable")
	}
	if o := mustCompare(t, p, row(512, 2000), row(512, 2000)); o != Equal {
		t.Error("identical vectors equal")
	}
	if o := mustCompare(t, p, row(256, 1000), row(512, 2000)); o != Worse {
		t.Error("dominated in both")
	}
}

func TestCascadeLexicographic(t *testing.T) {
	mem := &Highest{Get: colGetter(0), Label: "main_memory"}
	color := &Pos{Get: colGetter(1), Set: NewSet([]value.Value{value.NewText("black")}), Label: "color"}
	p := &Cascade{Parts: []Preference{mem, color}}

	// memory decides first
	if o := mustCompare(t, p, row(512, "pink"), row(256, "black")); o != Better {
		t.Error("memory dominates color")
	}
	// equal memory: color decides
	if o := mustCompare(t, p, row(512, "black"), row(512, "pink")); o != Better {
		t.Error("color breaks ties")
	}
	if o := mustCompare(t, p, row(512, "pink"), row(512, "red")); o != Equal {
		t.Error("both non-black equal")
	}
}

func TestOrderingFlipAndString(t *testing.T) {
	if Better.Flip() != Worse || Worse.Flip() != Better || Equal.Flip() != Equal || Incomparable.Flip() != Incomparable {
		t.Error("flip")
	}
	for _, o := range []Ordering{Equal, Better, Worse, Incomparable} {
		if o.String() == "" {
			t.Error("empty string")
		}
	}
}

func TestRegistry(t *testing.T) {
	r := NewRegistry()
	p1 := &Lowest{Get: colGetter(0), Label: "price"}
	p2 := &Highest{Get: colGetter(1), Label: "power"}
	r.Add("price", p1)
	r.Add("power", p2)
	r.Add("PRICE", p2) // first registration wins
	got, ok := r.Lookup("Price")
	if !ok || got != Preference(p1) {
		t.Error("lookup should be case-insensitive and first-wins")
	}
	if len(r.Labels()) != 2 {
		t.Errorf("labels: %v", r.Labels())
	}
	if _, ok := r.Lookup("nope"); ok {
		t.Error("missing lookup")
	}
}

// --- property tests: strict partial order axioms ---------------------------

// randomPreference builds a random preference tree over rows of width 4
// (cols: float, float, string-color, string-category).
func randomPreference(rng *rand.Rand, depth int) Preference {
	colors := []value.Value{value.NewText("red"), value.NewText("blue"), value.NewText("green")}
	if depth <= 0 || rng.Intn(3) == 0 {
		switch rng.Intn(6) {
		case 0:
			return &Around{Get: colGetter(0), Target: float64(rng.Intn(20)), Label: "a"}
		case 1:
			return &Lowest{Get: colGetter(1), Label: "b"}
		case 2:
			return &Highest{Get: colGetter(0), Label: "a"}
		case 3:
			return &Pos{Get: colGetter(2), Set: NewSet(colors[:1+rng.Intn(2)]), Label: "c"}
		case 4:
			return &Neg{Get: colGetter(3), Set: NewSet(colors[:1]), Label: "d"}
		default:
			p, _ := NewExplicit(colGetter(2), "c", [][2]value.Value{
				{colors[0], colors[1]}, {colors[1], colors[2]},
			})
			return p
		}
	}
	n := 2 + rng.Intn(2)
	parts := make([]Preference, n)
	for i := range parts {
		parts[i] = randomPreference(rng, depth-1)
	}
	if rng.Intn(2) == 0 {
		return &Pareto{Parts: parts}
	}
	return &Cascade{Parts: parts}
}

func randomRow(rng *rand.Rand) value.Row {
	colors := []string{"red", "blue", "green", "purple"}
	return row(rng.Intn(10), float64(rng.Intn(10)), colors[rng.Intn(4)], colors[rng.Intn(4)])
}

// TestStrictPartialOrderAxioms checks irreflexivity, asymmetry and
// transitivity on thousands of random (preference, tuple-triple) draws.
func TestStrictPartialOrderAxioms(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for iter := 0; iter < 2000; iter++ {
		p := randomPreference(rng, 2)
		a, b, c := randomRow(rng), randomRow(rng), randomRow(rng)

		// Irreflexivity: a never better than itself.
		if o := mustCompare(t, p, a, a); o == Better || o == Worse {
			t.Fatalf("iter %d: %s not irreflexive on %v: %v", iter, p.Describe(), a, o)
		}
		// Asymmetry: Compare(a,b) is the flip of Compare(b,a).
		oab := mustCompare(t, p, a, b)
		oba := mustCompare(t, p, b, a)
		if oab != oba.Flip() {
			t.Fatalf("iter %d: %s asymmetry violated: %v vs %v", iter, p.Describe(), oab, oba)
		}
		// Transitivity: a>b and b>c implies a>c.
		obc := mustCompare(t, p, b, c)
		if oab == Better && obc == Better {
			if oac := mustCompare(t, p, a, c); oac != Better {
				t.Fatalf("iter %d: %s transitivity violated: a>b>c but a?c = %v", iter, p.Describe(), oac)
			}
		}
		// Equality is transitive with dominance: a>b, b=c implies a>c.
		if oab == Better && obc == Equal {
			if oac := mustCompare(t, p, a, c); oac != Better {
				t.Fatalf("iter %d: %s substitutability violated: a>b=c but a?c = %v", iter, p.Describe(), oac)
			}
		}
	}
}

// TestDistanceScoresNullAndText pins what the distance preferences make
// of a value that is not a number: NULL scores worst (+Inf), and a
// non-NULL TEXT value fails the preference.
func TestDistanceScoresNullAndText(t *testing.T) {
	get := colGetter(0)
	for _, tc := range []struct {
		p    Scored
		name string
	}{
		{&Lowest{Get: get, Label: "s"}, "LOWEST"},
		{&Highest{Get: get, Label: "s"}, "HIGHEST"},
		{&Around{Get: get, Target: 3, Label: "s"}, "AROUND"},
		{&Between{Get: get, Lo: 1, Hi: 2, Label: "s"}, "BETWEEN"},
	} {
		if v, err := tc.p.Score(value.Row{value.NewNull()}); err != nil || !math.IsInf(v, 1) {
			t.Errorf("%s of NULL = %v, %v; want +Inf", tc.name, v, err)
		}
		_, err := tc.p.Score(value.Row{value.NewText("m")})
		if want := tc.name + ": non-numeric value m for s"; err == nil || err.Error() != want {
			t.Errorf("%s of 'm': error %v, want %q", tc.name, err, want)
		}
	}
}
