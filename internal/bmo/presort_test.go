package bmo

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/preference"
	"repro/internal/value"
)

// comparatorSort is the reference order: the comparator alone over the
// whole input, which is what the presort must reproduce byte for byte.
func comparatorSort(idx []int32, in *VecInput) { slices.SortFunc(idx, in.order()) }

// scoreMatrix builds a VecInput of n rows of dim scores drawn by gen,
// with sums saturated as every fill saturates them.
func scoreMatrix(n, dim int, gen func(i, j int) float64) *VecInput {
	flat := make([]float64, n*dim)
	for i := range n {
		for j := range dim {
			flat[i*dim+j] = gen(i, j)
		}
	}
	in := &VecInput{Dim: dim, Flat: flat}
	in.SumHeads()
	return in
}

// presortShape is a score distribution: gen returns a generator for
// row i, component j.
type presortShape struct {
	name string
	gen  func(rng *rand.Rand, dim int) func(i, j int) float64
}

// presortShapes are the score distributions the presort is checked and
// measured on.
var presortShapes = []presortShape{
	{"uniform", func(rng *rand.Rand, _ int) func(i, j int) float64 {
		return func(int, int) float64 { return rng.Float64() }
	}},
	{"anticorrelated", func(rng *rand.Rand, dim int) func(i, j int) float64 {
		// Components of a row share one budget, so sums cluster tightly.
		var row []float64
		return func(_, j int) float64 {
			if j == 0 {
				row = make([]float64, dim)
				total := 0.0
				for k := range row {
					row[k] = rng.Float64()
					total += row[k]
				}
				for k := range row {
					row[k] = row[k]/total + rng.NormFloat64()*0.01
				}
			}
			return row[j]
		}
	}},
	{"integer", func(rng *rand.Rand, _ int) func(i, j int) float64 {
		// Long runs of equal sums, as small integer scores give.
		return func(int, int) float64 { return float64(rng.Intn(5)) }
	}},
	{"negative", func(rng *rand.Rand, _ int) func(i, j int) float64 {
		return func(int, int) float64 { return -rng.ExpFloat64() * 1e3 }
	}},
	{"infinities", func(rng *rand.Rand, _ int) func(i, j int) float64 {
		// NULL (+Inf) and HIGHEST-of-+Inf (-Inf) components, mixed in
		// one row too, next to ±0 and huge finite scores whose sum
		// overflows.
		vals := []float64{math.Inf(1), math.Inf(-1), 0, math.Copysign(0, -1), 1, -1, 1e308, -1e308, 2.5}
		return func(int, int) float64 { return vals[rng.Intn(len(vals))] }
	}},
	{"portal", func(rng *rand.Rand, _ int) func(i, j int) float64 {
		// A job portal's ranking: three 0/1 conditions and one small
		// integer, so almost every row sits in a long run of equal sums.
		return func(_, j int) float64 {
			if j%4 == 2 {
				return -float64(rng.Intn(21))
			}
			return float64(rng.Intn(2))
		}
	}},
	{"close", func(rng *rand.Rand, _ int) func(i, j int) float64 {
		// Sums that differ only below the 32-bit image.
		return func(int, int) float64 { return 1 + float64(rng.Intn(1<<12))*0x1p-40 }
	}},
}

// presortSizes straddle the comparator-only cutoff and the radix digit
// boundaries.
var presortSizes = []int{0, 1, 2, radixMinLen - 1, radixMinLen, radixMinLen + 1,
	radixBucket - 1, radixBucket, radixBucket + 1, 3*VecBlockSize + 7}

// TestPresortMatchesComparator pins the presort to the comparator sort:
// the same permutation, over every shape, dimension 1–4, sizes around
// the cutoff and the digit boundaries, and index slices that are
// partitions of a larger matrix (not starting at row 0) or arrive out
// of order.
func TestPresortMatchesComparator(t *testing.T) {
	rng := rand.New(rand.NewSource(2003))
	for _, shape := range presortShapes {
		for dim := 1; dim <= 4; dim++ {
			for _, n := range presortSizes {
				off := rng.Intn(3) * 100
				in := scoreMatrix(off+n+50, dim, shape.gen(rng, dim))
				idx := make([]int32, n)
				for k := range idx {
					idx[k] = int32(off + k)
				}
				if n%2 == 1 {
					rng.Shuffle(n, func(a, b int) { idx[a], idx[b] = idx[b], idx[a] })
				}
				checkPresort(t, fmt.Sprintf("%s dim=%d n=%d off=%d", shape.name, dim, n, off), idx, in)
			}
		}
	}
}

// checkPresort sorts a copy of idx both ways and compares.
func checkPresort(t *testing.T, name string, idx []int32, in *VecInput) {
	t.Helper()
	want := slices.Clone(idx)
	comparatorSort(want, in)
	got := slices.Clone(idx)
	if err := sortVecOrder(got, in); err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	for k := range got {
		if got[k] != want[k] {
			t.Fatalf("%s: position %d holds row %d (sum %v), the comparator puts row %d (sum %v) there",
				name, k, got[k], in.Sums[got[k]], want[k], in.Sums[want[k]])
		}
	}
}

// TestPresortRejectsNaN: a NaN sum has no place in the order, so the
// presort fails instead of placing it, below and above the cutoff.
func TestPresortRejectsNaN(t *testing.T) {
	for _, n := range []int{radixMinLen - 1, radixMinLen * 4} {
		in := scoreMatrix(n, 2, func(i, j int) float64 { return float64(i + j) })
		in.Sums[n/2] = math.NaN()
		idx := make([]int32, n)
		for k := range idx {
			idx[k] = int32(k)
		}
		if err := sortVecOrder(idx, in); err == nil {
			t.Errorf("n=%d: a NaN sum sorted without an error", n)
		}
	}
}

// TestOverflowedSumMeetsNegInf: finite scores whose sum overflows to
// +Inf, next to a -Inf score (HIGHEST over +Inf), sum to -Inf, not NaN,
// so the vectorized kernel finds the row that dominates.
func TestOverflowedSumMeetsNegInf(t *testing.T) {
	inf := value.NewFloat(math.Inf(1))
	huge := value.NewFloat(1e308)
	rows := []value.Row{
		{huge, huge, value.NewFloat(5)}, // dominated by the row below
		{huge, huge, inf},
	}
	p := &preference.Pareto{Parts: []preference.Preference{
		&preference.Lowest{Get: colGetter(0), Label: "a"},
		&preference.Lowest{Get: colGetter(1), Label: "b"},
		&preference.Highest{Get: colGetter(2), Label: "c"},
	}}
	want, err := Evaluate(p, rows, BlockNestedLoop)
	if err != nil {
		t.Fatal(err)
	}
	got, _, err := evalVec(p, rows, Config{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(want) != 1 || !sameSet(got, want) {
		t.Fatalf("vectorized %v, BNL %v; want the +Inf row alone", got, want)
	}
}

// FuzzPresortOrder checks the presort against the comparator on score
// matrices drawn from a palette that favours the hard cases: ties,
// infinities, ±0 and negative sums.
func FuzzPresortOrder(f *testing.F) {
	f.Add([]byte{0, 1, 2, 3}, uint16(100), uint8(0))
	f.Add([]byte{7, 7, 7}, uint16(radixBucket+1), uint8(3))
	f.Add([]byte("negative sums and infinities"), uint16(radixMinLen), uint8(1))
	palette := []float64{math.Inf(1), math.Inf(-1), 0, math.Copysign(0, -1), 1, -1, 2, -2,
		0.5, 1e308, -1e308, 5e-324, 3, 1 + 0x1p-40, 1 + 0x1p-30, -0.25}
	f.Fuzz(func(t *testing.T, data []byte, n uint16, off uint8) {
		if len(data) == 0 {
			return
		}
		dim := 1 + int(data[0])%4
		rows := int(n) % 5000
		in := scoreMatrix(int(off)+rows, dim, func(i, j int) float64 {
			k := i*dim + j
			b := data[k%len(data)] ^ byte(k*131>>3)
			if b < 192 {
				return palette[b%16]
			}
			return float64(int(b)-224) / 7
		})
		idx := make([]int32, rows)
		for k := range idx {
			idx[k] = int32(int(off) + k)
		}
		checkPresort(t, "fuzz", idx, in)
	})
}

// BenchmarkPresort measures the comparator sort against the presort on
// uniform, anti-correlated and integer-tied 3-d scores, and on the
// portal shape's 4-d scores at 1k rows, where the runs of equal sums
// leave nearly all the work to the comparator.
func BenchmarkPresort(b *testing.B) {
	for _, n := range []int{1000, 100000} {
		for _, shape := range presortShapes[:3] {
			in := scoreMatrix(n, 3, shape.gen(rand.New(rand.NewSource(1)), 3))
			benchPresort(b, fmt.Sprintf("n=%d/%s", n, shape.name), in)
		}
	}
	portal := presortShapes[slices.IndexFunc(presortShapes, func(s presortShape) bool { return s.name == "portal" })]
	benchPresort(b, "n=1000/portal", scoreMatrix(1000, 4, portal.gen(rand.New(rand.NewSource(1)), 4)))
}

// benchPresort runs the comparator and the presort sub-benchmarks on in.
func benchPresort(b *testing.B, name string, in *VecInput) {
	n := in.Len()
	base := make([]int32, n)
	for k := range base {
		base[k] = int32(k)
	}
	idx := make([]int32, n)
	b.Run(name+"/comparator", func(b *testing.B) {
		for range b.N {
			copy(idx, base)
			comparatorSort(idx, in)
		}
	})
	b.Run(name+"/radix", func(b *testing.B) {
		for range b.N {
			copy(idx, base)
			if err := sortVecOrder(idx, in); err != nil {
				b.Fatal(err)
			}
		}
	})
}
