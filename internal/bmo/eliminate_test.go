package bmo

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/preference"
)

// eachElimination runs the elimination pass over every presort shape,
// dimension 1–4, sum heads and the zero heads of a key with segments
// (one componentwise leaf), and sizes around the filter's
// capacity, each time on an index slice that is half of a larger matrix
// in random order, and hands check the matrix, the pass's input, the
// survivors and the counters.
func eachElimination(t *testing.T, check func(name string, in *VecInput, input, kept []int32, st Stats, vst VecStats)) {
	t.Helper()
	rng := rand.New(rand.NewSource(51))
	for _, sh := range presortShapes {
		for dim := 1; dim <= 4; dim++ {
			for _, lex := range []bool{false, true} {
				for _, n := range []int{0, 1, 2, filterRows, filterRows + 1, 100, 1000} {
					in := scoreMatrix(2*n, dim, sh.gen(rng, dim))
					if lex {
						in.Seg, in.Sums = &preference.Seg{Hi: dim}, make([]float64, 2*n)
					}
					var part []int32
					for _, i := range rng.Perm(2 * n)[:n] {
						part = append(part, int32(i))
					}
					input := slices.Clone(part)
					var st Stats
					var vst VecStats
					kept, err := eliminate(&window{m: in, st: &st}, part, &vst)
					name := fmt.Sprintf("%s/d=%d/lex=%v/n=%d", sh.name, dim, lex, n)
					if err != nil {
						t.Fatalf("%s: %v", name, err)
					}
					check(name, in, input, kept, st, vst)
				}
			}
		}
	}
}

// TestEliminateDropsOnlyDominated: every row the elimination pass drops
// is dominated by a row of its input, so no skyline member is lost, and
// Eliminated counts the dropped rows.
func TestEliminateDropsOnlyDominated(t *testing.T) {
	eachElimination(t, func(name string, in *VecInput, input, kept []int32, _ Stats, vst VecStats) {
		if vst.Eliminated != len(input)-len(kept) {
			t.Fatalf("%s: Eliminated=%d, but %d of %d rows survive", name, vst.Eliminated, len(kept), len(input))
		}
		for _, d := range input {
			if slices.Contains(kept, d) {
				continue
			}
			if !slices.ContainsFunc(input, func(r int32) bool { return vdominates(in.vec(r), in.vec(d), &Stats{}) }) {
				t.Fatalf("%s: row %d %v was dropped, but no input row dominates it", name, d, in.vec(d))
			}
		}
	})
}

// TestEliminateKeepsInputOrder: the survivors are a subsequence of the
// input, in input order, and each test the pass made counts as a
// comparison.
func TestEliminateKeepsInputOrder(t *testing.T) {
	eachElimination(t, func(name string, _ *VecInput, input, kept []int32, st Stats, _ VecStats) {
		at := 0
		for _, k := range kept {
			for at < len(input) && input[at] != k {
				at++
			}
			if at == len(input) {
				t.Fatalf("%s: survivors %v are not a subsequence of the input %v", name, kept, input)
			}
			at++
		}
		if len(input) > len(kept) && st.Comparisons == 0 {
			t.Fatalf("%s: rows were dropped without a counted comparison", name)
		}
	})
}

// TestEliminateKeepsNaNError: a row whose score sum is NaN fails the
// evaluation with its error even when an earlier row of its partition
// dominates it on its other elements — under one worker and two, and in
// a Parallel stream.
func TestEliminateKeepsNaNError(t *testing.T) {
	// 10 blocks reach AutoParallelThreshold, so Auto uses both workers,
	// which split them into two partitions of 5; the dominating row and
	// the NaN row open the second one.
	const n, bad = 10 * VecBlockSize, 5*VecBlockSize + 1
	rng := rand.New(rand.NewSource(7))
	in := scoreMatrix(n, 3, func(i, j int) float64 {
		switch {
		case i == bad-1:
			return 0
		case i == bad && j == 1:
			return math.NaN()
		}
		return 1 + rng.Float64()
	})
	want := nanSumError(bad).Error()
	batch := func(algo Algorithm, workers int) func() error {
		return func() error {
			_, _, _, err := EvaluateVecInput(*in, algo, Config{Workers: workers})
			return err
		}
	}
	for _, tc := range []struct {
		name string
		run  func() error
	}{
		{"auto-w1", batch(Auto, 1)},
		{"auto-w2", batch(Auto, 2)},
		{"parallel-w2", batch(Parallel, 2)},
		{"parallel-stream-w2", func() error {
			_, err := NewStream(*in, Parallel, Config{Workers: 2})
			return err
		}},
	} {
		if err := tc.run(); err == nil || err.Error() != want {
			t.Errorf("%s: err = %v, want %q", tc.name, err, want)
		}
	}
}
