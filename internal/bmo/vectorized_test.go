package bmo

import (
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/preference"
	"repro/internal/value"
)

// carRows draws a car-shaped catalog without importing datagen (which
// would cycle back into bmo through the engine): 7 columns with id at
// 0, numeric attributes at 3 (price), 4 (power) and 6 (mileage) and a
// text color at 5.
func carRows(rng *rand.Rand, n int) []value.Row {
	colors := []string{"red", "black", "silver", "blue"}
	rows := make([]value.Row, n)
	for i := range rows {
		rows[i] = value.Row{
			value.NewInt(int64(i + 1)),
			value.NewText("make"),
			value.NewText("category"),
			value.NewInt(int64(rng.Intn(100000))),
			value.NewInt(int64(50 + rng.Intn(400))),
			value.NewText(colors[rng.Intn(len(colors))]),
			value.NewFloat(rng.Float64() * 200000),
		}
	}
	return rows
}

func cget(i int) preference.Getter {
	return func(r value.Row) (value.Value, error) { return r[i], nil }
}

// scoreBasedPref draws a random Pareto combination of the four numeric
// scorer kinds over the car schema (price=3, power=4, mileage=6).
func scoreBasedPref(rng *rand.Rand) preference.Preference {
	cols := []int{0, 3, 4, 6}
	mk := func() preference.Preference {
		col := cols[rng.Intn(len(cols))]
		label := fmt.Sprintf("c%d", col)
		switch rng.Intn(4) {
		case 0:
			return &preference.Lowest{Get: cget(col), Label: label}
		case 1:
			return &preference.Highest{Get: cget(col), Label: label}
		case 2:
			return &preference.Around{Get: cget(col), Target: float64(rng.Intn(100000)), Label: label}
		default:
			lo := float64(rng.Intn(50000))
			return &preference.Between{Get: cget(col), Lo: lo, Hi: lo + float64(rng.Intn(50000)), Label: label}
		}
	}
	n := 1 + rng.Intn(3)
	if n == 1 {
		return mk()
	}
	parts := make([]preference.Preference, n)
	for i := range parts {
		parts[i] = mk()
	}
	return &preference.Pareto{Parts: parts}
}

// nullCars draws a car-shaped catalog and punches NULL holes into the
// numeric columns (a NULL score is +Inf: it sorts last and never
// dominates).
func nullCars(rng *rand.Rand, n int) []value.Row {
	rows := carRows(rng, n)
	null := value.NewNull()
	for _, r := range rows {
		for _, c := range []int{3, 4, 6} {
			if rng.Intn(10) == 0 {
				r[c] = null
			}
		}
	}
	return rows
}

// drain pulls a progressive evaluation to the end.
func drain(s interface {
	Next() (value.Row, bool, error)
}) ([]value.Row, error) {
	var out []value.Row
	for {
		row, ok, err := s.Next()
		if err != nil || !ok {
			return out, err
		}
		out = append(out, row)
	}
}

// sliceSource is a RowSource over a slice.
type sliceSource struct{ rows []value.Row }

func (s *sliceSource) Next() (value.Row, bool, error) {
	if len(s.rows) == 0 {
		return nil, false, nil
	}
	r := s.rows[0]
	s.rows = s.rows[1:]
	return r, true, nil
}

func (s *sliceSource) Close() error { return nil }

// evalVec is the exec layer's entry into the block kernel: fill the key
// matrix from rows, then evaluate it.
func evalVec(p preference.Preference, rows []value.Row, cfg Config) ([]value.Row, VecStats, error) {
	in, err := BuildVecInput(preference.KeyOf(p), rows)
	if err != nil {
		return nil, VecStats{}, err
	}
	idx, _, vst, err := EvaluateVecInput(in, Parallel, cfg)
	return rowsAt(&in, idx), vst, err
}

// TestVectorizedOrderMatchesSFS pins the strongest property the score
// family claims: every entry point's output is byte-identical — same
// rows in the same order, not just the same set — to the sequential
// sort-filter-skyline order (one worker), across block boundaries,
// worker counts and NULL scores. Shards rely on it: the coordinator's
// progressive merge needs every shard's skyline in this order, whatever
// kernel ran there.
func TestVectorizedOrderMatchesSFS(t *testing.T) {
	rng := rand.New(rand.NewSource(20020529))
	for trial := 0; trial < 40; trial++ {
		p := scoreBasedPref(rng)
		// Sizes straddle the block size: sub-block, exact multiple, ragged.
		n := []int{17, VecBlockSize, VecBlockSize + 1, 3000}[rng.Intn(4)]
		rows := nullCars(rng, n)
		want, _, err := EvaluateConfig(p, rows, Auto, Config{Workers: 1})
		if err != nil {
			t.Fatalf("trial %d: SFS failed: %v", trial, err)
		}
		batch := func(algo Algorithm, workers int) func() ([]value.Row, error) {
			return func() ([]value.Row, error) {
				out, _, err := EvaluateConfig(p, rows, algo, Config{Workers: workers})
				return out, err
			}
		}
		vec := func(workers int) func() ([]value.Row, error) {
			return func() ([]value.Row, error) {
				out, vst, err := evalVec(p, rows, Config{Workers: workers})
				// One worker scans the survivors of the elimination pass
				// in whole blocks. More workers scan each partition's
				// survivors so, and partitions are block-aligned, so the
				// count lies between that and the whole input's blocks.
				want, most := blocks(n-vst.Eliminated), blocks(n)
				if workers == 1 {
					most = want
				}
				if err == nil && (vst.BlocksScanned < want || vst.BlocksScanned > most) {
					err = fmt.Errorf("scanned %d blocks, want %d..%d", vst.BlocksScanned, want, most)
				}
				return out, err
			}
		}
		arms := []struct {
			name string
			run  func() ([]value.Row, error)
		}{
			{"vec-w1", vec(1)},
			{"vec-w3", vec(3)},
			{"parallel-w2", batch(Parallel, 2)},
			{"parallel-w4", batch(Parallel, 4)},
			{"parallel-w7", batch(Parallel, 7)},
			{"stream", func() ([]value.Row, error) {
				s, err := streamRows(p, rows, Auto, Config{Workers: 1})
				if err != nil {
					return nil, err
				}
				return drain(s)
			}},
			{"parallel-stream-w3", func() ([]value.Row, error) {
				s, err := streamRows(p, rows, Parallel, Config{Workers: 3})
				if err != nil {
					return nil, err
				}
				return drain(s)
			}},
			// The sequential result split into contiguous, hence
			// monotone, shard streams.
			{"gather", func() ([]value.Row, error) {
				var sources []RowSource
				for lo := 0; lo < len(want); lo += 5 {
					sources = append(sources, &sliceSource{rows: want[lo:min(lo+5, len(want))]})
				}
				g := NewGatherMerge(p, nil, sources, Config{})
				if !g.Progressive() {
					return nil, errors.New("gather merge of a score-based preference is not progressive")
				}
				return drain(g)
			}},
		}
		for _, arm := range arms {
			got, err := arm.run()
			if err != nil {
				t.Fatalf("trial %d: %s failed: %v", trial, arm.name, err)
			}
			if len(got) != len(want) {
				t.Fatalf("trial %d (%s): %d rows, want %d\npreference: %s",
					trial, arm.name, len(got), len(want), p.Describe())
			}
			for i := range got {
				if got[i].Key() != want[i].Key() {
					t.Fatalf("trial %d (%s): row %d differs from SFS order\npreference: %s",
						trial, arm.name, i, p.Describe())
				}
			}
		}
	}
}

// blocks is the number of VecBlockSize blocks n rows fill.
func blocks(n int) int { return (n + VecBlockSize - 1) / VecBlockSize }

// TestVectorizedZoneMapPruning pins the block counters on a dataset
// built to prune: rows (i, i) form a chain, so the first block's best
// row (0, 0) dominates every later block's corner. The chain arrives in
// reverse, each row dominating every earlier one, so the elimination
// pass drops nothing and every row reaches the blocks.
func TestVectorizedZoneMapPruning(t *testing.T) {
	const n = 8 * VecBlockSize
	rows := make([]value.Row, n)
	for i := range rows {
		rows[i] = value.Row{value.NewInt(int64(n - 1 - i)), value.NewInt(int64(n - 1 - i))}
	}
	p := &preference.Pareto{Parts: []preference.Preference{
		&preference.Lowest{Get: cget(0), Label: "a"},
		&preference.Lowest{Get: cget(1), Label: "b"},
	}}
	// With one worker every block after the first sees (0, 0) in the
	// window and is zone-pruned. With two workers each block-aligned
	// 4-block partition starts from an empty window, so its first block
	// cannot prune and its three later blocks do.
	for _, tc := range []struct {
		workers, pruned int
	}{{1, 7}, {2, 6}} {
		out, vst, err := evalVec(p, rows, Config{Workers: tc.workers})
		if err != nil {
			t.Fatal(err)
		}
		if len(out) != 1 || out[0][0].I != 0 {
			t.Fatalf("w=%d: expected the single row (0, 0), got %d rows", tc.workers, len(out))
		}
		if vst.Eliminated != 0 || vst.BlocksScanned != 8 || vst.BlocksPruned != tc.pruned {
			t.Fatalf("w=%d: counters: eliminated=%d scanned=%d pruned=%d, want eliminated=0 scanned=8 pruned=%d",
				tc.workers, vst.Eliminated, vst.BlocksScanned, vst.BlocksPruned, tc.pruned)
		}
	}
}

// TestVectorizedCascadeStages pins stage-wise CASCADE evaluation of
// score-family stages (each stage narrows the candidate set).
func TestVectorizedCascadeStages(t *testing.T) {
	rows := carRows(rand.New(rand.NewSource(11)), 2000)
	p := &preference.Cascade{Parts: []preference.Preference{
		&preference.Lowest{Get: cget(3), Label: "price"},
		&preference.Highest{Get: cget(4), Label: "power"},
	}}
	want, err := Evaluate(p, rows, NestedLoop)
	if err != nil {
		t.Fatal(err)
	}
	got, st, err := EvaluateConfig(p, rows, Auto, Config{})
	if err != nil {
		t.Fatal(err)
	}
	a, b := rowSet(got), rowSet(want)
	if !subMultiset(a, b) || !subMultiset(b, a) {
		t.Fatalf("cascade diverges: %d vs %d rows", len(got), len(want))
	}
	if st.Stages < 1 {
		t.Fatalf("expected stage counter to advance, got %d", st.Stages)
	}
}

// TestVectorizedStop pins cancellation: a failing Stop hook aborts the
// evaluation with its error.
func TestVectorizedStop(t *testing.T) {
	// Anti-correlated rows (i, n-i): everything is incomparable, so the
	// frontier grows to n and the kernel performs plenty of comparisons
	// between Stop polls.
	const n = 4 * VecBlockSize
	rows := make([]value.Row, n)
	for i := range rows {
		rows[i] = value.Row{value.NewInt(int64(i)), value.NewInt(int64(n - i))}
	}
	p := &preference.Pareto{Parts: []preference.Preference{
		&preference.Lowest{Get: cget(0), Label: "a"},
		&preference.Lowest{Get: cget(1), Label: "b"},
	}}
	stopErr := errors.New("cancelled")
	_, _, err := evalVec(p, rows, Config{Stop: func() error { return stopErr }})
	if !errors.Is(err, stopErr) {
		t.Fatalf("expected the Stop error, got %v", err)
	}
}

// fuzzShape is FuzzVectorizedVsBNL's preference over three small
// integer columns: pareto(3), LOWEST with a chain EXPLICIT (an exact
// key), LOWEST with a non-chain EXPLICIT (a monotone inexact one), or a
// Pareto holding a CASCADE (a key that is not monotone).
func fuzzShape(shape uint8) preference.Preference {
	explicit := func(edges ...[2]int) preference.Preference {
		vals := make([][2]value.Value, len(edges))
		for i, e := range edges {
			vals[i] = [2]value.Value{value.NewInt(int64(e[0])), value.NewInt(int64(e[1]))}
		}
		ex, err := preference.NewExplicit(colGetter(1), "b", vals)
		if err != nil {
			panic(err)
		}
		return ex
	}
	low := func(col int) preference.Preference { return &preference.Lowest{Get: colGetter(col), Label: "c"} }
	switch shape % 4 {
	case 1:
		return &preference.Pareto{Parts: []preference.Preference{low(0), explicit([2]int{3, 5}, [2]int{5, 7}, [2]int{7, 1})}}
	case 2:
		return &preference.Pareto{Parts: []preference.Preference{low(0), explicit([2]int{3, 5}, [2]int{4, 5}, [2]int{5, 9}, [2]int{2, 9})}}
	case 3:
		return &preference.Pareto{Parts: []preference.Preference{
			&preference.Cascade{Parts: []preference.Preference{low(0), &preference.Highest{Get: colGetter(1), Label: "b"}}},
			low(2),
		}}
	}
	return pareto(3)
}

// FuzzVectorizedVsBNL drives the vectorized kernel against the
// block-nested-loop reference on arbitrary small matrices, for each key
// shape fuzzShape draws: the result multiset must match BNL and the
// emission order must match SFS.
func FuzzVectorizedVsBNL(f *testing.F) {
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8, 9}, uint8(1), uint8(0))
	f.Add([]byte{0, 0, 0, 9, 9, 9, 3, 1, 2, 2, 3, 1}, uint8(3), uint8(0))
	f.Add([]byte{2, 3, 0, 1, 5, 0, 0, 7, 1, 4, 1, 2, 3, 3, 3}, uint8(2), uint8(1))
	f.Add([]byte{2, 3, 0, 1, 4, 0, 0, 9, 1, 4, 2, 2, 3, 5, 3}, uint8(2), uint8(2))
	f.Add([]byte{1, 9, 4, 1, 2, 3, 0, 0, 8, 2, 7, 0, 1, 9, 0}, uint8(3), uint8(3))
	f.Fuzz(func(t *testing.T, data []byte, workers, shape uint8) {
		rows := vecRows(data, 3)
		p := fuzzShape(shape)
		cfg := Config{Workers: int(workers % 8)}
		got, _, err := evalVec(p, rows, cfg)
		if err != nil {
			t.Fatalf("vectorized failed: %v", err)
		}
		want, err := Evaluate(p, rows, BlockNestedLoop)
		if err != nil {
			t.Fatalf("BNL failed: %v", err)
		}
		a, b := rowSet(got), rowSet(want)
		if !subMultiset(a, b) || !subMultiset(b, a) {
			t.Fatalf("%s: vectorized multiset diverges from BNL: %d vs %d rows", p.Describe(), len(got), len(want))
		}
		ordered, _, err := EvaluateConfig(p, rows, Auto, Config{Workers: 1})
		if err != nil {
			t.Fatalf("SFS failed: %v", err)
		}
		for i := range got {
			if got[i].Key() != ordered[i].Key() {
				t.Fatalf("%s: row %d diverges from the SFS emission order", p.Describe(), i)
			}
		}
	})
}
