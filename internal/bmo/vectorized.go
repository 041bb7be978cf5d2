package bmo

import (
	"cmp"
	"math"
	"slices"

	"repro/internal/preference"
	"repro/internal/value"
)

// This file is the score family's one kernel. A preference belongs to
// the score family when ScoreBased holds — a weak order, or a Pareto
// accumulation of weak orders — and then dominance is a property of
// score vectors alone:
//
//   - one representation: every row is scored once into a flat float64
//     matrix (VecInput) on the calling goroutine, the only phase that runs
//     user-supplied getters, so everything downstream is pure float
//     comparison and safe across goroutines;
//   - one order: row indices sorted by the monotone key (sum, score
//     vector lexicographically, input index) — sortVecOrder;
//   - one dominance test: vdominates;
//   - one admission loop: window, which admits a candidate unless one of
//     its members dominates it.
//
// The consumers compose these pieces. The sequential block kernel
// (blockSkyline) feeds the sorted order to a window one VecBlockSize
// block at a time and skips a block wholesale when the window dominates
// its zone map. With more than one worker, scoreSkyline runs the block
// kernel on contiguous block-aligned partitions concurrently and k-way
// merges the partials through a fresh window (merger). Stream is a
// merger over the single sorted order, drained lazily; the score-based
// ParallelStream and GatherMerge's progressive mode drain a merger over
// partition partials and shard streams.
//
// Monotonicity: if a dominates b then a ≤ b componentwise with one
// strict <, so sum(a) ≤ sum(b) — also with +Inf NULL scores, because
// sums saturate at +Inf — and on equal sums a's vector is
// lexicographically smaller. So a sorts strictly before b: no row is
// dominated by a later one, every admitted row is final, the window only
// grows, and a member whose sum exceeds the candidate's cannot dominate
// it, which is where the window scan stops.
//
// Zone-map soundness: let c be the componentwise minimum of a block's
// score vectors. If a member w dominates c then for every row r of the
// block w ≤ c ≤ r componentwise, and the strict component j gives
// w[j] < c[j] ≤ r[j] — so w dominates every r. A member merely equal to
// the corner does not prune (equality never dominates; substitutable
// rows all survive).
//
// Merge exactness: skyline(R) ⊆ ∪ᵢ skyline(Rᵢ), and every partial is in
// key order, so the k-way merge hands candidates to the window in global
// key order. A candidate's dominators include a global skyline member
// (transitivity), which has a strictly smaller key and was admitted
// first, so the window decides exactly. Partitions are contiguous and
// key ties go to the lower partition, so the merged output is the
// sequential (sum, vector, index) order, byte for byte.

// VecBlockSize is the number of rows per block of the sequential block
// kernel — the zone-map pruning granularity.
const VecBlockSize = 1024

// VecStats reports the zone-map effectiveness of one vectorized
// evaluation; the exec layer folds it into the statement counters.
type VecStats struct {
	BlocksScanned int // blocks examined (pruned or not)
	BlocksPruned  int // blocks skipped wholesale via their zone map
}

// VecInput is a score matrix: Flat holds one Dim-wide score vector per
// row (row-major), Sums the +Inf-saturated score sums (the primary sort
// key). The exec layer fills it straight from columnar storage;
// BuildVecInput is the generic row-at-a-time fill.
type VecInput struct {
	Rows []value.Row
	Dim  int
	Flat []float64
	Sums []float64
}

// vec returns row i's score vector.
func (in *VecInput) vec(i int32) []float64 {
	o := int(i) * in.Dim
	return in.Flat[o : o+in.Dim : o+in.Dim]
}

// score appends row r's score vector and its saturated sum; the caller
// owns Rows.
func (in *VecInput) score(scorers []preference.Scored, r value.Row) error {
	lo := len(in.Flat)
	for _, s := range scorers {
		v, err := s.Score(r)
		if err != nil {
			in.Flat = in.Flat[:lo]
			return err
		}
		in.Flat = append(in.Flat, v)
	}
	in.Sums = append(in.Sums, saturatedSum(in.Flat[lo:]))
	return nil
}

// order returns the comparator of the monotone key over in: sum, then
// score vector lexicographically, then input index — a total order, and
// the one every score-family path sorts and merges by. It returns ±2
// when the keys differ and ±1 when only the indices do, so a merge can
// tell a key tie, which it breaks by source instead. Recomputing sums
// here would be wrong as well as wasted work: an unsaturated +Inf + -Inf
// is NaN, which compares false both ways. The comparator reads the
// matrix at call time, so it stays valid while rows are appended.
func (in *VecInput) order() func(a, b int32) int {
	return func(a, b int32) int {
		if sa, sb := in.Sums[a], in.Sums[b]; sa != sb {
			if sa < sb {
				return -2
			}
			return 2
		}
		av, bv := in.vec(a), in.vec(b)
		for j := range av {
			if av[j] != bv[j] {
				if av[j] < bv[j] {
					return -2
				}
				return 2
			}
		}
		return cmp.Compare(a, b)
	}
}

// ScoreBased reports whether p belongs to the score family — a single
// weak order, or a Pareto accumulation of weak orders — and returns its
// component score functions. The planner and exec layers use it to
// decide on the vectorized operator.
func ScoreBased(p preference.Preference) ([]preference.Scored, bool) {
	if s, ok := p.(preference.Scored); ok {
		return []preference.Scored{s}, true
	}
	par, ok := p.(*preference.Pareto)
	if !ok {
		return nil, false
	}
	out := make([]preference.Scored, len(par.Parts))
	for i, part := range par.Parts {
		s, ok := part.(preference.Scored)
		if !ok {
			return nil, false
		}
		out[i] = s
	}
	return out, true
}

// saturatedSum sums a score vector, saturating at +Inf (NULL scores
// worst) so a later -Inf component cannot turn the sum into NaN and
// wreck the sort.
func saturatedSum(vec []float64) float64 {
	sum := 0.0
	for _, v := range vec {
		if math.IsInf(v, 1) {
			return math.Inf(1)
		}
		sum += v
	}
	return sum
}

// SaturateSums computes the +Inf-saturated score sums of a filled score
// matrix of n rows of d scores.
func SaturateSums(flat []float64, n, d int) []float64 {
	sums := make([]float64, n)
	for i := range sums {
		sums[i] = saturatedSum(flat[i*d : (i+1)*d])
	}
	return sums
}

// BuildVecInput fills the score matrix generically, one scorer call per
// row and component — the fallback when no column vectors serve the
// input.
func BuildVecInput(scorers []preference.Scored, rows []value.Row) (VecInput, error) {
	in := VecInput{Rows: rows, Dim: len(scorers),
		Flat: make([]float64, 0, len(rows)*len(scorers)), Sums: make([]float64, 0, len(rows))}
	for _, r := range rows {
		if err := in.score(scorers, r); err != nil {
			return VecInput{}, err
		}
	}
	return in, nil
}

// EvaluateVecInput runs the score kernel on a prebuilt score matrix —
// the exec layer's columnar fast path, where the matrix was filled from
// typed column vectors without boxing a single value.
func EvaluateVecInput(in VecInput, cfg Config) ([]value.Row, Stats, VecStats, error) {
	var st Stats
	var vst VecStats
	out, err := scoreSkyline(&in, &st, &vst, cfg)
	return out, st, vst, err
}

// sortVecOrder sorts row indices by the monotone key. The order is
// total, so the unstable pdqsort is deterministic; sorting 4-byte indices
// keeps swaps cheap at millions of rows.
func sortVecOrder(idx []int32, in *VecInput) { slices.SortFunc(idx, in.order()) }

// vdominates is the score family's dominance test: a dominates b iff
// a ≤ b componentwise with at least one strict <. Equal vectors never
// dominate.
func vdominates(a, b []float64, st *Stats) bool {
	st.Comparisons++
	better := false
	for j := range a {
		if a[j] > b[j] {
			return false
		}
		if a[j] < b[j] {
			better = true
		}
	}
	return better
}

// window is the score family's one admission loop: the rows admitted so
// far, in key order. Candidates must arrive in key order too (see the
// monotonicity note above).
type window struct {
	m       *VecInput
	members []int32
	cfg     Config
	st      *Stats
	ticks   int // Stop-poll counter
}

// dominated reports whether a member dominates the score vector v whose
// saturated sum is sum. Members past sum cannot, so the scan stops there.
func (w *window) dominated(v []float64, sum float64) (bool, error) {
	sums, flat, d := w.m.Sums, w.m.Flat, w.m.Dim
	for _, m := range w.members {
		if sums[m] > sum {
			break
		}
		if err := w.cfg.checkStop(&w.ticks); err != nil {
			return false, err
		}
		if o := int(m) * d; vdominates(flat[o:o+d], v, w.st) {
			return true, nil
		}
	}
	return false, nil
}

// admit adds row i to the window unless a member dominates it.
func (w *window) admit(i int32) (bool, error) {
	dom, err := w.dominated(w.m.vec(i), w.m.Sums[i])
	if err != nil || dom {
		return false, err
	}
	w.members = append(w.members, i)
	if len(w.members) > w.st.MaxWindow {
		w.st.MaxWindow = len(w.members)
	}
	return true, nil
}

// blockSkyline is the sequential block kernel: it feeds the sorted row
// indices idx to w one VecBlockSize block at a time, and skips a block
// outright when w dominates its zone map.
func blockSkyline(w *window, idx []int32, vst *VecStats) error {
	corner := make([]float64, w.m.Dim)
	for lo := 0; lo < len(idx); lo += VecBlockSize {
		blk := idx[lo:min(lo+VecBlockSize, len(idx))]
		vst.BlocksScanned++
		copy(corner, w.m.vec(blk[0]))
		for _, c := range blk[1:] {
			for j, v := range w.m.vec(c) {
				if v < corner[j] {
					corner[j] = v
				}
			}
		}
		pruned, err := w.dominated(corner, saturatedSum(corner))
		if err != nil {
			return err
		}
		if pruned {
			vst.BlocksPruned++
			continue
		}
		for _, c := range blk {
			if _, err := w.admit(c); err != nil {
				return err
			}
		}
	}
	return nil
}

// scorePartials splits the matrix into contiguous block-aligned
// partitions — at most one per worker and one per block — and runs the
// block kernel on each concurrently. It returns each partition's
// skyline in key order. Block alignment keeps BlocksScanned at
// ⌈n/VecBlockSize⌉ whatever the worker count.
func scorePartials(in *VecInput, st *Stats, vst *VecStats, cfg Config) ([][]int32, error) {
	n := len(in.Rows)
	if n == 0 {
		return nil, nil
	}
	nb := (n + VecBlockSize - 1) / VecBlockSize
	np := min(cfg.workerCount(), nb)
	per := (nb + np - 1) / np * VecBlockSize
	np = (n + per - 1) / per
	idx := make([]int32, n)
	for i := range idx {
		idx[i] = int32(i)
	}
	parts := make([][]int32, np)
	stats := make([]Stats, np)
	vstats := make([]VecStats, np)
	err := runConcurrent(np, np, func(p int) error {
		part := idx[p*per : min((p+1)*per, n)]
		sortVecOrder(part, in)
		w := window{m: in, cfg: cfg, st: &stats[p]}
		err := blockSkyline(&w, part, &vstats[p])
		parts[p] = w.members
		return err
	})
	mergeStats(st, stats)
	for _, v := range vstats {
		vst.BlocksScanned += v.BlocksScanned
		vst.BlocksPruned += v.BlocksPruned
	}
	return parts, err
}

// scoreSkyline is the score family's batch evaluation of a filled
// matrix: the partition phase, then — when there is more than one
// partial — the k-way merge. Rows come out in key order.
func scoreSkyline(in *VecInput, st *Stats, vst *VecStats, cfg Config) ([]value.Row, error) {
	parts, err := scorePartials(in, st, vst, cfg)
	if err != nil {
		return nil, err
	}
	if len(parts) == 1 {
		out := make([]value.Row, len(parts[0]))
		for k, i := range parts[0] {
			out[k] = in.Rows[i]
		}
		return out, nil
	}
	mg := mergePartials(in, parts, st, cfg)
	var out []value.Row
	for {
		row, ok, err := mg.Next()
		if err != nil || !ok {
			return out, err
		}
		out = append(out, row)
	}
}

// merger k-way merges monotone sources through one window: the
// candidate with the smallest key among the sources' heads goes next,
// the lower source winning key ties, so the window sees candidates in
// global key order. pull returns source i's next row index into the
// window's matrix, ok=false once the source is exhausted; a source is
// pulled only when its head is needed, so a consumer that stops early
// leaves the rest unread.
type merger struct {
	win   window
	order func(a, b int32) int
	heads []int32 // per source: a row index, needPull or exhausted
	pull  func(i int) (int32, bool, error)
}

const (
	needPull  = -1
	exhausted = -2
)

func newMerger(in *VecInput, sources int, pull func(int) (int32, bool, error), st *Stats, cfg Config) *merger {
	return &merger{win: window{m: in, cfg: cfg, st: st}, order: in.order(),
		heads: slices.Repeat([]int32{needPull}, sources), pull: pull}
}

// mergePartials is the merger over in-memory partials of one matrix.
func mergePartials(in *VecInput, parts [][]int32, st *Stats, cfg Config) *merger {
	return newMerger(in, len(parts), func(p int) (int32, bool, error) {
		if len(parts[p]) == 0 {
			return 0, false, nil
		}
		i := parts[p][0]
		parts[p] = parts[p][1:]
		return i, true, nil
	}, st, cfg)
}

// Next returns the next admitted row, or ok=false once every source is
// exhausted.
func (mg *merger) Next() (value.Row, bool, error) {
	for {
		best := -1
		for i := range mg.heads {
			if mg.heads[i] == needPull {
				r, ok, err := mg.pull(i)
				if err != nil {
					return nil, false, err
				}
				if !ok {
					r = exhausted
				}
				mg.heads[i] = r
			}
			if h := mg.heads[i]; h >= 0 && (best < 0 || mg.order(h, mg.heads[best]) < -1) {
				best = i
			}
		}
		if best < 0 {
			return nil, false, nil
		}
		c := mg.heads[best]
		mg.heads[best] = needPull
		ok, err := mg.win.admit(c)
		if err != nil {
			return nil, false, err
		}
		if ok {
			return mg.win.m.Rows[c], true, nil
		}
	}
}
