package bmo

import (
	"cmp"
	"math"
	"slices"

	"repro/internal/preference"
	"repro/internal/value"
)

// This file is the one BMO kernel. Every preference has an exact
// presort key (preference.Key): a row is Better exactly where its key
// dominates. The kernel works on keys alone and never calls Compare:
//
//   - one representation: every row's key is computed once into a flat
//     float64 matrix (VecInput) on the calling goroutine, the only phase
//     that runs user-supplied getters;
//   - one elimination pass (eliminate): it drops every row one of a few
//     good rows dominates, so only the survivors are sorted and
//     admitted;
//   - one order: row indices sorted by (head, key elements
//     lexicographically, input index) — sortVecOrder, a radix sort on a
//     32-bit image of the head, with the comparator ordering each run of
//     equal images (presort.go explains why the cut image is exact);
//   - one admission loop: window, which admits a candidate unless one of
//     its members dominates it, pure float comparison: vdominates,
//     componentwise, on a flat key, and the walk of the key's segments
//     (preference.Seg) on a key that holds a CASCADE.
//
// The consumers compose these pieces. The sequential block kernel
// (blockSkyline) feeds the sorted order to a window one VecBlockSize
// block at a time and skips a block wholesale when the window dominates
// its zone map. With more than one worker, keySkyline runs the block
// kernel on contiguous block-aligned partitions concurrently and k-way
// merges the partials through a fresh window (merger). A Stream drains
// a merger lazily, over the single sorted order or, under Parallel,
// over partition partials; GatherMerge's progressive mode drains one
// over shard streams.
//
// Presort: Better implies a strictly smaller key (see preference.Key),
// so no row is dominated by a later one, every admitted row is final,
// the window only grows, and a member whose key is not smaller than the
// candidate's cannot dominate it, which is where the window scan stops.
// A flat key's head is its sum, saturated at +Inf so that a NULL score
// keeps it monotone; a key with segments has head 0.
//
// Elimination exactness: key dominance is Better, which is transitive,
// so a dropped row is dominated by a skyline member of its partition:
// the window would never admit it, nor test a later row against it, so
// the members, their order and the k-way merge stay.
//
// Zone-map soundness: let c be the componentwise minimum of a block's
// keys, so c ≤ r for every row r of the block. On a flat key, if a
// member w dominates c then w ≤ c ≤ r, and the strict component j gives
// w[j] < c[j] ≤ r[j], so w dominates every r. By induction, every
// segment's dominance contains strict componentwise dominance and is
// upward-closed (w dominating c ≤ r dominates r: on a Lex segment r is
// componentwise worse on an earlier stage, or equals w up to the stage
// where w beats c). A member equal to the corner does not prune.
//
// Merge exactness: skyline(R) ⊆ ∪ᵢ skyline(Rᵢ), and every partial is in
// key order, so the k-way merge hands candidates to the window in global
// key order. A candidate's dominators include a global skyline member
// (transitivity), which has a strictly smaller key and was admitted
// first, so the window decides exactly. Partitions are contiguous and
// key ties go to the lower partition, so the merged output is the
// sequential (head, key, index) order, byte for byte.

// VecBlockSize is the number of rows per block of the sequential block
// kernel — the zone-map pruning granularity.
const VecBlockSize = 1024

// VecStats reports the elimination and zone-map work of one vectorized
// evaluation; the exec layer folds it into the statement counters.
type VecStats struct {
	Eliminated    int // rows the elimination pass dropped before the presort
	BlocksScanned int // blocks examined (pruned or not)
	BlocksPruned  int // blocks skipped wholesale via their zone map
}

// VecInput is a key matrix: Flat holds one Dim-wide key vector per row
// (row-major), Sums the heads (see preference.Key). The exec layer fills
// it at the candidates' heap positions, and BuildVecInput from a row
// slice; the kernel works on row indices, and only the winners' rows
// are fetched.
type VecInput struct {
	Dim  int
	Flat []float64
	Sums []float64
	Seg  *preference.Seg // the key's segment layout, nil for a flat key
}

// NewVecInput returns an empty matrix of key's elements.
func NewVecInput(key preference.Key) VecInput {
	return VecInput{Dim: len(key.Comps), Seg: key.Seg}
}

// Len returns the number of rows in the matrix.
func (in *VecInput) Len() int { return len(in.Sums) }

// vec returns row i's key vector.
func (in *VecInput) vec(i int32) []float64 {
	o := int(i) * in.Dim
	return in.Flat[o : o+in.Dim : o+in.Dim]
}

// head is key vector v's head.
func (in *VecInput) head(v []float64) float64 {
	if in.Seg != nil {
		return 0
	}
	return saturatedSum(v)
}

// SumHeads computes Sums from a filled Flat.
func (in *VecInput) SumHeads() {
	in.Sums = make([]float64, len(in.Flat)/in.Dim)
	for i := range in.Sums {
		in.Sums[i] = in.head(in.vec(int32(i)))
	}
}

// score appends row r's key vector and its head.
func (in *VecInput) score(comps []preference.Scorer, r value.Row) error {
	lo := len(in.Flat)
	for _, s := range comps {
		v, err := s.Score(r)
		if err != nil {
			in.Flat = in.Flat[:lo]
			return err
		}
		in.Flat = append(in.Flat, v)
	}
	in.Sums = append(in.Sums, in.head(in.Flat[lo:]))
	return nil
}

// order returns the comparator of the key over in: head, then key
// vector lexicographically, then input index — a total order, and the
// one every path sorts and merges by. It returns ±2 when the keys
// differ and ±1 when only the indices do, so a merge can tell a key
// tie, which it breaks by source instead. Recomputing sums
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

// saturatedSum sums a score vector, saturating at +Inf (NULL scores
// worst) so a later -Inf component cannot turn the sum into NaN and
// wreck the sort. A sum of finite components that overflowed to +Inf
// meets a -Inf component the same way; -Inf wins there, as it does when
// it comes first, so the sum stays monotone in every component. Only a
// NaN component makes the sum NaN.
func saturatedSum(vec []float64) float64 {
	sum := 0.0
	for _, v := range vec {
		if math.IsInf(v, 1) {
			return math.Inf(1)
		}
		sum += v
	}
	if sum != sum && !slices.ContainsFunc(vec, math.IsNaN) {
		return math.Inf(-1)
	}
	return sum
}

// BuildVecInput fills the key matrix generically, one scorer call per
// row and element — the fallback when no column vectors serve the input.
func BuildVecInput(key preference.Key, rows []value.Row) (VecInput, error) {
	in := NewVecInput(key)
	in.Flat, in.Sums = make([]float64, 0, len(rows)*in.Dim), make([]float64, 0, len(rows))
	for _, r := range rows {
		if err := in.score(key.Comps, r); err != nil {
			return VecInput{}, err
		}
	}
	return in, nil
}

// EvaluateVecInput runs the kernel under algo, Auto or Parallel, on a
// filled key matrix and returns the winners' row indices in key order —
// the exec layer's path, where the matrix was filled at heap positions
// (from typed column vectors where a kernel serves an element) and only
// the winners' rows are fetched.
func EvaluateVecInput(in VecInput, algo Algorithm, cfg Config) ([]int32, Stats, VecStats, error) {
	var st Stats
	var vst VecStats
	out, err := keySkyline(&in, &st, &vst, algo.config(cfg, in.Len()))
	return out, st, vst, err
}

// vdominates is the dominance test of a flat key, Better on the rows:
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

// window is the one admission loop: the rows admitted so far, in key
// order. Candidates must arrive in key order too (see the presort note
// above).
type window struct {
	m       *VecInput
	members []int32
	cfg     Config
	st      *Stats
	ticks   int // Stop-poll counter
}

// dominated reports whether a member's key dominates the key vector v
// whose head is sum. Members past sum cannot, so the scan stops there.
// It stops at a member equal to v too: no member dominates that one
// (members arrive in key order, a dominator first), so none dominates
// v — which keeps a run of tied rows, a weak order's best level, linear.
func (w *window) dominated(v []float64, sum float64) (bool, error) {
	if w.m.Seg != nil {
		return w.segDominated(v)
	}
	sums, flat, d := w.m.Sums, w.m.Flat, w.m.Dim
	for _, m := range w.members {
		o := int(m) * d
		if s := sums[m]; s >= sum {
			if s > sum || slices.Equal(flat[o:o+d], v) {
				break
			}
		}
		if err := w.cfg.checkStop(&w.ticks); err != nil {
			return false, err
		}
		if vdominates(flat[o:o+d], v, w.st) {
			return true, nil
		}
	}
	return false, nil
}

// segDominated is dominated for a key with segments, apart so that the
// flat loop makes no call. Heads are 0, so the scan stops at the first
// member not lexicographically smaller than v.
func (w *window) segDominated(v []float64) (bool, error) {
	for _, m := range w.members {
		mv := w.m.vec(m)
		if slices.Compare(mv, v) >= 0 {
			break
		}
		if err := w.cfg.checkStop(&w.ticks); err != nil {
			return false, err
		}
		w.st.Comparisons++
		if w.m.Seg.Order(mv, v) < 0 {
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
	m := w.m
	corner := make([]float64, m.Dim)
	for lo := 0; lo < len(idx); lo += VecBlockSize {
		blk := idx[lo:min(lo+VecBlockSize, len(idx))]
		vst.BlocksScanned++
		copy(corner, m.vec(blk[0]))
		for _, c := range blk[1:] {
			for j, v := range m.vec(c) {
				if v < corner[j] {
					corner[j] = v
				}
			}
		}
		pruned, err := w.dominated(corner, m.head(corner))
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

// keyPartials splits the matrix into contiguous block-aligned
// partitions — at most one per worker and one per block — and runs the
// elimination pass and the block kernel on each concurrently. It
// returns each partition's skyline in key order.
func keyPartials(in *VecInput, st *Stats, vst *VecStats, cfg Config) ([][]int32, error) {
	n := in.Len()
	if n == 0 {
		return nil, nil
	}
	nb := (n + VecBlockSize - 1) / VecBlockSize
	np := min(cfg.workerCount(), nb)
	per := (nb + np - 1) / np * VecBlockSize
	np = (n + per - 1) / per
	idx := identity(n)
	parts := make([][]int32, np)
	stats := make([]Stats, np)
	vstats := make([]VecStats, np)
	err := runConcurrent(np, np, func(p int) error {
		part := idx[p*per : min((p+1)*per, n)]
		w := window{m: in, cfg: cfg, st: &stats[p]}
		part, err := eliminate(&w, part, &vstats[p])
		if err != nil {
			return err
		}
		if err := sortVecOrder(part, in); err != nil {
			return err
		}
		err = blockSkyline(&w, part, &vstats[p])
		parts[p] = w.members
		return err
	})
	mergeStats(st, stats)
	for _, v := range vstats {
		vst.Eliminated += v.Eliminated
		vst.BlocksScanned += v.BlocksScanned
		vst.BlocksPruned += v.BlocksPruned
	}
	return parts, err
}

// filterRows is how many rows the elimination pass tests each row against.
const filterRows = 8

// eliminate is the elimination pass in front of the presort, after LESS
// (Godfrey, Shipley, Gryz, VLDB 2005). It walks part in input order,
// keeps the filterRows best survivors so far in the key order, and
// drops every row one of them dominates componentwise, which on a key
// with segments is a part of its dominance; it returns the survivors,
// compacted in place in input order. A NaN sum fails first, since
// vdominates can drop a NaN row on its other elements. The pass polls
// Stop per row on the window's counter.
func eliminate(w *window, part []int32, vst *VecStats) ([]int32, error) {
	m, order := w.m, w.m.order()
	filter := make([]int32, 0, filterRows+1)
	kept := part[:0]
rows:
	for _, i := range part {
		if s := m.Sums[i]; s != s {
			return nil, nanSumError(i)
		}
		if err := w.cfg.checkStop(&w.ticks); err != nil {
			return nil, err
		}
		v := m.vec(i)
		for _, f := range filter {
			if vdominates(m.vec(f), v, w.st) {
				continue rows
			}
		}
		kept = append(kept, i)
		k := len(filter)
		for k > 0 && order(i, filter[k-1]) < 0 {
			k--
		}
		if k < filterRows {
			filter = slices.Insert(filter, k, i)[:min(len(filter)+1, filterRows)]
		}
	}
	vst.Eliminated += len(part) - len(kept)
	return kept, nil
}

// keySkyline is the batch evaluation of a filled key matrix: the
// partition phase, then — when there is more than one partial — the
// k-way merge. It returns the winners' row indices in key order.
func keySkyline(in *VecInput, st *Stats, vst *VecStats, cfg Config) ([]int32, error) {
	parts, err := keyPartials(in, st, vst, cfg)
	if err != nil {
		return nil, err
	}
	if len(parts) == 1 {
		return parts[0], nil
	}
	mg := mergePartials(in, parts, st, cfg)
	var out []int32
	for {
		i, ok, err := mg.next()
		if err != nil || !ok {
			return out, err
		}
		out = append(out, i)
	}
}

// identity returns the row indices 0..n-1.
func identity(n int) []int32 {
	idx := make([]int32, n)
	for i := range idx {
		idx[i] = int32(i)
	}
	return idx
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

// next returns the next admitted row index, or ok=false once every
// source is exhausted.
func (mg *merger) next() (int32, bool, error) {
	for {
		best := -1
		for i := range mg.heads {
			if mg.heads[i] == needPull {
				r, ok, err := mg.pull(i)
				if err != nil {
					return 0, false, err
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
			return 0, false, nil
		}
		c := mg.heads[best]
		mg.heads[best] = needPull
		ok, err := mg.win.admit(c)
		if err != nil {
			return 0, false, err
		}
		if ok {
			return c, true, nil
		}
	}
}
