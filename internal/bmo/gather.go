package bmo

import (
	"fmt"
	"slices"

	"repro/internal/preference"
	"repro/internal/value"
)

// This file implements the coordinator side of distributed BMO: merging
// per-shard partial skylines into the global Best-Matches-Only set. Each
// shard is a partition that computed its local skyline where the data
// lives, and skyline(R) = skyline(∪ᵢ skyline(Rᵢ)) makes the merge exact.
//
// Two merge modes:
//
//   - Progressive (no residual cascade stages): every evaluation emits
//     its skyline in the kernel's key order, so each shard stream
//     arrives key-sorted. The kernel's k-way merge (see vectorized.go)
//     runs over the shard streams, keying rows as they arrive, and
//     admits each candidate through its window. First rows flow as soon
//     as every shard has produced one row — not after the slowest shard
//     finishes. A shard stream that regresses in key order fails the
//     merge loudly.
//
//   - Batch (residual cascade stages, or no preference at all): drain
//     every shard, then run the stages of the preference and of the
//     residual over the concatenated partials through ReduceStages,
//     which stops once at most one row is left.
//     Plain concatenation when there is no preference to merge under.

// RowSource is one shard's result stream as the gather merge consumes
// it: the pull half of a remote cursor. Next returns ok=false at end of
// stream; Close releases the underlying connection (and is how the
// merge's owner cancels a shard mid-stream).
type RowSource interface {
	Next() (value.Row, bool, error)
	Close() error
}

// GatherMerge merges per-shard partial skyline streams into the global
// skyline. Construct with NewGatherMerge, pull with Next, and Close to
// release the shard streams (Close is idempotent and must be called
// even after an error, so surviving shard streams are torn down).
type GatherMerge struct {
	pref    preference.Preference
	post    preference.Preference
	sources []RowSource
	cfg     Config
	st      Stats

	// Progressive state: the merge, the arriving rows and their key
	// matrix, and each shard's previous row (-1 before its first).
	mg    *merger
	comps []preference.Scorer
	in    VecInput
	rows  []value.Row
	last  []int32

	// Batch state: the rows not yet returned, once loaded.
	batch  []value.Row
	loaded bool
}

// NewGatherMerge prepares a merge of the per-shard streams. pref is the
// preference the shards evaluated locally (the first cascade stage when
// the query's cascade was split); nil means no preference — the shards
// ran a plain SELECT and the merge is a concatenation. post carries the
// residual cascade stages to apply after the merge, nil when the whole
// preference was pushed. The merge is progressive exactly when there is
// a preference and no residual: then shard streams arrive key-sorted
// and rows are emitted as soon as they are known maximal.
func NewGatherMerge(pref, post preference.Preference, sources []RowSource, cfg Config) *GatherMerge {
	g := &GatherMerge{pref: pref, post: post, sources: sources, cfg: cfg}
	if pref == nil || post != nil {
		return g
	}
	key := preference.KeyOf(pref)
	g.comps, g.in = key.Comps, NewVecInput(key)
	g.last = slices.Repeat([]int32{-1}, len(sources))
	g.mg = newMerger(&g.in, len(sources), g.pull, &g.st, cfg)
	return g
}

// Progressive reports whether rows stream out before all shards finish.
func (g *GatherMerge) Progressive() bool { return g.mg != nil }

// Stats reports the dominance work done so far (merge comparisons and
// the coordinator's filter window; shard-local work is counted on the
// shards).
func (g *GatherMerge) Stats() Stats { return g.st }

// Close closes every shard stream, returning the first error. Safe to
// call more than once.
func (g *GatherMerge) Close() error {
	var first error
	for _, src := range g.sources {
		if err := src.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// Next returns the next globally maximal tuple, or ok=false once the
// merged BMO set is exhausted.
func (g *GatherMerge) Next() (value.Row, bool, error) {
	if g.mg != nil {
		i, ok, err := g.mg.next()
		if err != nil || !ok {
			return nil, false, err
		}
		return g.rows[i], true, nil
	}
	if !g.loaded {
		g.loaded = true
		var err error
		if g.batch, err = g.loadBatch(); err != nil {
			return nil, false, err
		}
	}
	if len(g.batch) == 0 {
		return nil, false, nil
	}
	row := g.batch[0]
	g.batch = g.batch[1:]
	return row, true, nil
}

// pull reads shard i's next row and keys it into the matrix. A shard
// emitting rows out of key order would silently break the merge's
// admission invariant, so regression is reported loudly.
func (g *GatherMerge) pull(i int) (int32, bool, error) {
	row, ok, err := g.sources[i].Next()
	if err != nil || !ok {
		return 0, false, err
	}
	if err := g.in.score(g.comps, row); err != nil {
		return 0, false, err
	}
	g.rows = append(g.rows, row)
	r := int32(len(g.rows) - 1)
	if prev := g.last[i]; prev >= 0 && g.mg.order(r, prev) < -1 {
		return 0, false, fmt.Errorf("bmo: shard %d stream is not in skyline sort order", i)
	}
	g.last[i] = r
	return r, true, nil
}

// loadBatch drains every shard and runs pref's stages, then the residual
// cascade stages, over the complete merged relation. Residual stages
// cannot run on the shards: a later stage discriminates only among
// survivors of the earlier stages over the WHOLE relation, which no
// single shard sees.
func (g *GatherMerge) loadBatch() ([]value.Row, error) {
	var all []value.Row
	for _, src := range g.sources {
		for {
			r, ok, err := src.Next()
			if err != nil {
				return nil, err
			}
			if !ok {
				break
			}
			all = append(all, r)
		}
	}
	var stages []preference.Preference
	for _, p := range []preference.Preference{g.pref, g.post} {
		if p != nil {
			stages = append(stages, Stages(p)...)
		}
	}
	return evaluate(stages, all, Auto, &g.st, g.cfg)
}
