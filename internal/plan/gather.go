package plan

import (
	"context"
	"fmt"

	"repro/internal/preference"
	"repro/internal/value"
)

// ShardStream is one shard's result stream as the gather operator pulls
// it: the coordinator-side half of a remote cursor. Close cancels the
// shard's statement and releases its connection.
type ShardStream interface {
	Next() (value.Row, bool, error)
	Close() error
}

// ShardTransport opens per-shard result streams for the gather
// operator. The interface lives in the plan package so the plan/exec
// layers stay free of any network dependency: internal/dist implements
// it over the wire client and the core layer injects it (the client
// package imports core, so core cannot import the client back).
type ShardTransport interface {
	// ShardNames labels the shards for EXPLAIN and metrics, in shard
	// order; its length is the shard count.
	ShardNames() []string
	// Query runs sql with args on shard i and returns its row stream.
	// progressive marks a stream the gather merges progressively, which
	// needs the shard's skyline in the kernel's key order — the order
	// every evaluation emits. Cancelling ctx must
	// terminate the stream.
	Query(ctx context.Context, shard int, sql string, args []value.Value, progressive bool) (ShardStream, error)
}

// Gather is the scatter-gather leaf of a distributed preference query:
// it runs ShardSQL on every shard of Table concurrently over the wire
// transport and merges the partial results — with the dominance-
// filtered partition merge when Pref is set (each shard computed the
// local skyline of its shard, the network form of the parallel
// partition-merge algebra), by concatenation otherwise. It is a leaf
// from the local planner's point of view: its children are plans on
// other nodes.
type Gather struct {
	Table     string // sharded table name
	ShardSQL  string // statement forwarded to every shard
	Args      []value.Value
	Cols      Schema
	Transport ShardTransport
	// Pref is the preference each shard evaluated locally (the first
	// cascade stage when the cascade was split); nil means the shards
	// ran a plain SELECT and the merge concatenates.
	Pref preference.Preference
	// Post carries residual cascade stages evaluated at the coordinator
	// over the complete merged relation — later stages discriminate
	// among survivors of the whole relation, which no shard sees, so
	// they cannot be pushed.
	Post preference.Preference
	// Progressive streams merged rows before the slowest shard
	// finishes; requires a Pref with no residual (the shards stream in
	// the kernel's key order).
	Progressive bool
	// Workers caps the coordinator-side merge concurrency for batch
	// merges; 0 = one worker per CPU.
	Workers int
}

// Schema implements Node.
func (g *Gather) Schema() Schema { return g.Cols }

// Explain implements Node.
func (g *Gather) Explain() string {
	mode := "concat"
	if g.Pref != nil {
		mode = "merge"
		if g.Progressive {
			mode = "progressive merge"
		}
	}
	out := fmt.Sprintf("Gather %s shards=%d %s", g.Table, len(g.Transport.ShardNames()), mode)
	if g.Pref != nil {
		out += fmt.Sprintf(" [%s]", g.Pref.Describe())
	}
	if g.Post != nil {
		out += fmt.Sprintf(" post=[%s]", g.Post.Describe())
	}
	out += fmt.Sprintf(" sql=%q", g.ShardSQL)
	return out
}
