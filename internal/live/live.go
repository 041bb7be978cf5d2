// Package live implements continuous preference queries: standing
// SUBSCRIBE statements whose Best-Matches-Only result set is maintained
// incrementally under DML, with +row/-row deltas fanned out to
// subscribers.
//
// The maintenance invariant is the dominance-shadow decomposition: every
// live row of the base table that passes the subscription's WHERE clause
// is either in the skyline (the maximal elements under the preference's
// strict partial order) or in the shadow (dominated by at least one
// skyline member — guaranteed to exist by transitivity in a finite
// strict partial order). On INSERT a candidate joins the skyline iff no
// member dominates it, evicting members it dominates into the shadow;
// on DELETE/UPDATE of a skyline member only the shadow is re-qualified
// (rows no skyline member dominates any more are re-evaluated with a
// BMO pass among themselves) — never a from-scratch recompute of the
// whole table on the hot path.
//
// Deltas are delivered through a bounded per-subscription queue. A
// writer never blocks on a subscriber: if the queue is full when a
// delta is produced, the subscription is evicted (ErrSlowConsumer), its
// channel closed, and its OnEvict hook — the server uses it to drop the
// connection — invoked. Maintenance runs synchronously on the writer's
// goroutine, after the storage layer has published the write and
// released the table lock, while the writing statement still holds the
// engine's exclusive statement lock; that lock is what serializes
// maintenance and makes the delta sequence per subscription gap-free.
package live

import (
	"errors"
	"sync"
	"time"

	"repro/internal/bmo"
	"repro/internal/preference"
	"repro/internal/storage"
	"repro/internal/value"
)

// Op is the kind of one delta: a row entering or leaving the result.
type Op int8

// Delta operations.
const (
	OpAdd    Op = 0
	OpRemove Op = 1
)

// String returns "+row" / "-row" style names for diagnostics.
func (o Op) String() string {
	if o == OpAdd {
		return "add"
	}
	return "remove"
}

// Delta is one change to a subscription's result set. Seq is assigned
// under the maintenance lock and is contiguous from 1 per subscription;
// consumers can detect lost or duplicated deltas by checking
// contiguity. Time is the change-capture instant, used for delivery
// latency accounting (see ObserveDelivery).
type Delta struct {
	Seq  int64
	Op   Op
	Row  value.Row
	Time time.Time
}

// Terminal subscription errors, reported by Err after the delta channel
// closes.
var (
	// ErrSlowConsumer means the bounded delta queue overflowed and the
	// subscription was evicted rather than blocking the writer.
	ErrSlowConsumer = errors.New("live: subscription evicted (slow consumer)")
)

// DefaultQueue is the delta-queue capacity used when Spec.Queue is 0.
const DefaultQueue = 1024

// Spec describes a subscription to register. The SQL compilation
// happens in the core layer; live receives the ready-made pieces.
type Spec struct {
	SQL     string
	Table   *storage.Table
	Columns []string // projected column names, for consumers

	// Pref is the compiled preference; nil makes the subscription a
	// plain standing query (every matching row is in the result).
	Pref preference.Preference
	// Cond is the compiled WHERE predicate over base rows; nil accepts
	// every row.
	Cond func(value.Row) (bool, error)
	// Project maps a base row to the emitted row; nil emits the base
	// row unchanged. It runs when a row is emitted (the initial result, a
	// delta); an error there ends the subscription with that error.
	Project func(value.Row) (value.Row, error)

	// Queue is the delta-queue capacity (DefaultQueue when 0).
	Queue int
	// OnEvict, when non-nil, runs once if the subscription is evicted
	// as a slow consumer (after the channel is closed).
	OnEvict func()
}

// entry is one tracked base row with its precomputed identity key. The
// projection is not kept: most entries sit in the shadow and never emit,
// and since rows are immutable a row projects identically when it is
// added and when it is removed — so emit projects on demand.
type entry struct {
	row value.Row
	key string
}

// Registry tracks the active subscriptions of one database.
type Registry struct {
	mu   sync.Mutex
	next uint64
	subs map[uint64]*Subscription
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{subs: map[uint64]*Subscription{}}
}

// Subscription is one standing statement. Consumers read deltas from
// C(); the channel closes when the subscription ends (Close, slow-
// consumer eviction, or a maintenance error), after which Err reports
// why (nil for a clean Close).
type Subscription struct {
	id      uint64
	sql     string
	table   string
	columns []string

	reg     *Registry
	detach  func()
	onEvict func()
	ch      chan Delta

	pref    preference.Preference
	cond    func(value.Row) (bool, error)
	project func(value.Row) (value.Row, error)

	// initial is the projected result frozen at registration; deltas
	// with Seq 1.. apply on top of it.
	initial []value.Row

	mu      sync.Mutex // guards everything below, and sends on / close of ch
	skyline []entry
	shadow  []entry
	seq     int64
	closed  bool
	err     error

	// maintenance-work accounting (under mu)
	changes     int64
	compares    int64
	requalified int64
	adds        int64
	removes     int64
}

// Subscribe registers a new subscription. The caller must exclude
// writers on spec.Table for the duration of the call (the core layer
// holds its statement read lock): the listener attach and the initial
// result scan must see the same table state, which is what makes the
// frozen Initial rows plus the delta stream a consistent view.
func (r *Registry) Subscribe(spec Spec) (*Subscription, error) {
	queue := spec.Queue
	if queue <= 0 {
		queue = DefaultQueue
	}
	s := &Subscription{
		sql:     spec.SQL,
		table:   spec.Table.Name,
		columns: spec.Columns,
		reg:     r,
		onEvict: spec.OnEvict,
		ch:      make(chan Delta, queue),
		pref:    spec.Pref,
		cond:    spec.Cond,
		project: spec.Project,
	}

	// Initial result: filter the current heap, then one BMO pass.
	var matching []value.Row
	for _, row := range spec.Table.Rows() {
		ok, err := s.match(row)
		if err != nil {
			return nil, err
		}
		if ok {
			matching = append(matching, row)
		}
	}
	sky := matching
	if s.pref != nil {
		var err error
		sky, err = bmo.Evaluate(s.pref, matching, bmo.Auto)
		if err != nil {
			return nil, err
		}
	}
	// Decompose matching into skyline and shadow by key multiset: the
	// skyline rows came out of the matching slice, so every skyline key
	// accounts for exactly one matching occurrence.
	inSky := make(map[string]int, len(sky))
	s.initial = make([]value.Row, len(sky))
	for i, row := range sky {
		e := newEntry(row)
		s.skyline = append(s.skyline, e)
		inSky[e.key]++
		var err error
		if s.initial[i], err = s.projected(row); err != nil {
			return nil, err
		}
	}
	if s.pref != nil {
		for _, row := range matching {
			e := newEntry(row)
			if inSky[e.key] > 0 {
				inSky[e.key]--
				continue
			}
			s.shadow = append(s.shadow, e)
		}
	}

	r.mu.Lock()
	r.next++
	s.id = r.next
	r.subs[s.id] = s
	r.mu.Unlock()

	s.detach = spec.Table.AddListener(s.onChange)
	mSubsTotal.Inc()
	mSubsActive.Add(1)
	return s, nil
}

// remove unregisters id; it reports whether it was present.
func (r *Registry) remove(id uint64) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, ok := r.subs[id]; !ok {
		return false
	}
	delete(r.subs, id)
	return true
}

// ActiveCount returns the number of live subscriptions.
func (r *Registry) ActiveCount() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.subs)
}

// Active returns the live subscriptions ordered by id.
func (r *Registry) Active() []*Subscription {
	r.mu.Lock()
	out := make([]*Subscription, 0, len(r.subs))
	for _, s := range r.subs {
		out = append(out, s)
	}
	r.mu.Unlock()
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && out[j-1].id > out[j].id; j-- {
			out[j-1], out[j] = out[j], out[j-1]
		}
	}
	return out
}

// CloseAll closes every live subscription (database shutdown).
func (r *Registry) CloseAll() {
	for _, s := range r.Active() {
		s.Close()
	}
}

// ID returns the registry-assigned subscription id.
func (s *Subscription) ID() uint64 { return s.id }

// SQL returns the statement text the subscription was created from.
func (s *Subscription) SQL() string { return s.sql }

// Table returns the base table name.
func (s *Subscription) Table() string { return s.table }

// Columns returns the projected column names.
func (s *Subscription) Columns() []string { return s.columns }

// Initial returns the projected result set frozen at registration.
// Deltas from C(), starting at Seq 1, apply on top of these rows.
// Callers must not mutate the returned slice.
func (s *Subscription) Initial() []value.Row { return s.initial }

// C returns the delta channel. It closes when the subscription ends;
// check Err afterwards.
func (s *Subscription) C() <-chan Delta { return s.ch }

// LastSeq returns the sequence number of the most recently produced
// delta (0 before the first). Once writers quiesce, a consumer that has
// applied deltas up to LastSeq has the complete current result.
func (s *Subscription) LastSeq() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.seq
}

// Err reports why the subscription ended: nil while it is live and
// after a clean Close, ErrSlowConsumer after an eviction, or the
// maintenance error that killed it.
func (s *Subscription) Err() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.err
}

// Close ends the subscription: the listener is detached, the channel
// closed, and the registry entry dropped. Idempotent.
func (s *Subscription) Close() {
	s.finish(nil)
}

// finish moves the subscription to its terminal state exactly once.
func (s *Subscription) finish(err error) {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	s.closed = true
	s.err = err
	close(s.ch)
	s.mu.Unlock()
	if s.detach != nil {
		s.detach()
	}
	s.reg.remove(s.id)
	mSubsActive.Add(-1)
	if err == ErrSlowConsumer {
		mSubsEvicted.Inc()
		if s.onEvict != nil {
			s.onEvict()
		}
	}
}

// match evaluates the WHERE predicate.
func (s *Subscription) match(row value.Row) (bool, error) {
	if s.cond == nil {
		return true, nil
	}
	return s.cond(row)
}

// newEntry builds the tracked form of a base row.
func newEntry(row value.Row) entry { return entry{row: row, key: row.Key()} }

// projected maps a base row to the row consumers see.
func (s *Subscription) projected(row value.Row) (value.Row, error) {
	if s.project == nil {
		return row, nil
	}
	return s.project(row)
}
