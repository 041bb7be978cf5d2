package live

import (
	"time"

	"repro/internal/bmo"
	"repro/internal/preference"
	"repro/internal/storage"
	"repro/internal/value"
)

// onChange is the storage ChangeListener: it folds one committed write
// into the skyline/shadow state and emits the resulting deltas. It runs
// on the writer's goroutine with the table lock already released; the
// engine's exclusive statement lock serializes concurrent writers, so
// invocations never overlap for SQL-driven writes. s.mu still guards
// the state because consumers (Close, Stats) run concurrently.
//
// Processing order matters for correctness:
//  1. removals — a removed skyline member emits -row, a removed shadow
//     row vanishes silently;
//  2. re-qualification — only if a skyline member left: shadow rows no
//     current member dominates are BMO'd among themselves and the
//     winners promoted (+row). Transitivity guarantees every other
//     shadow row is still covered by a remaining member;
//  3. additions — a dominated newcomer goes to the shadow; an
//     undominated one joins the skyline (+row), evicting members it
//     dominates into the shadow (-row each).
func (s *Subscription) onChange(ch storage.Change) {
	now := time.Now()
	t0 := now
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	s.changes++
	mChanges.Inc()

	added, removed := ch.Added, ch.Removed
	if len(added) > 0 && len(added) == len(removed) {
		// UPDATE pairs old/new images in order; identical images are
		// no-ops for any subscription and are skipped wholesale.
		keepA := added[:0:0]
		keepR := removed[:0:0]
		for i := range added {
			if added[i].Key() == removed[i].Key() {
				continue
			}
			keepA = append(keepA, added[i])
			keepR = append(keepR, removed[i])
		}
		added, removed = keepA, keepR
	}

	err := s.applyLocked(added, removed, now)
	evicted := false
	if err == errQueueFull {
		evicted = true
		err = ErrSlowConsumer
	}
	if err != nil {
		// Terminal: either the queue overflowed or the preference /
		// predicate evaluation failed (a from-scratch query over the
		// same data would fail identically). Finish outside s.mu.
		s.closed = true
		s.err = err
		close(s.ch)
		s.mu.Unlock()
		if s.detach != nil {
			s.detach()
		}
		s.reg.remove(s.id)
		mSubsActive.Add(-1)
		if evicted {
			mSubsEvicted.Inc()
			if s.onEvict != nil {
				s.onEvict()
			}
		}
		return
	}
	s.mu.Unlock()
	mMaintainSeconds.ObserveDuration(time.Since(t0))
}

// errQueueFull is the internal sentinel emitLocked returns on overflow.
var errQueueFull = errorString("live: delta queue full")

type errorString string

func (e errorString) Error() string { return string(e) }

// applyLocked folds one batch of added/removed base rows into the
// state. Caller holds s.mu.
func (s *Subscription) applyLocked(added, removed []value.Row, now time.Time) error {
	skylineShrunk := false

	// 1. Removals.
	for _, row := range removed {
		key := row.Key()
		if i := findEntry(s.skyline, key); i >= 0 {
			e := s.skyline[i]
			s.skyline = deleteEntry(s.skyline, i)
			skylineShrunk = true
			if err := s.emitLocked(OpRemove, e.row, now); err != nil {
				return err
			}
			continue
		}
		if i := findEntry(s.shadow, key); i >= 0 {
			s.shadow = deleteEntry(s.shadow, i)
		}
		// Not tracked: the row never matched the predicate.
	}

	// 2. Re-qualification: only needed when a skyline member left and
	// there are shadow rows it may have been covering.
	if skylineShrunk && len(s.shadow) > 0 && s.pref != nil {
		if err := s.requalifyLocked(now); err != nil {
			return err
		}
	}

	// 3. Additions.
	for _, row := range added {
		ok, err := s.match(row)
		if err != nil {
			return err
		}
		if !ok {
			continue
		}
		e := newEntry(row)
		if s.pref == nil {
			s.skyline = append(s.skyline, e)
			if err := s.emitLocked(OpAdd, e.row, now); err != nil {
				return err
			}
			continue
		}
		dominated := false
		var beats []int // skyline positions the newcomer dominates
		for i := range s.skyline {
			ord, err := s.pref.Compare(s.skyline[i].row, e.row)
			s.compares++
			mCompares.Inc()
			if err != nil {
				return err
			}
			if ord == preference.Better {
				dominated = true
				break
			}
			if ord == preference.Worse {
				beats = append(beats, i)
			}
		}
		if dominated {
			s.shadow = append(s.shadow, e)
			continue
		}
		// Evict dominated members back-to-front so positions stay valid.
		for j := len(beats) - 1; j >= 0; j-- {
			i := beats[j]
			ev := s.skyline[i]
			s.skyline = deleteEntry(s.skyline, i)
			s.shadow = append(s.shadow, ev)
			if err := s.emitLocked(OpRemove, ev.row, now); err != nil {
				return err
			}
		}
		s.skyline = append(s.skyline, e)
		if err := s.emitLocked(OpAdd, e.row, now); err != nil {
			return err
		}
	}
	return nil
}

// requalifyLocked promotes shadow rows uncovered by the remaining
// skyline: candidates are the shadow entries no current member
// dominates; a BMO pass among the candidates picks the new maximal
// elements. Cost is O(|shadow|·|skyline|) comparisons — the bounded
// re-scan this package trades against tracking exact per-member
// dominance lists.
func (s *Subscription) requalifyLocked(now time.Time) error {
	var candIdx []int
	for i := range s.shadow {
		covered := false
		for j := range s.skyline {
			ord, err := s.pref.Compare(s.skyline[j].row, s.shadow[i].row)
			s.compares++
			mCompares.Inc()
			if err != nil {
				return err
			}
			if ord == preference.Better {
				covered = true
				break
			}
		}
		if !covered {
			candIdx = append(candIdx, i)
		}
	}
	if len(candIdx) == 0 {
		return nil
	}
	cand := make([]value.Row, len(candIdx))
	for i, idx := range candIdx {
		cand[i] = s.shadow[idx].row
	}
	best, err := bmo.Evaluate(s.pref, cand, bmo.Auto)
	if err != nil {
		return err
	}
	promote := make(map[string]int, len(best))
	for _, row := range best {
		promote[row.Key()]++
	}
	// Walk candidates back-to-front so shadow deletions keep indices valid.
	for i := len(candIdx) - 1; i >= 0; i-- {
		idx := candIdx[i]
		e := s.shadow[idx]
		if promote[e.key] == 0 {
			continue
		}
		promote[e.key]--
		s.shadow = deleteEntry(s.shadow, idx)
		s.skyline = append(s.skyline, e)
		s.requalified++
		mRequalified.Inc()
		if err := s.emitLocked(OpAdd, e.row, now); err != nil {
			return err
		}
	}
	return nil
}

// emitLocked projects a base row and enqueues the delta; it fails with
// errQueueFull instead of blocking when the consumer has fallen behind by
// a full queue, and with the projection's error if that fails (no
// sequence number is consumed then).
func (s *Subscription) emitLocked(op Op, row value.Row, now time.Time) error {
	out, err := s.projected(row)
	if err != nil {
		return err
	}
	s.seq++
	d := Delta{Seq: s.seq, Op: op, Row: out, Time: now}
	select {
	case s.ch <- d:
	default:
		return errQueueFull
	}
	if op == OpAdd {
		s.adds++
		mDeltaAdds.Inc()
	} else {
		s.removes++
		mDeltaRemoves.Inc()
	}
	return nil
}

// findEntry locates the first entry with the given key, -1 if absent.
func findEntry(es []entry, key string) int {
	for i := range es {
		if es[i].key == key {
			return i
		}
	}
	return -1
}

// deleteEntry removes position i preserving order (delta determinism is
// nicer to debug when eviction order follows skyline order).
func deleteEntry(es []entry, i int) []entry {
	return append(es[:i], es[i+1:]...)
}
