package server

import (
	"fmt"
	"io"

	"repro/internal/core"
	"repro/internal/live"
	"repro/internal/wire"
)

// handleSubscribe services one continuous query for the connection's
// lifetime (the client pins the connection to the stream, mirroring the
// Rows contract). Exchange:
//
//	← Subscribed (id, columns)
//	← Row × k               initial result set, frozen at registration
//	← Done                  closes the initial set
//	← Delta × …             incremental changes as DML commits
//	← Done                  FlagCancelled after Unsubscribe/Cancel
//
// A slow consumer — one whose bounded delta queue overflows — is
// evicted: its connection is closed from the maintenance path (which
// unsticks a handler blocked mid-write on the dead peer), and a
// best-effort Done|FlagEvicted goes out when the stream is still
// writable. Writers never block on subscribers.
func (c *conn) handleSubscribe(payload []byte) error {
	r := wire.NewReader(payload)
	queue := int(r.U32())
	sql := r.String()
	args := r.Values()
	if r.More() {
		_ = r.U8() // flags byte, reserved
	}
	if err := r.Err(); err != nil {
		return err
	}

	// beginStmt arms the usual statement context: a Cancel frame received
	// mid-stream cancels it, and the subscription's context watcher turns
	// that into a close — so Cancel and Unsubscribe both end the stream.
	ctx, finish := c.beginStmt()
	defer finish()

	sub, err := c.sess.SubscribeValues(ctx, sql, args, core.SubscribeOptions{
		Queue: queue,
		// Eviction runs on the writer's goroutine while this handler may
		// be blocked writing to the slow peer; closing the socket is the
		// only lever that reliably unsticks it.
		OnEvict: func() { c.nc.Close() },
	})
	if err != nil {
		return c.sendError(err)
	}
	defer sub.Close()

	var hb wire.Buffer
	hb.U32(uint32(sub.ID()))
	hb.Strings(sub.Columns())
	if err := c.send(wire.MsgSubscribed, hb.B); err != nil {
		return err
	}
	initial := sub.Initial()
	for _, row := range initial {
		var rb wire.Buffer
		rb.Row(row)
		c.armWrite()
		if err := wire.WriteFrame(c.bw, wire.MsgRow, rb.B); err != nil {
			return err
		}
	}
	if err := c.sendDone(0, len(initial), 0); err != nil {
		return err
	}

	for {
		select {
		case d, ok := <-sub.C():
			if !ok {
				if sub.Err() == live.ErrSlowConsumer {
					// Best effort: the eviction hook has closed (or is
					// about to close) the socket.
					_ = c.sendDone(0, 0, wire.FlagEvicted)
					return nil
				}
				// Closed server-side (Cancel frame, context, CloseAll).
				return c.sendDone(0, 0, wire.FlagCancelled)
			}
			if err := c.writeDelta(sub, d); err != nil {
				return err
			}
			// Batch the flush: drain the queue into the buffer and hit
			// the socket once the burst is over.
			if len(sub.C()) == 0 {
				c.armWrite()
				if err := c.bw.Flush(); err != nil {
					return err
				}
			}
			live.ObserveDelivery(d)
		case f, ok := <-c.frames:
			if !ok {
				return io.EOF // peer hung up; defer closes the subscription
			}
			c.pending.Add(-1) // the Subscribe frame itself stays in flight
			switch f.typ {
			case wire.MsgUnsubscribe:
				fr := wire.NewReader(f.payload)
				id := fr.U32()
				if err := fr.Err(); err != nil {
					return err
				}
				if uint64(id) != sub.ID() {
					return fmt.Errorf("unsubscribe for unknown subscription %d", id)
				}
				sub.Close()
				// Queued deltas are discarded — the client is cancelling
				// and drains to the Done without applying them.
				return c.sendDone(0, 0, wire.FlagCancelled)
			case wire.MsgQuit:
				return nil
			default:
				return fmt.Errorf("unexpected message %#x during subscription", f.typ)
			}
		}
	}
}

// writeDelta buffers one Delta frame (flushing is the caller's call).
func (c *conn) writeDelta(sub *live.Subscription, d live.Delta) error {
	var b wire.Buffer
	b.U32(uint32(sub.ID()))
	b.I64(d.Seq)
	if d.Op == live.OpAdd {
		b.U8(wire.DeltaAdd)
	} else {
		b.U8(wire.DeltaRemove)
	}
	b.Row(d.Row)
	return wire.WriteFrame(c.bw, wire.MsgDelta, b.B)
}
