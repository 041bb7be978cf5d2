// Package wire defines the Preference SQL client/server protocol: a
// small length-prefixed binary framing with typed messages, mirroring
// the middleware deployment of the original system (client applications
// such as COSIMA talked to the Preference SQL server over the network,
// §4.3).
//
// Framing: every message is
//
//	uint32 big-endian length (of type byte + payload)
//	byte   message type
//	bytes  payload
//
// Message types and payloads (all integers big-endian unless varint):
//
//	client → server
//	  Hello     u16 protocol version, string client name
//	  Query     string sql, u16 argc, argc× value, [u8 query flags]
//	                                  run a script; single SELECTs stream.
//	                                  argc binds positional '?'/'$n'
//	                                  parameters left to right. The flags
//	                                  byte is optional (absent = 0, so old
//	                                  clients interoperate); QueryFlagWantStats
//	                                  asks for a Stats frame before Done
//	  Prepare   string sql            parse/cache once, answer Prepared id
//	                                  (with the statement's parameter count)
//	  Execute   u32 stmt id, u16 argc, argc× value
//	                                  re-execute with fresh bind arguments;
//	                                  the server reuses the cached plan
//	                                  across argument values
//	  CloseStmt u32 stmt id
//	  Set       string key, string value    session settings (mode, algorithm,
//	                                  parallel worker cap)
//	  Cancel    (empty)               stop the in-flight statement: it cancels
//	                                  the server-side execution context, so
//	                                  scans stop mid-table, and cuts a row
//	                                  stream short (Done carries FlagCancelled)
//	  Quit      (empty)
//	  Subscribe u32 queue cap (0 = server default), string sql,
//	            u16 argc, argc× value, [u8 flags]
//	                                  register a continuous query; the server
//	                                  answers Subscribed + the initial result
//	                                  rows + Done, then streams Delta frames
//	                                  until Unsubscribe / eviction / Quit. The
//	                                  trailing flags byte is reserved (absent
//	                                  = 0, like the Query flags byte)
//	  Unsubscribe u32 subscription id
//	                                  end the connection's subscription; the
//	                                  server finishes the delta stream with a
//	                                  Done frame (FlagCancelled)
//	  Explain   u8 mode (0 rewrite / 1 plan / 2 analyze), string sql
//	                                  render the statement's plan server-side
//	                                  (so remote and shard-annotated plans are
//	                                  visible from the CLI); answered with a
//	                                  PlanText frame
//
//	server → client
//	  HelloOK   u16 version, u32 session id, string server banner
//	  Columns   u16 n, n× string      result header, precedes rows
//	  Row       u16 n, n× value       one result row
//	  Done      u32 affected, u32 row count, u8 flags    end of result
//	  Error     string                statement failed (frame-level errors
//	                                  close the connection instead)
//	  Prepared  u32 stmt id, u16 parameter count    answer to Prepare
//	  Stats     QueryStats            per-statement execution statistics;
//	                                  sent immediately before Done when the
//	                                  Query carried QueryFlagWantStats
//	  Subscribed u32 subscription id, u16 n, n× string
//	                                  subscription accepted: its id and the
//	                                  result columns; the initial rows follow
//	                                  as Row frames closed by a Done
//	  Delta     u32 subscription id, i64 seq, u8 op (0 add / 1 remove),
//	            u16 n, n× value
//	                                  one incremental result change; seq is
//	                                  contiguous from 1 per subscription
//	  PlanText  string                answer to Explain: the rendered plan
//	                                  (or an Error frame if planning failed)
//
// Old clients never send Subscribe, so the new server frames are
// invisible to them; old servers answer Subscribe with an Error frame
// (unknown message), which new clients surface as a plain error.
//
// Values encode as a kind byte followed by a kind-specific body: NULL is
// empty, INT/BOOL/DATE are zig-zag varints, FLOAT is 8 IEEE-754 bytes,
// TEXT is a uvarint length plus bytes. Strings use the TEXT body.
package wire

import (
	"encoding/binary"
	"fmt"
	"io"
	"math"

	"repro/internal/value"
)

// Version is the protocol version spoken by this package. Version 2 added
// typed bind arguments on Query/Execute and the parameter count on
// Prepared.
const Version = 2

// MaxFrame bounds a single frame (type byte + payload); larger frames
// are rejected as malformed so a broken peer cannot trigger unbounded
// allocation.
const MaxFrame = 64 << 20

// Client → server message types.
const (
	MsgHello     byte = 0x01
	MsgQuery     byte = 0x02
	MsgPrepare   byte = 0x03
	MsgExecute   byte = 0x04
	MsgCloseStmt byte = 0x05
	MsgSet       byte = 0x06
	MsgCancel    byte = 0x07
	MsgQuit      byte = 0x08
	// Version 2 extension (continuous queries). Old servers reject the
	// unknown type with an Error frame; old clients never send it.
	MsgSubscribe   byte = 0x09
	MsgUnsubscribe byte = 0x0A
	// Version 2 extension (remote EXPLAIN). Old servers reject the
	// unknown type with an Error frame; old clients never send it.
	MsgExplain byte = 0x0B
)

// Server → client message types.
const (
	MsgHelloOK  byte = 0x81
	MsgColumns  byte = 0x82
	MsgRow      byte = 0x83
	MsgDone     byte = 0x84
	MsgError    byte = 0x85
	MsgPrepared byte = 0x86
	MsgStats    byte = 0x87
	// Version 2 extension (continuous queries); only ever sent to
	// clients that subscribed, so old clients never see them.
	MsgSubscribed byte = 0x88
	MsgDelta      byte = 0x89
	// Version 2 extension (remote EXPLAIN); only ever sent in answer to
	// an Explain request, so old clients never see it.
	MsgPlanText byte = 0x8A
)

// Explain modes (the mode byte of an Explain payload).
const (
	ExplainRewrite byte = 0 // preference → rewritten-SQL script
	ExplainPlan    byte = 1 // native operator plan
	ExplainAnalyze byte = 2 // executed plan with per-node statistics
)

// Query flags (the optional trailing byte of a Query payload).
const (
	// QueryFlagWantStats asks the server to send a Stats frame — the
	// statement's execution statistics and annotated plan — before Done.
	QueryFlagWantStats byte = 1 << 0
)

// Done flags.
const (
	// FlagCacheHit marks a statement answered from the server's
	// prepared-statement cache (parse skipped).
	FlagCacheHit byte = 1 << 0
	// FlagPlanReused marks a statement that re-executed a cached plan
	// (planner skipped too).
	FlagPlanReused byte = 1 << 1
	// FlagCancelled marks a result cut short by a client Cancel.
	FlagCancelled byte = 1 << 2
	// FlagEvicted marks a delta stream the server terminated because the
	// client consumed too slowly (the bounded subscription queue
	// overflowed); it arrives on the Done frame that closes the stream.
	FlagEvicted byte = 1 << 3
)

// Delta operations (the op byte of a Delta frame).
const (
	DeltaAdd    byte = 0
	DeltaRemove byte = 1
)

// Session setting keys for MsgSet.
const (
	SetMode      = "mode"      // "native" | "rewrite"
	SetAlgorithm = "algorithm" // "auto" | "nl" | "bnl" | "parallel"; "sfs", "bestlevel", "vec" alias "auto"
	SetWorkers   = "workers"   // non-negative integer; "0" = one worker per CPU
)

// WriteFrame writes one framed message.
func WriteFrame(w io.Writer, typ byte, payload []byte) error {
	if len(payload)+1 > MaxFrame {
		return fmt.Errorf("wire: frame too large (%d bytes)", len(payload)+1)
	}
	var hdr [5]byte
	binary.BigEndian.PutUint32(hdr[:4], uint32(len(payload)+1))
	hdr[4] = typ
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	if len(payload) > 0 {
		if _, err := w.Write(payload); err != nil {
			return err
		}
	}
	return nil
}

// ReadFrame reads one framed message.
func ReadFrame(r io.Reader) (typ byte, payload []byte, err error) {
	var hdr [4]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return 0, nil, err
	}
	n := binary.BigEndian.Uint32(hdr[:])
	if n == 0 || n > MaxFrame {
		return 0, nil, fmt.Errorf("wire: invalid frame length %d", n)
	}
	buf := make([]byte, n)
	if _, err := io.ReadFull(r, buf); err != nil {
		return 0, nil, err
	}
	return buf[0], buf[1:], nil
}

// ---------------------------------------------------------------------------
// Payload building and parsing
// ---------------------------------------------------------------------------

// Buffer accumulates a message payload.
type Buffer struct{ B []byte }

// U8 appends one byte.
func (b *Buffer) U8(v byte) { b.B = append(b.B, v) }

// U16 appends a big-endian uint16.
func (b *Buffer) U16(v uint16) { b.B = binary.BigEndian.AppendUint16(b.B, v) }

// U32 appends a big-endian uint32.
func (b *Buffer) U32(v uint32) { b.B = binary.BigEndian.AppendUint32(b.B, v) }

// I64 appends a zig-zag varint int64.
func (b *Buffer) I64(v int64) { b.B = binary.AppendVarint(b.B, v) }

// String appends a uvarint-length-prefixed string.
func (b *Buffer) String(s string) {
	b.B = binary.AppendUvarint(b.B, uint64(len(s)))
	b.B = append(b.B, s...)
}

// Value appends one SQL value.
func (b *Buffer) Value(v value.Value) {
	b.B = append(b.B, byte(v.K))
	switch v.K {
	case value.Null:
	case value.Int, value.Bool, value.Date:
		b.B = binary.AppendVarint(b.B, v.I)
	case value.Float:
		b.B = binary.BigEndian.AppendUint64(b.B, math.Float64bits(v.F))
	case value.Text:
		b.String(v.S)
	}
}

// Row appends a row as a u16 count plus its values.
func (b *Buffer) Row(r value.Row) {
	b.U16(uint16(len(r)))
	for _, v := range r {
		b.Value(v)
	}
}

// Strings appends a u16 count plus each string (the Columns payload).
func (b *Buffer) Strings(ss []string) {
	b.U16(uint16(len(ss)))
	for _, s := range ss {
		b.String(s)
	}
}

// Values appends a u16 count plus each value (the bind-argument list of
// Query and Execute).
func (b *Buffer) Values(vs []value.Value) {
	b.U16(uint16(len(vs)))
	for _, v := range vs {
		b.Value(v)
	}
}

// ---------------------------------------------------------------------------
// Query statistics
// ---------------------------------------------------------------------------

// QueryStats is the Stats payload: one statement's execution statistics
// as the server session recorded them — wall time, result cardinality,
// the engine's row-level work counters, and (when the server had
// per-operator recording on) the annotated plan EXPLAIN ANALYZE would
// print.
type QueryStats struct {
	Nanos            int64  // statement wall time
	Rows             int64  // rows in the result / streamed to the client
	RowsScanned      int64  // base-table rows read
	IndexProbes      int64  // index point-lookups
	JoinInputRows    int64  // rows entering join operators
	BMOInputRows     int64  // candidate rows entering BMO operators
	BMOOutputRows    int64  // BMO result rows
	VecBlocksScanned int64  // vectorized BMO zone-map blocks examined
	VecBlocksPruned  int64  // vectorized BMO zone-map blocks skipped
	Plan             string // annotated per-node plan; "" when not recorded
}

// Encode appends the QueryStats body to a payload buffer.
func (q *QueryStats) Encode(b *Buffer) {
	b.I64(q.Nanos)
	b.I64(q.Rows)
	b.I64(q.RowsScanned)
	b.I64(q.IndexProbes)
	b.I64(q.JoinInputRows)
	b.I64(q.BMOInputRows)
	b.I64(q.BMOOutputRows)
	b.I64(q.VecBlocksScanned)
	b.I64(q.VecBlocksPruned)
	b.String(q.Plan)
}

// DecodeQueryStats parses a Stats payload.
func DecodeQueryStats(r *Reader) QueryStats {
	return QueryStats{
		Nanos:            r.I64(),
		Rows:             r.I64(),
		RowsScanned:      r.I64(),
		IndexProbes:      r.I64(),
		JoinInputRows:    r.I64(),
		BMOInputRows:     r.I64(),
		BMOOutputRows:    r.I64(),
		VecBlocksScanned: r.I64(),
		VecBlocksPruned:  r.I64(),
		Plan:             r.String(),
	}
}

// Reader parses a message payload. The first malformed field latches an
// error; callers check Err once after reading every field.
type Reader struct {
	B   []byte
	i   int
	err error
}

// NewReader wraps a payload.
func NewReader(b []byte) *Reader { return &Reader{B: b} }

// Err returns the first parse error.
func (r *Reader) Err() error { return r.err }

func (r *Reader) fail() {
	if r.err == nil {
		r.err = fmt.Errorf("wire: truncated payload at offset %d", r.i)
	}
}

// U8 reads one byte.
func (r *Reader) U8() byte {
	if r.err != nil || r.i+1 > len(r.B) {
		r.fail()
		return 0
	}
	v := r.B[r.i]
	r.i++
	return v
}

// I64 reads a zig-zag varint int64.
func (r *Reader) I64() int64 {
	if r.err != nil {
		return 0
	}
	v, w := binary.Varint(r.B[r.i:])
	if w <= 0 {
		r.fail()
		return 0
	}
	r.i += w
	return v
}

// More reports whether unread payload bytes remain — how the server
// detects the optional trailing query-flags byte an older client omits.
func (r *Reader) More() bool { return r.err == nil && r.i < len(r.B) }

// U16 reads a big-endian uint16.
func (r *Reader) U16() uint16 {
	if r.err != nil || r.i+2 > len(r.B) {
		r.fail()
		return 0
	}
	v := binary.BigEndian.Uint16(r.B[r.i:])
	r.i += 2
	return v
}

// U32 reads a big-endian uint32.
func (r *Reader) U32() uint32 {
	if r.err != nil || r.i+4 > len(r.B) {
		r.fail()
		return 0
	}
	v := binary.BigEndian.Uint32(r.B[r.i:])
	r.i += 4
	return v
}

// String reads a uvarint-length-prefixed string.
func (r *Reader) String() string {
	if r.err != nil {
		return ""
	}
	n, w := binary.Uvarint(r.B[r.i:])
	// Compare against the remaining bytes without adding to n: a crafted
	// huge length must not wrap around and slip past the bounds check.
	if w <= 0 || n > uint64(len(r.B)-r.i-w) {
		r.fail()
		return ""
	}
	r.i += w
	s := string(r.B[r.i : r.i+int(n)])
	r.i += int(n)
	return s
}

// Value reads one SQL value.
func (r *Reader) Value() value.Value {
	k := value.Kind(r.U8())
	if r.err != nil {
		return value.Value{}
	}
	switch k {
	case value.Null:
		return value.NewNull()
	case value.Int, value.Bool, value.Date:
		n, w := binary.Varint(r.B[r.i:])
		if w <= 0 {
			r.fail()
			return value.Value{}
		}
		r.i += w
		return value.Value{K: k, I: n}
	case value.Float:
		if r.i+8 > len(r.B) {
			r.fail()
			return value.Value{}
		}
		f := math.Float64frombits(binary.BigEndian.Uint64(r.B[r.i:]))
		r.i += 8
		return value.NewFloat(f)
	case value.Text:
		return value.NewText(r.String())
	}
	if r.err == nil {
		r.err = fmt.Errorf("wire: unknown value kind %d", k)
	}
	return value.Value{}
}

// Row reads a u16-counted row.
func (r *Reader) Row() value.Row {
	n := int(r.U16())
	if r.err != nil {
		return nil
	}
	row := make(value.Row, 0, n)
	for j := 0; j < n; j++ {
		row = append(row, r.Value())
		if r.err != nil {
			return nil
		}
	}
	return row
}

// Values reads a u16-counted value list (the bind-argument list).
func (r *Reader) Values() []value.Value {
	n := int(r.U16())
	if r.err != nil || n == 0 {
		return nil
	}
	out := make([]value.Value, 0, n)
	for j := 0; j < n; j++ {
		out = append(out, r.Value())
		if r.err != nil {
			return nil
		}
	}
	return out
}

// Strings reads a u16-counted string list.
func (r *Reader) Strings() []string {
	n := int(r.U16())
	if r.err != nil {
		return nil
	}
	out := make([]string, 0, n)
	for j := 0; j < n; j++ {
		out = append(out, r.String())
		if r.err != nil {
			return nil
		}
	}
	return out
}
