package disk

import (
	"encoding/binary"
	"fmt"
	"math"

	"repro/internal/storage"
	"repro/internal/value"
)

// WAL records and checkpoint images share one record format: a
// payload is op:1 followed by op-specific fields, in one compact binary
// vocabulary (all integers varint/uvarint, strings length-prefixed):
//
//	value  = kind:1 [ varint(I) | float64bits:8 | uvarint(len) bytes ]
//	row    = uvarint(ncols) value*
//	string = uvarint(len) bytes
//
// The rec* functions below build each op's payload; the Log* methods
// and the checkpoint image writer both call them, and applyRecord is
// their one inverse.
const (
	opInsert byte = iota + 1
	opUpdate
	opDelete
	opTruncate
	opCreateTable
	opDropTable
	opCreateIndex
	opDropIndex
	opCreateView
	opDropView
)

func recInsert(table string, rows []value.Row) []byte {
	return appendRows(appendString([]byte{opInsert}, table), rows)
}

func recUpdate(table string, pos []int, rows []value.Row) []byte {
	return appendRows(appendPositions(appendString([]byte{opUpdate}, table), pos), rows)
}

func recDelete(table string, pos []int) []byte {
	return appendPositions(appendString([]byte{opDelete}, table), pos)
}

func recTruncate(table string) []byte { return appendString([]byte{opTruncate}, table) }

func recCreateTable(name string, schema storage.Schema) []byte {
	return encodeSchema(appendString([]byte{opCreateTable}, name), schema)
}

func recDropTable(name string) []byte { return appendString([]byte{opDropTable}, name) }

func recCreateIndex(table, index string, cols []string) []byte {
	b := appendString(appendString([]byte{opCreateIndex}, table), index)
	b = binary.AppendUvarint(b, uint64(len(cols)))
	for _, c := range cols {
		b = appendString(b, c)
	}
	return b
}

func recDropIndex(table, index string) []byte {
	return appendString(appendString([]byte{opDropIndex}, table), index)
}

func recCreateView(name, sql string) []byte {
	return appendString(appendString([]byte{opCreateView}, name), sql)
}

func recDropView(name string) []byte { return appendString([]byte{opDropView}, name) }

func appendString(b []byte, s string) []byte {
	b = binary.AppendUvarint(b, uint64(len(s)))
	return append(b, s...)
}

func appendValue(b []byte, v value.Value) []byte {
	b = append(b, byte(v.K))
	switch v.K {
	case value.Null:
	case value.Int, value.Bool, value.Date:
		b = binary.AppendVarint(b, v.I)
	case value.Float:
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(v.F))
	case value.Text:
		b = appendString(b, v.S)
	default:
		// Unknown kinds cannot occur via the SQL layer; encode as NULL
		// rather than panic so a future kind degrades loudly in tests.
		b[len(b)-1] = byte(value.Null)
	}
	return b
}

func appendRow(b []byte, r value.Row) []byte {
	b = binary.AppendUvarint(b, uint64(len(r)))
	for _, v := range r {
		b = appendValue(b, v)
	}
	return b
}

func appendRows(b []byte, rows []value.Row) []byte {
	b = binary.AppendUvarint(b, uint64(len(rows)))
	for _, r := range rows {
		b = appendRow(b, r)
	}
	return b
}

func appendPositions(b []byte, pos []int) []byte {
	b = binary.AppendUvarint(b, uint64(len(pos)))
	for _, p := range pos {
		b = binary.AppendUvarint(b, uint64(p))
	}
	return b
}

// decoder is a cursor over one encoded payload.
type decoder struct {
	b   []byte
	off int
}

func (d *decoder) fail(what string) error {
	return fmt.Errorf("disk: corrupt record: truncated %s at offset %d", what, d.off)
}

func (d *decoder) byte() (byte, error) {
	if d.off >= len(d.b) {
		return 0, d.fail("byte")
	}
	v := d.b[d.off]
	d.off++
	return v, nil
}

func (d *decoder) uvarint() (uint64, error) {
	v, n := binary.Uvarint(d.b[d.off:])
	if n <= 0 {
		return 0, d.fail("uvarint")
	}
	d.off += n
	return v, nil
}

func (d *decoder) varint() (int64, error) {
	v, n := binary.Varint(d.b[d.off:])
	if n <= 0 {
		return 0, d.fail("varint")
	}
	d.off += n
	return v, nil
}

func (d *decoder) string() (string, error) {
	n, err := d.uvarint()
	if err != nil {
		return "", err
	}
	if uint64(len(d.b)-d.off) < n {
		return "", d.fail("string")
	}
	s := string(d.b[d.off : d.off+int(n)])
	d.off += int(n)
	return s, nil
}

func (d *decoder) value() (value.Value, error) {
	k, err := d.byte()
	if err != nil {
		return value.Value{}, err
	}
	switch value.Kind(k) {
	case value.Null:
		return value.NewNull(), nil
	case value.Int, value.Bool, value.Date:
		i, err := d.varint()
		if err != nil {
			return value.Value{}, err
		}
		return value.Value{K: value.Kind(k), I: i}, nil
	case value.Float:
		if len(d.b)-d.off < 8 {
			return value.Value{}, d.fail("float")
		}
		bits := binary.LittleEndian.Uint64(d.b[d.off:])
		d.off += 8
		return value.Value{K: value.Float, F: math.Float64frombits(bits)}, nil
	case value.Text:
		s, err := d.string()
		if err != nil {
			return value.Value{}, err
		}
		return value.Value{K: value.Text, S: s}, nil
	}
	return value.Value{}, fmt.Errorf("disk: corrupt record: unknown value kind %d", k)
}

func (d *decoder) row() (value.Row, error) {
	n, err := d.uvarint()
	if err != nil {
		return nil, err
	}
	if n > uint64(len(d.b)-d.off) { // each value takes >= 1 byte
		return nil, d.fail("row")
	}
	r := make(value.Row, n)
	for i := range r {
		v, err := d.value()
		if err != nil {
			return nil, err
		}
		r[i] = v
	}
	return r, nil
}

func (d *decoder) rows() ([]value.Row, error) {
	n, err := d.uvarint()
	if err != nil {
		return nil, err
	}
	if n > uint64(len(d.b)-d.off) {
		return nil, d.fail("rows")
	}
	out := make([]value.Row, n)
	for i := range out {
		r, err := d.row()
		if err != nil {
			return nil, err
		}
		out[i] = r
	}
	return out, nil
}

func (d *decoder) positions() ([]int, error) {
	n, err := d.uvarint()
	if err != nil {
		return nil, err
	}
	if n > uint64(len(d.b)-d.off) {
		return nil, d.fail("positions")
	}
	out := make([]int, n)
	for i := range out {
		p, err := d.uvarint()
		if err != nil {
			return nil, err
		}
		out[i] = int(p)
	}
	return out, nil
}

// encodeSchema / decodeSchema frame a table schema in a create-table
// record (flags bit 0 = NOT NULL, bit 1 = PRIMARY KEY).
func encodeSchema(b []byte, s storage.Schema) []byte {
	b = binary.AppendUvarint(b, uint64(len(s.Cols)))
	for _, c := range s.Cols {
		b = appendString(b, c.Name)
		b = append(b, byte(c.Kind))
		var flags byte
		if c.NotNull {
			flags |= 1
		}
		if c.PrimaryKey {
			flags |= 2
		}
		b = append(b, flags)
	}
	return b
}

func (d *decoder) schema() (storage.Schema, error) {
	n, err := d.uvarint()
	if err != nil {
		return storage.Schema{}, err
	}
	if n > uint64(len(d.b)-d.off) {
		return storage.Schema{}, d.fail("schema")
	}
	cols := make([]storage.Column, n)
	for i := range cols {
		name, err := d.string()
		if err != nil {
			return storage.Schema{}, err
		}
		kind, err := d.byte()
		if err != nil {
			return storage.Schema{}, err
		}
		flags, err := d.byte()
		if err != nil {
			return storage.Schema{}, err
		}
		cols[i] = storage.Column{
			Name:       name,
			Kind:       value.Kind(kind),
			NotNull:    flags&1 != 0,
			PrimaryKey: flags&2 != 0,
		}
	}
	return storage.Schema{Cols: cols}, nil
}

func (d *decoder) strings() ([]string, error) {
	n, err := d.uvarint()
	if err != nil {
		return nil, err
	}
	if n > uint64(len(d.b)-d.off) {
		return nil, d.fail("strings")
	}
	out := make([]string, n)
	for i := range out {
		s, err := d.string()
		if err != nil {
			return nil, err
		}
		out[i] = s
	}
	return out, nil
}
