// Package value implements the SQL value and type system shared by every
// layer of the Preference SQL stack: NULL, INT, FLOAT, TEXT, BOOL and DATE
// values with SQL-style three-valued comparison semantics.
package value

import (
	"fmt"
	"math"
	"strconv"
	"strings"
	"time"
)

// Kind enumerates the runtime type of a Value.
type Kind uint8

// The supported SQL kinds. Null is the zero Kind so that the zero Value is
// SQL NULL, ready to use.
const (
	Null Kind = iota
	Int
	Float
	Text
	Bool
	Date
)

// String returns the SQL name of the kind.
func (k Kind) String() string {
	switch k {
	case Null:
		return "NULL"
	case Int:
		return "INTEGER"
	case Float:
		return "FLOAT"
	case Text:
		return "VARCHAR"
	case Bool:
		return "BOOLEAN"
	case Date:
		return "DATE"
	}
	return fmt.Sprintf("Kind(%d)", uint8(k))
}

// DateLayout is the canonical textual form for DATE values. The paper uses
// '1999/7/3'; we accept both '/' and '-' separated forms on input and print
// the ISO form.
const DateLayout = "2006-01-02"

// Value is a tagged union holding one SQL value. The zero Value is NULL.
type Value struct {
	K Kind
	I int64   // Int; Bool (0/1); Date (days since Unix epoch)
	F float64 // Float
	S string  // Text
}

// Convenience constructors.

// NewNull returns the SQL NULL value.
func NewNull() Value { return Value{} }

// NewInt returns an INTEGER value.
func NewInt(i int64) Value { return Value{K: Int, I: i} }

// NewFloat returns a FLOAT value.
func NewFloat(f float64) Value { return Value{K: Float, F: f} }

// NewText returns a VARCHAR value.
func NewText(s string) Value { return Value{K: Text, S: s} }

// NewBool returns a BOOLEAN value.
func NewBool(b bool) Value {
	if b {
		return Value{K: Bool, I: 1}
	}
	return Value{K: Bool}
}

// NewDate returns a DATE value for the given civil date.
func NewDate(year int, month time.Month, day int) Value {
	t := time.Date(year, month, day, 0, 0, 0, 0, time.UTC)
	return Value{K: Date, I: t.Unix() / 86400}
}

// ParseDate parses 'YYYY-MM-DD' or 'YYYY/M/D' style strings into a DATE.
func ParseDate(s string) (Value, error) {
	norm := strings.ReplaceAll(s, "/", "-")
	parts := strings.Split(norm, "-")
	if len(parts) != 3 {
		return Value{}, fmt.Errorf("value: invalid date %q", s)
	}
	y, err1 := strconv.Atoi(parts[0])
	m, err2 := strconv.Atoi(parts[1])
	d, err3 := strconv.Atoi(parts[2])
	if err1 != nil || err2 != nil || err3 != nil || m < 1 || m > 12 || d < 1 || d > 31 {
		return Value{}, fmt.Errorf("value: invalid date %q", s)
	}
	return NewDate(y, time.Month(m), d), nil
}

// IsNull reports whether the value is SQL NULL.
func (v Value) IsNull() bool { return v.K == Null }

// Bool returns the boolean content; callers must check the kind first.
func (v Value) Bool() bool { return v.K == Bool && v.I != 0 }

// IsTrue reports whether the value is BOOLEAN TRUE (NULL and FALSE are not).
func (v Value) IsTrue() bool { return v.K == Bool && v.I != 0 }

// IsNumeric reports whether the value participates in arithmetic.
func (v Value) IsNumeric() bool { return v.K == Int || v.K == Float || v.K == Date }

// Num returns the numeric content as a float64. DATE values are numeric as
// days since epoch so that AROUND/DISTANCE work on dates, as in the paper's
// trips example. Non-numeric values yield NaN.
func (v Value) Num() float64 {
	switch v.K {
	case Int, Date:
		return float64(v.I)
	case Float:
		return v.F
	case Bool:
		return float64(v.I)
	}
	return math.NaN()
}

// Time returns the DATE content as a time.Time (UTC midnight).
func (v Value) Time() time.Time {
	return time.Unix(v.I*86400, 0).UTC()
}

// String renders the value as it would appear in a result table.
func (v Value) String() string {
	switch v.K {
	case Null:
		return "NULL"
	case Int:
		return strconv.FormatInt(v.I, 10)
	case Float:
		return strconv.FormatFloat(v.F, 'g', -1, 64)
	case Text:
		return v.S
	case Bool:
		if v.I != 0 {
			return "TRUE"
		}
		return "FALSE"
	case Date:
		return v.Time().Format(DateLayout)
	}
	return "?"
}

// SQL renders the value as a SQL literal (quoting text, escaping quotes)
// that evaluates back to the same value. SQL has no literal for a
// non-finite FLOAT, so ±Inf and NaN render as constant expressions that
// overflow to them, and -0.0 keeps its decimal point so that it does not
// read back as the integer 0.
func (v Value) SQL() string {
	switch v.K {
	case Float:
		switch {
		case math.IsInf(v.F, 1):
			return "(1e308 * 10)"
		case math.IsInf(v.F, -1):
			return "(-1e308 * 10)"
		case math.IsNaN(v.F):
			return "(0 * (1e308 * 10))"
		case v.F == 0 && math.Signbit(v.F):
			return "-0.0"
		}
		return v.String()
	case Text:
		return "'" + strings.ReplaceAll(v.S, "'", "''") + "'"
	case Date:
		return "DATE '" + v.Time().Format(DateLayout) + "'"
	default:
		return v.String()
	}
}

// Equal reports SQL equality ignoring the Int/Float representation split.
// NULL is not equal to anything, including NULL (use IsNull for that).
func (v Value) Equal(w Value) bool {
	c, ok := Compare(v, w)
	return ok && c == 0
}

// Identical reports deep representation equality, treating NULL == NULL.
// It is the right notion for DISTINCT, GROUP BY and map keys.
func (v Value) Identical(w Value) bool {
	if v.K == Null || w.K == Null {
		return v.K == w.K
	}
	c, ok := Compare(v, w)
	return ok && c == 0
}

// Key returns a map-key form of the value for hashing (DISTINCT, hash join,
// GROUP BY). Numeric values collapse Int/Float so 1 and 1.0 hash together,
// and -0.0 hashes with 0, which it equals.
func (v Value) Key() string {
	switch v.K {
	case Null:
		return "\x00N"
	case Int:
		return "\x00i" + strconv.FormatFloat(float64(v.I), 'g', -1, 64)
	case Float:
		f := v.F
		if f == 0 {
			f = 0 // canonical +0: -0.0 = 0
		}
		return "\x00i" + strconv.FormatFloat(f, 'g', -1, 64)
	case Text:
		return "\x00s" + v.S
	case Bool:
		return "\x00b" + strconv.FormatInt(v.I, 10)
	case Date:
		return "\x00d" + strconv.FormatInt(v.I, 10)
	}
	return "\x00?"
}

// Compare orders two values. It returns ok=false when either side is NULL or
// the kinds are incomparable (SQL three-valued logic: the comparison is
// UNKNOWN). Numeric kinds (INT, FLOAT, DATE, BOOL) compare numerically;
// TEXT compares lexicographically.
func Compare(v, w Value) (int, bool) {
	if v.K == Null || w.K == Null {
		return 0, false
	}
	if v.K == Text && w.K == Text {
		return strings.Compare(v.S, w.S), true
	}
	if v.K == Text || w.K == Text {
		return 0, false
	}
	return CompareNum(v.Num(), w.Num()), true
}

// CompareNum is Compare's numeric order on the float64 images of two
// values — the test the scans' column-vector filters run, so a vector
// answer always equals the row answer. NaN compares equal to everything.
func CompareNum(a, b float64) int {
	switch {
	case a < b:
		return -1
	case a > b:
		return 1
	}
	return 0
}

// CompareNullsFirst imposes a total sort order on two values: NULL orders
// before everything, comparable values follow Compare, and incomparable
// kinds order by kind id for determinism. It is the comparator behind
// ORDER BY in the engine, the preference layer and the exec operators.
func CompareNullsFirst(a, b Value) int {
	switch {
	case a.IsNull() && b.IsNull():
		return 0
	case a.IsNull():
		return -1
	case b.IsNull():
		return 1
	}
	if c, ok := Compare(a, b); ok {
		return c
	}
	switch {
	case a.K < b.K:
		return -1
	case a.K > b.K:
		return 1
	}
	return 0
}

// FromGo converts a native Go value into a SQL Value — the conversion the
// public query APIs apply to bind arguments. Supported: nil, all Go integer
// kinds, float32/64, string, []byte, bool, time.Time (date part) and Value
// itself (passed through).
func FromGo(v any) (Value, error) {
	switch x := v.(type) {
	case nil:
		return NewNull(), nil
	case Value:
		return x, nil
	case int:
		return NewInt(int64(x)), nil
	case int8:
		return NewInt(int64(x)), nil
	case int16:
		return NewInt(int64(x)), nil
	case int32:
		return NewInt(int64(x)), nil
	case int64:
		return NewInt(x), nil
	case uint:
		return NewInt(int64(x)), nil
	case uint8:
		return NewInt(int64(x)), nil
	case uint16:
		return NewInt(int64(x)), nil
	case uint32:
		return NewInt(int64(x)), nil
	case uint64:
		if x > math.MaxInt64 {
			return Value{}, fmt.Errorf("value: uint64 argument %d overflows INTEGER", x)
		}
		return NewInt(int64(x)), nil
	case float32:
		return NewFloat(float64(x)), nil
	case float64:
		return NewFloat(x), nil
	case string:
		return NewText(x), nil
	case []byte:
		return NewText(string(x)), nil
	case bool:
		return NewBool(x), nil
	case time.Time:
		return NewDate(x.Year(), x.Month(), x.Day()), nil
	}
	return Value{}, fmt.Errorf("value: unsupported argument type %T", v)
}

// FromGoArgs converts a bind-argument list with FromGo.
func FromGoArgs(args []any) ([]Value, error) {
	if len(args) == 0 {
		return nil, nil
	}
	out := make([]Value, len(args))
	for i, a := range args {
		v, err := FromGo(a)
		if err != nil {
			return nil, fmt.Errorf("argument %d: %w", i+1, err)
		}
		out[i] = v
	}
	return out, nil
}

// Coerce converts v to the requested kind when a lossless or standard SQL
// cast exists (e.g. INT→FLOAT, TEXT→DATE). It returns an error otherwise.
func Coerce(v Value, k Kind) (Value, error) {
	if v.K == k || v.K == Null {
		return v, nil
	}
	switch k {
	case Float:
		if v.K == Int {
			return NewFloat(float64(v.I)), nil
		}
	case Int:
		if v.K == Float {
			return NewInt(int64(v.F)), nil
		}
		if v.K == Bool {
			return NewInt(v.I), nil
		}
	case Date:
		if v.K == Text {
			return ParseDate(v.S)
		}
	case Text:
		return NewText(v.String()), nil
	case Bool:
		if v.K == Int {
			return NewBool(v.I != 0), nil
		}
	}
	return Value{}, fmt.Errorf("value: cannot coerce %s to %s", v.K, k)
}

// Row is one tuple of a relation.
type Row []Value

// Clone returns a copy of the row safe to retain.
func (r Row) Clone() Row {
	c := make(Row, len(r))
	copy(c, r)
	return c
}

// String renders the row for diagnostics.
func (r Row) String() string {
	parts := make([]string, len(r))
	for i, v := range r {
		parts[i] = v.String()
	}
	return "(" + strings.Join(parts, ", ") + ")"
}

// Equal reports whether two rows are identical (NULL-safe, per column).
func (r Row) Equal(s Row) bool {
	if len(r) != len(s) {
		return false
	}
	for i := range r {
		if !r[i].Identical(s[i]) {
			return false
		}
	}
	return true
}

// Key returns a hashable form of the whole row.
func (r Row) Key() string {
	var b strings.Builder
	for _, v := range r {
		b.WriteString(v.Key())
		b.WriteByte(0x1f)
	}
	return b.String()
}
