// Package value defines the typed scalar values that flow through the
// relational engine and the federated query executor.
//
// A Value is a small immutable variant record. The zero Value is NULL.
// Values support three-valued-logic-free comparison: NULL compares lower
// than every non-NULL value and equal to itself, which is sufficient for
// the conjunctive (SPJ) queries studied in the paper.
package value

import (
	"fmt"
	"hash/maphash"
	"math"
	"strconv"
)

// Kind enumerates the scalar types supported by the engine.
type Kind uint8

// The supported kinds.
const (
	KindNull Kind = iota
	KindBool
	KindInt
	KindFloat
	KindString
)

// String returns the SQL-ish name of the kind.
func (k Kind) String() string {
	switch k {
	case KindNull:
		return "NULL"
	case KindBool:
		return "BOOLEAN"
	case KindInt:
		return "INTEGER"
	case KindFloat:
		return "FLOAT"
	case KindString:
		return "VARCHAR"
	default:
		return fmt.Sprintf("Kind(%d)", uint8(k))
	}
}

// Value is a typed scalar. The zero value is NULL.
type Value struct {
	kind Kind
	i    int64
	f    float64
	s    string
	b    bool
}

// Null returns the NULL value.
func Null() Value { return Value{} }

// Bool returns a boolean value.
func Bool(b bool) Value { return Value{kind: KindBool, b: b} }

// Int returns an integer value.
func Int(i int64) Value { return Value{kind: KindInt, i: i} }

// Float returns a floating-point value.
func Float(f float64) Value { return Value{kind: KindFloat, f: f} }

// String returns a string value.
func String(s string) Value { return Value{kind: KindString, s: s} }

// Kind reports the kind of v.
func (v Value) Kind() Kind { return v.kind }

// IsNull reports whether v is NULL.
func (v Value) IsNull() bool { return v.kind == KindNull }

// AsFloat returns the numeric payload widened to float64; it panics if v is
// neither an integer nor a float.
func (v Value) AsFloat() float64 {
	switch v.kind {
	case KindFloat:
		return v.f
	case KindInt:
		return float64(v.i)
	default:
		panic("value: AsFloat on " + v.kind.String())
	}
}

// Text renders any value as text. Strings are returned verbatim; other kinds
// use their canonical literal form. It is the rendering used when a
// relational value is substituted into a text search term.
func (v Value) Text() string {
	switch v.kind {
	case KindNull:
		return ""
	case KindBool:
		if v.b {
			return "true"
		}
		return "false"
	case KindInt:
		return strconv.FormatInt(v.i, 10)
	case KindFloat:
		return strconv.FormatFloat(v.f, 'g', -1, 64)
	case KindString:
		return v.s
	default:
		return ""
	}
}

// String implements fmt.Stringer with a SQL-literal-like rendering.
func (v Value) String() string {
	if v.kind == KindString {
		return "'" + v.s + "'"
	}
	if v.kind == KindNull {
		return "NULL"
	}
	return v.Text()
}

// numericKind reports whether k is int or float.
func numericKind(k Kind) bool { return k == KindInt || k == KindFloat }

// Compare returns -1, 0, or +1 ordering a before b. NULL sorts first and
// equals only NULL. Integers and floats compare numerically with each other.
// Comparing incomparable kinds (e.g. a string with an integer) orders by
// kind, so Compare is a total order usable for sorting and keying.
func Compare(a, b Value) int {
	if a.kind == KindNull || b.kind == KindNull {
		switch {
		case a.kind == KindNull && b.kind == KindNull:
			return 0
		case a.kind == KindNull:
			return -1
		default:
			return 1
		}
	}
	if numericKind(a.kind) && numericKind(b.kind) {
		if a.kind == KindInt && b.kind == KindInt {
			switch {
			case a.i < b.i:
				return -1
			case a.i > b.i:
				return 1
			default:
				return 0
			}
		}
		af, bf := a.AsFloat(), b.AsFloat()
		switch {
		case af < bf:
			return -1
		case af > bf:
			return 1
		default:
			return 0
		}
	}
	if a.kind != b.kind {
		if a.kind < b.kind {
			return -1
		}
		return 1
	}
	switch a.kind {
	case KindBool:
		switch {
		case !a.b && b.b:
			return -1
		case a.b && !b.b:
			return 1
		default:
			return 0
		}
	case KindString:
		switch {
		case a.s < b.s:
			return -1
		case a.s > b.s:
			return 1
		default:
			return 0
		}
	default:
		return 0
	}
}

// Equal reports whether a and b are equal under Compare.
func Equal(a, b Value) bool { return Compare(a, b) == 0 }

// Key returns a string that is equal for equal values and distinct for
// distinct values (within a kind), suitable as a map key for hashing,
// grouping and duplicate elimination.
func (v Value) Key() string {
	switch v.kind {
	case KindNull:
		return "n"
	case KindBool:
		if v.b {
			return "b1"
		}
		return "b0"
	case KindInt:
		return "i" + strconv.FormatInt(v.i, 10)
	case KindFloat:
		// Normalise integral floats to the int representation so 3.0 == 3
		// under numeric comparison also keys identically.
		f := v.f
		if f == float64(int64(f)) {
			return "i" + strconv.FormatInt(int64(f), 10)
		}
		return "f" + strconv.FormatFloat(f, 'b', -1, 64)
	case KindString:
		return "s" + v.s
	default:
		return "?"
	}
}

// intKey reports whether v keys as an integer — an Int, or a Float with an
// integral value in int64's range, -0.0 included — and returns it. It is
// Key's integral-float normalisation, stated without int64's out-of-range
// conversion so that it is the same on every platform.
func (v Value) intKey() (int64, bool) {
	switch v.kind {
	case KindInt:
		return v.i, true
	case KindFloat:
		if v.f >= -(1<<63) && v.f < 1<<63 && v.f == math.Trunc(v.f) {
			return int64(v.f), true
		}
	}
	return 0, false
}

// KeyEqual reports whether a and b have the same Key, without building
// either: Int(3) ≡ Float(3.0), -0.0 ≡ 0, every NaN ≡ every other NaN, NULL
// ≡ only NULL, and values of different kinds otherwise distinct.
func KeyEqual(a, b Value) bool {
	ai, aInt := a.intKey()
	bi, bInt := b.intKey()
	if aInt || bInt {
		return aInt && bInt && ai == bi
	}
	if a.kind != b.kind {
		return false
	}
	switch a.kind {
	case KindBool:
		return a.b == b.b
	case KindFloat:
		return a.f == b.f || (a.f != a.f && b.f != b.f)
	case KindString:
		return a.s == b.s
	default:
		return true // NULL
	}
}

// hashSeed seeds KeyHash's string hashing for the life of the process.
var hashSeed = maphash.MakeSeed()

// KeyHash returns a hash of v's key: KeyEqual values hash equally.
func (v Value) KeyHash() uint64 {
	if i, ok := v.intKey(); ok {
		return mix64(uint64(i))
	}
	switch v.kind {
	case KindBool:
		if v.b {
			return mix64(1<<62 | 1)
		}
		return mix64(1 << 62)
	case KindFloat:
		if v.f != v.f {
			return mix64(1 << 61)
		}
		return mix64(math.Float64bits(v.f))
	case KindString:
		return maphash.String(hashSeed, v.s)
	default:
		return mix64(1 << 60) // NULL
	}
}

// mix64 is the SplitMix64 finalizer: it spreads every input bit over the
// whole word, so small integers land in different hash buckets.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	return x ^ x>>31
}

// KeyOf returns the concatenated key of several values; sorting by it
// gives an order that is the same in every process, which KeyHash's seeded
// hashes do not. Its 0x1f separator can occur inside a string, so distinct
// tuples may share a KeyOf: group and match tuples with KeyEqual and
// KeyHash instead.
func KeyOf(vs ...Value) string {
	n := 0
	for _, v := range vs {
		n += len(v.Key()) + 1
	}
	buf := make([]byte, 0, n)
	for _, v := range vs {
		buf = append(buf, v.Key()...)
		buf = append(buf, 0x1f) // unit separator
	}
	return string(buf)
}
