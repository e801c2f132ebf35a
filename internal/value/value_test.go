package value

import (
	"math"
	"sort"
	"testing"
	"testing/quick"
)

func TestKindString(t *testing.T) {
	cases := map[Kind]string{
		KindNull:   "NULL",
		KindBool:   "BOOLEAN",
		KindInt:    "INTEGER",
		KindFloat:  "FLOAT",
		KindString: "VARCHAR",
		Kind(99):   "Kind(99)",
	}
	for k, want := range cases {
		if got := k.String(); got != want {
			t.Errorf("Kind(%d).String() = %q, want %q", k, got, want)
		}
	}
}

func TestConstructorsAndAccessors(t *testing.T) {
	if !Null().IsNull() {
		t.Error("Null() is not null")
	}
	if v := Bool(true); !v.b || v.Kind() != KindBool {
		t.Error("Bool(true) round-trip failed")
	}
	if v := Int(-7); v.i != -7 || v.Kind() != KindInt {
		t.Error("Int(-7) round-trip failed")
	}
	if v := Float(2.5); v.AsFloat() != 2.5 || v.Kind() != KindFloat {
		t.Error("Float(2.5) round-trip failed")
	}
	if v := String("abc"); v.s != "abc" || v.Kind() != KindString {
		t.Error("String round-trip failed")
	}
	if Int(3).AsFloat() != 3.0 {
		t.Error("Int widening via AsFloat failed")
	}
}

func TestAccessorPanics(t *testing.T) {
	mustPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s did not panic", name)
			}
		}()
		f()
	}
	mustPanic("AsFloat on string", func() { String("x").AsFloat() })
	mustPanic("AsFloat on null", func() { Null().AsFloat() })
}

func TestText(t *testing.T) {
	cases := []struct {
		v    Value
		want string
	}{
		{Null(), ""},
		{Bool(true), "true"},
		{Bool(false), "false"},
		{Int(42), "42"},
		{Float(1.5), "1.5"},
		{String("Gravano"), "Gravano"},
	}
	for _, c := range cases {
		if got := c.v.Text(); got != c.want {
			t.Errorf("%v.Text() = %q, want %q", c.v, got, c.want)
		}
	}
}

func TestStringer(t *testing.T) {
	if got := String("ai").String(); got != "'ai'" {
		t.Errorf("String literal rendering = %q", got)
	}
	if got := Null().String(); got != "NULL" {
		t.Errorf("NULL rendering = %q", got)
	}
	if got := Int(5).String(); got != "5" {
		t.Errorf("Int rendering = %q", got)
	}
}

func TestCompareBasics(t *testing.T) {
	cases := []struct {
		a, b Value
		want int
	}{
		{Null(), Null(), 0},
		{Null(), Int(0), -1},
		{Int(0), Null(), 1},
		{Int(1), Int(2), -1},
		{Int(2), Int(1), 1},
		{Int(3), Int(3), 0},
		{Int(3), Float(3.0), 0},
		{Float(2.5), Int(3), -1},
		{Int(3), Float(2.5), 1},
		{String("a"), String("b"), -1},
		{String("b"), String("a"), 1},
		{String("a"), String("a"), 0},
		{Bool(false), Bool(true), -1},
		{Bool(true), Bool(false), 1},
		{Bool(true), Bool(true), 0},
		// cross-kind: ordered by kind to keep Compare total
		{Bool(true), Int(0), -1},
		{Int(0), String(""), -1},
	}
	for _, c := range cases {
		if got := Compare(c.a, c.b); got != c.want {
			t.Errorf("Compare(%v, %v) = %d, want %d", c.a, c.b, got, c.want)
		}
	}
}

func TestEqual(t *testing.T) {
	if !Equal(Int(3), Float(3)) {
		t.Error("Int(3) should equal Float(3)")
	}
	if Equal(String("a"), String("b")) {
		t.Error("distinct strings reported equal")
	}
}

func TestKeyDistinguishes(t *testing.T) {
	vs := []Value{
		Null(), Bool(false), Bool(true), Int(0), Int(1), Int(-1),
		Float(0.5), String(""), String("a"), String("0"),
	}
	seen := map[string]Value{}
	for _, v := range vs {
		k := v.Key()
		if prev, dup := seen[k]; dup && !Equal(prev, v) {
			t.Errorf("Key collision between %v and %v: %q", prev, v, k)
		}
		seen[k] = v
	}
}

func TestKeyNumericNormalisation(t *testing.T) {
	if Int(3).Key() != Float(3.0).Key() {
		t.Error("Int(3) and Float(3.0) compare equal but key differently")
	}
	if Int(3).Key() == Float(3.5).Key() {
		t.Error("Int(3) and Float(3.5) key identically")
	}
}

func TestKeyOf(t *testing.T) {
	a := KeyOf(String("x"), String("y"))
	b := KeyOf(String("xy"), String(""))
	if a == b {
		t.Error("KeyOf boundary ambiguity: ('x','y') == ('xy','')")
	}
	if KeyOf(Int(1), Int(2)) != KeyOf(Int(1), Int(2)) {
		t.Error("KeyOf not deterministic")
	}
}

// TestKeyEqualIsSameKey: KeyEqual is Key equality, and KeyEqual values
// hash alike — on random values (NaN included) and on the edge cases.
func TestKeyEqualIsSameKey(t *testing.T) {
	check := func(a, b Value) bool {
		eq := KeyEqual(a, b)
		if eq != (a.Key() == b.Key()) || eq != KeyEqual(b, a) {
			return false
		}
		return !eq || a.KeyHash() == b.KeyHash()
	}
	prop := func(s1 uint8, i1 int64, f1 float64, str1 string, b1 bool,
		s2 uint8, i2 int64, f2 float64, str2 string, b2 bool) bool {
		return check(quickValue(s1, i1, f1, str1, b1), quickValue(s2, i2, f2, str2, b2))
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Error(err)
	}
	edges := []Value{
		Null(), Bool(false), Bool(true), Int(0), Float(0), Float(math.Copysign(0, -1)),
		Int(3), Float(3), Float(3.5), Float(math.NaN()), Float(-math.NaN()),
		Float(math.Inf(1)), Float(math.Inf(-1)), Int(math.MinInt64), Float(-(1 << 63)),
		Int(math.MaxInt64), Float(1 << 63), Float(1e300), String(""), String("i3"), String("x\x1fsy"),
	}
	for _, a := range edges {
		for _, b := range edges {
			if !check(a, b) {
				t.Errorf("KeyEqual(%v, %v) = %v, Key %q vs %q", a, b, KeyEqual(a, b), a.Key(), b.Key())
			}
		}
	}
}

// quickValue builds an arbitrary Value from fuzz inputs.
func quickValue(sel uint8, i int64, f float64, s string, b bool) Value {
	switch sel % 5 {
	case 0:
		return Null()
	case 1:
		return Bool(b)
	case 2:
		return Int(i)
	case 3:
		return Float(f)
	default:
		return String(s)
	}
}

func TestCompareIsReflexiveAndAntisymmetric(t *testing.T) {
	prop := func(s1 uint8, i1 int64, f1 float64, str1 string, b1 bool,
		s2 uint8, i2 int64, f2 float64, str2 string, b2 bool) bool {
		a := quickValue(s1, i1, f1, str1, b1)
		b := quickValue(s2, i2, f2, str2, b2)
		if Compare(a, a) != 0 || Compare(b, b) != 0 {
			return false
		}
		return Compare(a, b) == -Compare(b, a)
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Error(err)
	}
}

func TestCompareEqualIffSameKey(t *testing.T) {
	prop := func(s1 uint8, i1 int64, f1 float64, str1 string, b1 bool,
		s2 uint8, i2 int64, f2 float64, str2 string, b2 bool) bool {
		a := quickValue(s1, i1, f1, str1, b1)
		b := quickValue(s2, i2, f2, str2, b2)
		if f1 != f1 || f2 != f2 { // skip NaN; not representable in SQL literals
			return true
		}
		return Equal(a, b) == (a.Key() == b.Key())
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Error(err)
	}
}

func TestCompareSortsTotally(t *testing.T) {
	vs := []Value{
		String("z"), Int(10), Null(), Float(-2.5), Bool(true),
		String("a"), Int(-3), Bool(false), Float(10),
	}
	sort.Slice(vs, func(i, j int) bool { return Compare(vs[i], vs[j]) < 0 })
	for i := 1; i < len(vs); i++ {
		if Compare(vs[i-1], vs[i]) > 0 {
			t.Fatalf("not sorted at %d: %v > %v", i, vs[i-1], vs[i])
		}
	}
	if !vs[0].IsNull() {
		t.Error("NULL should sort first")
	}
}
