package value

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestKindsAndAccessors(t *testing.T) {
	cases := []struct {
		v    Value
		kind Kind
		str  string
	}{
		{Null, KindNull, "null"},
		{NewBool(true), KindBool, "true"},
		{NewInt(-7), KindInt, "-7"},
		{NewFloat(2.5), KindFloat, "2.5"},
		{NewString("hi"), KindString, "hi"},
		{NewArray([]Value{NewInt(1), NewString("a")}), KindArray, "[1, a]"},
	}
	for _, c := range cases {
		if c.v.Kind != c.kind {
			t.Fatalf("kind: %v vs %v", c.v.Kind, c.kind)
		}
		if c.v.String() != c.str {
			t.Fatalf("string: %q vs %q", c.v.String(), c.str)
		}
	}
}

func TestCompareNumericCrossTypes(t *testing.T) {
	c, ok := NewInt(2).Compare(NewFloat(2.0))
	if !ok || c != 0 {
		t.Fatalf("2 vs 2.0: %d %v", c, ok)
	}
	c, ok = NewInt(2).Compare(NewFloat(2.5))
	if !ok || c != -1 {
		t.Fatalf("2 vs 2.5: %d %v", c, ok)
	}
}

func TestCompareNullUndefined(t *testing.T) {
	if _, ok := Null.Compare(NewInt(1)); ok {
		t.Fatal("null comparison must be undefined")
	}
	if _, ok := NewInt(1).Compare(NewString("a")); ok {
		t.Fatal("int vs string must be undefined")
	}
}

func TestCompareArraysLexicographic(t *testing.T) {
	a := NewArray([]Value{NewInt(1), NewInt(2)})
	b := NewArray([]Value{NewInt(1), NewInt(3)})
	if c, ok := a.Compare(b); !ok || c != -1 {
		t.Fatalf("array cmp: %d %v", c, ok)
	}
	short := NewArray([]Value{NewInt(1)})
	if c, ok := short.Compare(a); !ok || c != -1 {
		t.Fatalf("prefix cmp: %d %v", c, ok)
	}
}

func TestArithmetic(t *testing.T) {
	if v, _ := Add(NewInt(2), NewInt(3)); v.Int() != 5 || v.Kind != KindInt {
		t.Fatalf("add: %v", v)
	}
	if v, _ := Add(NewInt(2), NewFloat(0.5)); v.Float() != 2.5 || v.Kind != KindFloat {
		t.Fatalf("mixed add: %v", v)
	}
	if v, _ := Add(NewString("a"), NewString("b")); v.Str() != "ab" {
		t.Fatalf("concat: %v", v)
	}
	if v, _ := Add(Null, NewInt(1)); !v.IsNull() {
		t.Fatalf("null add: %v", v)
	}
	if v, _ := DivOp(NewInt(7), NewInt(2)); v.Int() != 3 {
		t.Fatalf("int div: %v", v)
	}
	if _, err := DivOp(NewInt(1), NewInt(0)); err == nil {
		t.Fatal("div by zero must error")
	}
	if v, _ := Mod(NewInt(7), NewInt(3)); v.Int() != 1 {
		t.Fatalf("mod: %v", v)
	}
	if _, err := Add(NewBool(true), NewInt(1)); err == nil {
		t.Fatal("bool+int must error")
	}
}

func TestHashKeyDistinguishes(t *testing.T) {
	pairs := [][2]Value{
		{NewInt(1), NewInt(2)},
		{NewInt(1), NewString("1")},
		{NewBool(true), NewBool(false)},
		{NewString("a"), NewString("b")},
		{Null, NewInt(0)},
		{NewNode(1, nil), NewEdge(1, nil)},
	}
	for _, p := range pairs {
		if p[0].HashKey() == p[1].HashKey() {
			t.Fatalf("collision: %v vs %v", p[0], p[1])
		}
	}
	// Int/float equality shares a key (Cypher DISTINCT treats 1 = 1.0).
	if NewInt(1).HashKey() != NewFloat(1).HashKey() {
		t.Fatal("1 and 1.0 must share a hash key")
	}
}

func TestOrderLessNullsLast(t *testing.T) {
	if OrderLess(Null, NewInt(1)) {
		t.Fatal("null must sort after values")
	}
	if !OrderLess(NewInt(1), Null) {
		t.Fatal("values must sort before null")
	}
}

func TestPropCompareTotalOrderIsConsistent(t *testing.T) {
	f := func(a, b int64) bool {
		c1, ok1 := NewInt(a).Compare(NewInt(b))
		c2, ok2 := NewInt(b).Compare(NewInt(a))
		return ok1 && ok2 && c1 == -c2
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestIsTrue(t *testing.T) {
	if !NewBool(true).IsTrue() || NewBool(false).IsTrue() || Null.IsTrue() || NewInt(1).IsTrue() {
		t.Fatal("IsTrue must hold only for boolean true")
	}
}

// TestHashKeyMatchesEquals checks over a generated corpus that two values
// share a HashKey exactly when they are Equal. The corpus has the strings
// that once made keys collide (",", "|" and "s:" inside a string), ints
// beyond 2⁵³, int/float pairs, -0.0 and nested lists. It has no null,
// which Equals nothing, and no NaN, which Compare equates with every number.
func TestHashKeyMatchesEquals(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	big := int64(1) << 53
	ints := []int64{0, 1, -1, 2, big - 1, big, big + 1, big + 2, math.MaxInt64, math.MinInt64, math.MinInt64 + 1}
	floats := []float64{0, math.Copysign(0, -1), 0.5, 1, 2, -1, float64(big), float64(big + 2), 1 << 63, -(1 << 63), math.Inf(1), math.Inf(-1)}
	strs := []string{"", "a", "b", ",", "|", "s:", "a,s:b", "x|s:y", "y|s:z", "1:a", "]", "[", "∅", "n:1"}
	var scalars []Value
	for _, i := range ints {
		scalars = append(scalars, NewInt(i))
	}
	for _, f := range floats {
		scalars = append(scalars, NewFloat(f))
	}
	for _, s := range strs {
		scalars = append(scalars, NewString(s))
	}
	scalars = append(scalars, NewBool(true), NewBool(false), NewNode(1, nil), NewNode(2, nil), NewEdge(1, nil))
	corpus := append([]Value(nil), scalars...)
	corpus = append(corpus,
		NewArray([]Value{NewString("a"), NewString("b")}), NewArray([]Value{NewString("a,s:b")}),
		NewArray([]Value{NewString("x|s:y"), NewString("z")}), NewArray([]Value{NewString("x"), NewString("y|s:z")}))
	var list func(depth int) Value
	list = func(depth int) Value {
		elems := make([]Value, rng.Intn(4))
		for k := range elems {
			if depth > 0 && rng.Intn(3) == 0 {
				elems[k] = list(depth - 1)
			} else {
				elems[k] = scalars[rng.Intn(len(scalars))]
			}
		}
		return NewArray(elems)
	}
	for k := 0; k < 300; k++ {
		corpus = append(corpus, list(2))
	}
	keys := make([]string, len(corpus))
	for k, v := range corpus {
		keys[k] = v.HashKey()
	}
	for a := range corpus {
		for b := range corpus {
			if eq := corpus[a].Equals(corpus[b]); eq != (keys[a] == keys[b]) {
				t.Fatalf("%v vs %v: Equals %v, keys %q %q", corpus[a], corpus[b], eq, keys[a], keys[b])
			}
		}
	}
}
