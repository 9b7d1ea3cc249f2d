package value

import (
	"strings"
	"testing"
)

type fakeEntity struct{ s string }

func (f fakeEntity) String() string { return f.s }

func TestEntityStringDelegation(t *testing.T) {
	n := NewNode(3, fakeEntity{"(3:Person)"})
	if n.String() != "(3:Person)" {
		t.Fatalf("node: %s", n)
	}
	e := NewEdge(7, fakeEntity{"[7:KNOWS]"})
	if e.String() != "[7:KNOWS]" {
		t.Fatalf("edge: %s", e)
	}
	// Without a Stringer payload, fall back to id rendering.
	bare := NewNode(5, nil)
	if !strings.Contains(bare.String(), "5") {
		t.Fatalf("bare node: %s", bare)
	}
	bareEdge := NewEdge(6, nil)
	if !strings.Contains(bareEdge.String(), "6") {
		t.Fatalf("bare edge: %s", bareEdge)
	}
}

func TestKindString(t *testing.T) {
	want := map[Kind]string{
		KindNull: "null", KindBool: "boolean", KindInt: "integer",
		KindFloat: "float", KindString: "string", KindArray: "array",
		KindNode: "node", KindEdge: "edge",
		Kind(8): "unknown", Kind(99): "unknown",
	}
	for k, s := range want {
		if k.String() != s {
			t.Fatalf("%d: %s != %s", k, k.String(), s)
		}
	}
}

func TestSortValuesTotalOrder(t *testing.T) {
	vs := []Value{
		Null,
		NewString("b"),
		NewInt(2),
		NewBool(true),
		NewString("a"),
		NewInt(1),
		Null,
	}
	SortValues(vs)
	// Nulls last.
	if !vs[len(vs)-1].IsNull() || !vs[len(vs)-2].IsNull() {
		t.Fatalf("nulls not last: %v", vs)
	}
	// Within a kind, values are ordered.
	var ints []int64
	var strs []string
	for _, v := range vs {
		switch v.Kind {
		case KindInt:
			ints = append(ints, v.Int())
		case KindString:
			strs = append(strs, v.Str())
		}
	}
	if len(ints) != 2 || ints[0] != 1 || len(strs) != 2 || strs[0] != "a" {
		t.Fatalf("sorted: %v", vs)
	}
}

func TestMulAndSubErrors(t *testing.T) {
	if _, err := Mul(NewString("a"), NewInt(2)); err == nil {
		t.Fatal("string * int must error")
	}
	if _, err := Sub(NewString("a"), NewString("b")); err == nil {
		t.Fatal("string - string must error")
	}
	if v, err := Mul(Null, NewInt(2)); err != nil || !v.IsNull() {
		t.Fatalf("null mul: %v %v", v, err)
	}
	if v, err := Sub(NewFloat(2.5), NewInt(1)); err != nil || v.Float() != 1.5 {
		t.Fatalf("mixed sub: %v %v", v, err)
	}
	if v, err := Mod(NewFloat(7), NewFloat(2.5)); err != nil || v.Float() != 2 {
		t.Fatalf("float mod: %v %v", v, err)
	}
	if _, err := Mod(NewInt(1), NewInt(0)); err == nil {
		t.Fatal("mod by zero must error")
	}
	if _, err := Mod(NewString("x"), NewInt(1)); err == nil {
		t.Fatal("string mod must error")
	}
}

func TestArrayConcatAndHash(t *testing.T) {
	arr := NewArray([]Value{NewInt(1)})
	v, err := Add(arr, NewString("x"))
	if err != nil || len(v.Array()) != 2 {
		t.Fatalf("append: %v %v", v, err)
	}
	// Nested array hash keys are structural.
	a1 := NewArray([]Value{NewArray([]Value{NewInt(1)})})
	a2 := NewArray([]Value{NewArray([]Value{NewInt(1)})})
	a3 := NewArray([]Value{NewArray([]Value{NewInt(2)})})
	if a1.HashKey() != a2.HashKey() || a1.HashKey() == a3.HashKey() {
		t.Fatalf("hash keys: %s %s %s", a1.HashKey(), a2.HashKey(), a3.HashKey())
	}
}

func TestCompareEdgeNodeIdentity(t *testing.T) {
	n1, n2 := NewNode(1, nil), NewNode(2, nil)
	if c, ok := n1.Compare(n2); !ok || c != -1 {
		t.Fatalf("node cmp: %d %v", c, ok)
	}
	if !n1.Equals(NewNode(1, fakeEntity{"whatever"})) {
		t.Fatal("nodes with equal ids must be equal")
	}
	if _, ok := n1.Compare(NewEdge(1, nil)); ok {
		t.Fatal("node vs edge comparison must be undefined")
	}
	if OrderLess(n1, n2) != true {
		t.Fatal("order by id")
	}
}

func TestFloatRendering(t *testing.T) {
	if NewFloat(2.50).String() != "2.5" {
		t.Fatalf("float: %s", NewFloat(2.50))
	}
	if NewFloat(1e21).String() != "1e+21" {
		t.Fatalf("big float: %s", NewFloat(1e21))
	}
}
