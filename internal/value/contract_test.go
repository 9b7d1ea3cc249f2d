package value

import (
	"math"
	"reflect"
	"testing"
	"unsafe"
)

// TestValueContract pins what every accessor returns on every kind of value,
// including the zero result an accessor gives for a value of another kind,
// so a change of Value's layout cannot change what callers read.
func TestValueContract(t *testing.T) {
	nodeEnt, edgeEnt := &fakeEntity{"(n)"}, &fakeEntity{"[e]"}
	cases := []struct {
		name    string
		v       Value
		kind    Kind
		b       bool
		i       int64
		f       float64
		s       string
		list    string // Array() rendered as a list; "" when Array() is nil
		id      uint64
		ent     any
		null    bool
		numeric bool
		str     string
	}{
		{name: "null", v: Null, kind: KindNull, null: true, str: "null"},
		{name: "true", v: NewBool(true), kind: KindBool, b: true, str: "true"},
		{name: "false", v: NewBool(false), kind: KindBool, str: "false"},
		{name: "int 0", v: NewInt(0), kind: KindInt, numeric: true, str: "0"},
		{name: "int 1", v: NewInt(1), kind: KindInt, i: 1, f: 1, numeric: true, str: "1"},
		{name: "float 3", v: NewFloat(3), kind: KindFloat, f: 3, numeric: true, str: "3"},
		{name: "float -0", v: NewFloat(math.Copysign(0, -1)), kind: KindFloat, f: math.Copysign(0, -1), numeric: true, str: "-0"},
		{name: "NaN", v: NewFloat(math.NaN()), kind: KindFloat, f: math.NaN(), numeric: true, str: "NaN"},
		{name: "+Inf", v: NewFloat(math.Inf(1)), kind: KindFloat, f: math.Inf(1), numeric: true, str: "+Inf"},
		{name: "-Inf", v: NewFloat(math.Inf(-1)), kind: KindFloat, f: math.Inf(-1), numeric: true, str: "-Inf"},
		{name: "MinInt64", v: NewInt(math.MinInt64), kind: KindInt, i: -9223372036854775808, f: -9223372036854775808, numeric: true, str: "-9223372036854775808"},
		{name: "MaxInt64", v: NewInt(math.MaxInt64), kind: KindInt, i: 9223372036854775807, f: 9223372036854775808, numeric: true, str: "9223372036854775807"},
		{name: "2^53-1", v: NewInt(1<<53 - 1), kind: KindInt, i: 9007199254740991, f: 9007199254740991, numeric: true, str: "9007199254740991"},
		{name: "2^53+1", v: NewInt(1<<53 + 1), kind: KindInt, i: 9007199254740993, f: 9007199254740992, numeric: true, str: "9007199254740993"},
		{name: "empty string", v: NewString(""), kind: KindString},
		{name: "string ∅", v: NewString("∅"), kind: KindString, s: "∅", str: "∅"},
		{name: "empty list", v: NewArray([]Value{}), kind: KindArray, list: "[]", str: "[]"},
		{name: "nested list", v: NewArray([]Value{NewInt(1), NewArray([]Value{NewString("a"), Null}), NewArray(nil)}),
			kind: KindArray, list: "[1, [a, null], []]", str: "[1, [a, null], []]"},
		{name: "node 0", v: NewNode(0, nil), kind: KindNode, str: "(node:0)"},
		{name: "node 0 entity", v: NewNode(0, nodeEnt), kind: KindNode, ent: nodeEnt, str: "(n)"},
		{name: "node max", v: NewNode(math.MaxUint64, nil), kind: KindNode, id: 18446744073709551615, str: "(node:18446744073709551615)"},
		{name: "node max entity", v: NewNode(math.MaxUint64, nodeEnt), kind: KindNode, id: 18446744073709551615, ent: nodeEnt, str: "(n)"},
		{name: "edge 0", v: NewEdge(0, nil), kind: KindEdge, str: "[edge:0]"},
		{name: "edge 0 entity", v: NewEdge(0, edgeEnt), kind: KindEdge, ent: edgeEnt, str: "[e]"},
		{name: "edge max", v: NewEdge(math.MaxUint64, nil), kind: KindEdge, id: 18446744073709551615, str: "[edge:18446744073709551615]"},
		{name: "edge max entity", v: NewEdge(math.MaxUint64, edgeEnt), kind: KindEdge, id: 18446744073709551615, ent: edgeEnt, str: "[e]"},
	}
	for _, c := range cases {
		v := c.v
		if v.Kind != c.kind {
			t.Errorf("%s: Kind %v, want %v", c.name, v.Kind, c.kind)
		}
		if v.Bool() != c.b || v.IsTrue() != c.b {
			t.Errorf("%s: Bool %v IsTrue %v, want %v", c.name, v.Bool(), v.IsTrue(), c.b)
		}
		if v.Int() != c.i {
			t.Errorf("%s: Int %d, want %d", c.name, v.Int(), c.i)
		}
		if math.Float64bits(v.Float()) != math.Float64bits(c.f) {
			t.Errorf("%s: Float %v, want %v", c.name, v.Float(), c.f)
		}
		if v.Str() != c.s {
			t.Errorf("%s: Str %q, want %q", c.name, v.Str(), c.s)
		}
		switch a := v.Array(); {
		case c.list == "" && a != nil:
			t.Errorf("%s: Array %v, want nil", c.name, a)
		case c.list != "" && (a == nil || NewArray(a).String() != c.list):
			t.Errorf("%s: Array %v, want %s", c.name, a, c.list)
		}
		if v.ID() != c.id {
			t.Errorf("%s: ID %d, want %d", c.name, v.ID(), c.id)
		}
		if v.Entity() != c.ent {
			t.Errorf("%s: Entity %v, want %v", c.name, v.Entity(), c.ent)
		}
		if v.IsNull() != c.null || v.IsNumeric() != c.numeric {
			t.Errorf("%s: IsNull %v IsNumeric %v, want %v %v", c.name, v.IsNull(), v.IsNumeric(), c.null, c.numeric)
		}
		if v.String() != c.str {
			t.Errorf("%s: String %q, want %q", c.name, v.String(), c.str)
		}
	}
	for _, a := range cases {
		for _, b := range cases {
			c1, ok1 := a.v.Compare(b.v)
			c2, ok2 := b.v.Compare(a.v)
			if ok1 != ok2 || (ok1 && c1 != -c2) {
				t.Errorf("Compare(%s, %s) = %d %v, reversed %d %v", a.name, b.name, c1, ok1, c2, ok2)
			}
			if OrderLess(a.v, b.v) && OrderLess(b.v, a.v) {
				t.Errorf("OrderLess holds both ways on %s and %s", a.name, b.name)
			}
		}
	}
}

// TestValueLayout pins the size of the tagged union and that == on two
// values does not compile (it would panic at run time on a list).
func TestValueLayout(t *testing.T) {
	if n := unsafe.Sizeof(Value{}); n > 48 {
		t.Errorf("Value is %d bytes, want at most 48", n)
	}
	if reflect.TypeOf(Value{}).Comparable() {
		t.Error("Value must not be comparable")
	}
}
