// Package value implements the dynamic value system flowing through query
// execution: property values, expression results and result-set cells.
// Semantics follow openCypher: three-valued logic with null, orderable
// scalars, and entity references compared by identity.
package value

import (
	"cmp"
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"
)

// Kind enumerates runtime types.
type Kind uint8

// Value kinds.
const (
	KindNull Kind = iota
	KindBool
	KindInt
	KindFloat
	KindString
	KindArray
	KindNode
	KindEdge
)

func (k Kind) String() string {
	switch k {
	case KindNull:
		return "null"
	case KindBool:
		return "boolean"
	case KindInt:
		return "integer"
	case KindFloat:
		return "float"
	case KindString:
		return "string"
	case KindArray:
		return "array"
	case KindNode:
		return "node"
	case KindEdge:
		return "edge"
	}
	return "unknown"
}

// Value is a tagged union, the counterpart of RedisGraph's SIValue: Kind
// says which payload field is live, and the zero Value is null.
//   - w is the one scalar word: a bool as 0/1, an int64's bits, a
//     float64's bits (math.Float64bits), or a node or edge ID.
//   - s is a string, kept unboxed so reading a string property does not
//     allocate.
//   - ref is a list's []Value, or the *graph.Node or *graph.Edge payload
//     (held as any, which avoids a package cycle).
//
// Only this package knows the layout: every accessor checks Kind and returns
// its zero result for a value of another kind (Int of a float is 0, ID of a
// string is 0). The zero-size leading field keeps Value non-comparable, so
// == on two values fails to compile instead of panicking at run time on a
// list.
type Value struct {
	_    [0]func()
	Kind Kind
	w    uint64
	s    string
	ref  any
}

// Null is the null value.
var Null = Value{}

// NewBool wraps a bool.
func NewBool(b bool) Value {
	if b {
		return Value{Kind: KindBool, w: 1}
	}
	return Value{Kind: KindBool}
}

// NewInt wraps an int64.
func NewInt(i int64) Value { return Value{Kind: KindInt, w: uint64(i)} }

// NewFloat wraps a float64.
func NewFloat(f float64) Value { return Value{Kind: KindFloat, w: math.Float64bits(f)} }

// NewString wraps a string.
func NewString(s string) Value { return Value{Kind: KindString, s: s} }

// NewArray wraps a slice of values.
func NewArray(a []Value) Value { return Value{Kind: KindArray, ref: a} }

// NewNode wraps a node entity reference.
func NewNode(id uint64, entity any) Value { return Value{Kind: KindNode, w: id, ref: entity} }

// NewEdge wraps an edge entity reference.
func NewEdge(id uint64, entity any) Value { return Value{Kind: KindEdge, w: id, ref: entity} }

// IsNull reports whether v is null.
func (v Value) IsNull() bool { return v.Kind == KindNull }

// Bool returns the boolean payload.
func (v Value) Bool() bool { return v.Kind == KindBool && v.w != 0 }

// Int returns the integer payload.
func (v Value) Int() int64 {
	if v.Kind != KindInt {
		return 0
	}
	return int64(v.w)
}

// Float returns the float payload, coercing integers.
func (v Value) Float() float64 {
	switch v.Kind {
	case KindInt:
		return float64(int64(v.w))
	case KindFloat:
		return math.Float64frombits(v.w)
	}
	return 0
}

// Str returns the string payload.
func (v Value) Str() string { return v.s }

// Array returns the array payload.
func (v Value) Array() []Value {
	if v.Kind != KindArray {
		return nil
	}
	return v.ref.([]Value)
}

// Entity returns the *graph.Node / *graph.Edge payload of an entity value.
func (v Value) Entity() any {
	if v.Kind < KindNode {
		return nil
	}
	return v.ref
}

// ID returns the identity of a node or edge, which comparison uses.
func (v Value) ID() uint64 {
	if v.Kind != KindNode && v.Kind != KindEdge {
		return 0
	}
	return v.w
}

// IsNumeric reports whether v is an int or float.
func (v Value) IsNumeric() bool { return v.Kind == KindInt || v.Kind == KindFloat }

// IsTrue reports whether v is the boolean true (openCypher predicate
// semantics: null and non-booleans are not true).
func (v Value) IsTrue() bool { return v.Bool() }

// Equals implements Cypher equality; comparing null with anything is false
// here (use Compare for three-valued logic).
func (v Value) Equals(o Value) bool {
	c, ok := v.Compare(o)
	return ok && c == 0
}

// Compare orders two values. ok is false when the comparison is undefined
// (null operands or incomparable types), which callers treat as Cypher null.
// Numbers compare exactly: two ints as int64, an int with a float by value
// (CompareIntFloat), two floats as float64. NaN compares equal to every
// number.
func (v Value) Compare(o Value) (int, bool) {
	if v.Kind == KindNull || o.Kind == KindNull {
		return 0, false
	}
	if v.IsNumeric() && o.IsNumeric() {
		switch {
		case v.Kind == KindInt && o.Kind == KindInt:
			return cmp.Compare(v.Int(), o.Int()), true
		case v.Kind == KindInt:
			return CompareIntFloat(v.Int(), o.Float()), true
		case o.Kind == KindInt:
			return -CompareIntFloat(o.Int(), v.Float()), true
		}
		a, b := v.Float(), o.Float()
		switch {
		case a < b:
			return -1, true
		case a > b:
			return 1, true
		default:
			return 0, true
		}
	}
	if v.Kind != o.Kind {
		return 0, false
	}
	switch v.Kind {
	case KindBool, KindNode, KindEdge:
		return cmp.Compare(v.w, o.w), true
	case KindString:
		return strings.Compare(v.s, o.s), true
	case KindArray:
		a, b := v.Array(), o.Array()
		for k := 0; k < len(a) && k < len(b); k++ {
			if c, ok := a[k].Compare(b[k]); !ok || c != 0 {
				return c, ok
			}
		}
		return cmp.Compare(len(a), len(b)), true
	}
	return 0, false
}

// CompareIntFloat compares an int64 with a float64 exactly: -1, 0 or 1, and
// 0 when f is NaN. Rounding i to float64 is monotonic and lands on the float
// nearest i, so it decides every pair except where it lands on f itself;
// then f is integral and is compared with i as an int64.
func CompareIntFloat(i int64, f float64) int {
	switch fi := float64(i); {
	case fi < f:
		return -1
	case fi > f:
		return 1
	case fi != f: // NaN
		return 0
	case f >= 1<<63: // i rounded up to 2⁶³, which is past every int64
		return -1
	}
	return cmp.Compare(i, int64(f))
}

// OrderLess is a total order for ORDER BY: null sorts last, mixed types sort
// by kind.
func OrderLess(a, b Value) bool {
	if a.Kind == KindNull {
		return false
	}
	if b.Kind == KindNull {
		return true
	}
	if c, ok := a.Compare(b); ok {
		return c < 0
	}
	return a.Kind < b.Kind
}

// SortValues sorts values with OrderLess; used by collect()+sort and tests.
func SortValues(vs []Value) {
	sort.SliceStable(vs, func(i, j int) bool { return OrderLess(vs[i], vs[j]) })
}

// Add implements Cypher +: numeric addition, string and array concatenation.
func Add(a, b Value) (Value, error) {
	switch {
	case a.IsNull() || b.IsNull():
		return Null, nil
	case a.Kind == KindInt && b.Kind == KindInt:
		return NewInt(a.Int() + b.Int()), nil
	case a.IsNumeric() && b.IsNumeric():
		return NewFloat(a.Float() + b.Float()), nil
	case a.Kind == KindString && b.Kind == KindString:
		return NewString(a.s + b.s), nil
	case a.Kind == KindArray:
		return NewArray(append(append([]Value(nil), a.Array()...), b)), nil
	}
	return Null, fmt.Errorf("type mismatch: cannot add %s and %s", a.Kind, b.Kind)
}

// Sub implements Cypher -.
func Sub(a, b Value) (Value, error) {
	switch {
	case a.IsNull() || b.IsNull():
		return Null, nil
	case a.Kind == KindInt && b.Kind == KindInt:
		return NewInt(a.Int() - b.Int()), nil
	case a.IsNumeric() && b.IsNumeric():
		return NewFloat(a.Float() - b.Float()), nil
	}
	return Null, fmt.Errorf("type mismatch: cannot subtract %s from %s", b.Kind, a.Kind)
}

// Mul implements Cypher *.
func Mul(a, b Value) (Value, error) {
	switch {
	case a.IsNull() || b.IsNull():
		return Null, nil
	case a.Kind == KindInt && b.Kind == KindInt:
		return NewInt(a.Int() * b.Int()), nil
	case a.IsNumeric() && b.IsNumeric():
		return NewFloat(a.Float() * b.Float()), nil
	}
	return Null, fmt.Errorf("type mismatch: cannot multiply %s and %s", a.Kind, b.Kind)
}

// DivOp implements Cypher /: integer division for int operands.
func DivOp(a, b Value) (Value, error) {
	switch {
	case a.IsNull() || b.IsNull():
		return Null, nil
	case a.Kind == KindInt && b.Kind == KindInt:
		if b.Int() == 0 {
			return Null, fmt.Errorf("division by zero")
		}
		return NewInt(a.Int() / b.Int()), nil
	case a.IsNumeric() && b.IsNumeric():
		return NewFloat(a.Float() / b.Float()), nil
	}
	return Null, fmt.Errorf("type mismatch: cannot divide %s by %s", a.Kind, b.Kind)
}

// Mod implements Cypher %.
func Mod(a, b Value) (Value, error) {
	switch {
	case a.IsNull() || b.IsNull():
		return Null, nil
	case a.Kind == KindInt && b.Kind == KindInt:
		if b.Int() == 0 {
			return Null, fmt.Errorf("division by zero")
		}
		return NewInt(a.Int() % b.Int()), nil
	case a.IsNumeric() && b.IsNumeric():
		return NewFloat(math.Mod(a.Float(), b.Float())), nil
	}
	return Null, fmt.Errorf("type mismatch: cannot mod %s by %s", a.Kind, b.Kind)
}

// HashKey returns a canonical string for grouping, DISTINCT, hash joins and
// indexes: two non-null values share a key exactly when they are Equal (NaN
// aside, which Compare equates with every number), and null has a key of
// its own. A key is self-delimiting, since a string key carries its byte
// length, so keys joined into a tuple key do not collide either.
func (v Value) HashKey() string {
	switch v.Kind {
	case KindNull:
		return "∅"
	case KindBool:
		return "b:" + strconv.FormatBool(v.Bool())
	case KindInt:
		// An int that float64 holds exactly shares the key of that float (1
		// and 1.0 group together). Any other int equals no float, so it gets
		// an exact key of a form no float key takes.
		i := v.Int()
		if f := float64(i); CompareIntFloat(i, f) == 0 {
			return floatKey(f)
		}
		return "i:" + strconv.FormatInt(i, 10)
	case KindFloat:
		return floatKey(v.Float())
	case KindString:
		return "s:" + strconv.Itoa(len(v.s)) + ":" + v.s
	case KindArray:
		var b strings.Builder
		b.WriteString("a:[")
		for k, e := range v.Array() {
			if k > 0 {
				b.WriteByte(',')
			}
			b.WriteString(e.HashKey())
		}
		b.WriteByte(']')
		return b.String()
	case KindNode:
		return "v:" + strconv.FormatUint(v.w, 10)
	default: // KindEdge
		return "e:" + strconv.FormatUint(v.w, 10)
	}
}

func floatKey(f float64) string {
	if f == 0 {
		f = 0 // -0.0 equals 0.0
	}
	return "n:" + strconv.FormatFloat(f, 'g', -1, 64)
}

// String renders the value as it appears in result sets.
func (v Value) String() string {
	switch v.Kind {
	case KindNull:
		return "null"
	case KindBool:
		return strconv.FormatBool(v.Bool())
	case KindInt:
		return strconv.FormatInt(v.Int(), 10)
	case KindFloat:
		return strconv.FormatFloat(v.Float(), 'g', -1, 64)
	case KindString:
		return v.s
	case KindArray:
		var b strings.Builder
		b.WriteByte('[')
		for k, e := range v.Array() {
			if k > 0 {
				b.WriteString(", ")
			}
			b.WriteString(e.String())
		}
		b.WriteByte(']')
		return b.String()
	case KindNode:
		if s, ok := v.ref.(fmt.Stringer); ok {
			return s.String()
		}
		return fmt.Sprintf("(node:%d)", v.w)
	default: // KindEdge
		if s, ok := v.ref.(fmt.Stringer); ok {
			return s.String()
		}
		return fmt.Sprintf("[edge:%d]", v.w)
	}
}
