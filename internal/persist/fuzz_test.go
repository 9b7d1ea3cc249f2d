package persist

import (
	"bufio"
	"bytes"
	"math"
	"testing"

	"redisgraph/internal/value"
)

// FuzzReadValue feeds arbitrary bytes to the snapshot value decoder: it must
// never panic, and a value it decodes must re-encode and decode again to the
// same kind and HashKey (float bit patterns, NaN payloads and nested lists
// included).
func FuzzReadValue(f *testing.F) {
	for _, v := range []value.Value{
		value.Null,
		value.NewBool(true),
		value.NewInt(math.MinInt64),
		value.NewInt(1<<53 + 1),
		value.NewFloat(math.Copysign(0, -1)),
		value.NewFloat(math.Float64frombits(0x7ff0000000000123)), // NaN with a payload
		value.NewFloat(math.Inf(-1)),
		value.NewString("a,s:b|∅"),
		value.NewArray([]value.Value{value.NewInt(1), value.NewArray([]value.Value{value.NewString("x"), value.Null}), value.NewArray(nil)}),
	} {
		f.Add(encodeValue(f, v))
	}
	f.Add([]byte{byte(value.KindBool), 7})                       // a bool byte other than 0/1
	f.Add([]byte{byte(value.KindArray), 0xff, 0xff, 0xff, 0x0f}) // a list longer than its bytes
	f.Add([]byte{byte(value.KindNode), 1})                       // entities are never serialised
	f.Fuzz(func(t *testing.T, data []byte) {
		v, err := readValue(bufio.NewReader(bytes.NewReader(data)))
		if err != nil {
			return
		}
		again, err := readValue(bufio.NewReader(bytes.NewReader(encodeValue(t, v))))
		if err != nil {
			t.Fatalf("re-reading %v: %v", v, err)
		}
		if again.Kind != v.Kind || again.HashKey() != v.HashKey() {
			t.Fatalf("round trip %v (%s) -> %v (%s)", v, v.HashKey(), again, again.HashKey())
		}
	})
}

func encodeValue(t testing.TB, v value.Value) []byte {
	t.Helper()
	var buf bytes.Buffer
	w := bufio.NewWriter(&buf)
	if err := writeValue(w, v); err != nil {
		t.Fatalf("writeValue(%v): %v", v, err)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}
