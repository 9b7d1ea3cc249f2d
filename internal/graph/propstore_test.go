package graph

import (
	"testing"

	"redisgraph/internal/value"
)

func TestPropStorePromotionAndOverflow(t *testing.T) {
	ps := newPropStore()

	// First scalar fixes the kind.
	ps.set(3, 0, value.NewInt(42))
	c := ps.Column(0)
	if c == nil || c.Kind() != ColInt {
		t.Fatalf("first int write must promote to ColInt, got %v", c.Kind())
	}
	if !c.Present(3) || c.ints[3] != 42 {
		t.Fatalf("typed cell not stored: present=%v", c.Present(3))
	}

	// A mismatched kind spills to overflow and clears the presence bit.
	ps.set(3, 0, value.NewString("later"))
	if c.Present(3) {
		t.Fatal("kind-changing overwrite must clear the presence bit")
	}
	if v, ok := c.OverflowAt(3); !ok || v.Str() != "later" {
		t.Fatalf("overflow entry missing: %v %v", v, ok)
	}
	if c.Kind() != ColInt {
		t.Fatal("promotion is one-shot: kind must never change")
	}

	// Writing a matching kind again reclaims the typed slot.
	ps.set(3, 0, value.NewInt(7))
	if !c.Present(3) || c.ints[3] != 7 {
		t.Fatal("typed rewrite must reclaim the cell")
	}
	if _, ok := c.OverflowAt(3); ok {
		t.Fatal("typed rewrite must drop the overflow entry")
	}

	// Bools never promote: the column stays ColNone, everything overflows.
	ps.set(1, 1, value.NewBool(true))
	b := ps.Column(1)
	if b.Kind() != ColNone || b.OverflowLen() != 1 {
		t.Fatalf("bool column: kind=%v overflow=%d", b.Kind(), b.OverflowLen())
	}
}

func TestPropStoreValueRoundTrip(t *testing.T) {
	ps := newPropStore()
	ps.set(0, 0, value.NewInt(1<<60+5))
	ps.set(1, 1, value.NewFloat(2.5))
	ps.set(2, 2, value.NewString("oak"))
	ps.set(3, 3, value.NewArray([]value.Value{value.NewInt(9)}))

	cases := []struct {
		aid  int
		id   uint64
		want string
	}{
		{0, 0, value.NewInt(1<<60 + 5).String()},
		{1, 1, value.NewFloat(2.5).String()},
		{2, 2, value.NewString("oak").String()},
		{3, 3, value.NewArray([]value.Value{value.NewInt(9)}).String()},
	}
	for _, tc := range cases {
		v, ok := ps.Column(tc.aid).Value(tc.id)
		if !ok || v.String() != tc.want {
			t.Fatalf("aid %d: got %v %v, want %s", tc.aid, v, ok, tc.want)
		}
	}
	if _, ok := ps.Column(0).Value(99); ok {
		t.Fatal("absent cell must report !ok")
	}
	if ps.Column(42) != nil {
		t.Fatal("never-written attribute must have no column")
	}
}

func TestPropStoreDeleteAndClear(t *testing.T) {
	ps := newPropStore()
	ps.set(5, 0, value.NewInt(1))
	ps.set(5, 1, value.NewBool(true))

	// Null set deletes.
	ps.set(5, 0, value.Value{})
	if ps.Column(0).Present(5) {
		t.Fatal("null set must clear the typed cell")
	}

	// clear drops every column a deleted entity held.
	ps.set(5, 0, value.NewInt(2))
	ps.clear(5)
	if ps.Column(0).Present(5) || ps.Column(1).OverflowLen() != 0 {
		t.Fatal("clear must drop typed and overflow entries")
	}
}

func TestPropStoreInterning(t *testing.T) {
	ps := newPropStore()
	ps.set(0, 0, value.NewString("ash"))
	ps.set(1, 0, value.NewString("oak"))
	ps.set(2, 0, value.NewString("ash"))
	c := ps.Column(0)
	if c.strs[0] != c.strs[2] {
		t.Fatal("equal strings must share one interned ID")
	}
	if c.strs[0] == c.strs[1] {
		t.Fatal("distinct strings must not share an ID")
	}
	if id, ok := c.StringID("oak"); !ok || id != c.strs[1] {
		t.Fatal("StringID must resolve to the stored cell's ID")
	}
	if _, ok := c.StringID("nosuch"); ok {
		t.Fatal("StringID must not create entries")
	}
	if c.StrAt(1) != "oak" {
		t.Fatalf("StrAt: %q", c.StrAt(1))
	}
}

func TestPropStoreAppendIDsOrdering(t *testing.T) {
	ps := newPropStore()
	// Typed entries at 2, 64, 130; overflow entries at 0 and 200.
	ps.set(64, 0, value.NewInt(1))
	ps.set(2, 0, value.NewInt(2))
	ps.set(130, 0, value.NewInt(3))
	ps.set(0, 0, value.NewBool(true))
	ps.set(200, 0, value.NewArray(nil))

	got := ps.Column(0).AppendIDs(nil)
	want := []uint64{0, 2, 64, 130, 200}
	if len(got) != len(want) {
		t.Fatalf("AppendIDs: got %v want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("AppendIDs: got %v want %v", got, want)
		}
	}

	// Fast path: no overflow.
	ps2 := newPropStore()
	ps2.set(9, 0, value.NewInt(1))
	ps2.set(4, 0, value.NewInt(1))
	got2 := ps2.Column(0).AppendIDs(nil)
	if len(got2) != 2 || got2[0] != 4 || got2[1] != 9 {
		t.Fatalf("AppendIDs fast path: %v", got2)
	}
}

// TestGraphColumnWrites checks the graph-level write path: CreateNode, SET
// and DeleteNode land in (and leave) the node columns.
func TestGraphColumnWrites(t *testing.T) {
	g := New("mirror")
	g.Lock()
	n := g.CreateNode([]string{"A"}, map[string]value.Value{"x": value.NewInt(5)})
	g.Unlock()

	aid, ok := g.Schema.AttrID("x")
	if !ok {
		t.Fatal("attr x missing")
	}
	if v := g.NodePropertyColumnar(n.ID, "x"); v.Int() != 5 {
		t.Fatalf("columnar read after CreateNode: %v", v)
	}
	if c := g.PropColumn(aid); c == nil || c.Kind() != ColInt {
		t.Fatal("CreateNode must populate the column")
	}

	g.Lock()
	if _, ok := g.DeleteNode(n.ID); !ok {
		t.Fatal("DeleteNode failed")
	}
	g.Unlock()
	if g.PropColumn(aid).Present(n.ID) {
		t.Fatal("DeleteNode must clear the column cell")
	}
	if !g.NodePropertyColumnar(n.ID, "x").IsNull() {
		t.Fatal("columnar read of a deleted node must be null")
	}
}

// TestEntityStringNames pins the human-readable rendering: labels,
// relationship types, and property keys print by name when the schema
// resolves them, and fall back to numeric IDs on schema-less entities.
func TestEntityStringNames(t *testing.T) {
	g := New("names")
	g.Lock()
	a := g.CreateNode([]string{"Hub"}, map[string]value.Value{"uid": value.NewInt(7)})
	b := g.CreateNode(nil, nil)
	e, err := g.CreateEdge("Knows", a.ID, b.ID, map[string]value.Value{"w": value.NewFloat(1.5)})
	g.Unlock()
	if err != nil {
		t.Fatal(err)
	}
	if got, want := g.DetachNode(a.ID).String(), "(0:Hub {uid:7})"; got != want {
		t.Fatalf("node: %q, want %q", got, want)
	}
	if got, want := g.DetachEdge(e.ID).String(), "[0:Knows 0->1 {w:1.5}]"; got != want {
		t.Fatalf("edge: %q, want %q", got, want)
	}
	// The live entities render their structure only.
	if got, want := a.String(), "(0:Hub)"; got != want {
		t.Fatalf("live node: %q, want %q", got, want)
	}
	bare := &DetachedNode{Node: Node{ID: 3, Labels: []int{0}}, Props: []Prop{{Attr: 2, Value: value.NewInt(1)}}}
	if got, want := bare.String(), "(3:L0 {2:1})"; got != want {
		t.Fatalf("schema-less node: %q, want %q", got, want)
	}
}
