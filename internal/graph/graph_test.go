package graph

import (
	"slices"
	"testing"

	"redisgraph/internal/grb"
	"redisgraph/internal/value"
)

func props(kv ...any) map[string]value.Value {
	m := map[string]value.Value{}
	for i := 0; i < len(kv); i += 2 {
		switch v := kv[i+1].(type) {
		case int:
			m[kv[i].(string)] = value.NewInt(int64(v))
		case string:
			m[kv[i].(string)] = value.NewString(v)
		}
	}
	return m
}

func TestCreateNodesAndEdges(t *testing.T) {
	g := New("t")
	a := g.CreateNode([]string{"Person"}, props("name", "a"))
	b := g.CreateNode([]string{"Person"}, props("name", "b"))
	if a.ID != 0 || b.ID != 1 {
		t.Fatalf("ids: %d %d", a.ID, b.ID)
	}
	e, err := g.CreateEdge("KNOWS", a.ID, b.ID, props("w", 3))
	if err != nil {
		t.Fatal(err)
	}
	if g.NodeCount() != 2 || g.EdgeCount() != 1 {
		t.Fatalf("counts: %d %d", g.NodeCount(), g.EdgeCount())
	}
	// Relation matrix and transpose entries.
	tid, _ := g.Schema.RelTypeID("KNOWS")
	if v, err := g.RelationMatrix(tid).ExtractElement(0, 1); err != nil || v != e.ID {
		t.Fatalf("rel: %v %v", v, err)
	}
	if !g.TRelationMatrix(tid).Has(1, 0) {
		t.Fatal("rel transpose entry missing")
	}
	// Label diagonal.
	lid, _ := g.Schema.LabelID("Person")
	if !g.LabelMatrix(lid).Has(1, 1) {
		t.Fatal("label entry missing")
	}
	if ids := g.EdgesBetween(tid, a.ID, b.ID); len(ids) != 1 || ids[0] != e.ID {
		t.Fatalf("edgesBetween: %v", ids)
	}
}

func TestCreateEdgeValidatesEndpoints(t *testing.T) {
	g := New("t")
	n := g.CreateNode(nil, nil)
	if _, err := g.CreateEdge("R", n.ID, 999, nil); err == nil {
		t.Fatal("want error for missing destination")
	}
	if _, err := g.CreateEdge("R", 999, n.ID, nil); err == nil {
		t.Fatal("want error for missing source")
	}
}

func TestMultiEdgeSameEndpoints(t *testing.T) {
	g := New("t")
	a := g.CreateNode(nil, nil)
	b := g.CreateNode(nil, nil)
	e1, _ := g.CreateEdge("R", a.ID, b.ID, nil)
	e2, _ := g.CreateEdge("R", a.ID, b.ID, nil)
	tid, _ := g.Schema.RelTypeID("R")
	if ids := g.EdgesBetween(tid, a.ID, b.ID); len(ids) != 2 {
		t.Fatalf("multi-edge: %v", ids)
	}
	// Deleting one keeps the matrix entry; deleting both clears it.
	g.DeleteEdge(e1.ID)
	if _, err := g.RelationMatrix(tid).ExtractElement(0, 1); err != nil {
		t.Fatal("matrix entry dropped while an edge remains")
	}
	g.DeleteEdge(e2.ID)
	if _, err := g.RelationMatrix(tid).ExtractElement(0, 1); err == nil {
		t.Fatal("matrix entry should be gone")
	}
	if _, err := g.TRelationMatrix(tid).ExtractElement(1, 0); err == nil {
		t.Fatal("transpose entry should be gone")
	}
}

// TestAdjacencySharedAcrossRelations checks that a pair joined by two types
// stays joined for untyped reads while either edge remains, and that
// Adjacency, which only the one-type wire benchmark reads, is the sole
// type's R and nil once a second type exists.
func TestAdjacencySharedAcrossRelations(t *testing.T) {
	g := New("t")
	a := g.CreateNode(nil, nil)
	b := g.CreateNode(nil, nil)
	e1, _ := g.CreateEdge("R1", a.ID, b.ID, nil)
	if g.Adjacency() != g.RelationMatrix(0) || g.TAdjacency() != g.TRelationMatrix(0) {
		t.Fatal("a one-type graph's adjacency must be its relation matrix")
	}
	g.CreateEdge("R2", a.ID, b.ID, nil)
	if g.Adjacency() != nil || g.TAdjacency() != nil {
		t.Fatal("a two-type graph has no adjacency matrix")
	}
	if g.Degree(a.ID, true) != 1 || g.Stats().Edges != 2 {
		t.Fatalf("two types, one pair: degree %d, Edges %d; want 1, 2", g.Degree(a.ID, true), g.Stats().Edges)
	}
	g.DeleteEdge(e1.ID)
	// R2 still connects the pair.
	if ids := g.EdgesBetween(-1, a.ID, b.ID); len(ids) != 1 || g.Degree(b.ID, false) != 1 {
		t.Fatalf("pair dropped while the R2 edge remains: %v", ids)
	}
}

func TestDeleteNodeCascades(t *testing.T) {
	g := New("t")
	a := g.CreateNode([]string{"X"}, nil)
	b := g.CreateNode([]string{"X"}, nil)
	c := g.CreateNode([]string{"X"}, nil)
	g.CreateEdge("R", a.ID, b.ID, nil)
	g.CreateEdge("R", c.ID, b.ID, nil)
	g.CreateEdge("R", b.ID, b.ID, nil) // self loop
	edges, ok := g.DeleteNode(b.ID)
	if !ok || edges != 3 {
		t.Fatalf("cascade: edges=%d ok=%v", edges, ok)
	}
	if g.NodeCount() != 2 || g.EdgeCount() != 0 {
		t.Fatalf("counts: %d %d", g.NodeCount(), g.EdgeCount())
	}
	lid, _ := g.Schema.LabelID("X")
	if g.LabelMatrix(lid).NVals() != 2 {
		t.Fatalf("label diag: %d", g.LabelMatrix(lid).NVals())
	}
}

// TestDeletedNodeLeavesScanSources pins what lets a scan skip the per-node
// liveness probe: once DeleteNode returns, the node is gone from its label
// diagonals' members, from the index postings of its labels and from every
// property column's holders — with the diagonal's delete still pending and
// again after a fold.
func TestDeletedNodeLeavesScanSources(t *testing.T) {
	g := New("t")
	if !g.CreateIndex("P", "k") {
		t.Fatal("index not created")
	}
	var ids []uint64
	for v := 0; v < 6; v++ {
		ids = append(ids, g.CreateNode([]string{"P", "Q"}, props("k", v%2, "s", "x")).ID)
	}
	g.Sync()
	victim := ids[2] // k = 0, shared with ids[0] and ids[4]
	if _, ok := g.DeleteNode(victim); !ok {
		t.Fatal("delete failed")
	}
	lidP, _ := g.Schema.LabelID("P")
	aidK, _ := g.Schema.AttrID("k")
	aidS, _ := g.Schema.AttrID("s")
	ix, _ := g.Schema.Index(lidP, aidK)
	check := func(when string) {
		t.Helper()
		for _, label := range []string{"P", "Q"} {
			lid, _ := g.Schema.LabelID(label)
			members := g.LabelMatrix(lid).AppendDiag(nil)
			if len(members) != len(ids)-1 || slices.Contains(members, victim) {
				t.Errorf("%s: :%s members %v still hold node %d", when, label, members, victim)
			}
		}
		if posting := ix.Lookup(value.NewInt(0)); len(posting) != 2 || slices.Contains(posting, victim) {
			t.Errorf("%s: index posting %v still holds node %d", when, posting, victim)
		}
		for _, aid := range []int{aidK, aidS} {
			if holders := g.PropColumn(aid).AppendIDs(nil); len(holders) != len(ids)-1 || slices.Contains(holders, victim) {
				t.Errorf("%s: column %d holders %v still hold node %d", when, aid, holders, victim)
			}
		}
	}
	if g.LabelMatrix(lidP).Pending() == 0 {
		t.Fatal("the delete must leave the diagonal pending")
	}
	check("pending")
	g.Sync()
	if g.PendingDeltas() != 0 {
		t.Fatal("Sync left deltas pending")
	}
	check("folded")
}

func TestPropertiesAndIndex(t *testing.T) {
	g := New("t")
	a := g.CreateNode([]string{"P"}, props("name", "alice"))
	g.CreateNode([]string{"P"}, props("name", "bob"))
	if !g.CreateIndex("P", "name") {
		t.Fatal("index not created")
	}
	if g.CreateIndex("P", "name") {
		t.Fatal("duplicate index must report false")
	}
	lid, _ := g.Schema.LabelID("P")
	aid, _ := g.Schema.AttrID("name")
	ix, _ := g.Schema.Index(lid, aid)
	if ids := ix.Lookup(value.NewString("alice")); len(ids) != 1 || ids[0] != a.ID {
		t.Fatalf("lookup: %v", ids)
	}
	// Update maintains the index.
	g.SetNodeProperty(a.ID, "name", value.NewString("ally"))
	if ids := ix.Lookup(value.NewString("alice")); len(ids) != 0 {
		t.Fatalf("stale: %v", ids)
	}
	if ids := ix.Lookup(value.NewString("ally")); len(ids) != 1 {
		t.Fatalf("missing: %v", ids)
	}
	// Null removes the property and the index entry.
	g.SetNodeProperty(a.ID, "name", value.Null)
	if ids := ix.Lookup(value.NewString("ally")); len(ids) != 0 {
		t.Fatalf("after null: %v", ids)
	}
	if v := g.NodePropertyColumnar(a.ID, "name"); !v.IsNull() {
		t.Fatalf("prop: %v", v)
	}
}

func TestGrowthPastChunk(t *testing.T) {
	g := New("t")
	// Force growth beyond the initial dimension.
	n := 16384 + 10
	var last *Node
	for i := 0; i < n; i++ {
		last = g.CreateNode(nil, nil)
	}
	if g.Dim() <= 16384 {
		t.Fatalf("dim did not grow: %d", g.Dim())
	}
	first, _ := g.GetNode(0)
	if _, err := g.CreateEdge("R", first.ID, last.ID, nil); err != nil {
		t.Fatal(err)
	}
	if !g.TRelationMatrix(0).Has(int(last.ID), 0) {
		t.Fatal("edge after growth missing from Rᵀ")
	}
}

func TestSchemaInterning(t *testing.T) {
	s := NewSchema()
	if s.AddLabel("A") != s.AddLabel("A") {
		t.Fatal("label interning broken")
	}
	if s.AddRelType("R") != 0 || s.AddRelType("S") != 1 {
		t.Fatal("reltype ids")
	}
	if s.RelTypeName(1) != "S" || s.LabelName(99) != "" {
		t.Fatal("name lookups")
	}
	if _, ok := s.LabelID("missing"); ok {
		t.Fatal("missing label resolved")
	}
}

func TestEdgePropertyRoundTrip(t *testing.T) {
	g := New("t")
	a := g.CreateNode(nil, nil)
	b := g.CreateNode(nil, nil)
	e, _ := g.CreateEdge("R", a.ID, b.ID, props("w", 5))
	if v := g.EdgeProperty(e.ID, "w"); v.Int() != 5 {
		t.Fatalf("w=%v", v)
	}
	g.SetEdgeProperty(e.ID, "w", value.NewInt(9))
	if v := g.EdgeProperty(e.ID, "w"); v.Int() != 9 {
		t.Fatalf("w=%v", v)
	}
	// Null removes it; deleting the edge clears its cells, so the recycled
	// ID starts empty.
	g.SetEdgeProperty(e.ID, "w", value.Null)
	if v := g.EdgeProperty(e.ID, "w"); !v.IsNull() {
		t.Fatalf("after null: w=%v", v)
	}
	g.SetEdgeProperty(e.ID, "w", value.NewInt(3))
	g.DeleteEdge(e.ID)
	e2, _ := g.CreateEdge("R", a.ID, b.ID, nil)
	if e2.ID != e.ID {
		t.Fatalf("edge id not recycled: %d != %d", e2.ID, e.ID)
	}
	if v := g.EdgeProperty(e2.ID, "w"); !v.IsNull() {
		t.Fatalf("recycled edge inherited w=%v", v)
	}
}

// TestDeleteNodeRemovesEveryType pins DeleteNode's incident-edge walk: out-
// and inbound edges of every type, parallel edges and self-loops of two
// types all go, and edges that do not touch the node stay — with the
// fixture's deltas pending and after a fold.
func TestDeleteNodeRemovesEveryType(t *testing.T) {
	for _, fold := range []bool{false, true} {
		g := New("t")
		x := g.CreateNode(nil, nil).ID
		a := g.CreateNode(nil, nil).ID
		b := g.CreateNode(nil, nil).ID
		for _, e := range []struct {
			typ      string
			src, dst uint64
		}{
			{"A", x, a}, {"A", x, a}, {"B", x, a}, {"B", b, x}, {"A", a, x},
			{"A", x, x}, {"B", x, x}, {"B", x, x},
			{"A", a, b}, {"B", b, a},
		} {
			if _, err := g.CreateEdge(e.typ, e.src, e.dst, nil); err != nil {
				t.Fatal(err)
			}
		}
		if fold {
			g.Sync()
		}
		if n, ok := g.DeleteNode(x); !ok || n != 8 {
			t.Fatalf("fold %v: DeleteNode = %d, %v; want 8 edges", fold, n, ok)
		}
		if g.EdgeCount() != 2 {
			t.Fatalf("fold %v: %d edges left, want 2", fold, g.EdgeCount())
		}
		g.ForEachEdge(func(e *Edge) bool {
			if e.Src == x || e.Dst == x {
				t.Fatalf("fold %v: edge %d %d->%d survived", fold, e.ID, e.Src, e.Dst)
			}
			return true
		})
		for _, v := range []uint64{a, b} {
			if len(g.EdgesBetween(-1, x, v))+len(g.EdgesBetween(-1, v, x))+len(g.EdgesBetween(-1, x, x)) != 0 {
				t.Fatalf("fold %v: the edge index still joins %d and %d", fold, x, v)
			}
		}
		// No relation matrix R or transpose Rᵀ, of any type, keeps an entry
		// in x's row or column: neither while the deletes are pending nor
		// once they are folded.
		for _, when := range []string{"pending", "synced"} {
			if when == "synced" {
				g.Sync()
			}
			for tid := 0; g.RelationMatrix(tid) != nil; tid++ {
				for name, m := range map[string]*grb.DeltaMatrix{"R": g.RelationMatrix(tid), "Rᵀ": g.TRelationMatrix(tid)} {
					if row := m.RowIterate(int(x)); len(row) != 0 {
						t.Fatalf("fold %v, %s: %s of type %d keeps row %d: %v", fold, when, name, tid, x, row)
					}
					for i := 0; i < g.Dim(); i++ {
						if _, err := m.ExtractElement(i, int(x)); err == nil {
							t.Fatalf("fold %v, %s: %s of type %d keeps (%d, %d)", fold, when, name, tid, i, x)
						}
					}
				}
			}
		}
	}
}
