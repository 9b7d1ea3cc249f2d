package graph

import (
	"testing"

	"redisgraph/internal/grb"
	"redisgraph/internal/value"
)

// A multi-type, untyped or undirected hop reads the relation matrices (and
// their transposes) in place and ORs them inside the kernel; the graph keeps
// no union of them. These tests pin what that reading relies on: the
// matrices a hop names are the graph's own, stable across writes, and each
// write shows in a matrix and its transpose at once.

// unionFixture builds a -A-> b, b -B-> c.
func unionFixture(t *testing.T) (*Graph, [3]uint64) {
	t.Helper()
	g := New("u")
	var ids [3]uint64
	for i := range ids {
		ids[i] = g.CreateNode([]string{"N"}, map[string]value.Value{}).ID
	}
	if _, err := g.CreateEdge("A", ids[0], ids[1], nil); err != nil {
		t.Fatal(err)
	}
	if _, err := g.CreateEdge("B", ids[1], ids[2], nil); err != nil {
		t.Fatal(err)
	}
	g.Sync()
	return g, ids
}

// unionCells returns the cells set in any of ms over the fixture's rows: the
// union a hop over ms sees.
func unionCells(ids [3]uint64, ms ...*grb.DeltaMatrix) map[[2]uint64]bool {
	cells := map[[2]uint64]bool{}
	for _, m := range ms {
		for _, i := range ids {
			for _, j := range m.RowIterate(int(i)) {
				cells[[2]uint64{i, uint64(j)}] = true
			}
		}
	}
	return cells
}

func TestTraversalMatrixUnionCached(t *testing.T) {
	g, ids := unionFixture(t)
	aID, _ := g.Schema.RelTypeID("A")
	bID, _ := g.Schema.RelTypeID("B")
	ra, rb := g.RelationMatrix(aID), g.RelationMatrix(bID)
	if ra == nil || rb == nil || ra == rb {
		t.Fatalf("relation matrices A=%p B=%p", ra, rb)
	}
	if u := unionCells(ids, ra, rb); len(u) != 2 {
		t.Fatalf("A|B union = %v, want 2 cells", u)
	}
	// The transposed parts hold the reverse pairs.
	ut := unionCells(ids, g.TRelationMatrix(aID), g.TRelationMatrix(bID))
	if len(ut) != 2 || !ut[[2]uint64{ids[1], ids[0]}] || !ut[[2]uint64{ids[2], ids[1]}] {
		t.Fatalf("A|B transposed union = %v", ut)
	}

	// A write lands in the same matrices: nothing is left to invalidate.
	if _, err := g.CreateEdge("A", ids[2], ids[0], nil); err != nil {
		t.Fatal(err)
	}
	g.Sync()
	if g.RelationMatrix(aID) != ra || g.RelationMatrix(bID) != rb {
		t.Fatal("a write must update the relation matrices in place")
	}
	if u := unionCells(ids, ra, rb); len(u) != 3 || !u[[2]uint64{ids[2], ids[0]}] {
		t.Fatalf("A|B union after write = %v, want 3 cells with c->a", u)
	}
	if ut := unionCells(ids, g.TRelationMatrix(aID)); !ut[[2]uint64{ids[0], ids[2]}] {
		t.Fatalf("Aᵀ after write = %v, missing a<-c", ut)
	}
}

func TestTraversalMatrixBothDirections(t *testing.T) {
	g, ids := unionFixture(t)
	aID, _ := g.Schema.RelTypeID("A")
	bID, _ := g.Schema.RelTypeID("B")

	// An undirected A hop reads R_A and R_Aᵀ: a->b plus its reverse.
	ra, rat := g.RelationMatrix(aID), g.TRelationMatrix(aID)
	both := unionCells(ids, ra, rat)
	if len(both) != 2 || !both[[2]uint64{ids[0], ids[1]}] || !both[[2]uint64{ids[1], ids[0]}] {
		t.Fatalf("A± union = %v, want a->b and b->a", both)
	}
	// An untyped undirected hop reads every type and its transpose.
	if ab := unionCells(ids, ra, rat, g.RelationMatrix(bID), g.TRelationMatrix(bID)); len(ab) != 4 {
		t.Fatalf("untyped ± union = %v, want 4 cells", ab)
	}

	// Deleting the only A edge clears both directions of the same matrices.
	victim := g.EdgesBetween(aID, ids[0], ids[1])
	if len(victim) != 1 || !g.DeleteEdge(victim[0]) {
		t.Fatalf("delete of the A edge %v failed", victim)
	}
	g.Sync()
	if g.RelationMatrix(aID) != ra || g.TRelationMatrix(aID) != rat {
		t.Fatal("a delete must update the relation matrices in place")
	}
	if both := unionCells(ids, ra, rat); len(both) != 0 {
		t.Fatalf("A± union after delete = %v, want none", both)
	}
}

func TestTraversalMatrixDirectForms(t *testing.T) {
	g, _ := unionFixture(t)
	aID, _ := g.Schema.RelTypeID("A")
	ra, rat := g.RelationMatrix(aID), g.TRelationMatrix(aID)
	if ra == nil || rat == nil || ra == rat {
		t.Fatalf("A=%p Aᵀ=%p: want two distinct matrices", ra, rat)
	}
	if g.RelationMatrix(aID) != ra || g.TRelationMatrix(aID) != rat {
		t.Fatal("a single type must return its relation matrix itself")
	}
	if g.RelationMatrix(99) != nil || g.TRelationMatrix(99) != nil || g.RelationMatrix(-1) != nil {
		t.Fatal("an unknown type must return nil")
	}
	// With two types there is no all-types adjacency to hand out.
	if g.Adjacency() != nil || g.TAdjacency() != nil {
		t.Fatal("a two-type graph has no adjacency matrix")
	}
}
