package graph

import (
	"sync"
	"testing"
)

// TestEpochCountsConnectivityWrites pins what the plan cache and the
// conditioned statistics key on: reads leave the write epoch alone, each
// edge create and delete moves it, and the relation matrices show the write
// at once, with its delta pending and after a fold.
func TestEpochCountsConnectivityWrites(t *testing.T) {
	g := New("u")
	var ids [3]uint64
	for i := range ids {
		ids[i] = g.CreateNode([]string{"N"}, nil).ID
	}
	if _, err := g.CreateEdge("A", ids[0], ids[1], nil); err != nil {
		t.Fatal(err)
	}
	if _, err := g.CreateEdge("B", ids[1], ids[2], nil); err != nil {
		t.Fatal(err)
	}
	g.Sync()
	aID, _ := g.Schema.RelTypeID("A")

	e0 := g.Epoch()
	_ = g.Stats()
	_ = g.Degree(ids[1], true)
	if g.Epoch() != e0 {
		t.Fatal("reads must not bump the epoch")
	}
	e, err := g.CreateEdge("A", ids[2], ids[0], nil)
	if err != nil {
		t.Fatal(err)
	}
	if g.Epoch() == e0 {
		t.Fatal("CreateEdge must bump the epoch")
	}
	if g.RelationMatrix(aID).NVals() != 2 || g.Stats().Edges != 3 {
		t.Fatalf("pending create: R_A holds %d, Edges %d; want 2, 3", g.RelationMatrix(aID).NVals(), g.Stats().Edges)
	}
	g.Sync()
	if g.RelationMatrix(aID).NVals() != 2 || g.TRelationMatrix(aID).RowDegree(int(ids[0])) != 1 {
		t.Fatal("sync changed the effective relation matrices")
	}
	e1 := g.Epoch()
	g.DeleteEdge(e.ID)
	if g.Epoch() == e1 {
		t.Fatal("DeleteEdge must bump the epoch")
	}
	if g.Stats().Edges != 2 {
		t.Fatalf("Edges after delete = %d, want 2", g.Stats().Edges)
	}
}

// TestWriterLockUpgrade exercises BeginWrite/BeginMutation against
// concurrent read-lock holders.
func TestWriterLockUpgrade(t *testing.T) {
	g := New("w")
	id := g.CreateNode([]string{"N"}, nil).ID
	var wg sync.WaitGroup
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				g.RLock()
				g.Degree(id, true)
				g.RUnlock()
			}
		}()
	}
	for i := 0; i < 50; i++ {
		g.BeginWrite()
		// read phase under the shared lock
		_ = g.Stats().Edges
		g.BeginMutation()
		n := g.CreateNode([]string{"N"}, nil)
		if _, err := g.CreateEdge("R", id, n.ID, nil); err != nil {
			t.Error(err)
		}
		g.EndMutation()
		g.EndWrite()
	}
	wg.Wait()
	if g.EdgeCount() != 50 {
		t.Fatalf("edges = %d", g.EdgeCount())
	}
}
