package graph

import (
	"testing"

	"redisgraph/internal/value"
)

// recomputeCond rebuilds the conditioned cells from scratch by scanning the
// relation matrices — the ground truth the incremental maintenance must
// match after any write sequence.
func recomputeCond(g *Graph) (out, in [][]CondCell) {
	for tid, rs := range g.relations {
		addSide := func(table [][]CondCell, m interface {
			RowDegree(int) int
		}) [][]CondCell {
			for i := 0; i < g.Dim(); i++ {
				deg := m.RowDegree(i)
				if deg == 0 {
					continue
				}
				n, ok := g.nodes.Get(uint64(i))
				if !ok {
					continue
				}
				table = condRows(table, tid, g.Schema.LabelCount())
				bump := func(c *CondCell) {
					c.Pairs += deg
					c.SumDegSq += float64(deg * deg)
				}
				bump(&table[tid][0])
				for _, lid := range n.Labels {
					bump(&table[tid][lid+1])
				}
			}
			return table
		}
		out = addSide(out, rs.m)
		in = addSide(in, rs.tm)
	}
	return out, in
}

func cellsEqual(t *testing.T, name string, got, want [][]CondCell) {
	t.Helper()
	for tid := 0; tid < len(got) || tid < len(want); tid++ {
		var g, w []CondCell
		if tid < len(got) {
			g = got[tid]
		}
		if tid < len(want) {
			w = want[tid]
		}
		for i := 0; i < len(g) || i < len(w); i++ {
			var gc, wc CondCell
			if i < len(g) {
				gc = g[i]
			}
			if i < len(w) {
				wc = w[i]
			}
			if gc != wc {
				t.Fatalf("%s[%d][%d]: incremental %+v, recomputed %+v", name, tid, i, gc, wc)
			}
		}
	}
}

func checkCondAgainstRecompute(t *testing.T, g *Graph) {
	t.Helper()
	out, in := recomputeCond(g)
	cellsEqual(t, "out", g.condOut, out)
	cellsEqual(t, "in", g.condIn, in)
}

// TestCondStatsIncremental drives a write sequence through creates, multi-
// edges, deletes and node deletion, checking the incremental cells against a
// full recompute at every step.
func TestCondStatsIncremental(t *testing.T) {
	g := New("cond")
	var hubs, leaves []*Node
	for i := 0; i < 4; i++ {
		hubs = append(hubs, g.CreateNode([]string{"Hub"}, nil))
	}
	for i := 0; i < 16; i++ {
		leaves = append(leaves, g.CreateNode([]string{"Leaf"}, nil))
	}
	// Hub 0 fans out to every leaf; other hubs get one edge each.
	for _, l := range leaves {
		if _, err := g.CreateEdge("F", hubs[0].ID, l.ID, nil); err != nil {
			t.Fatal(err)
		}
	}
	for i := 1; i < 4; i++ {
		if _, err := g.CreateEdge("F", hubs[i].ID, leaves[i].ID, nil); err != nil {
			t.Fatal(err)
		}
	}
	checkCondAgainstRecompute(t, g)

	// Multi-edges between an already-connected pair must not change cells.
	before := append([]CondCell(nil), g.condOut[0]...)
	e, err := g.CreateEdge("F", hubs[0].ID, leaves[0].ID, nil)
	if err != nil {
		t.Fatal(err)
	}
	cellsEqual(t, "multi-edge out", g.condOut, [][]CondCell{before})
	// ... and deleting one of the two parallel edges must not either.
	g.DeleteEdge(e.ID)
	cellsEqual(t, "multi-edge delete out", g.condOut, [][]CondCell{before})
	checkCondAgainstRecompute(t, g)

	// A second relation type conditions independently.
	if _, err := g.CreateEdge("G", leaves[0].ID, hubs[1].ID, nil); err != nil {
		t.Fatal(err)
	}
	checkCondAgainstRecompute(t, g)

	// Disconnecting the last edge of a pair must decrement.
	for _, eid := range g.EdgesBetween(0, hubs[1].ID, leaves[1].ID) {
		g.DeleteEdge(eid)
	}
	checkCondAgainstRecompute(t, g)

	// DeleteNode removes every incident edge before the node.
	if _, ok := g.DeleteNode(hubs[0].ID); !ok {
		t.Fatal("delete hub")
	}
	checkCondAgainstRecompute(t, g)
}

// TestCondStatsSnapshot covers the epoch-cached snapshot and accessors.
func TestCondStatsSnapshot(t *testing.T) {
	g := New("snap")
	a := g.CreateNode([]string{"A"}, nil)
	bs := make([]*Node, 8)
	for i := range bs {
		bs[i] = g.CreateNode([]string{"B"}, map[string]value.Value{"i": value.NewInt(int64(i))})
		if _, err := g.CreateEdge("R", a.ID, bs[i].ID, nil); err != nil {
			t.Fatal(err)
		}
	}
	g.RLock()
	cs := g.CondStats()
	if again := g.CondStats(); again != cs {
		t.Fatal("same-epoch snapshot not cached")
	}
	g.RUnlock()

	tid, _ := g.Schema.RelTypeID("R")
	lidA, _ := g.Schema.LabelID("A")
	lidB, _ := g.Schema.LabelID("B")
	out := cs.OutCell(tid, lidA)
	if out.Pairs != 8 {
		t.Fatalf("out cell = %+v, want Pairs=8", out)
	}
	// One node owns all 8 pairs: κ over the 9 nodes = 9·64/64 = 9.
	if got := out.DegreeSkew(9); got != 9 {
		t.Fatalf("skew = %v, want 9", got)
	}
	in := cs.InCell(tid, lidB)
	if in.Pairs != 8 {
		t.Fatalf("in cell = %+v, want Pairs=8", in)
	}
	// In-degrees are all 1: a regular distribution, κ = 1.
	if got := in.DegreeSkew(8); got != 1 {
		t.Fatalf("in skew = %v, want 1", got)
	}
	// Unknown combinations are empty, any-label aggregates match totals.
	if c := cs.OutCell(tid+5, lidA); c != (CondCell{}) {
		t.Fatalf("unknown relation cell = %+v", c)
	}
	if c := cs.OutCell(tid, -1); c.Pairs != 8 {
		t.Fatalf("any-label out cell = %+v", c)
	}

	// A write bumps the epoch and invalidates the snapshot.
	g.Lock()
	if _, err := g.CreateEdge("R", bs[0].ID, bs[1].ID, nil); err != nil {
		t.Fatal(err)
	}
	g.Unlock()
	g.RLock()
	cs2 := g.CondStats()
	g.RUnlock()
	if cs2 == cs {
		t.Fatal("snapshot not invalidated by write")
	}
	if got := cs2.OutCell(tid, lidB).Pairs; got != 1 {
		t.Fatalf("post-write B out pairs = %d, want 1", got)
	}
}
