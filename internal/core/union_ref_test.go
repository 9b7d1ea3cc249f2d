package core

import (
	"fmt"
	"slices"
	"strings"
	"testing"

	"redisgraph/internal/graph"
	"redisgraph/internal/grb"
)

// pendingThenFolded runs check with the graph's deltas pending, then again
// after g.Sync() has folded every matrix.
func pendingThenFolded(t *testing.T, g *graph.Graph, check func(state string)) {
	t.Helper()
	if g.PendingDeltas() == 0 {
		t.Fatal("fixture must carry pending deltas")
	}
	check("pending")
	g.Lock()
	g.Sync()
	g.Unlock()
	check("folded")
}

// TestDegreesCountDistinctNeighbours pins indegree/outdegree as the number
// of distinct neighbours over every relationship type: a pair joined by
// both :A and :B, or by parallel :A edges, counts once, and a self-loop
// counts its node once on each side.
func TestDegreesCountDistinctNeighbours(t *testing.T) {
	g := graph.New("t")
	q(t, g, `CREATE (a:N {uid: 0}), (b:N {uid: 1}), (c:N {uid: 2}),
		(a)-[:A]->(b), (a)-[:B]->(b), (a)-[:A]->(b), (a)-[:A]->(c),
		(c)-[:A]->(c), (b)-[:B]->(a)`)
	want := "0|2|1 1|1|1 2|1|2"
	pendingThenFolded(t, g, func(state string) {
		rs := q(t, g, `MATCH (n:N) RETURN n.uid, outdegree(n), indegree(n) ORDER BY n.uid`)
		var rows []string
		for _, r := range rs.Rows {
			rows = append(rows, fmt.Sprintf("%d|%d|%d", r[0].Int(), r[1].Int(), r[2].Int()))
		}
		if got := strings.Join(rows, " "); got != want {
			t.Fatalf("%s: uid|out|in = %s, want %s", state, got, want)
		}
	})
}

// TestDeleteWithoutDetachSeesEveryType pins that DELETE without DETACH
// refuses a node whose only edge, outbound or inbound, is of a type other
// than the first.
func TestDeleteWithoutDetachSeesEveryType(t *testing.T) {
	g := graph.New("t")
	q(t, g, `CREATE (:N {uid: 0})-[:A]->(:N {uid: 1}), (:N {uid: 2})-[:B]->(:N {uid: 3})`)
	pendingThenFolded(t, g, func(state string) {
		for _, uid := range []int{2, 3} {
			if _, err := Query(g, fmt.Sprintf(`MATCH (n:N {uid: %d}) DELETE n`, uid), nil, Config{}); err == nil {
				t.Fatalf("%s: deleting node %d, whose only edge is a :B, without DETACH must fail", state, uid)
			}
		}
		if got := singleInt(t, q(t, g, `MATCH (n:N) RETURN count(n)`)); got != 4 {
			t.Fatalf("%s: %d nodes left, want 4", state, got)
		}
	})
}

// refGraph is an adjacency oracle built from the datablock's live edges
// alone: per node, the typed out- and in-neighbours.
type refGraph struct {
	out, in map[uint64][]refEdge
}

type refEdge struct {
	typ  int
	peer uint64
}

func newRefGraph(g *graph.Graph) *refGraph {
	r := &refGraph{out: map[uint64][]refEdge{}, in: map[uint64][]refEdge{}}
	g.ForEachEdge(func(e *graph.Edge) bool {
		r.out[e.Src] = append(r.out[e.Src], refEdge{e.Type, e.Dst})
		r.in[e.Dst] = append(r.in[e.Dst], refEdge{e.Type, e.Src})
		return true
	})
	return r
}

// step returns v's neighbours over the edges of the given types (nil =
// every type) in the given direction, each once, in ascending order.
func (r *refGraph) step(v uint64, types map[int]bool, dir string) []uint64 {
	var es []refEdge
	if dir != "<-" {
		es = append(es, r.out[v]...)
	}
	if dir != "->" {
		es = append(es, r.in[v]...)
	}
	var out []uint64
	for _, e := range es {
		if types == nil || types[e.typ] {
			out = append(out, e.peer)
		}
	}
	slices.Sort(out)
	return slices.Compact(out)
}

// reach returns what a hop from src reaches, in ascending order: with
// varLen unset its neighbours (src too, through a self-loop), else the
// nodes whose BFS distance from src lies in [lo, hi].
func (r *refGraph) reach(g *graph.Graph, src uint64, names []string, dir string, varLen bool, lo, hi int) []uint64 {
	var types map[int]bool
	if len(names) > 0 {
		types = map[int]bool{}
		for _, name := range names {
			if tid, ok := g.Schema.RelTypeID(name); ok {
				types[tid] = true
			}
		}
	}
	if !varLen {
		return r.step(src, types, dir)
	}
	seen := map[uint64]bool{src: true}
	level := []uint64{src}
	var out []uint64
	for d := 1; d <= hi && len(level) > 0; d++ {
		var next []uint64
		for _, v := range level {
			for _, u := range r.step(v, types, dir) {
				if !seen[u] {
					seen[u] = true
					next = append(next, u)
				}
			}
		}
		if d >= lo {
			out = append(out, next...)
		}
		level = next
	}
	slices.Sort(out)
	return out
}

// TestUnionShapedHopsMatchReference checks undirected, untyped and
// multi-type hops, fixed and variable-length, against a BFS over the
// datablock's edges written here — an oracle that shares no code with the
// relation matrices or the kernels — across kernel and batch
// configurations, with deltas pending and folded. The kernel differential
// suite compares configurations with one another; this catches a fault they
// would all share.
func TestUnionShapedHopsMatchReference(t *testing.T) {
	g := adversarialGraph(t, 120)
	// Pending writes: parallel and cross-type pairs, self-loops, and deletes.
	for _, w := range []string{
		`MATCH (a:Hub {uid: 3}), (b:Hub {uid: 5}) CREATE (a)-[:D]->(b), (a)-[:Sp]->(b), (b)-[:D]->(a), (a)-[:D]->(a), (b)-[:Back]->(b)`,
		`MATCH (a:Hub {uid: 7})-[e:D]->() DELETE e`,
		`MATCH (a:Rare {uid: 1001}), (b:Hub {uid: 0}) CREATE (b)-[:Sp]->(a), (a)-[:D]->(b)`,
	} {
		q(t, g, w)
	}
	hops := []struct {
		rel    string
		types  []string
		dir    string
		varLen bool
		lo, hi int
	}{
		{"-[:D]-", []string{"D"}, "-", false, 1, 1},
		{"-[]->", nil, "->", false, 1, 1},
		{"<-[]-", nil, "<-", false, 1, 1},
		{"-[]-", nil, "-", false, 1, 1},
		{"-[:D|Sp]->", []string{"D", "Sp"}, "->", false, 1, 1},
		{"<-[:Sp|Back]-", []string{"Sp", "Back"}, "<-", false, 1, 1},
		{"-[:D|Back]-", []string{"D", "Back"}, "-", false, 1, 1},
		{"-[:D|Nope]->", []string{"D", "Nope"}, "->", false, 1, 1},
		{"-[:D*1..3]-", []string{"D"}, "-", true, 1, 3},
		{"-[*1..2]-", nil, "-", true, 1, 2},
		{"-[:D|Sp*1..3]->", []string{"D", "Sp"}, "->", true, 1, 3},
		{"<-[:D|Back*2..3]-", []string{"D", "Back"}, "<-", true, 2, 3},
	}
	seeds := []int{0, 3, 5, 7, 42, 1001}
	pendingThenFolded(t, g, func(state string) {
		ref := newRefGraph(g)
		byUID := map[int64]uint64{}
		g.ForEachNode(func(n *graph.Node) bool {
			byUID[g.NodePropertyColumnar(n.ID, "uid").Int()] = n.ID
			return true
		})
		for _, h := range hops {
			for _, uid := range seeds {
				query := fmt.Sprintf(`MATCH (a {uid: %d})%s(b) RETURN id(b)`, uid, h.rel)
				want := fmt.Sprint(ref.reach(g, byUID[int64(uid)], h.types, h.dir, h.varLen, h.lo, h.hi))
				for _, cfg := range kernelConfigs() {
					rs, err := Query(g, query, nil, cfg)
					if err != nil {
						t.Fatalf("%s: %s: %v", state, query, err)
					}
					got := make([]uint64, len(rs.Rows))
					for i, r := range rs.Rows {
						got[i] = uint64(r[0].Int())
					}
					slices.Sort(got)
					if fmt.Sprint(got) != want {
						t.Fatalf("%s: %s (cfg %+v):\ngot  %v\nwant %s", state, query, cfg, got, want)
					}
				}
			}
		}
	})
}

// TestRelationOperandParts pins the matrices each hop shape resolves to —
// the lists the kernels OR in place — with and without transpose, and that
// resolving into the context's lists allocates nothing once they have grown.
func TestRelationOperandParts(t *testing.T) {
	g := graph.New("t")
	q(t, g, `CREATE (a:L)-[:A]->(b:L), (b)-[:B]->(a)`)
	a, _ := g.Schema.RelTypeID("A")
	b, _ := g.Schema.RelTypeID("B")
	lid, _ := g.Schema.LabelID("L")
	ra, rat := g.RelationMatrix(a), g.TRelationMatrix(a)
	rb, rbt := g.RelationMatrix(b), g.TRelationMatrix(b)
	cases := []struct {
		name      string
		op        algebraicOperand
		want, wtT []*grb.DeltaMatrix
	}{
		{"A", relationOperand([]string{"A"}, false, false), []*grb.DeltaMatrix{ra}, []*grb.DeltaMatrix{rat}},
		{"Aᵀ", relationOperand([]string{"A"}, true, false), []*grb.DeltaMatrix{rat}, []*grb.DeltaMatrix{ra}},
		{"A±", relationOperand([]string{"A"}, false, true), []*grb.DeltaMatrix{ra, rat}, []*grb.DeltaMatrix{ra, rat}},
		{"A± inbound", relationOperand([]string{"A"}, true, true), []*grb.DeltaMatrix{ra, rat}, []*grb.DeltaMatrix{ra, rat}},
		{"A|B", relationOperand([]string{"A", "B"}, false, false), []*grb.DeltaMatrix{ra, rb}, []*grb.DeltaMatrix{rat, rbt}},
		{"B|A", relationOperand([]string{"B", "A"}, false, false), []*grb.DeltaMatrix{rb, ra}, []*grb.DeltaMatrix{rbt, rat}},
		{"A|Nope", relationOperand([]string{"A", "Nope"}, false, false), []*grb.DeltaMatrix{ra}, []*grb.DeltaMatrix{rat}},
		{"Nope", relationOperand([]string{"Nope"}, false, false), nil, nil},
		{"ADJ", relationOperand(nil, false, false), []*grb.DeltaMatrix{ra, rb}, []*grb.DeltaMatrix{rat, rbt}},
		{"ADJᵀ", relationOperand(nil, true, false), []*grb.DeltaMatrix{rat, rbt}, []*grb.DeltaMatrix{ra, rb}},
		{"ADJ±", relationOperand(nil, false, true), []*grb.DeltaMatrix{ra, rat, rb, rbt}, []*grb.DeltaMatrix{ra, rat, rb, rbt}},
		{":L", labelDiagOperand("L"), []*grb.DeltaMatrix{g.LabelMatrix(lid)}, []*grb.DeltaMatrix{g.LabelMatrix(lid)}},
		{":Nope", labelDiagOperand("Nope"), nil, nil},
	}
	ctx := &execCtx{g: g}
	for _, c := range cases {
		got, gotT := ctx.operand(&c.op, false), ctx.operand(&c.op, true)
		if !slices.Equal(got, c.want) || !slices.Equal(gotT, c.wtT) {
			t.Fatalf("%s: parts %v, transpose %v; want %v, %v", c.name, got, gotT, c.want, c.wtT)
		}
		if allocs := testing.AllocsPerRun(10, func() { ctx.operand(&c.op, false) }); allocs != 0 {
			t.Fatalf("%s: %.0f allocations per resolution, want 0", c.name, allocs)
		}
	}
}
