package core

import (
	"fmt"
	"slices"
	"testing"

	"redisgraph/internal/graph"
)

// TestRepeatedRelTypeBindsOnce pins that a type listed twice in a pattern
// ([:R|R]) is the type listed once: each edge binds once, whether the hop
// expands, carries an edge variable, runs undirected or closes a cycle —
// over parallel edges, with the writes pending and after a fold.
func TestRepeatedRelTypeBindsOnce(t *testing.T) {
	g := graph.New("t")
	q(t, g, `CREATE (a:N)-[:R]->(b:N), (a)-[:R]->(b), (b)-[:R]->(a), (a)-[:S]->(b)`)
	cases := []struct {
		query string
		want  int64
	}{
		{`MATCH (a)-[e:R|R]->(b) RETURN count(e)`, 3},
		{`MATCH (a)-[:R|R]->(b) RETURN count(b)`, 2},
		{`MATCH (a)-[:R]->(b), (a)-[e:R|R]->(b) RETURN count(e)`, 3},
		{`MATCH (a)-[e:R|R]-(b) RETURN count(e)`, 6},
		{`MATCH (a)-[e:R|S|R]->(b) RETURN count(e)`, 4},
	}
	pendingThenFolded(t, g, func(state string) {
		for _, c := range cases {
			for _, cfg := range kernelConfigs() {
				rs, err := Query(g, c.query, nil, cfg)
				if err != nil {
					t.Fatalf("%s: %s: %v", state, c.query, err)
				}
				if got := singleInt(t, rs); got != c.want {
					t.Fatalf("%s: %s (cfg %+v) = %d, want %d", state, c.query, cfg, got, c.want)
				}
			}
		}
	})
}

// TestEdgeVariableTraversalsMatchDatablock checks every edge-variable
// traversal shape against the edges the datablock enumerates — an oracle
// independent of the relation matrices and their extra IDs — across kernel
// and batch configurations, before and after deleting the edge R's entry
// holds (its pair promotes an extra ID) and an edge held as an extra ID.
func TestEdgeVariableTraversalsMatchDatablock(t *testing.T) {
	// a -R-> b three times (edge ID 0, the first, is the one R's entry
	// holds), b -R-> c and b -S-> c (one pair, two types), c -R-> c (a
	// self-loop) and c -S-> a.
	g := graph.New("edge-index")
	q(t, g, `CREATE (a:N {uid: 0}), (b:N {uid: 1}), (c:N {uid: 2}),
		(a)-[:R]->(b), (a)-[:R]->(b), (a)-[:R]->(b),
		(b)-[:R]->(c), (b)-[:S]->(c), (c)-[:R]->(c), (c)-[:S]->(a)`)
	typed := func(names ...string) map[int]bool {
		m := map[int]bool{}
		for _, n := range names {
			tid, _ := g.Schema.RelTypeID(n)
			m[tid] = true
		}
		return m
	}
	once := func(e *graph.Edge) int { return 1 }
	twiceUnlessLoop := func(e *graph.Edge) int {
		if e.Src == e.Dst {
			return 1
		}
		return 2
	}
	shapes := []struct {
		query string
		types map[int]bool
		rows  func(e *graph.Edge) int // rows per edge of a listed type
	}{
		{`MATCH (a)-[e:R]->(b) RETURN id(e)`, typed("R"), once},
		{`MATCH (a)<-[e:R]-(b) RETURN id(e)`, typed("R"), once},
		{`MATCH (a)-[e:R|S]->(b) RETURN id(e)`, typed("R", "S"), once},
		{`MATCH (a)-[e:R]-(b) RETURN id(e)`, typed("R"), twiceUnlessLoop},
		{`MATCH (a)-[:R]->(b), (a)-[e:R]->(b) RETURN id(e)`, typed("R"), once},
	}
	check := func(when string) {
		t.Helper()
		for _, s := range shapes {
			var want []int64
			g.ForEachEdge(func(e *graph.Edge) bool {
				for n := 0; s.types[e.Type] && n < s.rows(e); n++ {
					want = append(want, int64(e.ID))
				}
				return true
			})
			slices.Sort(want)
			for _, cfg := range kernelConfigs() {
				rs, err := Query(g, s.query, nil, cfg)
				if err != nil {
					t.Fatalf("%s: %s: %v", when, s.query, err)
				}
				var got []int64
				for _, row := range rs.Rows {
					got = append(got, row[0].Int())
				}
				slices.Sort(got)
				if !slices.Equal(got, want) {
					t.Fatalf("%s: %s (cfg %+v):\ngot  %v\nwant %v", when, s.query, cfg, got, want)
				}
			}
		}
	}
	check("fresh")

	rid, _ := g.Schema.RelTypeID("R")
	if v, err := g.RelationMatrix(rid).ExtractElement(0, 1); err != nil || v != 0 {
		t.Fatalf("R(a, b) = %v, %v; want edge ID 0", v, err)
	}
	q(t, g, `MATCH ()-[e]->() WHERE id(e) = 0 DELETE e`)
	v, err := g.RelationMatrix(rid).ExtractElement(0, 1)
	if err != nil || v == 0 {
		t.Fatalf("R(a, b) after deleting its edge = %v, %v; want a promoted ID", v, err)
	}
	check("after deleting R's edge")

	extra := slices.DeleteFunc(g.EdgesBetween(rid, 0, 1), func(id uint64) bool { return id == uint64(v) })
	q(t, g, fmt.Sprintf(`MATCH ()-[e]->() WHERE id(e) = %d DELETE e`, extra[0]))
	check("after deleting an extra edge")
	if ids := g.EdgesBetween(rid, 0, 1); len(ids) != 1 || ids[0] != uint64(v) {
		t.Fatalf("EdgesBetween(R, a, b) = %v, want [%v]", ids, v)
	}
}
