package core

import (
	"fmt"
	"strings"
	"testing"

	"redisgraph/internal/baseline"
	"redisgraph/internal/gen"
	"redisgraph/internal/graph"
	"redisgraph/internal/value"
)

// varLenEdge is one live edge of the var-length fixture.
type varLenEdge struct {
	src, dst int
	typ      string
}

// varLenGraph builds n (:Node {uid}) vertices, every seventh also :Rare,
// with random F and G edges, folded; then buffers more F edges, deletes
// folded F edges and DETACH-deletes two nodes without folding, so the
// matrices carry pending delta-plus and delta-minus rows. It returns the
// graph, the live edges and the live node IDs. The uid index makes a seeded
// pattern enter at its seed, as the benchmark's khop-traverse does.
func varLenGraph(t *testing.T, n int) (*graph.Graph, []varLenEdge, []int) {
	t.Helper()
	g := graph.New("varlen")
	if _, err := Query(g, `CREATE INDEX ON :Node(uid)`, nil, Config{}); err != nil {
		t.Fatal(err)
	}
	g.Lock()
	defer g.Unlock()
	for v := 0; v < n; v++ {
		labels := []string{"Node"}
		if v%7 == 0 {
			labels = append(labels, "Rare")
		}
		g.CreateNode(labels, map[string]value.Value{"uid": value.NewInt(int64(v))})
	}
	type live struct {
		varLenEdge
		id uint64
	}
	var edges []live
	add := func(typ string, src, dst int) {
		e, err := g.CreateEdge(typ, uint64(src), uint64(dst), nil)
		if err != nil {
			t.Fatal(err)
		}
		edges = append(edges, live{varLenEdge{src, dst, typ}, e.ID})
	}
	f, gg := gen.Uniform(n, 2*n, 5), gen.Uniform(n, n, 6)
	for i := range f.Src {
		add("F", f.Src[i], f.Dst[i])
	}
	for i := range gg.Src {
		add("G", gg.Src[i], gg.Dst[i])
	}
	g.Sync()
	extra := gen.Uniform(n, n/2, 7)
	for i := range extra.Src {
		add("F", extra.Src[i], extra.Dst[i])
	}
	kept := edges[:0]
	for i, e := range edges {
		if e.typ == "F" && i%5 == 0 {
			g.DeleteEdge(e.id)
			continue
		}
		kept = append(kept, e)
	}
	edges = kept
	gone := map[int]bool{3: true, 11: true}
	for v := range gone {
		if _, ok := g.DeleteNode(uint64(v)); !ok {
			t.Fatalf("delete node %d", v)
		}
	}
	if g.PendingDeltas() == 0 {
		t.Fatal("fixture has no pending deltas")
	}
	var out []varLenEdge
	for _, e := range edges {
		if !gone[e.src] && !gone[e.dst] {
			out = append(out, e.varLenEdge)
		}
	}
	var nodes []int
	for v := 0; v < n; v++ {
		if !gone[v] {
			nodes = append(nodes, v)
		}
	}
	return g, out, nodes
}

// adjOf builds the baseline CSR engine over the edges of the given types,
// reversed and/or with both directions.
func adjOf(n int, edges []varLenEdge, types string, reverse, both bool) *baseline.AdjList {
	var src, dst []int
	for _, e := range edges {
		if !strings.Contains(types, e.typ) {
			continue
		}
		if !reverse || both {
			src, dst = append(src, e.src), append(dst, e.dst)
		}
		if reverse || both {
			src, dst = append(src, e.dst), append(dst, e.src)
		}
	}
	return baseline.NewAdjList(n, src, dst)
}

// TestVarLenCountPushdown checks `count(n)` over a var-length hop, pushed
// into the BFS kernel, against the same query with records and Aggregate
// (noPushdown) and against baseline.AdjList's k-hop count, across batch ×
// kernel × plan cache, on a graph with pending deltas and
// DETACH-deleted nodes.
func TestVarLenCountPushdown(t *testing.T) {
	const n = 120
	g, edges, nodes := varLenGraph(t, n)
	fwdF := adjOf(n, edges, "F", false, false)
	revF := adjOf(n, edges, "F", true, false)
	bothF := adjOf(n, edges, "F", false, true)
	fwdFG := adjOf(n, edges, "FG", false, false)
	multi := 0
	for _, v := range nodes {
		multi += fwdF.KHopCount(v, 2)
	}

	type shape struct {
		query string
		want  int // -1: no baseline oracle, noPushdown only
	}
	var shapes []shape
	for _, s := range []int{0, 1, 42} {
		seeded := func(pattern string, want int) {
			shapes = append(shapes, shape{fmt.Sprintf("MATCH (s:Node {uid: %d})%s RETURN count(n)", s, pattern), want})
		}
		seeded("-[:F*1..3]->(n)", fwdF.KHopCount(s, 3))
		seeded("-[:F*0..2]->(n)", fwdF.KHopCount(s, 2)+1)
		seeded("-[:F*2..2]->(n)", fwdF.KHopCount(s, 2)-fwdF.KHopCount(s, 1))
		seeded("-[:F*1..]->(n)", fwdF.KHopCount(s, n))
		seeded("<-[:F*1..2]-(n)", revF.KHopCount(s, 2))
		seeded("-[:F*1..2]-(n)", bothF.KHopCount(s, 2))
		seeded("-[:F|G*1..2]->(n)", fwdFG.KHopCount(s, 2))
		seeded("-[:F*1..3]->(n:Rare)", -1)
		seeded("-[:NOPE*1..2]->(n)", 0)
		seeded("-[:NOPE*0..2]->(n)", 1)
		shapes = append(shapes, shape{strings.Replace(shapes[len(shapes)-3].query, "count(n)", "count(*)", 1), -1})
	}
	shapes = append(shapes, shape{"MATCH (s:Node)-[:F*1..2]->(n) RETURN count(n)", multi})

	for _, sh := range shapes {
		lines, err := Explain(g, sh.query, Config{})
		if err != nil {
			t.Fatal(err)
		}
		if plan := strings.Join(lines, "\n"); !strings.Contains(plan, "TraverseCount") || strings.Contains(plan, "Aggregate") {
			t.Fatalf("%s must push the count down:\n%s", sh.query, plan)
		}
	}

	for _, batch := range []int{1, 64} {
		for _, kernel := range kernelModes {
			for _, cached := range []bool{false, true} {
				cfg := Config{batch: batch, kernel: kernel}
				if cached {
					cfg.PlanCache = NewPlanCache(DefaultPlanCacheSize)
				}
				ref := cfg
				ref.noPushdown = true
				for _, sh := range shapes {
					got, want := varLenCount(t, g, sh.query, cfg), varLenCount(t, g, sh.query, ref)
					if got != want || (sh.want >= 0 && got != sh.want) {
						t.Fatalf("cfg %+v %s: pushed %d, records %d, baseline %d", cfg, sh.query, got, want, sh.want)
					}
				}
			}
		}
	}
}

func varLenCount(t *testing.T, g *graph.Graph, query string, cfg Config) int {
	t.Helper()
	rs, err := Query(g, query, nil, cfg)
	if err != nil {
		t.Fatalf("cfg %+v %s: %v", cfg, query, err)
	}
	return int(singleInt(t, rs))
}

// TestVarLenCountBelowWrite checks the pushed count over a relationship
// type the same query's CREATE makes: the name binds when the plan runs.
func TestVarLenCountBelowWrite(t *testing.T) {
	const query = `CREATE (a:S)-[:NEW]->(:T)-[:NEW]->(:T)-[:NEW]->(:T) WITH a MATCH (a)-[:NEW*1..2]->(n) RETURN count(n)`
	lines, err := Explain(graph.New("empty"), query, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if plan := strings.Join(lines, "\n"); !strings.Contains(plan, "TraverseCount") {
		t.Fatalf("count over a created type must push down:\n%s", plan)
	}
	for _, batch := range []int{1, 64} {
		for _, kernel := range kernelModes {
			for _, noPushdown := range []bool{false, true} {
				cfg := Config{batch: batch, kernel: kernel, noPushdown: noPushdown}
				if got := varLenCount(t, graph.New("w"), query, cfg); got != 2 {
					t.Fatalf("cfg %+v: count = %d, want 2", cfg, got)
				}
			}
		}
	}
}

// TestVarLenCountNotPushed lists the var-length counts that keep records and
// Aggregate, and checks they still agree with the pushed form's answer.
func TestVarLenCountNotPushed(t *testing.T) {
	g, _, _ := varLenGraph(t, 60)
	for _, c := range []struct {
		query string
		cfg   Config
	}{
		{`MATCH (s:Node {uid: 1})-[:F*1..3]->(n) RETURN count(DISTINCT n)`, Config{}},
		{`MATCH (s:Node {uid: 1})-[:F*1..3]->(n {uid: 9}) RETURN count(n)`, Config{}},
		{`MATCH (s:Node {uid: 1})-[:F*1..3]->(n) RETURN count(n)`, Config{noPushdown: true}},
	} {
		lines, err := Explain(g, c.query, c.cfg)
		if err != nil {
			t.Fatal(err)
		}
		plan := strings.Join(lines, "\n")
		if strings.Contains(plan, "TraverseCount") || !strings.Contains(plan, "Aggregate") {
			t.Fatalf("%s (cfg %+v) must not push down:\n%s", c.query, c.cfg, plan)
		}
	}
	// DISTINCT changes nothing under BFS reached-set semantics.
	distinct := varLenCount(t, g, `MATCH (s:Node {uid: 1})-[:F*1..3]->(n) RETURN count(DISTINCT n)`, Config{})
	pushed := varLenCount(t, g, `MATCH (s:Node {uid: 1})-[:F*1..3]->(n) RETURN count(n)`, Config{})
	if distinct != pushed {
		t.Fatalf("count(DISTINCT n) = %d, pushed count(n) = %d", distinct, pushed)
	}
}
