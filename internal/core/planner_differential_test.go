package core

import (
	"fmt"
	"sort"
	"strings"
	"testing"

	"redisgraph/internal/cypher"
	"redisgraph/internal/graph"
	"redisgraph/internal/value"
)

// adversarialGraph builds a graph whose statistics punish textual-order
// planning: label cardinalities are skewed (:Hub ~ n nodes, :Rare 5 nodes),
// one relation is dense (:D, ~4 edges per hub) and one is sparse (:Sp, a
// handful of hub→rare edges), and an index covers Hub.uid.
func adversarialGraph(t testing.TB, n int) *graph.Graph {
	t.Helper()
	g := graph.New("adversarial")
	g.Lock()
	defer g.Unlock()
	hubs := make([]uint64, n)
	for i := 0; i < n; i++ {
		node := g.CreateNode([]string{"Hub"}, map[string]value.Value{
			"uid": value.NewInt(int64(i)),
		})
		hubs[i] = node.ID
	}
	rares := make([]uint64, 5)
	for i := range rares {
		node := g.CreateNode([]string{"Rare", "Tagged"}, map[string]value.Value{
			"uid": value.NewInt(int64(1000 + i)),
		})
		rares[i] = node.ID
	}
	mustEdge := func(typ string, src, dst uint64) {
		if _, err := g.CreateEdge(typ, src, dst, nil); err != nil {
			t.Fatalf("edge: %v", err)
		}
	}
	// Dense relation among hubs: deterministic pseudo-random targets.
	for i, h := range hubs {
		for k := 0; k < 4; k++ {
			mustEdge("D", h, hubs[(i*7+k*13+1)%n])
		}
	}
	// Sparse relation from a few hubs into the rare nodes.
	for i := 0; i < 8; i++ {
		mustEdge("Sp", hubs[(i*11)%n], rares[i%len(rares)])
	}
	// A relation from rares back into hubs (reverse-direction coverage).
	for i, r := range rares {
		mustEdge("Back", r, hubs[(i*17)%n])
	}
	g.CreateIndex("Hub", "uid")
	g.Sync()
	return g
}

// runSorted executes a query and returns its rows rendered and sorted, with
// the column header first — the canonical form the differential tests
// compare.
func runSorted(t testing.TB, g *graph.Graph, query string, cfg Config) []string {
	t.Helper()
	rs, err := Query(g, query, nil, cfg)
	if err != nil {
		t.Fatalf("cfg=%+v %s: %v", cfg, query, err)
	}
	rows := make([]string, len(rs.Rows))
	for i, row := range rs.Rows {
		parts := make([]string, len(row))
		for j, v := range row {
			parts[j] = v.String()
		}
		rows[i] = strings.Join(parts, "|")
	}
	sort.Strings(rows)
	return append([]string{strings.Join(rs.Columns, ",")}, rows...)
}

// TestPlannerDifferentialReadOnly asserts the cost-based planner and the
// textual-order baseline return identical result sets over read queries on
// an adversarially skewed graph.
func TestPlannerDifferentialReadOnly(t *testing.T) {
	g := adversarialGraph(t, 200)
	queries := []string{
		// Entry-point choice: selective label vs dense label.
		`MATCH (a:Hub)-[:Sp]->(b:Rare) RETURN count(a)`,
		`MATCH (a:Hub)-[:Sp]->(b:Rare) RETURN a.uid, b.uid`,
		// Reverse-direction hop (forces a transpose decision).
		`MATCH (a:Hub)<-[:Back]-(b:Rare) RETURN a.uid, b.uid`,
		// Multi-hop chain through a dense then sparse relation.
		`MATCH (a:Hub)-[:D]->(m:Hub)-[:Sp]->(b:Rare) RETURN count(*)`,
		`MATCH (a:Hub)-[:D]->(m:Hub)-[:Sp]->(b:Rare) RETURN a.uid, m.uid, b.uid`,
		// Multi-pattern join sharing a variable.
		`MATCH (a:Hub)-[:Sp]->(b:Rare), (c:Rare)-[:Back]->(d:Hub) RETURN count(*)`,
		`MATCH (a:Hub)-[:D]->(m:Hub), (m)-[:Sp]->(b:Rare) RETURN a.uid, b.uid`,
		// Consecutive MATCH clauses (joined by the cost planner).
		`MATCH (a:Hub)-[:Sp]->(b:Rare) MATCH (b)<-[:Sp]-(c:Hub) RETURN a.uid, c.uid`,
		// Cycle closing (expand-into).
		`MATCH (a:Hub)-[:D]->(m:Hub)-[:D]->(a) RETURN count(*)`,
		// Diamond: two paths from a small label meeting at one vertex.
		`MATCH (a:Rare)-[:Back]->(b:Hub)-[:D]->(d:Hub), (a)<-[:Sp]-(c:Hub)-[:D]->(d) RETURN count(*)`,
		// Edge variables and relationship properties.
		`MATCH (a:Hub)-[e:Sp]->(b:Rare) RETURN a.uid, b.uid`,
		// Undirected hop.
		`MATCH (a:Rare)-[:Sp]-(b) RETURN count(b)`,
		// Variable-length with a selective destination label.
		`MATCH (a:Hub {uid: 0})-[:D*1..3]->(m:Hub) RETURN count(m)`,
		`MATCH (a:Hub {uid: 11})-[:D*1..2]->(m:Hub)-[:Sp]->(b:Rare) RETURN count(b)`,
		// Multi-label destination (diagonal fold ordering).
		`MATCH (a:Hub)-[:Sp]->(b:Rare:Tagged) RETURN count(b)`,
		`MATCH (a:Hub {uid: 0})-[:D*1..2]->(b:Rare:Tagged) RETURN count(b)`,
		// Index seed vs label scan entry.
		`MATCH (a:Hub {uid: 42})-[:D]->(m:Hub) RETURN m.uid`,
		// WHERE pushdown across the reordered plan.
		`MATCH (a:Hub)-[:D]->(m:Hub) WHERE m.uid = 7 AND a.uid < 100 RETURN a.uid, m.uid`,
		// Cartesian product of skewed components.
		`MATCH (a:Rare), (b:Rare) RETURN count(*)`,
		// OPTIONAL MATCH above a cost-ordered group.
		`MATCH (b:Rare) OPTIONAL MATCH (b)-[:Back]->(h:Hub) RETURN b.uid, h.uid`,
		// Projection barriers, aggregation, ordering.
		`MATCH (a:Hub)-[:D]->(m:Hub) WITH m, count(a) AS fans WHERE fans > 3 RETURN m.uid, fans ORDER BY fans DESC, m.uid LIMIT 5`,
		`MATCH (a:Hub) RETURN a.uid ORDER BY a.uid DESC SKIP 3 LIMIT 7`,
	}
	for _, query := range queries {
		cost := runSorted(t, g, query, Config{})
		textual := runSorted(t, g, query, Config{noCostPlanner: true})
		if strings.Join(cost, "\n") != strings.Join(textual, "\n") {
			t.Errorf("planner disagreement on %s\ncost:\n%s\ntextual:\n%s",
				query, strings.Join(cost, "\n"), strings.Join(textual, "\n"))
		}
		// The cost planner must also agree with itself under the other
		// engine baselines (batch 1, no pushdown).
		for _, cfg := range []Config{{batch: 1}, {noPushdown: true}} {
			alt := runSorted(t, g, query, cfg)
			if strings.Join(cost, "\n") != strings.Join(alt, "\n") {
				t.Errorf("cfg %+v disagreement on %s\n%s\nvs\n%s",
					cfg, query, strings.Join(cost, "\n"), strings.Join(alt, "\n"))
			}
		}
	}
}

// TestPlannerDifferentialWrites runs write-containing queries under both
// planners on fresh graphs and asserts the final graph states agree.
func TestPlannerDifferentialWrites(t *testing.T) {
	scripts := [][]string{
		{
			`MATCH (a:Hub {uid: 1}), (b:Rare) CREATE (a)-[:W]->(b)`,
			`MATCH (a:Hub)-[:W]->(b:Rare) SET b.hit = a.uid`,
			`MATCH (a:Hub)-[:W]->(b:Rare {uid: 1001}) DETACH DELETE a`,
		},
		{
			`MATCH (a:Hub)-[:Sp]->(b:Rare) CREATE (b)-[:Seen]->(a)`,
			`MATCH (b:Rare)-[e:Seen]->(a:Hub) WHERE a.uid < 50 DELETE e`,
			`MATCH (b:Rare)-[:Seen]->(a:Hub) SET a.flag = 1`,
		},
		{
			`MERGE (z:Rare {uid: 1001})`,
			`MATCH (m:Hub)-[:Sp]->(r:Rare) MATCH (r)<-[:Sp]-(o:Hub) SET r.deg = m.uid + o.uid`,
		},
	}
	const stateQuery = `MATCH (n) RETURN n.uid, n.hit, n.flag, n.deg`
	const edgeQuery = `MATCH (a)-[e]->(b) RETURN a.uid, b.uid`
	for si, script := range scripts {
		var states [2][]string
		for vi, cfg := range []Config{{}, {noCostPlanner: true}} {
			g := adversarialGraph(t, 80)
			for _, q := range script {
				if _, err := Query(g, q, nil, cfg); err != nil {
					t.Fatalf("script %d cfg=%+v %s: %v", si, cfg, q, err)
				}
			}
			state := runSorted(t, g, stateQuery, cfg)
			state = append(state, runSorted(t, g, edgeQuery, cfg)...)
			states[vi] = state
		}
		if strings.Join(states[0], "\n") != strings.Join(states[1], "\n") {
			t.Errorf("write script %d: planner-dependent final state\ncost:\n%s\ntextual:\n%s",
				si, strings.Join(states[0], "\n"), strings.Join(states[1], "\n"))
		}
	}
}

// TestCostPlannerPicksSelectiveEntry asserts the optimizer actually
// reorders: on the skewed graph the plan must start from the 5-node :Rare
// label, traversing :Sp transposed, while the textual baseline scans :Hub.
// A selective predicate on the written entry keeps that entry: the scan
// carries it and the hop folds into TraverseCount (a join-order search once
// entered at an all-node scan of b instead and ran several times slower).
func TestCostPlannerPicksSelectiveEntry(t *testing.T) {
	g := adversarialGraph(t, 200)
	explain := func(query string, cfg planOptions) string {
		ast, err := cypher.Parse(query)
		if err != nil {
			t.Fatal(err)
		}
		plan, err := buildPlanOpts(g, ast, cfg)
		if err != nil {
			t.Fatal(err)
		}
		var lines []string
		printPlan(plan.root, 0, &lines, planNode.args, plan.estAnnotation)
		return strings.Join(lines, "\n")
	}
	const q = `MATCH (a:Hub)-[:Sp]->(b:Rare) RETURN count(a)`
	cost := explain(q, planOptions{})
	if !strings.Contains(cost, "b:Rare") || !strings.Contains(cost, "Spᵀ") {
		t.Fatalf("cost plan must enter at :Rare and transpose :Sp:\n%s", cost)
	}
	textual := explain(q, planOptions{noCostPlanner: true})
	if !strings.Contains(textual, "a:Hub") || strings.Contains(textual, "Spᵀ") {
		t.Fatalf("textual plan must keep the written order:\n%s", textual)
	}
	hub := explain(`MATCH (a:Hub)-[:D]->(b) WHERE a.uid < 150 RETURN count(b)`, planOptions{})
	lines := strings.Split(hub, "\n")
	if len(lines) != 2 || !strings.HasPrefix(lines[0], "TraverseCount | D |") ||
		!strings.Contains(lines[1], "NodeByLabelScan | a:Hub | pushed: a.uid < 150") {
		t.Fatalf("hub plan must be TraverseCount over the a:Hub scan carrying a.uid < 150:\n%s", hub)
	}
}

// TestCostPlannerReturnStarOrder pins the cost planner's RETURN * column
// contract: columns appear in the order the pattern wrote the variables,
// regardless of the join order the optimizer picks. (The textual baseline
// orders by its own binding sequence, which can start mid-pattern at an
// index seed — so the two planners are allowed to disagree here.)
func TestCostPlannerReturnStarOrder(t *testing.T) {
	g := adversarialGraph(t, 30)
	rs, err := Query(g, `MATCH (a:Hub)-[e:Sp]->(b:Rare) RETURN *`, nil, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if got := strings.Join(rs.Columns, ","); got != "a,e,b" {
		t.Fatalf("RETURN * columns = %s, want written order a,e,b", got)
	}
}

// TestCostPlannerRecordDependentProps pins the reordering-vs-binding
// contract: inline property expressions referencing other pattern
// variables must evaluate only after those variables are bound, whatever
// order the optimizer picks, and cross-clause forward references must stay
// errors.
func TestCostPlannerRecordDependentProps(t *testing.T) {
	g := adversarialGraph(t, 20)
	// (b {uid: a.uid}) — the textual planner binds a first and both
	// planners must agree.
	q := `MATCH (a:Hub)-[:D]->(b {uid: a.uid}) RETURN count(*)`
	cost := runSorted(t, g, q, Config{})
	textual := runSorted(t, g, q, Config{noCostPlanner: true})
	if strings.Join(cost, "\n") != strings.Join(textual, "\n") {
		t.Fatalf("record-dependent prop disagreement:\n%v\nvs\n%v", cost, textual)
	}
	// With the destination labelled and indexed, the textual planner
	// rejects the query (it insists on index-seeding b before a exists);
	// the cost planner must defer the predicate and return the same count
	// as the unlabelled variant — never silently drop to zero.
	rs, err := Query(g, `MATCH (a:Hub)-[:D]->(b:Hub {uid: a.uid}) RETURN count(*)`, nil, Config{})
	if err != nil {
		t.Fatalf("cost planner must handle deferred index-prop: %v", err)
	}
	if got, want := rs.Rows[0][0].Int(), textual[1]; fmt.Sprint(got) != want {
		t.Fatalf("deferred prop count = %d, want %s", got, want)
	}
	// A WHERE referencing a variable from a later MATCH clause is invalid
	// under both planners.
	for _, cfg := range []Config{{}, {noCostPlanner: true}} {
		_, err := Query(g, `MATCH (a:Rare) WHERE h.uid < 50 MATCH (a)-[:Back]->(h) RETURN count(*)`, nil, cfg)
		if err == nil || !strings.Contains(err.Error(), `undefined variable "h"`) {
			t.Fatalf("cfg=%+v: forward WHERE reference must error, got %v", cfg, err)
		}
	}
	// Relationship properties referencing other pattern variables fall
	// back to textual ordering: both planners agree.
	q = `MATCH (a:Hub)-[e:Sp {w: a.uid}]->(b:Rare) RETURN count(*)`
	if c, x := runSorted(t, g, q, Config{}), runSorted(t, g, q, Config{noCostPlanner: true}); strings.Join(c, "\n") != strings.Join(x, "\n") {
		t.Fatalf("rel-prop disagreement:\n%v\nvs\n%v", c, x)
	}
}

// TestVarLenDstLabelMask asserts the destination label of a variable-length
// pattern folds into an algebraic mask inside the expansion loop (no
// residual Filter), while noPushdown keeps the labels as residual filters.
func TestVarLenDstLabelMask(t *testing.T) {
	g := adversarialGraph(t, 50)
	explain := func(opts planOptions) string {
		ast, err := cypher.Parse(`MATCH (a:Hub {uid: 1})-[:D*1..3]->(b:Rare:Tagged) RETURN count(b)`)
		if err != nil {
			t.Fatal(err)
		}
		plan, err := buildPlanOpts(g, ast, opts)
		if err != nil {
			t.Fatal(err)
		}
		var lines []string
		printPlan(plan.root, 0, &lines, planNode.args, nil)
		return strings.Join(lines, "\n")
	}
	p := explain(planOptions{})
	if !strings.Contains(p, "dst mask: :Rare") || strings.Contains(p, "Filter") {
		t.Fatalf("var-length dst labels must fold into the mask:\n%s", p)
	}
	p = explain(planOptions{noPushdown: true})
	if strings.Contains(p, "dst mask") || !strings.Contains(p, "Filter") {
		t.Fatalf("noPushdown var-length must keep residual label filters:\n%s", p)
	}
}

// TestExplainShowsCardinalities asserts every plan line carries an estimate
// annotation, in both planner modes.
func TestExplainShowsCardinalities(t *testing.T) {
	g := adversarialGraph(t, 50)
	queries := []string{
		`MATCH (a:Hub)-[:D]->(m:Hub)-[:Sp]->(b:Rare) WHERE a.uid < 10 RETURN count(*)`,
		`MATCH (a:Hub {uid: 3})-[:D*1..2]->(m) RETURN m.uid ORDER BY m.uid LIMIT 4`,
		`CREATE INDEX ON :Rare(uid)`,
		`MATCH (a:Hub {uid: 1}), (b:Rare) CREATE (a)-[:W]->(b)`,
		`UNWIND [1, 2, 3] AS x RETURN x`,
	}
	for _, cfg := range []Config{{}, {noCostPlanner: true}} {
		for _, query := range queries {
			ast, err := cypher.Parse(query)
			if err != nil {
				t.Fatal(err)
			}
			plan, err := buildPlanOpts(g, ast, planOptions{noCostPlanner: cfg.noCostPlanner})
			if err != nil {
				t.Fatal(err)
			}
			var lines []string
			printPlan(plan.root, 0, &lines, planNode.args, plan.estAnnotation)
			for _, line := range lines {
				if !strings.Contains(line, "est: ") {
					t.Fatalf("cfg=%+v missing estimate on %q:\n%s", cfg, line, strings.Join(lines, "\n"))
				}
			}
		}
	}
}

// TestGraphStats sanity-checks the planner's stats snapshot against the
// adversarial graph's known shape.
func TestGraphStats(t *testing.T) {
	g := adversarialGraph(t, 100)
	g.RLock()
	gs := g.Stats()
	g.RUnlock()
	if gs.Nodes != 105 {
		t.Fatalf("nodes = %d, want 105", gs.Nodes)
	}
	lid, ok := g.Schema.LabelID("Rare")
	if !ok || gs.LabelCount(lid) != 5 {
		t.Fatalf("rare label count = %d, want 5", gs.LabelCount(lid))
	}
	hid, _ := g.Schema.LabelID("Hub")
	if gs.LabelCount(hid) != 100 {
		t.Fatalf("hub label count = %d, want 100", gs.LabelCount(hid))
	}
	sp, _ := g.Schema.RelTypeID("Sp")
	if got := gs.RelCount(sp); got < 1 || got > 8 {
		t.Fatalf("sparse rel pairs = %d, want 1..8", got)
	}
	d, _ := g.Schema.RelTypeID("D")
	if gs.MeanOutDegree(d) <= gs.MeanOutDegree(sp) {
		t.Fatalf("dense mean degree %f must exceed sparse %f",
			gs.MeanOutDegree(d), gs.MeanOutDegree(sp))
	}
	if gs.LabelSelectivity(lid) >= gs.LabelSelectivity(hid) {
		t.Fatalf("rare selectivity %f must be below hub %f",
			gs.LabelSelectivity(lid), gs.LabelSelectivity(hid))
	}
}
