package core

import (
	"fmt"
	"strings"
	"testing"

	"redisgraph/internal/cypher"
	"redisgraph/internal/graph"
)

// pipelineConfigs is the differential grid: every batch size crossed with
// pushdown enabled and disabled. The scalar no-pushdown cell (batch 1) is
// the reference engine.
var pipelineConfigs = []Config{
	{batch: 1, noPushdown: true},
	{batch: 1},
	{batch: 3, noPushdown: true},
	{batch: 3},
	{batch: 64, noPushdown: true},
	{batch: 64},
}

// assertPipelineEquivalent runs one query across the differential grid and
// asserts every cell returns the reference's exact row sequence (order
// matters: ORDER BY queries must agree on ordering, not just multisets).
func assertPipelineEquivalent(t *testing.T, g *graph.Graph, query string, ordered bool) {
	t.Helper()
	run := func(cfg Config) []string {
		rs, err := Query(g, query, nil, cfg)
		if err != nil {
			t.Fatalf("cfg=%+v %s: %v", cfg, query, err)
		}
		if ordered {
			out := make([]string, 0, len(rs.Rows))
			for _, row := range rs.Rows {
				var b strings.Builder
				for _, v := range row {
					b.WriteString(v.HashKey())
					b.WriteByte('|')
				}
				out = append(out, b.String())
			}
			return out
		}
		return rowMultiset(rs)
	}
	ref := run(pipelineConfigs[0])
	for _, cfg := range pipelineConfigs[1:] {
		got := run(cfg)
		if strings.Join(got, "\n") != strings.Join(ref, "\n") {
			t.Fatalf("%s: cfg=%+v diverges from scalar no-pushdown reference\nref: %v\ngot: %v",
				query, cfg, ref, got)
		}
	}
}

// TestPipelineDifferential drives full pipelines — scans, residual and
// pushed filters, optional traversals, aggregation, DISTINCT, ORDER BY,
// SKIP and LIMIT — through every cell of the batch×pushdown grid.
func TestPipelineDifferential(t *testing.T) {
	g := randomTypedGraph(t, 200, 900, 11)
	q(t, g, `CREATE INDEX ON :N(uid)`)
	ordered := []string{
		`MATCH (a:N)-[:A]->(b:N) WHERE a.uid = 5 RETURN b.uid ORDER BY b.uid`,
		`MATCH (a:N)-[:A]->(b:N) RETURN a.uid, b.uid ORDER BY a.uid, b.uid SKIP 7 LIMIT 10`,
		`MATCH (a:N)-[:A]->(b:N) RETURN a.uid, count(b) ORDER BY count(b) DESC, a.uid LIMIT 9`,
		`MATCH (n:N) OPTIONAL MATCH (n)-[:A]->(m:N) RETURN n.uid, count(m) ORDER BY n.uid SKIP 3 LIMIT 12`,
		`MATCH (n:N) WITH n ORDER BY n.uid DESC LIMIT 20 MATCH (n)-[:B]->(m) RETURN n.uid, m.uid ORDER BY n.uid, m.uid`,
		`UNWIND [1, 2, 3, 4] AS x MATCH (n:N {uid: x}) RETURN x, n.uid ORDER BY x`,
		`MATCH (a:N)-[e:A]->(b:N) RETURN a.uid, e.w, b.uid ORDER BY e.w LIMIT 15`,
	}
	unordered := []string{
		`MATCH (a:N {uid: 3})-[:A]->(b:N)-[:B]->(c:N) RETURN b.uid, c.uid`,
		`MATCH (a:N)-[:A]->(b:N) WHERE b.uid = 7 RETURN a.uid`,
		`MATCH (a:N)-[:A|B]->(b:N) RETURN DISTINCT b.uid`,
		`MATCH (n:N) WHERE n.uid = 42 RETURN n.uid`,
		`MATCH (a:N)-[:A]->(b:N) RETURN min(b.uid), max(b.uid), count(b), avg(b.uid)`,
		`MATCH (a:N)-[:A]->(b:N) WHERE a.uid < 100 AND b.uid >= 50 RETURN count(b), min(b.uid)`,
		`MATCH (a:N)-[:A]->(b:N) WHERE b.uid <> 7 AND 150 > a.uid RETURN count(b)`,
		`MATCH (n:N) WHERE n.uid <= 10 AND n.missing = 1 RETURN count(n)`,
	}
	for _, query := range ordered {
		assertPipelineEquivalent(t, g, query, true)
	}
	for _, query := range unordered {
		assertPipelineEquivalent(t, g, query, false)
	}
}

// TestPipelineDifferentialWrites checks the batched write path: the same
// mutation sequence applied under each grid cell leaves identical graphs.
func TestPipelineDifferentialWrites(t *testing.T) {
	for _, cfg := range pipelineConfigs {
		g := graph.New("w")
		mustQ := func(query string) *ResultSet {
			rs, err := Query(g, query, nil, cfg)
			if err != nil {
				t.Fatalf("cfg=%+v %s: %v", cfg, query, err)
			}
			return rs
		}
		for i := 0; i < 10; i++ {
			mustQ(fmt.Sprintf(`CREATE (:P {uid: %d})`, i))
		}
		mustQ(`MATCH (a:P), (b:P) WHERE a.uid = 1 CREATE (a)-[:L]->(b)`)
		mustQ(`MATCH (a:P {uid: 1})-[:L]->(b) SET b.seen = 1`)
		mustQ(`MATCH (a:P {uid: 1})-[e:L]->(b:P {uid: 5}) DELETE e`)
		rs := mustQ(`MATCH (a:P)-[:L]->(b) RETURN count(b)`)
		if got := rs.Rows[0][0].Int(); got != 9 {
			t.Fatalf("cfg=%+v: edges after delete = %d, want 9", cfg, got)
		}
		rs = mustQ(`MATCH (b:P {seen: 1}) RETURN count(b)`)
		if got := rs.Rows[0][0].Int(); got != 10 {
			t.Fatalf("cfg=%+v: seen nodes = %d, want 10", cfg, got)
		}
	}
}

// TestPushdownExplain asserts the pushed predicates are visible in the plan
// and the residual Filter operations are gone.
func TestPushdownExplain(t *testing.T) {
	g := randomTypedGraph(t, 50, 120, 3)
	explain := func(query string) string {
		lines, err := Explain(g, query, Config{})
		if err != nil {
			t.Fatal(err)
		}
		return strings.Join(lines, "\n")
	}
	// Property equality on a label scan is pushed into the scan.
	p := explain(`MATCH (n:N {uid: 3}) RETURN n.uid`)
	if !strings.Contains(p, "pushed: n.uid = 3") || strings.Contains(p, "Filter") {
		t.Fatalf("scan pushdown missing:\n%s", p)
	}
	// WHERE equality on a traversal destination becomes a frontier mask.
	p = explain(`MATCH (a:N)-[:A]->(b:N) WHERE b.uid = 3 RETURN a.uid`)
	if !strings.Contains(p, "mask: b.uid = 3") || strings.Contains(p, "Filter") {
		t.Fatalf("traverse mask pushdown missing:\n%s", p)
	}
	// Record-free comparisons push too, on either side of the operator.
	p = explain(`MATCH (a:N)-[:A]->(b:N) WHERE b.uid < 3 AND 10 >= a.uid RETURN a.uid`)
	if !strings.Contains(p, "mask: b.uid < 3") || !strings.Contains(p, "pushed: a.uid <= 10") ||
		strings.Contains(p, "Filter") {
		t.Fatalf("comparison pushdown missing:\n%s", p)
	}
	// Record-dependent equality stays residual.
	p = explain(`MATCH (a:N)-[:A]->(b:N) WHERE b.uid = a.uid RETURN a.uid`)
	if !strings.Contains(p, "Filter") {
		t.Fatalf("record-dependent equality must stay residual:\n%s", p)
	}
	// Computed left-hand sides stay residual.
	p = explain(`MATCH (a:N)-[:A]->(b:N) WHERE b.uid + 1 = 3 RETURN a.uid`)
	if !strings.Contains(p, "Filter") {
		t.Fatalf("computed expression must stay residual:\n%s", p)
	}
	// Optional traversals never absorb masks (null-row semantics).
	p = explain(`MATCH (n:N) OPTIONAL MATCH (n)-[:A]->(m:N {uid: 1}) RETURN n.uid, m`)
	if strings.Contains(p, "mask:") {
		t.Fatalf("optional traversal must not absorb masks:\n%s", p)
	}
	// noPushdown keeps the interpreted filter plan.
	ast, err := cypher.Parse(`MATCH (n:N {uid: 3}) RETURN n.uid`)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := buildPlanOpts(g, ast, planOptions{noPushdown: true})
	if err != nil {
		t.Fatal(err)
	}
	var lines []string
	printPlan(plan.root, 0, &lines, planNode.args, nil)
	joined := strings.Join(lines, "\n")
	if !strings.Contains(joined, "Filter") || strings.Contains(joined, "pushed:") {
		t.Fatalf("noPushdown plan must keep residual filters:\n%s", joined)
	}
}

// TestTopNSortFusion checks the ORDER BY + LIMIT fusion: the plan shows the
// bounded sort and its output equals the full sort's prefix.
func TestTopNSortFusion(t *testing.T) {
	g := randomTypedGraph(t, 120, 300, 9)
	lines, err := Explain(g, `MATCH (n:N) RETURN n.uid ORDER BY n.uid DESC SKIP 4 LIMIT 6`, Config{})
	if err != nil {
		t.Fatal(err)
	}
	joined := strings.Join(lines, "\n")
	if !strings.Contains(joined, "TopNSort") {
		t.Fatalf("ORDER BY+LIMIT must fuse into TopNSort:\n%s", joined)
	}
	// Without LIMIT the full sort remains.
	lines, err = Explain(g, `MATCH (n:N) RETURN n.uid ORDER BY n.uid`, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(strings.Join(lines, "\n"), "TopNSort") {
		t.Fatalf("ORDER BY without LIMIT must not fuse:\n%s", strings.Join(lines, "\n"))
	}
	// Fused output equals the full sort's sliced prefix.
	full := q(t, g, `MATCH (n:N) RETURN n.uid ORDER BY n.uid DESC`)
	fused := q(t, g, `MATCH (n:N) RETURN n.uid ORDER BY n.uid DESC SKIP 4 LIMIT 6`)
	if len(fused.Rows) != 6 {
		t.Fatalf("fused rows = %d", len(fused.Rows))
	}
	for i, row := range fused.Rows {
		if row[0].Int() != full.Rows[4+i][0].Int() {
			t.Fatalf("fused row %d = %v, want %v", i, row[0], full.Rows[4+i][0])
		}
	}
	// Degenerate bounds.
	if rows := q(t, g, `MATCH (n:N) RETURN n.uid ORDER BY n.uid LIMIT 0`).Rows; len(rows) != 0 {
		t.Fatalf("LIMIT 0 rows = %d", len(rows))
	}
	if rows := q(t, g, `MATCH (n:N) RETURN n.uid ORDER BY n.uid SKIP 1000 LIMIT 5`).Rows; len(rows) != 0 {
		t.Fatalf("SKIP beyond input rows = %d", len(rows))
	}
	// Aggregated projections fuse too (ORDER BY after aggregation).
	lines, err = Explain(g, `MATCH (a:N)-[:A]->(b:N) RETURN a.uid, count(b) ORDER BY count(b) DESC LIMIT 3`, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(strings.Join(lines, "\n"), "TopNSort") {
		t.Fatalf("aggregate ORDER BY+LIMIT must fuse:\n%s", strings.Join(lines, "\n"))
	}
}

// TestMergeBatches proves MERGE participates in the batch pipeline natively:
// its drained matches come out in batch-sized slices, and an empty match
// creates the pattern once, at every batch size.
func TestMergeBatches(t *testing.T) {
	g := randomTypedGraph(t, 10, 0, 1)
	plan, _, err := planFor(g, `MERGE (n:N) RETURN n.uid`, Config{})
	if err != nil {
		t.Fatal(err)
	}
	mn, ok := plan.root.children()[0].(*mergeNode)
	if !ok {
		t.Fatalf("plan root child is %T, want *mergeNode", plan.root.children()[0])
	}
	m := instantiate(mn, instOpts{})
	g.RLock()
	ctx := &execCtx{g: g, batch: 4, stats: &Statistics{}}
	var sizes []int
	for {
		b, err := m.nextBatch(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if b == nil {
			break
		}
		sizes = append(sizes, len(b))
	}
	g.RUnlock()
	if len(sizes) != 3 || sizes[0] != 4 || sizes[1] != 4 || sizes[2] != 2 {
		t.Fatalf("merge batches = %v, want [4 4 2]", sizes)
	}
	for _, cfg := range pipelineConfigs {
		g := randomTypedGraph(t, 10, 0, 1)
		for i := 0; i < 2; i++ {
			rs, err := Query(g, `MERGE (n:Fresh {k: 1}) RETURN n.k`, nil, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if len(rs.Rows) != 1 || rs.Rows[0][0].Int() != 1 || (rs.Stats.NodesCreated == 1) != (i == 0) {
				t.Fatalf("cfg=%+v run %d: rows %v created %d", cfg, i, rs.Rows, rs.Stats.NodesCreated)
			}
		}
	}
}

// TestNegativeSkip: a negative SKIP skips nothing (and must not panic the
// batch slicing).
func TestNegativeSkip(t *testing.T) {
	g := randomTypedGraph(t, 10, 0, 1)
	rs := q(t, g, `MATCH (n:N) RETURN n.uid ORDER BY n.uid SKIP -3`)
	if len(rs.Rows) != 10 {
		t.Fatalf("rows = %d, want 10", len(rs.Rows))
	}
	rs = q(t, g, `MATCH (n:N) RETURN n.uid ORDER BY n.uid SKIP -3 LIMIT 2`)
	if len(rs.Rows) != 2 || rs.Rows[0][0].Int() != 0 {
		t.Fatalf("rows: %v", rs.Rows)
	}
}

// TestPushdownNotHoistedAboveWrites: a WHERE in a MATCH after a SET must
// observe the mutated state — the pushdown must not hoist it into a scan
// that evaluates before the write, and the eager SET makes the post-write
// state visible at every batch size.
func TestPushdownNotHoistedAboveWrites(t *testing.T) {
	for _, cfg := range pipelineConfigs {
		g := graph.New("w")
		mustQ := func(query string) *ResultSet {
			rs, err := Query(g, query, nil, cfg)
			if err != nil {
				t.Fatalf("cfg=%+v %s: %v", cfg, query, err)
			}
			return rs
		}
		mustQ(`CREATE (:P {x: 0}), (:P {x: 0})`)
		// Filter re-reads the property SET just wrote, on the set variable
		// itself (a) and on a fresh scan (b): 2 set rows x 2 matching b.
		for _, where := range []string{"a.x = 1", "b.x = 1"} {
			rs := mustQ(`MATCH (a:P) SET a.x = 1 MATCH (b:P) WHERE ` + where + ` RETURN count(b)`)
			if got := rs.Rows[0][0].Int(); got != 4 {
				t.Fatalf("cfg=%+v WHERE %s: count = %d, want 4", cfg, where, got)
			}
		}
	}
}
