package core

import (
	"fmt"
	"sort"
	"strings"
	"testing"

	"redisgraph/internal/gen"
	"redisgraph/internal/graph"
	"redisgraph/internal/value"
)

// randomTypedGraph loads a random graph where every node is (:N {uid}) and
// edges alternate between types A and B, each carrying a w property so
// edge-variable traversals have distinguishable rows. A handful of parallel
// A-edges exercise the one-record-per-edge expansion.
func randomTypedGraph(t *testing.T, numNodes, numEdges int, seed int64) *graph.Graph {
	t.Helper()
	e := gen.Uniform(numNodes, numEdges, seed)
	g := graph.New("diff")
	g.Lock()
	defer g.Unlock()
	for v := 0; v < e.NumNodes; v++ {
		g.CreateNode([]string{"N"}, map[string]value.Value{"uid": value.NewInt(int64(v))})
	}
	types := []string{"A", "B"}
	for i := range e.Src {
		typ := types[i%len(types)]
		_, err := g.CreateEdge(typ, uint64(e.Src[i]), uint64(e.Dst[i]),
			map[string]value.Value{"w": value.NewInt(int64(i))})
		if err != nil {
			t.Fatal(err)
		}
		if i%17 == 0 { // parallel edge between the same endpoints
			if _, err := g.CreateEdge(typ, uint64(e.Src[i]), uint64(e.Dst[i]),
				map[string]value.Value{"w": value.NewInt(int64(i + 100000))}); err != nil {
				t.Fatal(err)
			}
		}
	}
	g.Sync()
	return g
}

// rowMultiset flattens a result set into a sorted slice of row strings so
// two runs can be compared as multisets.
func rowMultiset(rs *ResultSet) []string {
	out := make([]string, 0, len(rs.Rows))
	for _, row := range rs.Rows {
		var b strings.Builder
		for _, v := range row {
			b.WriteString(v.HashKey())
			b.WriteByte('|')
		}
		out = append(out, b.String())
	}
	sort.Strings(out)
	return out
}

// assertBatchEquivalent runs the query at batch size 1 (the one-row
// reference), then at several batch sizes including partial final batches,
// and asserts the record multisets are identical.
func assertBatchEquivalent(t *testing.T, g *graph.Graph, query string) {
	t.Helper()
	run := func(batch int) []string {
		rs, err := Query(g, query, nil, Config{TraverseBatch: batch})
		if err != nil {
			t.Fatalf("batch=%d %s: %v", batch, query, err)
		}
		return rowMultiset(rs)
	}
	ref := run(1)
	if len(ref) == 0 {
		t.Fatalf("reference run returned no rows for %s", query)
	}
	for _, batch := range []int{3, 64, 4096} {
		got := run(batch)
		if len(got) != len(ref) {
			t.Fatalf("%s: batch=%d returned %d rows, batch 1 returned %d",
				query, batch, len(got), len(ref))
		}
		for i := range ref {
			if got[i] != ref[i] {
				t.Fatalf("%s: batch=%d row %d differs:\n got %q\nwant %q",
					query, batch, i, got[i], ref[i])
			}
		}
	}
}

func TestBatchedTraversalDifferential(t *testing.T) {
	g := randomTypedGraph(t, 300, 1500, 11)
	queries := []string{
		// Plain one-hop traversal, labelled destination folded into the AE.
		`MATCH (a:N)-[:A]->(b:N) RETURN a.uid, b.uid`,
		// Unlabelled destination.
		`MATCH (a:N)-[:A]->(b) RETURN a.uid, b.uid`,
		// Edge variable: one record per connecting edge, including parallels.
		`MATCH (a:N)-[e:A]->(b:N) RETURN a.uid, e.w, b.uid`,
		// Multi-type union (cached operand) and inbound direction.
		`MATCH (a:N)-[:A|B]->(b:N) RETURN a.uid, b.uid`,
		`MATCH (a:N)<-[:A]-(b:N) RETURN a.uid, b.uid`,
		// Undirected hop (both-direction union).
		`MATCH (a:N)-[:B]-(b:N) RETURN a.uid, b.uid`,
		// Two chained traversals: the downstream op consumes batched output.
		`MATCH (a:N)-[:A]->(b:N)-[:B]->(c:N) RETURN a.uid, b.uid, c.uid`,
		// Any-type traversal: every relation matrix, ORed in the kernel.
		`MATCH (a:N)-->(b) RETURN a.uid, b.uid`,
	}
	for _, q := range queries {
		assertBatchEquivalent(t, g, q)
	}
}

func TestBatchedOptionalMatchDifferential(t *testing.T) {
	// Sparse graph: many nodes have no outgoing A edge, so OPTIONAL MATCH
	// produces a mix of expanded and null rows.
	g := randomTypedGraph(t, 200, 120, 23)
	queries := []string{
		`MATCH (a:N) OPTIONAL MATCH (a)-[:A]->(b:N) RETURN a.uid, b.uid`,
		`MATCH (a:N) OPTIONAL MATCH (a)-[e:A]->(b) RETURN a.uid, e.w, b.uid`,
		// Chained optional: null sources flow into a second optional hop.
		`MATCH (a:N) OPTIONAL MATCH (a)-[:A]->(b:N) OPTIONAL MATCH (b)-[:B]->(c:N) RETURN a.uid, b.uid, c.uid`,
	}
	for _, q := range queries {
		assertBatchEquivalent(t, g, q)
	}
	// Null rows must actually be present for the optional cases to bite.
	rs, err := Query(g, `MATCH (a:N) OPTIONAL MATCH (a)-[:A]->(b:N) RETURN a.uid, b.uid`, nil, Config{})
	if err != nil {
		t.Fatal(err)
	}
	nulls := 0
	for _, row := range rs.Rows {
		if row[1].IsNull() {
			nulls++
		}
	}
	if nulls == 0 {
		t.Fatal("fixture produced no OPTIONAL MATCH null rows; weaken the graph density")
	}
}

func TestBatchedExpandIntoDifferential(t *testing.T) {
	g := randomTypedGraph(t, 150, 900, 31)
	queries := []string{
		// Second pattern closes a cycle over bound endpoints → ExpandInto.
		`MATCH (a:N)-[:A]->(b:N), (a)-[:B]->(b) RETURN a.uid, b.uid`,
		`MATCH (a:N)-[:A]->(b:N), (a)-[e:A]->(b) RETURN a.uid, e.w, b.uid`,
	}
	for _, q := range queries {
		// ExpandInto matches may legitimately be empty on a sparse random
		// graph; assert equivalence without requiring rows.
		run := func(batch int) []string {
			rs, err := Query(g, q, nil, Config{TraverseBatch: batch})
			if err != nil {
				t.Fatalf("batch=%d %s: %v", batch, q, err)
			}
			return rowMultiset(rs)
		}
		ref := run(1)
		for _, batch := range []int{3, 64} {
			got := run(batch)
			if strings.Join(got, "\n") != strings.Join(ref, "\n") {
				t.Fatalf("%s: batch=%d multiset differs from the batch 1 run", q, batch)
			}
		}
	}
	// Make sure the plan really used ExpandInto.
	lines, err := Explain(g, queries[0], Config{})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(strings.Join(lines, "\n"), "ExpandInto") {
		t.Fatalf("expected ExpandInto in plan:\n%v", lines)
	}
}

func TestExplainShowsBatchedTraverse(t *testing.T) {
	g := randomTypedGraph(t, 50, 100, 7)
	want := fmt.Sprintf("batched(%d)", defaultTraverseBatch)
	lines, err := Explain(g, `MATCH (a:N)-[:A]->(b:N) RETURN b.uid`, Config{})
	if err != nil {
		t.Fatal(err)
	}
	joined := strings.Join(lines, "\n")
	if !strings.Contains(joined, "ConditionalTraverse") || !strings.Contains(joined, want) {
		t.Fatalf("EXPLAIN missing batched traverse label %q:\n%s", want, joined)
	}
	// count(dst) right above the traversal is pushed into the algebra.
	lines, err = Explain(g, `MATCH (a:N)-[:A]->(b:N) RETURN count(b)`, Config{})
	if err != nil {
		t.Fatal(err)
	}
	joined = strings.Join(lines, "\n")
	if !strings.Contains(joined, "TraverseCount") || !strings.Contains(joined, want) {
		t.Fatalf("EXPLAIN missing TraverseCount pushdown:\n%s", joined)
	}
}

// TestTraverseCountPushdown checks the pushdown against the unfused
// reference: counting the materialised rows of the same pattern, across
// batch sizes, plus the cases that must NOT be pushed down.
func TestTraverseCountPushdown(t *testing.T) {
	g := randomTypedGraph(t, 250, 1200, 43)
	ref := len(q(t, g, `MATCH (a:N)-[:A]->(b:N) RETURN a.uid, b.uid`).Rows)
	if ref == 0 {
		t.Fatal("fixture has no A edges")
	}
	for _, batch := range []int{1, 3, 64} {
		for _, query := range []string{
			`MATCH (a:N)-[:A]->(b:N) RETURN count(b)`,
			`MATCH (a:N)-[:A]->(b:N) RETURN count(*)`,
		} {
			rs, err := Query(g, query, nil, Config{TraverseBatch: batch})
			if err != nil {
				t.Fatalf("batch=%d %s: %v", batch, query, err)
			}
			if got := int(rs.Rows[0][0].Int()); got != ref {
				t.Fatalf("batch=%d %s = %d, want %d", batch, query, got, ref)
			}
		}
	}
	// Not eligible: edge variables, OPTIONAL MATCH, counting the source,
	// DISTINCT. These must take the regular aggregate path and stay correct.
	for _, c := range []struct {
		query string
		plan  string
	}{
		{`MATCH (a:N)-[e:A]->(b:N) RETURN count(e)`, "ConditionalTraverse"},
		{`MATCH (a:N) OPTIONAL MATCH (a)-[:A]->(b:N) RETURN count(b)`, "OptionalTraverse"},
		{`MATCH (a:N)-[:A]->(b:N) RETURN count(a)`, "ConditionalTraverse"},
		{`MATCH (a:N)-[:A]->(b:N) RETURN count(DISTINCT b)`, "ConditionalTraverse"},
	} {
		lines, err := Explain(g, c.query, Config{})
		if err != nil {
			t.Fatal(err)
		}
		joined := strings.Join(lines, "\n")
		if strings.Contains(joined, "TraverseCount") || !strings.Contains(joined, c.plan) {
			t.Fatalf("%s must not push down:\n%s", c.query, joined)
		}
	}
	// And the ineligible count queries agree across batch sizes too.
	for _, query := range []string{
		`MATCH (a:N)-[e:A]->(b:N) RETURN count(e)`,
		`MATCH (a:N) OPTIONAL MATCH (a)-[:A]->(b:N) RETURN count(b)`,
		`MATCH (a:N)-[:A]->(b:N) RETURN count(DISTINCT b)`,
	} {
		want := q(t, g, query).Rows[0][0].Int()
		for _, batch := range []int{1, 3, 64} {
			rs, err := Query(g, query, nil, Config{TraverseBatch: batch})
			if err != nil {
				t.Fatal(err)
			}
			if rs.Rows[0][0].Int() != want {
				t.Fatalf("batch=%d %s = %d, want %d", batch, query, rs.Rows[0][0].Int(), want)
			}
		}
	}
}
