package core

import (
	"math"
	"strings"
	"testing"

	"redisgraph/internal/graph"
	"redisgraph/internal/value"
)

// propStoreConfigs is the property-read differential grid: the interpreted
// reference (noPushdown: every comparison boxes its column cell and runs
// compareValues) and the compiled unboxed kernels, at every batch size x
// kernel direction cell. Every cell must return rows bit-identical to the
// interpreted baseline.
func propStoreConfigs() []Config {
	var out []Config
	for _, noPushdown := range []bool{true, false} {
		for _, batch := range []int{1, 64} {
			for _, kernel := range kernelModes {
				out = append(out, Config{
					batch:      batch,
					kernel:     kernel,
					noPushdown: noPushdown,
				})
			}
		}
	}
	return out
}

// propStoreGraph builds a graph that stresses every column layout case:
// an int column holding values beyond 2^53 (where float64 comparison must
// still match the boxed path because both sides compare through float64), a
// float column with a NaN cell, an interned string column, a bool attribute
// (never promoted, overflow-only), a mixed-type attribute (typed column
// with overflow spill), attributes absent on some rows, and unlabelled
// nodes so the all-node scan has work beyond :P.
func propStoreGraph(t testing.TB, n int) *graph.Graph {
	t.Helper()
	g := graph.New("propstore")
	g.Lock()
	defer g.Unlock()
	ids := make([]uint64, 0, n)
	for i := 0; i < n; i++ {
		p := map[string]value.Value{
			"uid":   value.NewInt(int64(i)),
			"score": value.NewFloat(float64(i%50) * 0.5),
			"name":  value.NewString([]string{"ash", "birch", "cedar", "fir", "oak"}[i%5]),
			"flag":  value.NewBool(i%2 == 0),
		}
		if i%11 != 0 {
			p["age"] = value.NewInt(int64(i % 97))
		}
		if i%29 == 0 {
			p["age"] = value.NewInt(int64(1)<<60 + int64(i)) // beyond 2^53
		}
		if i%31 == 0 {
			p["score"] = value.NewFloat(math.NaN())
		}
		switch i % 7 {
		case 0:
			p["mixed"] = value.NewInt(int64(i % 13))
		case 1:
			p["mixed"] = value.NewString("odd")
		case 2:
			p["mixed"] = value.NewFloat(2.5)
		case 3:
			p["mixed"] = value.NewArray([]value.Value{value.NewInt(1)})
		}
		node := g.CreateNode([]string{"P"}, p)
		ids = append(ids, node.ID)
	}
	// Unlabelled nodes sharing the attribute space.
	for i := 0; i < n/4; i++ {
		g.CreateNode(nil, map[string]value.Value{
			"uid":  value.NewInt(int64(10000 + i)),
			"name": value.NewString([]string{"ash", "oak", "yew"}[i%3]),
		})
	}
	for i, id := range ids {
		if _, err := g.CreateEdge("E", id, ids[(i*3+1)%len(ids)], nil); err != nil {
			t.Fatalf("edge: %v", err)
		}
	}
	g.CreateIndex("P", "name")
	g.Sync()
	return g
}

// propStoreReadQueries cover the three scan shapes (all-node, label, index
// seed) plus traversal destination masks and late-materialized projections,
// with every operator and every degenerate compilation (unknown attribute,
// null target, untyped column, mixed-kind target).
var propStoreReadQueries = []string{
	// Label scan, numeric predicates: every operator, int and float columns.
	`MATCH (n:P) WHERE n.age > 40 RETURN n.uid, n.age`,
	`MATCH (n:P) WHERE n.age >= 40 RETURN count(*)`,
	`MATCH (n:P) WHERE n.age < 12 RETURN n.uid`,
	`MATCH (n:P) WHERE n.age <= 12 RETURN count(*)`,
	`MATCH (n:P) WHERE n.age = 7 RETURN n.uid`,
	`MATCH (n:P) WHERE n.age <> 7 RETURN count(*)`,
	`MATCH (n:P) WHERE n.score > 10 RETURN count(*)`,
	`MATCH (n:P) WHERE n.score <= 2.5 RETURN count(*)`,
	// Cross-kind numeric targets: float target on the int column and back.
	`MATCH (n:P) WHERE n.age = 3.0 RETURN count(*)`,
	`MATCH (n:P) WHERE n.score >= 3 RETURN count(*)`,
	// An int beyond 2^53: both paths compare through float64.
	`MATCH (n:P) WHERE n.age >= 1152921504606846976 RETURN n.uid`,
	// String column: interned equality, negation, ordering.
	`MATCH (n:P) WHERE n.name = "cedar" RETURN n.uid`,
	`MATCH (n:P) WHERE n.name <> "cedar" RETURN count(*)`,
	`MATCH (n:P) WHERE n.name < "fir" RETURN count(*)`,
	`MATCH (n:P) WHERE n.name >= "fir" RETURN count(*)`,
	// A string never interned: = matches nothing, <> matches all present.
	`MATCH (n:P) WHERE n.name = "nosuch" RETURN count(*)`,
	`MATCH (n:P) WHERE n.name <> "nosuch" RETURN count(*)`,
	// Kind mismatch between column and target (string col vs int target).
	`MATCH (n:P) WHERE n.name = 5 RETURN count(*)`,
	`MATCH (n:P) WHERE n.name <> 5 RETURN count(*)`,
	// Untyped (bool-only) column: overflow-only probe. Unknown attribute and
	// null target: no row passes.
	`MATCH (n:P) WHERE n.flag = true RETURN count(*)`,
	`MATCH (n:P) WHERE n.nosuchattr = 1 RETURN count(*)`,
	`MATCH (n:P) WHERE n.age = null RETURN count(*)`,
	`MATCH (n) WHERE n.nosuchattr <> 1 RETURN count(*)`,
	// Mixed-type attribute: typed rows plus overflow spill.
	`MATCH (n:P) WHERE n.mixed = 7 RETURN n.uid`,
	`MATCH (n:P) WHERE n.mixed <> "odd" RETURN count(*)`,
	`MATCH (n:P) WHERE n.mixed >= 2 RETURN count(*)`,
	// Conjunction of pushed predicates, typed and overflow-only together.
	`MATCH (n:P) WHERE n.age >= 40 AND n.score < 15.5 RETURN count(*)`,
	`MATCH (n:P) WHERE n.age > 10 AND n.flag = true RETURN count(*)`,
	// All-node scan: candidates come from the column, not [0, Dim).
	`MATCH (n) WHERE n.name = "oak" RETURN n.uid`,
	`MATCH (n) WHERE n.uid >= 10000 RETURN count(*)`,
	`MATCH (n) WHERE n.age < 5 RETURN n.uid`,
	// Index seed scan with a pushed residual predicate.
	`MATCH (n:P {name: "cedar"}) WHERE n.age > 20 RETURN n.uid`,
	`MATCH (n:P {name: "oak"}) WHERE n.score <= 10 RETURN n.uid, n.score`,
	// Traversal destination mask reading the column directly.
	`MATCH (a:P)-[:E]->(b) WHERE b.age > 80 RETURN a.uid, b.uid`,
	`MATCH (a:P {name: "ash"})-[:E]->(b) WHERE b.name = "birch" RETURN b.uid`,
	// Late-materialized projection of values the filter never touched.
	`MATCH (n:P) WHERE n.age > 90 RETURN n.name, n.score, n.mixed`,
	// Full-row entity return after a columnar prefilter.
	`MATCH (n:P) WHERE n.age = 7 RETURN n`,
}

// TestPropStoreDifferentialReads proves pushdown ≡ noPushdown on read
// pipelines: identical rows for every query in every grid cell.
func TestPropStoreDifferentialReads(t *testing.T) {
	g := propStoreGraph(t, 240)
	for _, q := range propStoreReadQueries {
		var want []string
		for _, cfg := range propStoreConfigs() {
			got := runSorted(t, g, q, cfg)
			if want == nil {
				want = got
				continue
			}
			if strings.Join(got, "\n") != strings.Join(want, "\n") {
				t.Fatalf("prop-store differential mismatch on %s (cfg %+v):\nwant %v\ngot  %v", q, cfg, want, got)
			}
		}
	}
}

// TestPropStoreDifferentialMutations interleaves writes — SET overwrites
// that change a value's kind, SET null deletion, node DELETE, CREATE, and
// index DDL — with reads, and proves the compiled and interpreted read
// paths agree on the post-mutation state in every grid cell (the mutations
// themselves read through the cell's path too: write plans compile pushed
// predicates like read-only ones). Each cell gets a fresh graph so the
// write history is identical.
func TestPropStoreDifferentialMutations(t *testing.T) {
	steps := []string{
		// Overwrite int cells with new ints, then with strings (kind change
		// pushes rows into the overflow map).
		`MATCH (n:P) WHERE n.age < 10 SET n.age = n.age + 100`,
		`MATCH (n:P) WHERE n.age = 103 SET n.age = "retired"`,
		// SET null removes the property entirely.
		`MATCH (n:P) WHERE n.score > 20 SET n.score = null`,
		// Delete a slice of nodes: their column cells must disappear.
		`MATCH (n:P) WHERE n.uid >= 200 AND n.uid < 220 DETACH DELETE n`,
		// Create fresh nodes reusing the columns (and new string values).
		`CREATE (:P {uid: 9001, age: 41, name: "willow", score: 1.5})`,
		`CREATE (:P {uid: 9002, age: 1152921504606846999, name: "cedar"})`,
		// Index DDL between reads.
		`CREATE INDEX ON :P(age)`,
		`DROP INDEX ON :P(name)`,
	}
	checks := []string{
		`MATCH (n:P) WHERE n.age > 100 RETURN n.uid, n.age`,
		`MATCH (n:P) WHERE n.age = "retired" RETURN n.uid`,
		`MATCH (n:P) WHERE n.score > 20 RETURN count(*)`,
		`MATCH (n:P) WHERE n.score <= 20 RETURN count(*)`,
		`MATCH (n:P) WHERE n.uid >= 200 AND n.uid < 220 RETURN count(*)`,
		`MATCH (n:P) WHERE n.name = "willow" RETURN n.uid, n.age, n.score`,
		`MATCH (n:P) WHERE n.age >= 1152921504606846976 RETURN n.uid`,
		`MATCH (n:P {age: 41}) RETURN n.uid`,
		`MATCH (n:P) WHERE n.name = "cedar" RETURN count(*)`,
		`MATCH (n) WHERE n.age = 105 RETURN n.uid`,
	}
	var want [][]string
	for _, cfg := range propStoreConfigs() {
		g := propStoreGraph(t, 240)
		for _, s := range steps {
			if _, err := Query(g, s, nil, cfg); err != nil {
				t.Fatalf("step %s (cfg %+v): %v", s, cfg, err)
			}
		}
		var got [][]string
		for _, q := range checks {
			got = append(got, runSorted(t, g, q, cfg))
		}
		if want == nil {
			want = got
			continue
		}
		for i := range checks {
			if strings.Join(got[i], "\n") != strings.Join(want[i], "\n") {
				t.Fatalf("post-mutation mismatch on %s (cfg %+v):\nwant %v\ngot  %v",
					checks[i], cfg, want[i], got[i])
			}
		}
	}
}

// TestPropStoreWriteQueryReads pins what a query reads of a value it
// rewrites or deletes itself, in every grid cell: SET is visible to the
// RETURN after it, and a deleted node's properties read as null (its column
// cells are cleared in the burst, as its map was dropped before columns were
// the store). The write → WITH → MATCH cases put a scan (or a traversal mask)
// with a pushed predicate downstream of the write, so the predicate has to be
// compiled against what the burst left behind: a column that did not exist, a
// string that was not interned, a column the burst promoted to a typed
// layout. These are the plans the old plan.ReadOnly gate kept off the
// compiled path.
func TestPropStoreWriteQueryReads(t *testing.T) {
	cases := []struct {
		query string
		empty bool // run on an empty graph instead of propStoreGraph
		want  []string
	}{
		{query: `MATCH (n:P) WHERE n.age = 7 SET n.age = 700 RETURN n.uid, n.age`,
			want: []string{"n.uid,n.age", "104|700", "7|700"}},
		{query: `MATCH (n:P) WHERE n.uid < 5 DETACH DELETE n RETURN n.uid, n.name`,
			want: []string{"n.uid,n.name", "null|null", "null|null", "null|null", "null|null", "null|null"}},
		// New attribute, all-node scan: no column (not even an attribute ID)
		// exists before the burst.
		{query: `CREATE (a:X {v: 1}) WITH a MATCH (b {v: 1}) RETURN count(b)`, empty: true,
			want: []string{"count(b)", "1"}},
		{query: `CREATE (a:X {v: 1}) WITH a MATCH (b {v: 1}) RETURN count(b)`,
			want: []string{"count(b)", "1"}},
		// New attribute, label scan.
		{query: `CREATE (a:P {fresh: 1}) WITH a MATCH (b:P {fresh: 1}) RETURN count(b)`,
			want: []string{"count(b)", "1"}},
		// Newly interned string target, all-node scan and (:P(name) is indexed)
		// index scan with a pushed residual comparison.
		{query: `MATCH (n:P) WHERE n.uid = 3 SET n.name = "zelkova" WITH n MATCH (m) WHERE m.name = "zelkova" RETURN m.uid`,
			want: []string{"m.uid", "3"}},
		{query: `CREATE (a:P {name: "zelkova", uid: 777}) WITH a MATCH (b:P {name: "zelkova"}) WHERE b.uid > 700 RETURN b.uid`,
			want: []string{"b.uid", "777"}},
		// Kind change: flag is overflow-only (bools) until the burst stores an
		// int and promotes the column.
		{query: `MATCH (n:P) WHERE n.uid = 4 SET n.flag = 5 WITH n MATCH (m:P) WHERE m.flag = 5 RETURN m.uid`,
			want: []string{"m.uid", "4"}},
		// Kind change of one row in a typed column: the row moves to overflow.
		{query: `MATCH (n:P) WHERE n.uid = 4 SET n.uid = "four" WITH n MATCH (m:P) WHERE m.uid = "four" RETURN m.name`,
			want: []string{"m.name", "oak"}},
		// Traversal destination mask on an attribute the burst introduced
		// (node 0's only :E edge goes to node 1).
		{query: `MATCH (a:P)-[:E]->(b) WHERE a.uid = 0 SET b.tag = "t" WITH a MATCH (a)-[:E]->(c) WHERE c.tag = "t" RETURN c.uid`,
			want: []string{"c.uid", "1"}},
		// MERGE's create branch is a burst like any other.
		{query: `MERGE (n:P {fresh: 2}) WITH n MATCH (m:P {fresh: 2}) RETURN count(m)`,
			want: []string{"count(m)", "1"}},
	}
	for _, c := range cases {
		for _, cfg := range propStoreConfigs() {
			g := graph.New("empty")
			if !c.empty {
				g = propStoreGraph(t, 120)
			}
			got := runSorted(t, g, c.query, cfg)
			if strings.Join(got, "\n") != strings.Join(c.want, "\n") {
				t.Fatalf("write-query read mismatch on %s (cfg %+v):\nwant %v\ngot  %v", c.query, cfg, c.want, got)
			}
		}
	}
}

// TestExplainPushedPredicates checks EXPLAIN marks the scans whose
// predicates compile against columns — in read-only and write plans alike —
// and no longer names a property-store mode.
func TestExplainPushedPredicates(t *testing.T) {
	g := propStoreGraph(t, 60)
	for _, q := range []string{
		`MATCH (n:P) WHERE n.age > 40 RETURN n.uid`,
		`MATCH (n:P) WHERE n.age > 40 SET n.x = 1`,
	} {
		lines, err := Explain(g, q, Config{})
		if err != nil {
			t.Fatal(err)
		}
		plan := strings.Join(lines, "\n")
		if !strings.Contains(plan, "pushed: n.age > 40") {
			t.Fatalf("EXPLAIN missing the pushed predicate:\n%s", plan)
		}
		if strings.Contains(plan, "store:") {
			t.Fatalf("EXPLAIN must not name a store mode:\n%s", plan)
		}
	}
}
