package core

import (
	"strings"
	"sync"
	"testing"

	"redisgraph/internal/graph"
)

func TestSelfLoopTraversal(t *testing.T) {
	g := graph.New("t")
	q(t, g, `CREATE (n:N {uid: 1})`)
	q(t, g, `MATCH (n:N) CREATE (n)-[:R]->(n)`)
	if got := singleInt(t, q(t, g, `MATCH (a:N)-[:R]->(b) RETURN count(b)`)); got != 1 {
		t.Fatalf("self loop out: %d", got)
	}
	// Undirected traversal of a self loop yields the node once per edge.
	if got := singleInt(t, q(t, g, `MATCH (a:N)-[:R]-(b) RETURN count(b)`)); got != 1 {
		t.Fatalf("self loop both: %d", got)
	}
}

func TestMultiTypeAlternation(t *testing.T) {
	g := socialGraph(t)
	rs := q(t, g, `MATCH (a:Person {name:'alice'})-[:KNOWS|WORKS_AT]->(x) RETURN count(x)`)
	if got := singleInt(t, rs); got != 3 { // bob, carol, acme
		t.Fatalf("alternation = %d", got)
	}
}

func TestMultiLabelNode(t *testing.T) {
	g := graph.New("t")
	q(t, g, `CREATE (:A:B {x: 1})`)
	q(t, g, `CREATE (:A {x: 2})`)
	if got := singleInt(t, q(t, g, `MATCH (n:A) RETURN count(n)`)); got != 2 {
		t.Fatalf("A = %d", got)
	}
	if got := singleInt(t, q(t, g, `MATCH (n:A:B) RETURN count(n)`)); got != 1 {
		t.Fatalf("A:B = %d", got)
	}
	if got := singleInt(t, q(t, g, `MATCH (n:B:A) RETURN count(n)`)); got != 1 {
		t.Fatalf("B:A = %d", got)
	}
}

func TestReturnStarExpansion(t *testing.T) {
	g := socialGraph(t)
	rs := q(t, g, `MATCH (a:Person {name:'alice'})-[:WORKS_AT]->(c) RETURN *`)
	if len(rs.Columns) != 2 || len(rs.Rows) != 1 {
		t.Fatalf("star: %v %v", rs.Columns, rs.Rows)
	}
}

func TestListIndexingInQuery(t *testing.T) {
	g := graph.New("t")
	rs := q(t, g, `RETURN [10, 20, 30][1], [10, 20, 30][-1], [1][9]`)
	row := rs.Rows[0]
	if row[0].Int() != 20 || row[1].Int() != 30 || !row[2].IsNull() {
		t.Fatalf("row: %v", row)
	}
}

func TestUndirectedEdgeVariable(t *testing.T) {
	g := socialGraph(t)
	// Each undirected match binds the actual edge regardless of direction.
	rs := q(t, g, `MATCH (b:Person {name:'bob'})-[r:KNOWS]-(x) RETURN type(r), x.name ORDER BY x.name`)
	if len(rs.Rows) != 2 {
		t.Fatalf("rows: %v", rs.Rows)
	}
	for _, row := range rs.Rows {
		if row[0].Str() != "KNOWS" {
			t.Fatalf("type: %v", row)
		}
	}
}

func TestWithOrderLimitPipeline(t *testing.T) {
	g := socialGraph(t)
	rs := q(t, g, `MATCH (n:Person) WITH n ORDER BY n.age DESC LIMIT 2 RETURN n.name ORDER BY n.name`)
	if len(rs.Rows) != 2 || rs.Rows[0][0].Str() != "bob" || rs.Rows[1][0].Str() != "dave" {
		t.Fatalf("rows: %v", rs.Rows)
	}
}

func TestAggregateOverEmptyMatch(t *testing.T) {
	g := graph.New("t")
	q(t, g, `CREATE (:N)`)
	rs := q(t, g, `MATCH (n:Missing) RETURN count(n)`)
	if got := singleInt(t, rs); got != 0 {
		t.Fatalf("count = %d", got)
	}
	// Grouped aggregation over nothing yields no rows.
	rs = q(t, g, `MATCH (n:Missing) RETURN n.x, count(n)`)
	if len(rs.Rows) != 0 {
		t.Fatalf("rows: %v", rs.Rows)
	}
}

func TestXorAndStringFunctions(t *testing.T) {
	g := graph.New("t")
	rs := q(t, g, `RETURN true XOR false, true XOR true, toLower('AbC'), trim('  x ')`)
	row := rs.Rows[0]
	if !row[0].Bool() || row[1].Bool() || row[2].Str() != "abc" || row[3].Str() != "x" {
		t.Fatalf("row: %v", row)
	}
}

func TestVarLenZeroMin(t *testing.T) {
	g := socialGraph(t)
	// *0..1 includes the start node itself.
	rs := q(t, g, `MATCH (a:Person {name:'alice'})-[:KNOWS*0..1]->(n) RETURN count(n)`)
	if got := singleInt(t, rs); got != 3 { // alice + bob + carol
		t.Fatalf("0..1 = %d", got)
	}
}

func TestUnboundedVarLenOnCycleTerminates(t *testing.T) {
	g := graph.New("t")
	q(t, g, `CREATE (a:N {uid: 0})-[:R]->(b:N {uid: 1})-[:R]->(c:N {uid: 2})`)
	q(t, g, `MATCH (c:N {uid: 2}), (a:N {uid: 0}) CREATE (c)-[:R]->(a)`)
	// Variable-length expansion uses BFS reached-set semantics (the k-hop
	// distinct-neighbour count of the paper's benchmark): the traversal
	// terminates on the cycle and the seed is never re-reported, so the
	// reachable set is {1, 2}, not {0, 1, 2}.
	if got := singleInt(t, q(t, g, `MATCH (a:N {uid: 0})-[:R*]->(n) RETURN count(n)`)); got != 2 {
		t.Fatalf("cycle reach = %d, want 2", got)
	}
}

func TestConcurrentReadOnlyQueries(t *testing.T) {
	g := socialGraph(t)
	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 50; j++ {
				rs, err := ROQuery(g, `MATCH (a:Person {name:'alice'})-[:KNOWS*1..3]->(n) RETURN count(n)`, nil, Config{})
				if err != nil || rs.Rows[0][0].Int() != 3 {
					t.Errorf("concurrent RO: %v %v", rs, err)
					return
				}
			}
		}()
	}
	wg.Wait()
}

func TestPlanErrors(t *testing.T) {
	g := socialGraph(t)
	for _, query := range []string{
		`MATCH (n) RETURN m`,                            // unbound variable
		`MATCH (a)-[r*1..2]->(b) RETURN r`,              // varlen edge variable
		`MATCH (n) RETURN count(n) ORDER BY n.nope + 1`, // non-column order after aggregate
		`CREATE (a)-[:R]-(b)`,                           // undirected create
		`CREATE (a)-[:R|S]->(b)`,                        // multi-type create
		`MATCH (n) RETURN n MATCH (m) RETURN m`,         // clause after RETURN
		`SET n.x = 1`,                                   // SET without MATCH
		`DELETE n`,                                      // DELETE without MATCH
		`RETURN sum(1) + 1`,                             // nested aggregate expression
		`MATCH (n) WHERE count(n) > 1 RETURN n`,         // aggregate in WHERE
	} {
		if _, err := Query(g, query, nil, Config{}); err == nil {
			t.Fatalf("%q: expected error", query)
		}
	}
}

func TestMergeRelationshipPattern(t *testing.T) {
	g := graph.New("t")
	rs := q(t, g, `MERGE (a:U {uid: 1})-[:R]->(b:U {uid: 2})`)
	if rs.Stats.NodesCreated != 2 || rs.Stats.RelationshipsCreated != 1 {
		t.Fatalf("first merge: %+v", rs.Stats)
	}
	rs = q(t, g, `MERGE (a:U {uid: 1})-[:R]->(b:U {uid: 2})`)
	if rs.Stats.NodesCreated != 0 || rs.Stats.RelationshipsCreated != 0 {
		t.Fatalf("second merge: %+v", rs.Stats)
	}
}

func TestExplainTransposedTraversal(t *testing.T) {
	g := socialGraph(t)
	lines, err := Explain(g, `MATCH (c:Person)<-[:KNOWS]-(x) RETURN count(x)`, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(strings.Join(lines, "\n"), "ᵀ") {
		t.Fatalf("expected transposed operand in plan:\n%v", lines)
	}
}

// TestUnknownLabelBelowWrite: labels and relationship types bind when the
// plan runs, so a name that does not exist at plan time reads as "no
// entries" — and a write earlier in the same query that creates it is seen.
// Nothing planned below a hop or scan over an unknown name is skipped: its
// writes happen and an OPTIONAL MATCH still emits its null rows. Every case
// runs on a fresh graph in every configuration; after, when set, reads the
// graph back with the same configuration.
func TestUnknownLabelBelowWrite(t *testing.T) {
	cases := []struct {
		setup, query string
		rows         string // rows in order, "|" between cells, "; " between rows
		stats        Statistics
		err          string // expected error substring (rows and stats unused)
		after, again string // a read-back query and its rows
	}{
		{query: `CREATE (:X) WITH 1 AS one MATCH (b:X) RETURN count(b)`, rows: "1",
			stats: Statistics{LabelsAdded: 1, NodesCreated: 1},
			after: `CREATE (:X) WITH 1 AS one MATCH (b:X) RETURN count(b)`, again: "2"},
		{query: `CREATE (:X:Y) WITH 1 AS o MATCH (b:X:Y) RETURN count(b)`, rows: "1",
			stats: Statistics{LabelsAdded: 2, NodesCreated: 1}},
		{query: `CREATE ()-[:R]->() WITH 1 AS o MATCH ()-[:R]->(m) RETURN count(m)`, rows: "1",
			stats: Statistics{NodesCreated: 2, RelationshipsCreated: 1}},
		{query: `CREATE ()-[:R]->(:D) WITH 1 AS o MATCH ()-[:R]->(m:D) RETURN count(m)`, rows: "1",
			stats: Statistics{LabelsAdded: 1, NodesCreated: 2, RelationshipsCreated: 1}},
		{setup: `CREATE (:P)-[:K]->(:P)`,
			query: `CREATE (:P)-[:S]->(:Q) WITH 1 AS o MATCH (c:P)-[:K|S]->(d) RETURN count(d)`, rows: "2",
			stats: Statistics{LabelsAdded: 1, NodesCreated: 2, RelationshipsCreated: 1}},
		{setup: `CREATE (:P)-[:K]->(:P)`,
			query: `CREATE (:P)-[:S]->(:Q) WITH 1 AS o MATCH (c:P)-[:S*1..2]->(d) RETURN count(d)`, rows: "1",
			stats: Statistics{LabelsAdded: 1, NodesCreated: 2, RelationshipsCreated: 1}},
		{setup: `CREATE (:P {v: 1}), (:P {v: 2})`,
			query: `MATCH (a:P) OPTIONAL MATCH (a)-[:NOPE]->(b) RETURN a.v, b ORDER BY a.v`, rows: "1|null; 2|null"},
		{setup: `CREATE (:P {v: 1})-[:K]->(:P {v: 2})`,
			query: `MATCH (a:P) OPTIONAL MATCH (a)-[:K]->(b:NOPE) RETURN a.v, b ORDER BY a.v`, rows: "1|null; 2|null"},
		{setup: `CREATE (:P), (:P)`,
			query: `MATCH (n:P) DETACH DELETE n WITH 1 AS o MATCH (x)-[:NOPE]->(y) RETURN count(y)`, rows: "0",
			stats: Statistics{NodesDeleted: 2},
			after: `MATCH (n) RETURN count(n)`, again: "0"},
		{query: `CREATE (n:P) WITH n MATCH (n:Q) RETURN count(n)`, rows: "0",
			stats: Statistics{LabelsAdded: 1, NodesCreated: 1},
			after: `MATCH (n:P) RETURN count(n)`, again: "1"},
		{setup: `CREATE (:P {v: 1})`,
			query: `MATCH (n:P) SET n.w = 1 WITH n MATCH (n)-[:NOPE]->(m) RETURN count(m)`, rows: "0",
			stats: Statistics{PropertiesSet: 1},
			after: `MATCH (n:P) RETURN n.w`, again: "1"},
		{setup: `CREATE (:P {v: 1})`,
			query: `MATCH (n:P) OPTIONAL MATCH (n)-[:NOPE*1..2]->(m) RETURN n.v`,
			err:   "OPTIONAL MATCH with variable-length relationships is not supported"},
	}
	render := func(rs *ResultSet) string {
		rows := make([]string, len(rs.Rows))
		for i, row := range rs.Rows {
			cells := make([]string, len(row))
			for j, v := range row {
				cells[j] = v.String()
			}
			rows[i] = strings.Join(cells, "|")
		}
		return strings.Join(rows, "; ")
	}
	for _, cached := range []bool{false, true} {
		for _, batch := range []int{1, 64} {
			for _, textual := range []bool{false, true} {
				for _, noPushdown := range []bool{false, true} {
					for _, c := range cases {
						g := graph.New("t")
						if c.setup != "" {
							q(t, g, c.setup)
						}
						cfg := Config{batch: batch, noCostPlanner: textual, noPushdown: noPushdown}
						if cached {
							cfg.PlanCache = NewPlanCache(DefaultPlanCacheSize)
						}
						rs, err := Query(g, c.query, nil, cfg)
						if c.err != "" {
							if err == nil || !strings.Contains(err.Error(), c.err) {
								t.Errorf("cfg=%+v %s: err = %v, want %q", cfg, c.query, err, c.err)
							}
							continue
						}
						if err != nil {
							t.Fatalf("cfg=%+v %s: %v", cfg, c.query, err)
						}
						rs.Stats.ExecutionTime = 0
						if got := render(rs); got != c.rows || rs.Stats != c.stats {
							t.Errorf("cfg=%+v %s:\nrows %q stats %+v\nwant %q stats %+v", cfg, c.query, got, rs.Stats, c.rows, c.stats)
						}
						if c.after == "" {
							continue
						}
						rs, err = Query(g, c.after, nil, cfg)
						if err != nil {
							t.Fatalf("cfg=%+v %s: %v", cfg, c.after, err)
						}
						if got := render(rs); got != c.again {
							t.Errorf("cfg=%+v after %s: %s = %q, want %q", cfg, c.query, c.after, got, c.again)
						}
					}
				}
			}
		}
	}
	// With nothing that could create it, an unknown label is still a scan by
	// name, estimated empty.
	g := graph.New("t")
	lines, err := Explain(g, `MATCH (b:X) RETURN b`, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if plan := strings.Join(lines, "\n"); !strings.Contains(plan, "NodeByLabelScan | b:X | est: 0 rows") {
		t.Errorf("unknown label must plan as a scan by name at est 0:\n%s", plan)
	}
	if got := singleInt(t, q(t, g, `MATCH (b:X) RETURN count(b)`)); got != 0 {
		t.Errorf("count over an unknown label = %d, want 0", got)
	}
}
