package core

import (
	"strings"
	"testing"

	"redisgraph/internal/graph"
	"redisgraph/internal/value"
)

// socialGraph builds the fixture used across engine tests:
//
//	alice -KNOWS-> bob -KNOWS-> carol -KNOWS-> dave
//	alice -KNOWS-> carol
//	alice -WORKS_AT-> acme <-WORKS_AT- bob
func socialGraph(t *testing.T) *graph.Graph {
	t.Helper()
	g := graph.New("social")
	mustQ := func(q string) *ResultSet {
		t.Helper()
		rs, err := Query(g, q, nil, Config{})
		if err != nil {
			t.Fatalf("%s: %v", q, err)
		}
		return rs
	}
	mustQ(`CREATE (:Person {name: 'alice', age: 30})`)
	mustQ(`CREATE (:Person {name: 'bob', age: 40})`)
	mustQ(`CREATE (:Person {name: 'carol', age: 25})`)
	mustQ(`CREATE (:Person {name: 'dave', age: 35})`)
	mustQ(`CREATE (:Company {name: 'acme'})`)
	mustQ(`MATCH (a:Person {name:'alice'}), (b:Person {name:'bob'}) CREATE (a)-[:KNOWS {since: 2010}]->(b)`)
	mustQ(`MATCH (b:Person {name:'bob'}), (c:Person {name:'carol'}) CREATE (b)-[:KNOWS {since: 2012}]->(c)`)
	mustQ(`MATCH (c:Person {name:'carol'}), (d:Person {name:'dave'}) CREATE (c)-[:KNOWS]->(d)`)
	mustQ(`MATCH (a:Person {name:'alice'}), (c:Person {name:'carol'}) CREATE (a)-[:KNOWS]->(c)`)
	mustQ(`MATCH (a:Person {name:'alice'}), (co:Company) CREATE (a)-[:WORKS_AT]->(co)`)
	mustQ(`MATCH (b:Person {name:'bob'}), (co:Company) CREATE (b)-[:WORKS_AT]->(co)`)
	return g
}

func q(t *testing.T, g *graph.Graph, query string) *ResultSet {
	t.Helper()
	rs, err := Query(g, query, nil, Config{})
	if err != nil {
		t.Fatalf("%s: %v", query, err)
	}
	return rs
}

func singleInt(t *testing.T, rs *ResultSet) int64 {
	t.Helper()
	if len(rs.Rows) != 1 || len(rs.Rows[0]) != 1 {
		t.Fatalf("want single cell, got %v", rs.Rows)
	}
	if rs.Rows[0][0].Kind != value.KindInt {
		t.Fatalf("want integer, got %s", rs.Rows[0][0].Kind)
	}
	return rs.Rows[0][0].Int()
}

func TestCreateStatistics(t *testing.T) {
	g := graph.New("t")
	rs, err := Query(g, `CREATE (:A {x: 1})-[:R]->(:B)`, nil, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if rs.Stats.NodesCreated != 2 || rs.Stats.RelationshipsCreated != 1 ||
		rs.Stats.PropertiesSet != 1 || rs.Stats.LabelsAdded != 2 {
		t.Fatalf("stats: %+v", rs.Stats)
	}
	if g.NodeCount() != 2 || g.EdgeCount() != 1 {
		t.Fatalf("graph: %d nodes %d edges", g.NodeCount(), g.EdgeCount())
	}
}

func TestMatchAllNodes(t *testing.T) {
	g := socialGraph(t)
	rs := q(t, g, `MATCH (n) RETURN count(n)`)
	if got := singleInt(t, rs); got != 5 {
		t.Fatalf("count = %d, want 5", got)
	}
}

func TestMatchByLabel(t *testing.T) {
	g := socialGraph(t)
	if got := singleInt(t, q(t, g, `MATCH (n:Person) RETURN count(n)`)); got != 4 {
		t.Fatalf("persons = %d", got)
	}
	if got := singleInt(t, q(t, g, `MATCH (n:Company) RETURN count(n)`)); got != 1 {
		t.Fatalf("companies = %d", got)
	}
	// Unknown label matches nothing.
	if got := singleInt(t, q(t, g, `MATCH (n:Nope) RETURN count(n)`)); got != 0 {
		t.Fatalf("unknown label = %d", got)
	}
}

func TestOneHopTraversal(t *testing.T) {
	g := socialGraph(t)
	rs := q(t, g, `MATCH (a:Person {name:'alice'})-[:KNOWS]->(b) RETURN b.name ORDER BY b.name`)
	if len(rs.Rows) != 2 || rs.Rows[0][0].Str() != "bob" || rs.Rows[1][0].Str() != "carol" {
		t.Fatalf("rows: %v", rs.Rows)
	}
}

func TestIncomingTraversal(t *testing.T) {
	g := socialGraph(t)
	rs := q(t, g, `MATCH (c:Person {name:'carol'})<-[:KNOWS]-(x) RETURN x.name ORDER BY x.name`)
	if len(rs.Rows) != 2 || rs.Rows[0][0].Str() != "alice" || rs.Rows[1][0].Str() != "bob" {
		t.Fatalf("rows: %v", rs.Rows)
	}
}

func TestUndirectedTraversal(t *testing.T) {
	g := socialGraph(t)
	rs := q(t, g, `MATCH (b:Person {name:'bob'})-[:KNOWS]-(x) RETURN x.name ORDER BY x.name`)
	// bob knows carol; alice knows bob.
	if len(rs.Rows) != 2 || rs.Rows[0][0].Str() != "alice" || rs.Rows[1][0].Str() != "carol" {
		t.Fatalf("rows: %v", rs.Rows)
	}
}

func TestTwoHopChain(t *testing.T) {
	g := socialGraph(t)
	rs := q(t, g, `MATCH (a:Person {name:'alice'})-[:KNOWS]->()-[:KNOWS]->(c) RETURN DISTINCT c.name ORDER BY c.name`)
	if len(rs.Rows) != 2 || rs.Rows[0][0].Str() != "carol" || rs.Rows[1][0].Str() != "dave" {
		t.Fatalf("rows: %v", rs.Rows)
	}
}

func TestVarLengthKHop(t *testing.T) {
	g := socialGraph(t)
	// Distinct nodes within 1..2 hops of alice: bob, carol (1 hop), dave (2).
	if got := singleInt(t, q(t, g, `MATCH (a:Person {name:'alice'})-[:KNOWS*1..2]->(n) RETURN count(n)`)); got != 3 {
		t.Fatalf("2-hop = %d, want 3", got)
	}
	// 1..1 equals direct neighbours.
	if got := singleInt(t, q(t, g, `MATCH (a:Person {name:'alice'})-[:KNOWS*1..1]->(n) RETURN count(n)`)); got != 2 {
		t.Fatalf("1-hop = %d, want 2", got)
	}
	// Unbounded reaches everyone.
	if got := singleInt(t, q(t, g, `MATCH (a:Person {name:'alice'})-[:KNOWS*]->(n) RETURN count(n)`)); got != 3 {
		t.Fatalf("∞-hop = %d, want 3", got)
	}
	// Fixed *2 emits only depth-2 nodes (carol is reached at depth 1, so
	// only dave is newly reached at depth 2).
	if got := singleInt(t, q(t, g, `MATCH (a:Person {name:'alice'})-[:KNOWS*2]->(n) RETURN count(n)`)); got != 1 {
		t.Fatalf("exactly-2 = %d, want 1", got)
	}
}

func TestEdgeVariableAndProperties(t *testing.T) {
	g := socialGraph(t)
	rs := q(t, g, `MATCH (:Person {name:'alice'})-[r:KNOWS]->(b) WHERE r.since = 2010 RETURN b.name, type(r)`)
	if len(rs.Rows) != 1 || rs.Rows[0][0].Str() != "bob" || rs.Rows[0][1].Str() != "KNOWS" {
		t.Fatalf("rows: %v", rs.Rows)
	}
}

func TestWhereFilters(t *testing.T) {
	g := socialGraph(t)
	rs := q(t, g, `MATCH (n:Person) WHERE n.age > 28 AND n.name <> 'dave' RETURN n.name ORDER BY n.age DESC`)
	if len(rs.Rows) != 2 || rs.Rows[0][0].Str() != "bob" || rs.Rows[1][0].Str() != "alice" {
		t.Fatalf("rows: %v", rs.Rows)
	}
}

func TestAggregates(t *testing.T) {
	g := socialGraph(t)
	rs := q(t, g, `MATCH (n:Person) RETURN count(n), sum(n.age), avg(n.age), min(n.age), max(n.age)`)
	row := rs.Rows[0]
	if row[0].Int() != 4 || row[1].Int() != 130 || row[2].Float() != 32.5 ||
		row[3].Int() != 25 || row[4].Int() != 40 {
		t.Fatalf("row: %v", row)
	}
}

func TestGroupedAggregation(t *testing.T) {
	g := socialGraph(t)
	rs := q(t, g, `MATCH (a:Person)-[:KNOWS]->(b) RETURN a.name, count(b) ORDER BY a.name`)
	if len(rs.Rows) != 3 {
		t.Fatalf("rows: %v", rs.Rows)
	}
	want := map[string]int64{"alice": 2, "bob": 1, "carol": 1}
	for _, row := range rs.Rows {
		if want[row[0].Str()] != row[1].Int() {
			t.Fatalf("group %s = %d", row[0].Str(), row[1].Int())
		}
	}
}

func TestCollectDistinct(t *testing.T) {
	g := socialGraph(t)
	rs := q(t, g, `MATCH (:Person)-[:WORKS_AT]->(c) RETURN count(DISTINCT c)`)
	if got := singleInt(t, rs); got != 1 {
		t.Fatalf("distinct companies = %d", got)
	}
	rs = q(t, g, `MATCH (p:Person)-[:KNOWS]->() RETURN collect(DISTINCT p.name)`)
	if len(rs.Rows) != 1 || len(rs.Rows[0][0].Array()) != 3 {
		t.Fatalf("collect: %v", rs.Rows)
	}
}

func TestSkipLimit(t *testing.T) {
	g := socialGraph(t)
	rs := q(t, g, `MATCH (n:Person) RETURN n.name ORDER BY n.name SKIP 1 LIMIT 2`)
	if len(rs.Rows) != 2 || rs.Rows[0][0].Str() != "bob" || rs.Rows[1][0].Str() != "carol" {
		t.Fatalf("rows: %v", rs.Rows)
	}
}

func TestWithPipeline(t *testing.T) {
	g := socialGraph(t)
	rs := q(t, g, `MATCH (a:Person)-[:KNOWS]->(b) WITH a, count(b) AS friends WHERE friends > 1 RETURN a.name, friends`)
	if len(rs.Rows) != 1 || rs.Rows[0][0].Str() != "alice" || rs.Rows[0][1].Int() != 2 {
		t.Fatalf("rows: %v", rs.Rows)
	}
}

func TestUnwind(t *testing.T) {
	g := graph.New("t")
	rs := q(t, g, `UNWIND [1, 2, 3] AS x RETURN x * 10 ORDER BY x`)
	if len(rs.Rows) != 3 || rs.Rows[2][0].Int() != 30 {
		t.Fatalf("rows: %v", rs.Rows)
	}
	rs = q(t, g, `UNWIND range(1, 5) AS x RETURN sum(x)`)
	if got := singleInt(t, rs); got != 15 {
		t.Fatalf("sum = %d", got)
	}
}

func TestSetProperty(t *testing.T) {
	g := socialGraph(t)
	rs := q(t, g, `MATCH (n:Person {name:'alice'}) SET n.age = 31 RETURN n.age`)
	if rs.Stats.PropertiesSet != 1 || rs.Rows[0][0].Int() != 31 {
		t.Fatalf("set: %+v %v", rs.Stats, rs.Rows)
	}
}

func TestDeleteEdgeAndNode(t *testing.T) {
	g := socialGraph(t)
	rs := q(t, g, `MATCH (:Person {name:'carol'})-[r:KNOWS]->(:Person {name:'dave'}) DELETE r`)
	if rs.Stats.RelationshipsDeleted != 1 {
		t.Fatalf("stats: %+v", rs.Stats)
	}
	if got := singleInt(t, q(t, g, `MATCH (:Person {name:'carol'})-[:KNOWS]->(n) RETURN count(n)`)); got != 0 {
		t.Fatalf("carol still has out-edges: %d", got)
	}
	// dave now has no relationships; plain DELETE is fine.
	rs = q(t, g, `MATCH (n:Person {name:'dave'}) DELETE n`)
	if rs.Stats.NodesDeleted != 1 {
		t.Fatalf("stats: %+v", rs.Stats)
	}
	// DETACH DELETE removes bob and his 3 edges.
	rs = q(t, g, `MATCH (n:Person {name:'bob'}) DETACH DELETE n`)
	if rs.Stats.NodesDeleted != 1 || rs.Stats.RelationshipsDeleted != 3 {
		t.Fatalf("stats: %+v", rs.Stats)
	}
	if got := singleInt(t, q(t, g, `MATCH (n:Person) RETURN count(n)`)); got != 2 {
		t.Fatalf("persons left = %d", got)
	}
}

func TestDeleteWithoutDetachFails(t *testing.T) {
	g := socialGraph(t)
	if _, err := Query(g, `MATCH (n:Person {name:'alice'}) DELETE n`, nil, Config{}); err == nil {
		t.Fatal("want error deleting connected node without DETACH")
	}
}

func TestMerge(t *testing.T) {
	g := socialGraph(t)
	// Existing: no creation.
	rs := q(t, g, `MERGE (n:Person {name:'alice'}) RETURN n.age`)
	if rs.Stats.NodesCreated != 0 || rs.Rows[0][0].Int() != 30 {
		t.Fatalf("merge existing: %+v %v", rs.Stats, rs.Rows)
	}
	// Missing: created.
	rs = q(t, g, `MERGE (n:Person {name:'eve'}) RETURN n.name`)
	if rs.Stats.NodesCreated != 1 || rs.Rows[0][0].Str() != "eve" {
		t.Fatalf("merge new: %+v %v", rs.Stats, rs.Rows)
	}
}

func TestIndexScanUsedAndCorrect(t *testing.T) {
	g := socialGraph(t)
	rs := q(t, g, `CREATE INDEX ON :Person(name)`)
	if rs.Stats.IndicesCreated != 1 {
		t.Fatalf("stats: %+v", rs.Stats)
	}
	lines, err := Explain(g, `MATCH (n:Person {name:'bob'}) RETURN n`, Config{})
	if err != nil {
		t.Fatal(err)
	}
	joined := strings.Join(lines, "\n")
	if !strings.Contains(joined, "NodeByIndexScan") {
		t.Fatalf("plan does not use index:\n%s", joined)
	}
	rs = q(t, g, `MATCH (n:Person {name:'bob'}) RETURN n.age`)
	if len(rs.Rows) != 1 || rs.Rows[0][0].Int() != 40 {
		t.Fatalf("rows: %v", rs.Rows)
	}
	// Index stays consistent after updates.
	q(t, g, `MATCH (n:Person {name:'bob'}) SET n.name = 'robert'`)
	if got := singleInt(t, q(t, g, `MATCH (n:Person {name:'bob'}) RETURN count(n)`)); got != 0 {
		t.Fatalf("stale index entry: %d", got)
	}
	if got := singleInt(t, q(t, g, `MATCH (n:Person {name:'robert'}) RETURN count(n)`)); got != 1 {
		t.Fatalf("missing index entry: %d", got)
	}
	// Drop index; query still works via label scan.
	rs = q(t, g, `DROP INDEX ON :Person(name)`)
	if rs.Stats.IndicesDeleted != 1 {
		t.Fatalf("stats: %+v", rs.Stats)
	}
	if got := singleInt(t, q(t, g, `MATCH (n:Person {name:'robert'}) RETURN count(n)`)); got != 1 {
		t.Fatalf("post-drop: %d", got)
	}
}

func TestExpandIntoCycle(t *testing.T) {
	g := socialGraph(t)
	// Triangle test: alice->bob->carol and alice->carol closes the triangle.
	rs := q(t, g, `MATCH (a:Person)-[:KNOWS]->(b)-[:KNOWS]->(c), (a)-[:KNOWS]->(c) RETURN a.name, c.name`)
	if len(rs.Rows) != 1 || rs.Rows[0][0].Str() != "alice" || rs.Rows[0][1].Str() != "carol" {
		t.Fatalf("rows: %v", rs.Rows)
	}
}

func TestOptionalMatch(t *testing.T) {
	g := socialGraph(t)
	rs := q(t, g, `MATCH (n:Person) OPTIONAL MATCH (n)-[:WORKS_AT]->(c) RETURN n.name, c ORDER BY n.name`)
	if len(rs.Rows) != 4 {
		t.Fatalf("rows: %v", rs.Rows)
	}
	// carol and dave have no employer → null.
	if !rs.Rows[2][1].IsNull() || !rs.Rows[3][1].IsNull() {
		t.Fatalf("expected nulls: %v", rs.Rows)
	}
	if rs.Rows[0][1].IsNull() || rs.Rows[1][1].IsNull() {
		t.Fatalf("expected employers: %v", rs.Rows)
	}
}

func TestROQueryRejectsWrites(t *testing.T) {
	g := socialGraph(t)
	if _, err := ROQuery(g, `CREATE (:X)`, nil, Config{}); err == nil {
		t.Fatal("want error for write in RO query")
	}
	rs, err := ROQuery(g, `MATCH (n) RETURN count(n)`, nil, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if singleInt(t, rs) != 5 {
		t.Fatal("RO count wrong")
	}
}

func TestParameters(t *testing.T) {
	g := socialGraph(t)
	rs, err := Query(g, `MATCH (n:Person) WHERE n.name = $who RETURN n.age`,
		map[string]value.Value{"who": value.NewString("carol")}, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if rs.Rows[0][0].Int() != 25 {
		t.Fatalf("rows: %v", rs.Rows)
	}
	if _, err := Query(g, `RETURN $missing`, nil, Config{}); err == nil {
		t.Fatal("want missing-parameter error")
	}
}

func TestExplainShowsAlgebraicExpression(t *testing.T) {
	g := socialGraph(t)
	lines, err := Explain(g, `MATCH (a:Person {name:'alice'})-[:KNOWS*1..2]->(n) RETURN count(n)`, Config{})
	if err != nil {
		t.Fatal(err)
	}
	joined := strings.Join(lines, "\n")
	for _, want := range []string{"TraverseCount", "VarLenTraverse", "KNOWS", "[1..2]"} {
		if !strings.Contains(joined, want) {
			t.Fatalf("EXPLAIN missing %q:\n%s", want, joined)
		}
	}
}

func TestProfileCountsRecords(t *testing.T) {
	g := socialGraph(t)
	lines, err := Profile(g, `MATCH (n:Person) RETURN count(n)`, nil, Config{})
	if err != nil {
		t.Fatal(err)
	}
	joined := strings.Join(lines, "\n")
	if !strings.Contains(joined, "Records produced") {
		t.Fatalf("profile output:\n%s", joined)
	}
}

func TestScalarFunctions(t *testing.T) {
	g := graph.New("t")
	rs := q(t, g, `RETURN abs(-4), toUpper('ab'), size('hello'), coalesce(null, 7), head([3,2,1])`)
	row := rs.Rows[0]
	if row[0].Int() != 4 || row[1].Str() != "AB" || row[2].Int() != 5 ||
		row[3].Int() != 7 || row[4].Int() != 3 {
		t.Fatalf("row: %v", row)
	}
}

func TestStringPredicates(t *testing.T) {
	g := socialGraph(t)
	if got := singleInt(t, q(t, g, `MATCH (n:Person) WHERE n.name STARTS WITH 'a' RETURN count(n)`)); got != 1 {
		t.Fatalf("starts = %d", got)
	}
	if got := singleInt(t, q(t, g, `MATCH (n:Person) WHERE n.name CONTAINS 'o' RETURN count(n)`)); got != 2 {
		t.Fatalf("contains = %d", got)
	}
	if got := singleInt(t, q(t, g, `MATCH (n:Person) WHERE n.name IN ['bob', 'dave'] RETURN count(n)`)); got != 2 {
		t.Fatalf("in = %d", got)
	}
}

func TestNullSemantics(t *testing.T) {
	g := socialGraph(t)
	// Missing property comparisons are null → filtered out.
	if got := singleInt(t, q(t, g, `MATCH (n) WHERE n.age > 0 RETURN count(n)`)); got != 4 {
		t.Fatalf("null filter = %d", got)
	}
	if got := singleInt(t, q(t, g, `MATCH (n) WHERE n.age IS NULL RETURN count(n)`)); got != 1 {
		t.Fatalf("is null = %d", got)
	}
}

func TestMultiplePatternsCartesian(t *testing.T) {
	g := socialGraph(t)
	if got := singleInt(t, q(t, g, `MATCH (a:Person), (b:Company) RETURN count(*)`)); got != 4 {
		t.Fatalf("cartesian = %d", got)
	}
}

func TestIDFunctionAndDegrees(t *testing.T) {
	g := socialGraph(t)
	rs := q(t, g, `MATCH (n:Person {name:'alice'}) RETURN id(n), outdegree(n), indegree(n)`)
	row := rs.Rows[0]
	if row[0].Int() != 0 || row[1].Int() != 3 || row[2].Int() != 0 {
		t.Fatalf("row: %v", row)
	}
}

func TestLabelsFunction(t *testing.T) {
	g := socialGraph(t)
	rs := q(t, g, `MATCH (c:Company) RETURN labels(c)`)
	arr := rs.Rows[0][0].Array()
	if len(arr) != 1 || arr[0].Str() != "Company" {
		t.Fatalf("labels: %v", arr)
	}
}

// TestPathFunctionsAreUnknown pins that the engine has no path values: the
// path functions nodes() and relationships() are unknown functions, not
// functions that return null.
func TestPathFunctionsAreUnknown(t *testing.T) {
	g := socialGraph(t)
	for _, fn := range []string{"nodes", "relationships"} {
		query := `MATCH (n:Person) RETURN ` + fn + `(n)`
		_, err := Query(g, query, nil, Config{})
		if err == nil || !strings.Contains(err.Error(), "unknown function "+fn+"()") {
			t.Fatalf("%s: err %v, want unknown function %s()", query, err, fn)
		}
	}
}
