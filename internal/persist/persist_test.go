package persist

import (
	"bufio"
	"bytes"
	"fmt"
	"os"
	"strings"
	"testing"

	"redisgraph/internal/core"
	"redisgraph/internal/graph"
	"redisgraph/internal/value"
)

func buildSample(t *testing.T) *graph.Graph {
	t.Helper()
	g := graph.New("sample")
	run := func(q string) {
		t.Helper()
		if _, err := core.Query(g, q, nil, core.Config{}); err != nil {
			t.Fatalf("%s: %v", q, err)
		}
	}
	run(`CREATE (:Person {name: 'alice', age: 30, tags: ['x', 1, 2.5, true, null]})`)
	run(`CREATE (:Person {name: 'bob'})`)
	run(`CREATE (:Person {name: 'gone'})`)
	run(`CREATE (:City {name: 'rome'})`)
	run(`MATCH (a:Person {name:'alice'}), (b:Person {name:'bob'}) CREATE (a)-[:KNOWS {since: 2010}]->(b)`)
	run(`MATCH (a:Person {name:'alice'}), (c:City) CREATE (a)-[:VISITED]->(c)`)
	run(`MATCH (b:Person {name:'bob'}), (c:City) CREATE (b)-[:VISITED {year: 2020}]->(c)`)
	// Leave holes in both ID spaces.
	run(`MATCH (n:Person {name:'gone'}) DETACH DELETE n`)
	run(`MATCH (a:Person {name:'alice'})-[r:VISITED]->() DELETE r`)
	run(`CREATE INDEX ON :Person(name)`)
	return g
}

func roundTrip(t *testing.T, g *graph.Graph) *graph.Graph {
	t.Helper()
	var buf bytes.Buffer
	g.RLock()
	err := Save(g, &buf)
	g.RUnlock()
	if err != nil {
		t.Fatal(err)
	}
	g2, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	return g2
}

func TestRoundTripPreservesEverything(t *testing.T) {
	g := buildSample(t)
	g2 := roundTrip(t, g)

	if g2.Name != "sample" {
		t.Fatalf("name: %s", g2.Name)
	}
	if g2.NodeCount() != g.NodeCount() || g2.EdgeCount() != g.EdgeCount() {
		t.Fatalf("counts: %d/%d vs %d/%d", g2.NodeCount(), g2.EdgeCount(), g.NodeCount(), g.EdgeCount())
	}
	// Same IDs for surviving entities.
	var ids, ids2 []uint64
	g.ForEachNode(func(n *graph.Node) bool { ids = append(ids, n.ID); return true })
	g2.ForEachNode(func(n *graph.Node) bool { ids2 = append(ids2, n.ID); return true })
	if len(ids) != len(ids2) {
		t.Fatalf("id sets differ: %v vs %v", ids, ids2)
	}
	for i := range ids {
		if ids[i] != ids2[i] {
			t.Fatalf("id sets differ: %v vs %v", ids, ids2)
		}
	}
	// Properties (including nested arrays) survive.
	q := func(g *graph.Graph, query string) *core.ResultSet {
		rs, err := core.Query(g, query, nil, core.Config{})
		if err != nil {
			t.Fatalf("%s: %v", query, err)
		}
		return rs
	}
	rs := q(g2, `MATCH (n:Person {name:'alice'}) RETURN n.age, n.tags`)
	if rs.Rows[0][0].Int() != 30 || len(rs.Rows[0][1].Array()) != 5 {
		t.Fatalf("props: %v", rs.Rows)
	}
	// Topology survives: alice-KNOWS->bob, bob-VISITED->rome only.
	rs = q(g2, `MATCH (a)-[r]->(b) RETURN a.name, type(r), b.name ORDER BY b.name`)
	if len(rs.Rows) != 2 {
		t.Fatalf("edges: %v", rs.Rows)
	}
	if rs.Rows[0][1].Str() != "KNOWS" || rs.Rows[1][1].Str() != "VISITED" {
		t.Fatalf("edge types: %v", rs.Rows)
	}
	// Edge property.
	rs = q(g2, `MATCH ()-[r:VISITED]->() RETURN r.year`)
	if rs.Rows[0][0].Int() != 2020 {
		t.Fatalf("edge prop: %v", rs.Rows)
	}
	// Index was rebuilt and is queryable via index scan.
	lines, err := core.Explain(g2, `MATCH (n:Person {name:'bob'}) RETURN n`, core.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(strings.Join(lines, "\n"), "NodeByIndexScan") {
		t.Fatalf("index not rebuilt:\n%v", lines)
	}
}

func TestIDReuseAfterLoadMatches(t *testing.T) {
	g := buildSample(t)
	g2 := roundTrip(t, g)
	// Creating a node in both graphs must reuse the same freed ID.
	n1 := func() uint64 {
		g.Lock()
		defer g.Unlock()
		return g.CreateNode(nil, nil).ID
	}()
	n2 := func() uint64 {
		g2.Lock()
		defer g2.Unlock()
		return g2.CreateNode(nil, nil).ID
	}()
	if n1 != n2 {
		t.Fatalf("freed-id reuse differs: %d vs %d", n1, n2)
	}
}

func TestQueriesAgreeAfterRoundTrip(t *testing.T) {
	g := buildSample(t)
	g2 := roundTrip(t, g)
	for _, query := range []string{
		`MATCH (n) RETURN count(n)`,
		`MATCH (n:Person) RETURN count(n)`,
		`MATCH (a)-[:KNOWS]->(b) RETURN count(b)`,
		`MATCH (a:Person {name:'alice'})-[*1..3]->(n) RETURN count(n)`,
	} {
		r1, err := core.Query(g, query, nil, core.Config{})
		if err != nil {
			t.Fatal(err)
		}
		r2, err := core.Query(g2, query, nil, core.Config{})
		if err != nil {
			t.Fatal(err)
		}
		if r1.Rows[0][0].Int() != r2.Rows[0][0].Int() {
			t.Fatalf("%s: %v vs %v", query, r1.Rows, r2.Rows)
		}
	}
}

func TestLoadRejectsGarbage(t *testing.T) {
	if _, err := Load(bytes.NewReader([]byte("not a snapshot"))); err == nil {
		t.Fatal("want magic error")
	}
	if _, err := Load(bytes.NewReader(nil)); err == nil {
		t.Fatal("want EOF error")
	}
	// Truncated valid prefix.
	g := graph.New("t")
	g.CreateNode([]string{"A"}, map[string]value.Value{"x": value.NewInt(1)})
	var buf bytes.Buffer
	if err := Save(g, &buf); err != nil {
		t.Fatal(err)
	}
	trunc := buf.Bytes()[:buf.Len()-3]
	if _, err := Load(bytes.NewReader(trunc)); err == nil {
		t.Fatal("want truncation error")
	}
	// Hand-written snapshots: schema tables, then nodes, edges and indexes.
	snapshot := func(write func(w *bufio.Writer)) []byte {
		var b bytes.Buffer
		w := bufio.NewWriter(&b)
		w.WriteString(magic)
		writeString(w, "t")
		write(w)
		w.Flush()
		return b.Bytes()
	}
	// A label count just under 2^63 backed by no bytes: an error, not a
	// makeslice panic.
	huge := snapshot(func(w *bufio.Writer) { writeUvarint(w, 1<<63-1) })
	if len(huge) != 19 {
		t.Fatalf("fixture is %d bytes, want 19", len(huge))
	}
	if _, err := Load(bytes.NewReader(huge)); err == nil {
		t.Fatal("want an error for a label count past the end of the file")
	}
	// An edge whose type ID is past the relationship table: an error, not a
	// new relationship type named "".
	badType := snapshot(func(w *bufio.Writer) {
		writeUvarint(w, 0)  // labels
		writeUvarint(w, 1)  // relationship types: one,
		writeString(w, "R") // named R
		writeUvarint(w, 0)  // attributes
		writeUvarint(w, 2)  // nodes
		for id := 0; id < 2; id++ {
			writeUvarint(w, uint64(id))
			writeUvarint(w, 0) // labels
			writeUvarint(w, 0) // properties
		}
		writeUvarint(w, 1)                          // edges
		for _, v := range []uint64{0, 1, 0, 1, 0} { // id, type 1, src, dst, no properties
			writeUvarint(w, v)
		}
		writeUvarint(w, 0) // indexes
	})
	if _, err := Load(bytes.NewReader(badType)); err == nil || !strings.Contains(err.Error(), "type id 1 out of range") {
		t.Fatalf("want a type id error, got %v", err)
	}
	// A node claiming 2^30 properties and holding none: an error, without
	// sizing a map by the claim.
	hugeProps := snapshot(func(w *bufio.Writer) {
		for _, v := range []uint64{0, 0, 0, 1, 0, 0, 1 << 30} { // no tables, one node: id 0, no labels, 2^30 properties
			writeUvarint(w, v)
		}
	})
	if _, err := Load(bytes.NewReader(hugeProps)); err == nil {
		t.Fatal("want an error for a property count past the end of the file")
	}
}

func TestEmptyGraphRoundTrip(t *testing.T) {
	g := graph.New("empty")
	g2 := roundTrip(t, g)
	if g2.NodeCount() != 0 || g2.EdgeCount() != 0 || g2.Name != "empty" {
		t.Fatalf("empty graph: %d %d %s", g2.NodeCount(), g2.EdgeCount(), g2.Name)
	}
}

func saveBytes(t *testing.T, g *graph.Graph) []byte {
	t.Helper()
	var buf bytes.Buffer
	g.RLock()
	err := Save(g, &buf)
	g.RUnlock()
	if err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestSaveIsDeterministic: property lists are written in ascending
// attribute-ID order from the columns, so the same graph always serialises
// to the same bytes — twice in a row, and again after a load.
func TestSaveIsDeterministic(t *testing.T) {
	g := buildSample(t)
	first := saveBytes(t, g)
	if second := saveBytes(t, g); !bytes.Equal(first, second) {
		t.Fatal("two saves of one graph differ")
	}
	g2, err := Load(bytes.NewReader(first))
	if err != nil {
		t.Fatal(err)
	}
	if again := saveBytes(t, g2); !bytes.Equal(first, again) {
		t.Fatal("save → load → save is not a fixed point")
	}
}

// TestLoadsPR12Snapshot loads testdata/pr12_sample.rggo — buildSample's graph
// as the commit before columns became the only store wrote it, its property
// lists in map-iteration order — and checks it answers like a fresh build.
func TestLoadsPR12Snapshot(t *testing.T) {
	raw, err := os.ReadFile("testdata/pr12_sample.rggo")
	if err != nil {
		t.Fatal(err)
	}
	old, err := Load(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	fresh := buildSample(t)
	for _, query := range []string{
		`MATCH (n) RETURN n.name, n.age, n.tags, labels(n) ORDER BY n.name`,
		`MATCH (a)-[r]->(b) RETURN a.name, type(r), r.since, r.year, b.name ORDER BY b.name`,
		`MATCH (n:Person {name:'bob'}) RETURN count(n)`,
	} {
		want, err := core.Query(fresh, query, nil, core.Config{})
		if err != nil {
			t.Fatalf("%s: %v", query, err)
		}
		got, err := core.Query(old, query, nil, core.Config{})
		if err != nil {
			t.Fatalf("%s: %v", query, err)
		}
		if len(want.Rows) == 0 || fmt.Sprint(got.Rows) != fmt.Sprint(want.Rows) {
			t.Fatalf("%s:\nloaded %v\nfresh  %v", query, got.Rows, want.Rows)
		}
	}
}

// TestLoadFillsEdgeIDHolesOnOnePair saves a graph whose deleted edges sit
// below the one live edge's ID. Load pads those holes with placeholder
// edges between the live edge's endpoints, so the pair briefly holds
// several edges; once the placeholders are deleted, the pair must hold
// exactly the live edge, and R's entry must be its ID.
func TestLoadFillsEdgeIDHolesOnOnePair(t *testing.T) {
	g := graph.New("holes")
	a := g.CreateNode(nil, nil)
	b := g.CreateNode(nil, nil)
	c := g.CreateNode(nil, nil)
	var dead []uint64
	for _, ends := range [][2]uint64{{a.ID, b.ID}, {b.ID, c.ID}, {a.ID, c.ID}} {
		e, err := g.CreateEdge("R", ends[0], ends[1], nil)
		if err != nil {
			t.Fatal(err)
		}
		dead = append(dead, e.ID)
	}
	live, err := g.CreateEdge("R", a.ID, b.ID, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range dead {
		g.DeleteEdge(id)
	}
	g2 := roundTrip(t, g)
	rid, _ := g2.Schema.RelTypeID("R")
	for _, tid := range []int{rid, -1} {
		if ids := g2.EdgesBetween(tid, a.ID, b.ID); len(ids) != 1 || ids[0] != live.ID {
			t.Fatalf("EdgesBetween(%d, a, b) = %v, want [%d]", tid, ids, live.ID)
		}
	}
	if v, err := g2.RelationMatrix(rid).ExtractElement(int(a.ID), int(b.ID)); err != nil || v != live.ID {
		t.Fatalf("R(a, b) = %v, %v; want %d", v, err, live.ID)
	}
	if n := g2.RelationMatrix(rid).NVals(); n != 1 {
		t.Fatalf("R holds %d entries, want 1", n)
	}
	if n := g2.Adjacency().NVals(); n != 1 {
		t.Fatalf("adjacency holds %d entries, want 1", n)
	}
}
