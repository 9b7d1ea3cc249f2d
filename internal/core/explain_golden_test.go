package core

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"redisgraph/internal/graph"
	"redisgraph/internal/value"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/explain.golden from the current planner")

// workloadTexts are the benchmark's seven query texts (benchmark/workload.go;
// core cannot import the benchmark module, so they are copied here).
var workloadTexts = []string{
	"MATCH (s:Node {uid: $seed}) RETURN s.uid, s.age, s.city",
	"MATCH (s:Node {uid: $seed})-[:F*1..3]->(n) RETURN count(n)",
	"MATCH (p:Node) WHERE p.score >= $t AND p.age < 90 RETURN count(p), min(p.score), max(p.age)",
	"MATCH (s:Node {uid: $seed})-[:F]->(n) RETURN count(n)",
	"MATCH (a:Node {uid: $a}), (b:Node {uid: $b}) CREATE (a)-[:F]->(b)",
	"MATCH (p:Node {uid: $seed}) SET p.age = $t",
	"MATCH (a:Node {uid: $a})-[e:F]->(b:Node {uid: $b}) DELETE e",
}

// workloadGraph is a small deterministic stand-in for the benchmark's
// dataset: :Node vertices carrying uid, age, score and city, a skewed :F
// relation and an index on Node.uid.
func workloadGraph(t testing.TB, n int) *graph.Graph {
	t.Helper()
	g := graph.New("workload")
	g.Lock()
	defer g.Unlock()
	for v := 0; v < n; v++ {
		g.CreateNode([]string{"Node"}, map[string]value.Value{
			"uid":   value.NewInt(int64(v)),
			"age":   value.NewInt(int64(18 + v*7%80)),
			"score": value.NewFloat(float64(v*37%100) / 100),
			"city":  value.NewString(fmt.Sprintf("city%d", v%9)),
		})
	}
	rnd := uint64(4242)
	for v := 0; v < n; v++ {
		for k := 0; k < 1+v%5; k++ {
			rnd = rnd*6364136223846793005 + 1442695040888963407
			w := int((rnd >> 33) % uint64(n))
			if w == v {
				continue
			}
			if _, err := g.CreateEdge("F", uint64(v), uint64(w), nil); err != nil {
				t.Fatalf("edge: %v", err)
			}
		}
	}
	g.CreateIndex("Node", "uid")
	g.Sync()
	return g
}

// TestExplainGolden pins EXPLAIN at the default configuration, uncached and
// through a plan cache, for the benchmark's query texts and the planner and
// join tests' texts over their fixture graphs. A change that only moves
// code must leave testdata/explain.golden byte-identical; a change meant to
// alter plans rewrites it with
//
//	go test -run TestExplainGolden -update ./internal/core
func TestExplainGolden(t *testing.T) {
	sets := []struct {
		name    string
		g       *graph.Graph
		queries []string
	}{
		{"workload", workloadGraph(t, 300), workloadTexts},
		{"adversarial", adversarialGraph(t, 200), []string{
			`MATCH (a:Hub)-[:Sp]->(b:Rare) RETURN count(a)`,
			`MATCH (a:Hub)-[:Sp]->(b:Rare) RETURN a.uid, b.uid`,
			`MATCH (a:Hub)<-[:Back]-(b:Rare) RETURN a.uid, b.uid`,
			`MATCH (a:Hub)-[:D]->(m:Hub)-[:Sp]->(b:Rare) RETURN count(*)`,
			`MATCH (a:Hub)-[:D]->(m:Hub)-[:Sp]->(b:Rare) RETURN a.uid, m.uid, b.uid`,
			`MATCH (a:Hub)-[:Sp]->(b:Rare), (c:Rare)-[:Back]->(d:Hub) RETURN count(*)`,
			`MATCH (a:Hub)-[:D]->(m:Hub), (m)-[:Sp]->(b:Rare) RETURN a.uid, b.uid`,
			`MATCH (a:Hub)-[:Sp]->(b:Rare) MATCH (b)<-[:Sp]-(c:Hub) RETURN a.uid, c.uid`,
			`MATCH (a:Hub)-[:D]->(m:Hub)-[:D]->(a) RETURN count(*)`,
			`MATCH (a:Rare)-[:Back]->(b:Hub)-[:D]->(d:Hub), (a)<-[:Sp]-(c:Hub)-[:D]->(d) RETURN count(*)`,
			`MATCH (a:Hub)-[e:Sp]->(b:Rare) RETURN a.uid, b.uid`,
			`MATCH (a:Rare)-[:Sp]-(b) RETURN count(b)`,
			`MATCH (a:Hub {uid: 0})-[:D*1..3]->(m:Hub) RETURN count(m)`,
			`MATCH (a:Hub {uid: 11})-[:D*1..2]->(m:Hub)-[:Sp]->(b:Rare) RETURN count(b)`,
			`MATCH (a:Hub)-[:Sp]->(b:Rare:Tagged) RETURN count(b)`,
			`MATCH (a:Hub {uid: 0})-[:D*1..2]->(b:Rare:Tagged) RETURN count(b)`,
			`MATCH (a:Hub {uid: 42})-[:D]->(m:Hub) RETURN m.uid`,
			`MATCH (a:Hub)-[:D]->(m:Hub) WHERE m.uid = 7 AND a.uid < 100 RETURN a.uid, m.uid`,
			`MATCH (a:Rare), (b:Rare) RETURN count(*)`,
			`MATCH (b:Rare) OPTIONAL MATCH (b)-[:Back]->(h:Hub) RETURN b.uid, h.uid`,
			`MATCH (a:Hub)-[:D]->(m:Hub) WITH m, count(a) AS fans WHERE fans > 3 RETURN m.uid, fans ORDER BY fans DESC, m.uid LIMIT 5`,
			`MATCH (a:Hub) RETURN a.uid ORDER BY a.uid DESC SKIP 3 LIMIT 7`,
			`MATCH (a:Hub)-[:D]->(b) WHERE a.uid < 150 RETURN count(b)`,
			`MATCH (a:Hub)-[:D]->(b:Hub)-[:D]->(c) RETURN a.uid, count(c)`,
			`MATCH (a:Hub)-[:D]->(b:Hub), (c:Rare)<-[:Sp]-(d:Hub) WHERE b.uid = d.uid AND a.uid < 100 RETURN count(*)`,
			`MATCH (a:Hub)-[:D]->(b {uid: a.uid}) RETURN count(*)`,
			`MATCH (a:Hub)-[:D]->(b:Hub {uid: a.uid}) RETURN count(*)`,
			`MATCH (a:Hub)-[e:Sp {w: a.uid}]->(b:Rare) RETURN count(*)`,
			`MATCH (a:Hub {uid: 1})-[:D*1..3]->(b:Rare:Tagged) RETURN count(b)`,
			`MATCH (a:Hub {uid: 3})-[:D*1..2]->(m) RETURN m.uid ORDER BY m.uid LIMIT 4`,
			`MATCH (a:Hub {uid: 1}), (b:Rare) CREATE (a)-[:W]->(b)`,
			`MATCH (b:Rare)-[e:Seen]->(a:Hub) WHERE a.uid < 50 DELETE e`,
			`MATCH (m:Hub)-[:Sp]->(r:Rare) MATCH (r)<-[:Sp]-(o:Hub) SET r.deg = m.uid + o.uid`,
		}},
		{"bridged", bridgedGraph(t), []string{
			`MATCH (a:Src)-[:R]->(b:Mid), (c:Far)-[:S]->(d:End) WHERE b.k = c.k RETURN count(*)`,
			`MATCH (a:Src)-[:R]->(b:Mid), (c:Far)-[:S]->(d:End) WHERE b.k = c.k RETURN a.uid, d.uid`,
			`MATCH (a:Src)-[:R]->(b:Mid), (c:Far)-[:S]->(d:End) WHERE c.k = b.k AND a.uid < 9 RETURN a.uid, d.uid`,
			`MATCH (a:Src)-[:R]->(b:Mid), (c:Far)-[:S]->(d:End) WHERE b.k = c.k AND c.tag > 1 RETURN a.uid, c.tag, d.uid`,
			`MATCH (b:Mid), (c:Far) WHERE b.k = c.k RETURN b.k, c.tag`,
			`MATCH (a:Src)-[:R]->(b:Mid), (c:Far) WHERE b.k = c.k RETURN a.uid, c.tag`,
			`MATCH (a:Src)-[:R]->(b:Mid), (c:Far)-[:S]->(d:End) WHERE b.k = c.k AND c.k = 99 RETURN count(*)`,
			`MATCH (a:Src)-[:R]->(b:Mid), (c:Far), (d:End) WHERE b.k = c.k AND c.tag = d.uid - 100 RETURN a.uid, c.tag, d.uid`,
		}},
		{"skewed-cycle", skewedCycleGraph(t, 400), []string{
			`MATCH (a:Node)-[:F]->(b:Node)-[:F]->(a) RETURN count(*)`,
		}},
	}
	var out strings.Builder
	for _, set := range sets {
		pc := NewPlanCache(DefaultPlanCacheSize)
		for _, query := range set.queries {
			// Uncached, then twice through the cache: planned, then cached.
			for _, cfg := range []Config{{}, {PlanCache: pc}, {PlanCache: pc}} {
				lines, err := Explain(set.g, query, cfg)
				if err != nil {
					t.Fatalf("%s: %s: %v", set.name, query, err)
				}
				fmt.Fprintf(&out, "== %s | cache=%t | %s\n", set.name, cfg.PlanCache != nil, query)
				for _, l := range lines {
					out.WriteString(l + "\n")
				}
			}
		}
	}
	path := filepath.Join("testdata", "explain.golden")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(out.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (create it with -update)", err)
	}
	if got := out.String(); got != string(want) {
		gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
		for i := 0; i < len(gl) && i < len(wl); i++ {
			if gl[i] != wl[i] {
				t.Fatalf("EXPLAIN differs from %s at line %d:\n got: %s\nwant: %s\n(rewrite with -update only if the plan change is intended)",
					path, i+1, gl[i], wl[i])
			}
		}
		t.Fatalf("EXPLAIN differs from %s in length: %d lines, want %d", path, len(gl), len(wl))
	}
}
