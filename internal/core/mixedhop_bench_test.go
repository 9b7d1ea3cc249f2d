package core

import (
	"testing"

	"redisgraph/internal/gen"
	"redisgraph/internal/graph"
	"redisgraph/internal/value"
)

// BenchmarkMixedHop times union-shaped one-hop counts from a seed — an
// undirected -[:F]- (R_F and its transpose) and a two-type -[:F|G]->
// (R_F and R_G) — through ROQuery with a warm plan cache on one thread,
// over the scale-13 Graph500 RMAT graph as :F plus a second scale-13 RMAT
// edge set (seed 2) as :G. quiet runs the hop back to back; after-create
// runs one CREATE of an :F edge, outside the timer, before every hop, so
// each hop reads matrices a write has just changed. The two should cost the
// same: the kernels read the relation matrices in place, pending deltas and
// all, and no union is rebuilt after a write.
//
//	go test -run '^$' -bench MixedHop ./internal/core
func BenchmarkMixedHop(b *testing.B) {
	f := gen.RMAT(gen.Graph500Defaults(13, 1))
	h := gen.RMAT(gen.Graph500Defaults(13, 2))
	g := graph.New("mixed-hop-bench")
	g.Lock()
	for v := 0; v < f.NumNodes; v++ {
		g.CreateNode([]string{"Node"}, map[string]value.Value{"uid": value.NewInt(int64(v))})
	}
	for _, es := range []struct {
		typ string
		e   *gen.EdgeList
	}{{"F", f}, {"G", h}} {
		for i := range es.e.Src {
			if _, err := g.CreateEdge(es.typ, uint64(es.e.Src[i]), uint64(es.e.Dst[i]), nil); err != nil {
				b.Fatal(err)
			}
		}
	}
	g.CreateIndex("Node", "uid")
	g.Sync()
	g.Unlock()

	seeds := gen.Seeds(f, 64, 7)
	params := make([]map[string]value.Value, len(seeds))
	for i, s := range seeds {
		params[i] = map[string]value.Value{"seed": value.NewInt(int64(s))}
	}
	writes := make([]map[string]value.Value, 1024)
	for i := range writes {
		writes[i] = map[string]value.Value{
			"a": value.NewInt(int64(f.Src[(i*7919)%len(f.Src)])),
			"b": value.NewInt(int64(h.Dst[(i*104729)%len(h.Dst)])),
		}
	}
	const create = `MATCH (a:Node {uid: $a}), (b:Node {uid: $b}) CREATE (a)-[:F]->(b)`
	for _, hop := range []struct{ name, query string }{
		{"undirected", `MATCH (s:Node {uid: $seed})-[:F]-(n) RETURN count(n)`},
		{"two-type", `MATCH (s:Node {uid: $seed})-[:F|G]->(n) RETURN count(n)`},
	} {
		for _, afterCreate := range []bool{false, true} {
			name := hop.name + "/quiet"
			if afterCreate {
				name = hop.name + "/after-create"
			}
			b.Run(name, func(b *testing.B) {
				cfg := Config{OpThreads: 1, PlanCache: NewPlanCache(DefaultPlanCacheSize)}
				if _, err := Query(g, create, writes[0], cfg); err != nil { // plan both, warm the pools
					b.Fatal(err)
				}
				if _, err := ROQuery(g, hop.query, params[0], cfg); err != nil {
					b.Fatal(err)
				}
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if afterCreate {
						b.StopTimer()
						if _, err := Query(g, create, writes[i%len(writes)], cfg); err != nil {
							b.Fatal(err)
						}
						b.StartTimer()
					}
					if _, err := ROQuery(g, hop.query, params[i%len(params)], cfg); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}
