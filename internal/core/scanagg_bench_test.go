package core

import (
	"math/rand"
	"testing"

	"redisgraph/internal/graph"
	"redisgraph/internal/value"
)

// BenchmarkScanAggregate times the wire benchmark's filter-agg shape — a
// full label scan with two pushed predicates and three aggregates — through
// ROQuery with a warm plan cache on one thread, and reports ns per label
// member. clean runs over folded label diagonals (the member list is the
// diagonal's column indices); pending runs after one node is deleted and
// one created without a fold, so the diagonal carries delta rows and the
// member walk takes the delta-aware path.
func BenchmarkScanAggregate(b *testing.B) {
	const (
		members = 8192
		query   = `MATCH (p:Node) WHERE p.score >= $t AND p.age < 90 RETURN count(p), min(p.score), max(p.age)`
	)
	build := func(pending bool) *graph.Graph {
		rng := rand.New(rand.NewSource(1))
		node := func(g *graph.Graph) uint64 {
			return g.CreateNode([]string{"Node"}, map[string]value.Value{
				"age":   value.NewInt(int64(rng.Intn(100))),
				"score": value.NewFloat(float64(rng.Intn(10001)) / 100),
			}).ID
		}
		g := graph.New("scanagg-bench")
		g.Lock()
		defer g.Unlock()
		for v := 0; v < members; v++ {
			node(g)
		}
		g.Sync()
		if pending {
			node(g) // before the delete, so it takes a fresh ID
			g.DeleteNode(members / 2)
			if g.PendingDeltas() == 0 {
				b.Fatal("pending fixture has no pending deltas")
			}
		}
		return g
	}
	for _, c := range []struct {
		name    string
		pending bool
	}{{"clean", false}, {"pending", true}} {
		b.Run(c.name, func(b *testing.B) {
			g := build(c.pending)
			cfg := Config{PlanCache: NewPlanCache(DefaultPlanCacheSize)}
			params := make([]map[string]value.Value, 100)
			for t := range params {
				params[t] = map[string]value.Value{"t": value.NewInt(int64(t))}
			}
			if _, err := ROQuery(g, query, params[0], cfg); err != nil { // plan, warm the pools
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := ROQuery(g, query, params[i%len(params)], cfg); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/members, "ns/member")
		})
	}
}
