//go:build !race

// The race detector makes sync.Pool drop a share of what is put back, so a
// pooled kernel's allocation count is only meaningful without it.

package core

import (
	"testing"

	"redisgraph/internal/graph"
	"redisgraph/internal/value"
)

// TestScanAggregateAllocsConstant checks a warm keyless aggregation over a
// filtered label scan allocates the same at 1 K and 8 K nodes: no record,
// candidate list or per-row value is allocated per scanned node.
func TestScanAggregateAllocsConstant(t *testing.T) {
	const query = `MATCH (p:Node) WHERE p.score >= $t AND p.age < 90 RETURN count(p), min(p.score), max(p.age)`
	params := map[string]value.Value{"t": value.NewInt(30)}
	allocs := func(n int) float64 {
		g := graph.New("allocs")
		g.Lock()
		for v := 0; v < n; v++ {
			g.CreateNode([]string{"Node"}, map[string]value.Value{
				"age":   value.NewInt(int64(v * 37 % 100)),
				"score": value.NewFloat(float64(v*7919%10001) / 100),
			})
		}
		g.Sync()
		g.Unlock()
		cfg := Config{PlanCache: NewPlanCache(DefaultPlanCacheSize)}
		run := func() {
			if _, err := ROQuery(g, query, params, cfg); err != nil {
				t.Fatal(err)
			}
		}
		run() // plan, and warm the candidate pool
		return testing.AllocsPerRun(20, run)
	}
	small, large := allocs(1024), allocs(8192)
	if small != large {
		t.Errorf("allocs per query: %.1f at 1 K nodes, %.1f at 8 K nodes; want equal", small, large)
	}
}
