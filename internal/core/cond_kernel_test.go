package core

import (
	"strings"
	"testing"

	"redisgraph/internal/graph"
	"redisgraph/internal/value"
)

// funnelGraph builds `spokes` :Src nodes that each carry exactly one :F edge
// into one of `sinks` :Sink hubs.
func funnelGraph(t testing.TB, spokes, sinks int) *graph.Graph {
	t.Helper()
	g := graph.New("funnel")
	g.Lock()
	defer g.Unlock()
	sinkIDs := make([]uint64, sinks)
	for i := range sinkIDs {
		sinkIDs[i] = g.CreateNode([]string{"Sink"}, map[string]value.Value{
			"uid": value.NewInt(int64(i)),
		}).ID
	}
	for i := 0; i < spokes; i++ {
		n := g.CreateNode([]string{"Src"}, map[string]value.Value{
			"uid": value.NewInt(int64(100 + i)),
		})
		if _, err := g.CreateEdge("F", n.ID, sinkIDs[i%sinks], nil); err != nil {
			t.Fatalf("edge: %v", err)
		}
	}
	return g
}

// TestCondKernelDifferential holds the funnel graph's many-into-few hops to
// identical rows in every kernel mode and at batch sizes 1 and 64: fixed
// hops forward, with a folded destination label and inbound under
// aggregation (every frontier row lands on a handful of columns), and a
// var-length hop inbound from one sink, whose BFS pulls or pushes by mode.
func TestCondKernelDifferential(t *testing.T) {
	g := funnelGraph(t, 400, 7)
	queries := []string{
		`MATCH (a:Src)-[:F]->(b) RETURN count(b)`,
		`MATCH (a:Src)-[:F]->(b:Sink) RETURN a.uid, b.uid`,
		`MATCH (b:Sink)<-[:F]-(a) RETURN b.uid, count(a)`,
		`MATCH (b:Sink {uid: 0})<-[:F*1..2]-(a) RETURN count(a)`,
	}
	for _, q := range queries {
		var want []string
		for _, cfg := range kernelConfigs() {
			got := runSorted(t, g, q, cfg)
			if want == nil {
				want = got
				continue
			}
			if strings.Join(got, "\n") != strings.Join(want, "\n") {
				t.Fatalf("conditioned kernel mismatch on %s (cfg %+v):\nwant %v\ngot  %v",
					q, cfg, want, got)
			}
		}
	}
}
