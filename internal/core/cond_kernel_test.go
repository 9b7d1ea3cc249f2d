package core

import (
	"math"
	"strings"
	"testing"

	"redisgraph/internal/cypher"
	"redisgraph/internal/graph"
	"redisgraph/internal/value"
)

// funnelGraph is the conditioned-candidate adversary: `spokes` :Src nodes
// each carry exactly one :F edge into one of `sinks` :Sink hubs. The global
// figures say nothing unusual (mean out-degree 1, a thousand edges), but the
// in-direction Conn cell records that only `sinks` columns are reachable —
// the exact population a pull probe pays for.
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

// findCondTraverse walks a plan for its first batched traversal node.
func findCondTraverse(op planNode) *condTraverseNode {
	if ct, ok := op.(*condTraverseNode); ok {
		return ct
	}
	if tc, ok := op.(*traverseCountNode); ok {
		return findCondTraverse(tc.t)
	}
	for _, c := range op.children() {
		if ct := findCondTraverse(c); ct != nil {
			return ct
		}
	}
	return nil
}

// TestCondStatsFlipPushPull proves the conditioned per-(label × relation)
// cells change the push/pull decision on the funnel graph: with the
// connected-candidate hint the batched chooser pulls (10 real probes + ~1000
// row-pointer checks beat 1000 push scatters); with the hint zeroed the
// unconditioned all-connected formula prices pull above push. The same
// operand, the same frontier, the same graph — only the conditioned
// statistics differ.
func TestCondStatsFlipPushPull(t *testing.T) {
	const spokes, sinks = 4000, 10
	g := funnelGraph(t, spokes, sinks)

	ast, err := cypher.Parse(`MATCH (a:Src)-[:F]->(b) RETURN count(b)`)
	if err != nil {
		t.Fatal(err)
	}
	// Textual order pins the hop's direction: scan :Src, traverse F forward.
	plan, err := buildPlanOpts(g, ast, planOptions{NoCostPlanner: true})
	if err != nil {
		t.Fatal(err)
	}
	ct := findCondTraverse(plan.root)
	if ct == nil {
		t.Fatal("plan has no batched traversal")
	}
	op := ct.ae.operands[0]
	if op.connCand != sinks {
		t.Fatalf("connected-candidate hint = %d, want the %d sink columns", op.connCand, sinks)
	}
	if math.Abs(op.meanDeg-1) > 1e-9 {
		t.Fatalf("conditioned mean degree = %v, want 1 (each :Src has one :F edge)", op.meanDeg)
	}

	ctx := &execCtx{g: g}
	dim := g.Dim()
	if _, pull := ctx.choosePull(&op, spokes, dim); !pull {
		t.Fatalf("conditioned chooser must pull: %d connected of %d candidates vs %d scatters",
			sinks, dim, spokes)
	}
	unhinted := op
	unhinted.connCand = 0
	if _, pull := ctx.choosePull(&unhinted, spokes, dim); pull {
		t.Fatalf("unconditioned chooser must push: %d probes vs %d scatters", dim, spokes)
	}

	// The flip must be visible end to end: PROFILE under the auto chooser
	// reports pull on the funnel hop (the unhinted formula above chose push).
	lines, err := Profile(g, `MATCH (a:Src)-[:F]->(b) RETURN count(b)`, nil,
		Config{OpThreads: 1, TraverseBatch: 4096})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(strings.Join(lines, "\n"), "kernel: pull") {
		t.Fatalf("PROFILE must report the pull kernel on the funnel graph:\n%s",
			strings.Join(lines, "\n"))
	}
}

// TestCondKernelDifferential proves the conditioned decision changes only
// the kernel, never the rows: auto (hint-flipped to pull) agrees with forced
// push and forced pull across batch sizes on the funnel graph, forward,
// transposed and aggregated.
func TestCondKernelDifferential(t *testing.T) {
	g := funnelGraph(t, 400, 7)
	queries := []string{
		`MATCH (a:Src)-[:F]->(b) RETURN count(b)`,
		`MATCH (a:Src)-[:F]->(b:Sink) RETURN a.uid, b.uid`,
		`MATCH (b:Sink)<-[:F]-(a) RETURN b.uid, count(a)`,
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
