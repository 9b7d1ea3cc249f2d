package bench

import (
	"io"
	"strings"
	"testing"
	"time"

	"redisgraph/internal/gen"
)

func TestBuildGraphMatchesEdgeList(t *testing.T) {
	el := gen.RMAT(gen.Graph500Defaults(8, 2))
	g := BuildGraph("t", el)
	if g.NodeCount() != el.NumNodes {
		t.Fatalf("nodes: %d vs %d", g.NodeCount(), el.NumNodes)
	}
	// Edge count: parallel duplicates are distinct edges in the store.
	if g.EdgeCount() != el.NumEdges() {
		t.Fatalf("edges: %d vs %d", g.EdgeCount(), el.NumEdges())
	}
}

func TestEnginesAgreeThroughFullStack(t *testing.T) {
	// The critical harness invariant: the Cypher→GraphBLAS stack, its BFS
	// kernel alone and every baseline return identical k-hop counts.
	el := gen.RMAT(gen.Graph500Defaults(9, 5))
	g := BuildGraph("t", el)
	engines := Systems(g, el)
	if len(engines) != 5 {
		t.Fatalf("line-up has %d engines, want 5", len(engines))
	}
	seeds := gen.Seeds(el, 10, 4)
	for _, k := range []int{1, 2, 3, 6} {
		ref := RunKHop(engines[0], "t", k, seeds)
		for _, e := range engines[1:] {
			m := RunKHop(e, "t", k, seeds)
			for i := range ref.Counts {
				if m.Counts[i] != ref.Counts[i] {
					t.Fatalf("%s vs %s at k=%d seed %d: %d vs %d",
						engines[0].Name(), e.Name(), k, seeds[i], ref.Counts[i], m.Counts[i])
				}
			}
		}
	}
}

func TestMeasurementStats(t *testing.T) {
	el := gen.RMAT(gen.Graph500Defaults(8, 7))
	g := BuildGraph("t", el)
	e := NewRedisGraphEngine(g)
	m := RunKHop(e, "t", 2, gen.Seeds(el, 20, 6))
	if m.Seeds != 20 || m.MeanMS <= 0 || m.P50MS <= 0 || m.P95MS < m.P50MS {
		t.Fatalf("measurement: %+v", m)
	}
}

func TestSeedCountsMatchPaper(t *testing.T) {
	// 300 seeds for k ∈ {1,2}; 10 for k ∈ {3,6}.
	for k, want := range map[int]int{1: 300, 2: 300, 3: 10, 6: 10} {
		if got := SeedCounts(k); got != want {
			t.Fatalf("k=%d: %d, want %d", k, got, want)
		}
	}
}

func TestSuiteExperimentsRunAtTinyScale(t *testing.T) {
	if testing.Short() {
		t.Skip("suite is slow in -short mode")
	}
	var sb strings.Builder
	s := NewSuite(8, &sb)
	if len(s.Datasets) != 2 {
		t.Fatalf("datasets: %d", len(s.Datasets))
	}
	fig1 := s.Fig1()
	if len(fig1) != 10 { // 5 systems × 2 datasets
		t.Fatalf("fig1 rows: %d", len(fig1))
	}
	khop := s.KHopTable([]int{1, 2})
	if len(khop) != 20 { // 5 systems × 2 ks × 2 datasets
		t.Fatalf("khop rows: %d", len(khop))
	}
	// A trailing '*' marked a cost-model emulation; every engine is measured.
	for _, m := range append(fig1, khop...) {
		if strings.HasSuffix(m.System, "*") {
			t.Fatalf("emulated system %q in the line-up", m.System)
		}
	}
	tp := s.Throughput(64)
	if len(tp) != 8 {
		t.Fatalf("throughput rows: %d", len(tp))
	}
	rob := s.Robustness(time.Minute)
	for _, r := range rob {
		if r.Timeouts != 0 || r.OOMs != 0 {
			t.Fatalf("robustness: %+v", r)
		}
	}
	out := sb.String()
	for _, want := range []string{"Fig. 1", "RedisGraph", "grb.BFS", "\n  stack ", "\n  representation ", "q/s", "maxheap"} {
		if !strings.Contains(out, want) {
			t.Fatalf("output missing %q:\n%s", want, out)
		}
	}
}

func TestRobustnessMeanIsPositive(t *testing.T) {
	// At scale 6 the ten 6-hop queries take well under a millisecond in
	// total, so a mean taken from whole milliseconds reads 0.
	s := NewSuite(6, io.Discard)
	for _, r := range s.Robustness(time.Minute) {
		if r.Seeds != 10 || r.MeanMS <= 0 {
			t.Fatalf("robustness: %+v", r)
		}
	}
}
