package algo

import (
	"math"
	"testing"

	"redisgraph/internal/gen"
	"redisgraph/internal/grb"
)

// pathGraph returns a directed path 0→1→…→n-1.
func pathGraph(n int) *grb.Matrix {
	m := grb.NewMatrix(n, n)
	for i := 0; i < n-1; i++ {
		if err := m.SetElement(i, i+1, 1); err != nil {
			panic(err)
		}
	}
	return m
}

// completeGraph returns K_n (no self loops, both directions).
func completeGraph(n int) *grb.Matrix {
	m := grb.NewMatrix(n, n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if i != j {
				if err := m.SetElement(i, j, 1); err != nil {
					panic(err)
				}
			}
		}
	}
	return m
}

func TestBFSLevelsPath(t *testing.T) {
	a := pathGraph(5)
	levels, err := BFSLevels(a, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		v, err := levels.ExtractElement(i)
		if err != nil || v != float64(i) {
			t.Fatalf("level[%d] = %v, %v", i, v, err)
		}
	}
	// From the middle, earlier nodes are unreachable.
	levels, err = BFSLevels(a, 2, nil)
	if err != nil {
		t.Fatal(err)
	}
	if levels.NVals() != 3 {
		t.Fatalf("reachable = %d, want 3", levels.NVals())
	}
	if _, err := BFSLevels(a, 99, nil); err == nil {
		t.Fatal("want range error")
	}
}

func TestKHopCountPathAndCycle(t *testing.T) {
	a := pathGraph(10)
	for k := 1; k <= 9; k++ {
		n, err := KHopCount(a, 0, k, nil)
		if err != nil {
			t.Fatal(err)
		}
		if n != k {
			t.Fatalf("khop(%d) = %d, want %d", k, n, k)
		}
	}
	// Cycle: never revisits, caps at n-1.
	c := pathGraph(5)
	_ = c.SetElement(4, 0, 1)
	n, err := KHopCount(c, 0, 100, nil)
	if err != nil {
		t.Fatal(err)
	}
	if n != 4 {
		t.Fatalf("cycle khop = %d, want 4", n)
	}
}

func TestKHopMatchesReferenceBFSOnRMAT(t *testing.T) {
	el := gen.RMAT(gen.Graph500Defaults(8, 3))
	a, err := grb.BoolMatrixFromEdges(el.NumNodes, el.NumNodes, el.Src, el.Dst)
	if err != nil {
		t.Fatal(err)
	}
	// Reference: adjacency-list BFS.
	adj := make([][]int, el.NumNodes)
	for i := range el.Src {
		adj[el.Src[i]] = append(adj[el.Src[i]], el.Dst[i])
	}
	ref := func(seed, k int) int {
		visited := make([]bool, el.NumNodes)
		visited[seed] = true
		frontier := []int{seed}
		count := 0
		for h := 0; h < k && len(frontier) > 0; h++ {
			var next []int
			for _, v := range frontier {
				for _, u := range adj[v] {
					if !visited[u] {
						visited[u] = true
						next = append(next, u)
					}
				}
			}
			count += len(next)
			frontier = next
		}
		return count
	}
	for _, seed := range gen.Seeds(el, 20, 9) {
		for _, k := range []int{1, 2, 3, 6} {
			got, err := KHopCount(a, seed, k, nil)
			if err != nil {
				t.Fatal(err)
			}
			if want := ref(seed, k); got != want {
				t.Fatalf("seed %d k %d: got %d want %d", seed, k, got, want)
			}
		}
	}
}

func TestPageRankUniformOnCycle(t *testing.T) {
	// On a directed cycle every node has equal rank 1/n.
	n := 8
	c := pathGraph(n)
	_ = c.SetElement(n-1, 0, 1)
	ranks, iters, err := PageRank(c, 0.85, 1e-10, 200, nil)
	if err != nil {
		t.Fatal(err)
	}
	if iters == 0 {
		t.Fatal("no iterations")
	}
	for i := 0; i < n; i++ {
		v, err := ranks.ExtractElement(i)
		if err != nil || math.Abs(v-1.0/float64(n)) > 1e-6 {
			t.Fatalf("rank[%d] = %v, %v", i, v, err)
		}
	}
}

func TestPageRankSumsToOne(t *testing.T) {
	el := gen.RMAT(gen.Graph500Defaults(7, 4))
	a, err := grb.BoolMatrixFromEdges(el.NumNodes, el.NumNodes, el.Src, el.Dst)
	if err != nil {
		t.Fatal(err)
	}
	ranks, _, err := PageRank(a, 0.85, 1e-9, 100, nil)
	if err != nil {
		t.Fatal(err)
	}
	sum := grb.ReduceVectorToScalar(grb.PlusMonoid, ranks)
	if math.Abs(sum-1) > 1e-6 {
		t.Fatalf("rank sum = %v", sum)
	}
	// Hub node should outrank a leaf: find max in-degree node.
	indeg := gen.InDegreeHistogram(el)
	hub, leaf := 0, 0
	for i, d := range indeg {
		if d > indeg[hub] {
			hub = i
		}
		if d < indeg[leaf] {
			leaf = i
		}
	}
	hv, _ := ranks.ExtractElement(hub)
	lv, _ := ranks.ExtractElement(leaf)
	if hv <= lv {
		t.Fatalf("hub rank %v <= leaf rank %v", hv, lv)
	}
}

func TestConnectedComponents(t *testing.T) {
	// Two triangles, disjoint.
	m := grb.NewMatrix(6, 6)
	for _, e := range [][2]int{{0, 1}, {1, 2}, {2, 0}, {3, 4}, {4, 5}, {5, 3}} {
		_ = m.SetElement(e[0], e[1], 1)
	}
	labels, _, err := ConnectedComponents(m, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := ComponentCount(labels); got != 2 {
		t.Fatalf("components = %d, want 2", got)
	}
	for i := 0; i < 3; i++ {
		v, _ := labels.ExtractElement(i)
		if v != 0 {
			t.Fatalf("label[%d] = %v, want 0", i, v)
		}
	}
	for i := 3; i < 6; i++ {
		v, _ := labels.ExtractElement(i)
		if v != 3 {
			t.Fatalf("label[%d] = %v, want 3", i, v)
		}
	}
}

func TestSSSPWeightedPath(t *testing.T) {
	m := grb.NewMatrix(4, 4)
	_ = m.SetElement(0, 1, 5)
	_ = m.SetElement(1, 2, 3)
	_ = m.SetElement(0, 2, 10)
	_ = m.SetElement(2, 3, 1)
	dist, err := SSSP(m, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	want := map[int]float64{0: 0, 1: 5, 2: 8, 3: 9}
	for i, w := range want {
		v, err := dist.ExtractElement(i)
		if err != nil || v != w {
			t.Fatalf("dist[%d] = %v, want %v", i, v, w)
		}
	}
}

func TestTriangleCountKnownGraphs(t *testing.T) {
	// K4 has 4 triangles.
	if n, err := TriangleCount(completeGraph(4), nil); err != nil || n != 4 {
		t.Fatalf("K4: %d, %v", n, err)
	}
	// K5 has 10.
	if n, err := TriangleCount(completeGraph(5), nil); err != nil || n != 10 {
		t.Fatalf("K5: %d, %v", n, err)
	}
	// A path has none.
	if n, err := TriangleCount(pathGraph(10), nil); err != nil || n != 0 {
		t.Fatalf("path: %d, %v", n, err)
	}
	// Directed triangle counts once regardless of edge orientation.
	tri := grb.NewMatrix(3, 3)
	_ = tri.SetElement(0, 1, 1)
	_ = tri.SetElement(1, 2, 1)
	_ = tri.SetElement(0, 2, 1)
	if n, err := TriangleCount(tri, nil); err != nil || n != 1 {
		t.Fatalf("oriented triangle: %d, %v", n, err)
	}
}

func TestKTruss(t *testing.T) {
	// K4 plus a pendant edge: the 3-truss keeps K4, drops the pendant.
	m := grb.NewMatrix(5, 5)
	for i := 0; i < 4; i++ {
		for j := 0; j < 4; j++ {
			if i != j {
				_ = m.SetElement(i, j, 1)
			}
		}
	}
	_ = m.SetElement(4, 0, 1)
	_ = m.SetElement(0, 4, 1)
	truss, iters, err := KTruss(m, 3, nil)
	if err != nil {
		t.Fatal(err)
	}
	if iters < 1 {
		t.Fatal("no iterations")
	}
	// K4 has 12 directed entries; pendant edge dropped.
	if truss.NVals() != 12 {
		t.Fatalf("truss nvals = %d, want 12", truss.NVals())
	}
	if _, _, err := KTruss(m, 2, nil); err == nil {
		t.Fatal("k<3 must error")
	}
	// 4-truss of K4 is K4 itself (each edge in 2 triangles).
	t4, _, err := KTruss(m, 4, nil)
	if err != nil {
		t.Fatal(err)
	}
	if t4.NVals() != 12 {
		t.Fatalf("4-truss nvals = %d, want 12", t4.NVals())
	}
	// 5-truss of K4 is empty.
	t5, _, err := KTruss(m, 5, nil)
	if err != nil {
		t.Fatal(err)
	}
	if t5.NVals() != 0 {
		t.Fatalf("5-truss nvals = %d, want 0", t5.NVals())
	}
}

func TestLocalClusteringCoefficient(t *testing.T) {
	// K4: every node has coefficient 1.
	lcc, err := LocalClusteringCoefficient(completeGraph(4), nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		v, err := lcc.ExtractElement(i)
		if err != nil || math.Abs(v-1) > 1e-9 {
			t.Fatalf("lcc[%d] = %v, %v", i, v, err)
		}
	}
	// Star graph: center coefficient 0.
	star := grb.NewMatrix(5, 5)
	for i := 1; i < 5; i++ {
		_ = star.SetElement(0, i, 1)
	}
	lcc, err = LocalClusteringCoefficient(star, nil)
	if err != nil {
		t.Fatal(err)
	}
	if v, err := lcc.ExtractElement(0); err == nil && v != 0 {
		t.Fatalf("star center lcc = %v", v)
	}
}

func TestBFSParallelMatchesSerial(t *testing.T) {
	el := gen.RMAT(gen.Graph500Defaults(9, 6))
	a, err := grb.BoolMatrixFromEdges(el.NumNodes, el.NumNodes, el.Src, el.Dst)
	if err != nil {
		t.Fatal(err)
	}
	for _, seed := range gen.Seeds(el, 5, 77) {
		s, err := KHopCount(a, seed, 4, nil)
		if err != nil {
			t.Fatal(err)
		}
		p, err := KHopCount(a, seed, 4, &grb.Descriptor{NThreads: 4})
		if err != nil {
			t.Fatal(err)
		}
		if s != p {
			t.Fatalf("seed %d: serial %d parallel %d", seed, s, p)
		}
	}
}
