package baseline

import (
	"testing"

	"redisgraph/internal/gen"
)

func engines(e *gen.EdgeList) []Engine {
	return []Engine{
		NewAdjList(e.NumNodes, e.Src, e.Dst),
		NewParallelAdjList(e.NumNodes, e.Src, e.Dst, 4),
		NewObjectStore(e.NumNodes, e.Src, e.Dst),
	}
}

func TestAllEnginesAgreeOnPath(t *testing.T) {
	e := &gen.EdgeList{NumNodes: 6, Src: []int{0, 1, 2, 3, 4}, Dst: []int{1, 2, 3, 4, 5}}
	for _, eng := range engines(e) {
		for k := 1; k <= 5; k++ {
			if got := eng.KHopCount(0, k); got != k {
				t.Fatalf("%s: khop(%d) = %d, want %d", eng.Name(), k, got, k)
			}
		}
	}
}

func TestAllEnginesAgreeOnRMAT(t *testing.T) {
	e := gen.RMAT(gen.Graph500Defaults(9, 17))
	engs := engines(e)
	ref := engs[0]
	for _, seed := range gen.Seeds(e, 15, 2) {
		for _, k := range []int{1, 2, 3, 6} {
			want := ref.KHopCount(seed, k)
			for _, eng := range engs[1:] {
				if got := eng.KHopCount(seed, k); got != want {
					t.Fatalf("%s disagrees with %s at seed %d k %d: %d vs %d",
						eng.Name(), ref.Name(), seed, k, got, want)
				}
			}
		}
	}
}

func TestDuplicateEdgesDoNotDoubleCount(t *testing.T) {
	e := &gen.EdgeList{NumNodes: 3, Src: []int{0, 0, 0}, Dst: []int{1, 1, 2}}
	for _, eng := range engines(e) {
		if got := eng.KHopCount(0, 1); got != 2 {
			t.Fatalf("%s: %d, want 2", eng.Name(), got)
		}
	}
}

func TestSelfLoopNotCounted(t *testing.T) {
	e := &gen.EdgeList{NumNodes: 2, Src: []int{0, 0}, Dst: []int{0, 1}}
	a := NewAdjList(e.NumNodes, e.Src, e.Dst)
	// Seed is pre-visited, so the self loop contributes nothing.
	if got := a.KHopCount(0, 3); got != 1 {
		t.Fatalf("got %d, want 1", got)
	}
}

func TestParallelAdjListWorkerCounts(t *testing.T) {
	e := gen.RMAT(gen.Graph500Defaults(9, 23))
	ref := NewAdjList(e.NumNodes, e.Src, e.Dst)
	for _, workers := range []int{1, 2, 8, 0} {
		p := NewParallelAdjList(e.NumNodes, e.Src, e.Dst, workers)
		for _, seed := range gen.Seeds(e, 5, 3) {
			if got, want := p.KHopCount(seed, 3), ref.KHopCount(seed, 3); got != want {
				t.Fatalf("workers=%d seed=%d: %d vs %d", workers, seed, got, want)
			}
		}
	}
}
