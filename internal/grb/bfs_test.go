package grb

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"
)

// randomDeltaPair builds a random n-vertex digraph as a delta matrix and its
// transpose, both carrying pending delta-plus rows (edges inserted after the
// last fold) and delta-minus rows (folded edges removed since), plus the
// effective adjacency as a dense reference.
func randomDeltaPair(r *rand.Rand, n int) (a, at *DeltaMatrix, ref *dense) {
	m := r.Intn(4*n + 1)
	src, dst := make([]Index, m), make([]Index, m)
	ref = newDense(n, n)
	for k := range src {
		src[k], dst[k] = r.Intn(n), r.Intn(n)
		ref.set(src[k], dst[k], 1)
	}
	a, at = DeltaFrom(boolMatrix(n, n, src, dst)), DeltaFrom(boolMatrix(n, n, dst, src))
	for k := 0; k < n; k++ { // pending inserts
		i, j := r.Intn(n), r.Intn(n)
		_ = a.SetElement(i, j, 1)
		_ = at.SetElement(j, i, 1)
		ref.set(i, j, 1)
	}
	for k := range src { // pending deletes of folded entries
		if r.Intn(4) == 0 {
			_ = a.RemoveElement(src[k], dst[k])
			_ = at.RemoveElement(dst[k], src[k])
			ref.ok[src[k]*n+dst[k]] = false
		}
	}
	return a, at, ref
}

// denseLevels is the reference BFS over a dense adjacency: level 0 ([src])
// and every non-empty level after it, each in ascending vertex order.
func denseLevels(d *dense, src Index, maxHops int) [][]Index {
	reached := make([]bool, d.nr)
	reached[src] = true
	levels := [][]Index{{src}}
	for hop := 1; maxHops < 0 || hop <= maxHops; hop++ {
		var next []Index
		for j := 0; j < d.nc; j++ {
			if reached[j] {
				continue
			}
			for _, k := range levels[len(levels)-1] {
				if _, ok := d.at(k, j); ok {
					next = append(next, j)
					break
				}
			}
		}
		if len(next) == 0 {
			break
		}
		for _, j := range next {
			reached[j] = true
		}
		levels = append(levels, next)
	}
	return levels
}

// vxmLevels is the BFS grb.BFS replaces: a complement-masked VxMDelta per
// hop, then reached |= next. It returns level 0 ([src]) and every non-empty
// level.
func vxmLevels(a *DeltaMatrix, src Index, maxHops int) [][]Index {
	n := a.nrows
	frontier, reached := NewVector(n), NewVector(n)
	_ = frontier.SetElement(src, 1)
	_ = reached.SetElement(src, 1)
	levels := [][]Index{{src}}
	for hop := 1; maxHops < 0 || hop <= maxHops; hop++ {
		next := NewVector(n)
		if err := VxMDelta(next, reached, nil, AnyPair, frontier, a, DescRSC); err != nil {
			panic(err)
		}
		if next.NVals() == 0 {
			break
		}
		ind, _ := next.extractTuples()
		levels = append(levels, ind)
		for _, j := range ind {
			_ = reached.SetElement(j, 1)
		}
		frontier = next
	}
	return levels
}

// bfsLevels runs BFS with the given direction policy, copying every level.
func bfsLevels(a, at *DeltaMatrix, src Index, maxHops int, mode string) ([][]Index, error) {
	var levels [][]Index
	step := func(h *BFSHop) (bool, error) {
		switch mode {
		case "push":
			return false, nil
		case "pull":
			return true, nil
		}
		budget := 1.2 * float64(h.Unreached)
		return h.FrontierDegree(budget) > budget, nil
	}
	err := BFS(a, at, src, maxHops, step, func(hop int, level []Index) error {
		if hop != len(levels) {
			return fmt.Errorf("level %d visited as hop %d", len(levels), hop)
		}
		levels = append(levels, append([]Index(nil), level...))
		return nil
	})
	return levels, err
}

// TestBFSMatchesVxMLoop checks BFS and the masked-VxM loop against the dense
// reference BFS level by level, in ascending order, BFS under forced push,
// forced pull and a cost-based choice, on random delta matrices with pending
// rows.
func TestBFSMatchesVxMLoop(t *testing.T) {
	r := rand.New(rand.NewSource(24))
	for iter := 0; iter < 300; iter++ {
		n := r.Intn(150) + 1
		a, at, ref := randomDeltaPair(r, n)
		src := r.Intn(n)
		maxHops := r.Intn(6) - 1
		want := denseLevels(ref, src, maxHops)
		if got := vxmLevels(a, src, maxHops); !reflect.DeepEqual(got, want) {
			t.Fatalf("n=%d src=%d maxHops=%d VxM loop:\n got %v\nwant %v", n, src, maxHops, got, want)
		}
		for _, mode := range []string{"push", "pull", "auto"} {
			got, err := bfsLevels(a, at, src, maxHops, mode)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("n=%d src=%d maxHops=%d mode=%s:\n got %v\nwant %v", n, src, maxHops, mode, got, want)
			}
		}
	}
}

// TestBFSPlainMatrixAndStop covers a plain matrix operand, the nil step (push
// only), stopping from step and from visit, and the argument checks.
func TestBFSPlainMatrixAndStop(t *testing.T) {
	m := NewMatrix(4, 4)
	_ = m.SetElement(0, 1, 1)
	_ = m.SetElement(1, 2, 1)
	_ = m.SetElement(2, 0, 1)
	var got [][]Index
	err := BFS(m, nil, 0, -1, nil, func(hop int, level []Index) error {
		got = append(got, append([]Index(nil), level...))
		return nil
	})
	if want := [][]Index{{0}, {1}, {2}}; err != nil || !reflect.DeepEqual(got, want) {
		t.Fatalf("levels = %v, %v; want %v", got, err, want)
	}

	stop := fmt.Errorf("stop")
	hops := 0
	err = BFS(m, nil, 0, -1, func(*BFSHop) (bool, error) {
		if hops++; hops == 2 {
			return false, stop
		}
		return false, nil
	}, func(int, []Index) error { return nil })
	if err != stop || hops != 2 {
		t.Fatalf("step stop: err = %v after %d hops", err, hops)
	}
	err = BFS(m, nil, 0, -1, nil, func(hop int, _ []Index) error {
		if hop == 1 {
			return stop
		}
		return nil
	})
	if err != stop {
		t.Fatalf("visit stop: err = %v", err)
	}

	noop := func(int, []Index) error { return nil }
	if err := BFS(m, nil, 4, -1, nil, noop); err == nil {
		t.Fatal("source out of range: want an error")
	}
	if err := BFS(NewMatrix(3, 4), nil, 0, -1, nil, noop); err == nil {
		t.Fatal("rectangular operand: want an error")
	}
	if err := BFS(m, NewMatrix(3, 3), 0, -1, nil, noop); err == nil {
		t.Fatal("transpose of the wrong size: want an error")
	}
}
