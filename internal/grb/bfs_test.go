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
// effective adjacency as a dense reference. A third of the graphs use only a
// prefix of the vertices, as the graph layer's padded dimension does.
func randomDeltaPair(r *rand.Rand, n int) (a, at *DeltaMatrix, ref *dense) {
	used := n
	if r.Intn(3) == 0 {
		used = r.Intn(n) + 1
	}
	m := r.Intn(4*used + 1)
	src, dst := make([]Index, m), make([]Index, m)
	ref = newDense(n, n)
	for k := range src {
		src[k], dst[k] = r.Intn(used), r.Intn(used)
		ref.set(src[k], dst[k])
	}
	a, at = DeltaFrom(boolMatrix(n, n, src, dst)), DeltaFrom(boolMatrix(n, n, dst, src))
	for k := 0; k < used; k++ { // pending inserts
		i, j := r.Intn(used), r.Intn(used)
		_ = a.SetElement(i, j, 1)
		_ = at.SetElement(j, i, 1)
		ref.set(i, j)
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
				if d.at(k, j) {
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

// vxmLevels is the BFS grb.BFS replaces: a VxMDelta per hop, less the
// reached set, then reached |= next. It returns level 0 ([src]) and every
// non-empty level.
func vxmLevels(a *DeltaMatrix, src Index, maxHops int) [][]Index {
	n := a.nrows
	frontier := NewVector(n)
	_ = frontier.SetElement(src, 1)
	reached := map[Index]bool{src: true}
	levels := [][]Index{{src}}
	for hop := 1; maxHops < 0 || hop <= maxHops; hop++ {
		out := NewVector(n)
		if err := VxMDelta(out, nil, nil, AnyPair, frontier, a, nil); err != nil {
			panic(err)
		}
		next := NewVector(n)
		var level []Index
		out.Iterate(func(j Index, _ float64) bool {
			if !reached[j] {
				reached[j] = true
				level = append(level, j)
				_ = next.SetElement(j, 1)
			}
			return true
		})
		if len(level) == 0 {
			break
		}
		levels = append(levels, level)
		frontier = next
	}
	return levels
}

// hopCounts is what one step call saw: BFSHop's exported counts.
type hopCounts struct{ unreached, unreachedIn int }

// bfsLevels runs BFS with the given direction policy, copying every level
// and the counts each step call saw. The auto policy is the var-length
// chooser's formula (choosePullHop in internal/core): pull when the
// frontier's out-degree sum exceeds 1.1 × UnreachedIn + 1.4 × Unreached.
func bfsLevels(a, at []*DeltaMatrix, src Index, maxHops int, mode string) ([][]Index, []hopCounts, error) {
	var levels [][]Index
	var hops []hopCounts
	step := func(h *BFSHop) (bool, error) {
		hops = append(hops, hopCounts{h.Unreached, h.UnreachedIn})
		switch mode {
		case "push":
			return false, nil
		case "pull":
			return true, nil
		}
		budget := 1.1*float64(h.UnreachedIn) + 1.4*float64(h.Unreached)
		return h.FrontierDegree(budget) > budget, nil
	}
	err := BFS(a, at, src, maxHops, step, func(hop int, level []Index) error {
		if hop != len(levels) {
			return fmt.Errorf("level %d visited as hop %d", len(levels), hop)
		}
		levels = append(levels, append([]Index(nil), level...))
		return nil
	})
	return levels, hops, err
}

// inDegrees returns every vertex's in-degree in the dense reference and one
// past the last vertex with an in-edge.
func inDegrees(ref *dense) (deg []int, span int) {
	deg = make([]int, ref.nc)
	for i := 0; i < ref.nr; i++ {
		for j := 0; j < ref.nc; j++ {
			if ref.at(i, j) {
				deg[j]++
				span = max(span, j+1)
			}
		}
	}
	return deg, span
}

// bruteHopCounts returns, for the step before each hop of a search that
// produced levels, the unreached vertices below span and the sum of every
// unreached vertex's in-degree in the dense reference.
func bruteHopCounts(ref *dense, levels [][]Index, steps, span int) []hopCounts {
	inDeg, _ := inDegrees(ref)
	reached := make([]bool, ref.nr)
	var out []hopCounts
	for s := 0; s < steps; s++ {
		for _, j := range levels[s] {
			reached[j] = true
		}
		var c hopCounts
		for j, r := range reached {
			if !r {
				c.unreachedIn += inDeg[j]
				if j < span {
					c.unreached++
				}
			}
		}
		out = append(out, c)
	}
	return out
}

// TestBFSMatchesVxMLoop checks BFS and the VxM loop against the dense
// reference BFS level by level, in ascending order, BFS under forced push,
// forced pull and a cost-based choice, on random delta matrices twice: with
// pending rows (the merged-row reads) and after Sync (the clean-CSR reads).
// Every step call's Unreached and UnreachedIn must match a brute-force count
// over the reference. Unreached stops at the transpose's row span, which
// after Sync is one past the last vertex with an in-edge and before it may
// only lie further out.
func TestBFSMatchesVxMLoop(t *testing.T) {
	r := rand.New(rand.NewSource(24))
	dirty, padded := 0, 0
	for iter := 0; iter < 300; iter++ {
		n := r.Intn(150) + 1
		a, at, ref := randomDeltaPair(r, n)
		src := r.Intn(n)
		maxHops := r.Intn(6) - 1
		want := denseLevels(ref, src, maxHops)
		if a.Pending() > 0 && at.Pending() > 0 {
			dirty++
		}
		for _, state := range []string{"pending", "synced"} {
			if state == "synced" {
				a.ForceSync()
				at.ForceSync()
				if a.Pending()+at.Pending() != 0 {
					t.Fatal("ForceSync left updates pending")
				}
			}
			span := at.rowSpan()
			_, last := inDegrees(ref)
			if span < last || (state == "synced" && span != last) {
				t.Fatalf("n=%d %s: transpose row span %d, last vertex with an in-edge %d", n, state, span, last-1)
			}
			if state == "synced" && span < n {
				padded++
			}
			if got := vxmLevels(a, src, maxHops); !reflect.DeepEqual(got, want) {
				t.Fatalf("n=%d src=%d maxHops=%d %s VxM loop:\n got %v\nwant %v", n, src, maxHops, state, got, want)
			}
			for _, mode := range []string{"push", "pull", "auto"} {
				got, hops, err := bfsLevels([]*DeltaMatrix{a}, []*DeltaMatrix{at}, src, maxHops, mode)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("n=%d src=%d maxHops=%d %s mode=%s:\n got %v\nwant %v", n, src, maxHops, state, mode, got, want)
				}
				if wantHops := bruteHopCounts(ref, want, len(hops), span); !reflect.DeepEqual(hops, wantHops) {
					t.Fatalf("n=%d src=%d maxHops=%d %s mode=%s: step counts\n got %v\nwant %v", n, src, maxHops, state, mode, hops, wantHops)
				}
			}
		}
	}
	if dirty < 200 || padded < 60 {
		t.Fatalf("of 300 cases, %d had pending rows in both operands and %d vertices without an in-edge past the last with one", dirty, padded)
	}
}

// TestBFSOverParts checks BFS over a multi-part operand — two random
// digraphs on one vertex set ([:A|B]), and one digraph with its transpose
// (an undirected hop) — against the dense reference BFS over the parts'
// union, under forced push, forced pull and a cost-based choice, with
// pending rows and after Sync. Every step call's UnreachedIn must be the
// unreached vertices' in-degrees summed over the transpose's parts.
func TestBFSOverParts(t *testing.T) {
	r := rand.New(rand.NewSource(33))
	for iter := 0; iter < 150; iter++ {
		n := r.Intn(120) + 1
		a1, at1, ref1 := randomDeltaPair(r, n)
		a2, at2, ref2 := randomDeltaPair(r, n)
		undirected := newDense(n, n)
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				if ref1.at(i, j) {
					undirected.set(i, j)
					undirected.set(j, i)
				}
			}
		}
		typed := newDense(n, n)
		for x := range typed.ok {
			typed.ok[x] = ref1.ok[x] || ref2.ok[x]
		}
		src := r.Intn(n)
		maxHops := r.Intn(6) - 1
		for _, state := range []string{"pending", "synced"} {
			if state == "synced" {
				for _, m := range []*DeltaMatrix{a1, at1, a2, at2} {
					m.ForceSync()
				}
			}
			for _, c := range []struct {
				name    string
				a, at   []*DeltaMatrix
				ref     *dense
				inParts []*dense // what each part of at counts as in-edges
			}{
				{"A|B", []*DeltaMatrix{a1, a2}, []*DeltaMatrix{at1, at2}, typed, []*dense{ref1, ref2}},
				{"A±", []*DeltaMatrix{a1, at1}, []*DeltaMatrix{at1, a1}, undirected, []*dense{ref1, transposeDense(ref1)}},
			} {
				want := denseLevels(c.ref, src, maxHops)
				for _, mode := range []string{"push", "pull", "auto"} {
					got, hops, err := bfsLevels(c.a, c.at, src, maxHops, mode)
					if err != nil {
						t.Fatal(err)
					}
					if !reflect.DeepEqual(got, want) {
						t.Fatalf("n=%d src=%d maxHops=%d %s %s mode=%s:\n got %v\nwant %v", n, src, maxHops, c.name, state, mode, got, want)
					}
					var wantIn []int
					for _, part := range c.inParts {
						for s, h := range bruteHopCounts(part, want, len(hops), n) {
							if s == len(wantIn) {
								wantIn = append(wantIn, 0)
							}
							wantIn[s] += h.unreachedIn
						}
					}
					for s, h := range hops {
						if h.unreachedIn != wantIn[s] {
							t.Fatalf("n=%d %s %s mode=%s: step %d UnreachedIn %d, want %d", n, c.name, state, mode, s, h.unreachedIn, wantIn[s])
						}
					}
				}
			}
		}
	}
}

// transposeDense returns d's transpose.
func transposeDense(d *dense) *dense {
	out := newDense(d.nc, d.nr)
	for i := 0; i < d.nr; i++ {
		for j := 0; j < d.nc; j++ {
			if d.at(i, j) {
				out.set(j, i)
			}
		}
	}
	return out
}

// TestBFSPlainMatrixAndStop covers a plain matrix wrapped by DeltaFrom, the
// nil step (push only), stopping from step and from visit, and the argument
// checks.
func TestBFSPlainMatrixAndStop(t *testing.T) {
	pm := NewMatrix(4, 4)
	_ = pm.SetElement(0, 1, 1)
	_ = pm.SetElement(1, 2, 1)
	_ = pm.SetElement(2, 0, 1)
	m := []*DeltaMatrix{DeltaFrom(pm)}
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
	if err := BFS([]*DeltaMatrix{NewDeltaMatrix(3, 4)}, nil, 0, -1, nil, noop); err == nil {
		t.Fatal("rectangular operand: want an error")
	}
	if err := BFS(append(m, NewDeltaMatrix(3, 3)), nil, 0, -1, nil, noop); err == nil {
		t.Fatal("a second part of the wrong size: want an error")
	}
	if err := BFS(m, []*DeltaMatrix{NewDeltaMatrix(3, 3)}, 0, -1, nil, noop); err == nil {
		t.Fatal("transpose of the wrong size: want an error")
	}
	if err := BFS(nil, nil, 0, -1, nil, noop); err != ErrNilObject {
		t.Fatalf("no operand: err = %v, want ErrNilObject", err)
	}
}
