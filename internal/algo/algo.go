// Package algo implements graph algorithms in the language of linear
// algebra on top of the grb package — the LDBC Graphalytics / GraphChallenge
// kernels the paper lists as future benchmarking targets: BFS, PageRank,
// connected components, SSSP, triangle counting, k-truss and local
// clustering coefficients.
package algo

import (
	"fmt"
	"math"

	"redisgraph/internal/grb"
)

// BFSLevels returns a vector whose entry i is the hop distance from source
// to node i (source = 0). Unreached nodes have no entry. The search is
// grb.BFS, push hops only, on the calling goroutine (desc is not consulted).
func BFSLevels(a *grb.Matrix, source grb.Index, desc *grb.Descriptor) (*grb.Vector, error) {
	n := a.NRows()
	if source < 0 || source >= n {
		return nil, fmt.Errorf("algo: source %d out of range %d", source, n)
	}
	levels := grb.NewVector(n)
	err := grb.BFS(a, nil, source, -1, nil, func(hop int, level []grb.Index) error {
		return grb.VectorAssignScalar(levels, nil, nil, float64(hop), level, nil)
	})
	if err != nil {
		return nil, err
	}
	return levels, nil
}

// KHopCount returns the number of distinct nodes within 1..k hops of
// source — the TigerGraph benchmark's k-hop neighbourhood count, and the same
// grb.BFS the query engine's pushed-down var-length count runs (push hops
// only; desc is not consulted).
func KHopCount(a *grb.Matrix, source grb.Index, k int, desc *grb.Descriptor) (int, error) {
	count := 0
	err := grb.BFS(a, nil, source, max(k, 0), nil, func(hop int, level []grb.Index) error {
		if hop > 0 {
			count += len(level)
		}
		return nil
	})
	return count, err
}

// PageRank computes the PageRank vector with the given damping factor,
// iterating until the L1 delta drops below tol or maxIter is reached.
// Returns the ranks and the number of iterations executed.
func PageRank(a *grb.Matrix, damping float64, tol float64, maxIter int, desc *grb.Descriptor) (*grb.Vector, int, error) {
	n := a.NRows()
	if n == 0 {
		return grb.NewVector(0), 0, nil
	}
	// Out-degrees (dangling nodes redistribute uniformly).
	deg := grb.NewVector(n)
	if err := grb.ReduceMatrixToVector(deg, nil, nil, grb.PlusMonoid, spones(a), nil); err != nil {
		return nil, 0, err
	}
	rank := grb.DenseVector(n, 1/float64(n))
	iter := 0
	for ; iter < maxIter; iter++ {
		// contrib[i] = rank[i] / outdeg[i] for non-dangling i.
		contrib := grb.NewVector(n)
		if err := grb.EWiseMultVector(contrib, nil, nil, grb.Div, rank, deg, nil); err != nil {
			return nil, 0, err
		}
		// dangling mass.
		dangling := 0.0
		rank.Iterate(func(i grb.Index, x float64) bool {
			if _, ok := deg.ExtractElement(i); ok != nil {
				dangling += x
			}
			return true
		})
		next := grb.NewVector(n)
		if err := grb.VxM(next, nil, nil, grb.PlusFirst, contrib, a, desc); err != nil {
			return nil, 0, err
		}
		base := (1-damping)/float64(n) + damping*dangling/float64(n)
		newRank := grb.DenseVector(n, base)
		if err := grb.EWiseAddVector(newRank, nil, nil, grb.Plus, newRank, scale(next, damping), nil); err != nil {
			return nil, 0, err
		}
		// L1 delta.
		delta := 0.0
		for i := 0; i < n; i++ {
			o, _ := rank.ExtractElement(i)
			v, _ := newRank.ExtractElement(i)
			delta += math.Abs(o - v)
		}
		rank = newRank
		if delta < tol {
			iter++
			break
		}
	}
	return rank, iter, nil
}

func scale(v *grb.Vector, s float64) *grb.Vector {
	out := grb.NewVector(v.Size())
	if err := grb.ApplyBindSecond(out, nil, nil, grb.Times, v, s, nil); err != nil {
		panic(err)
	}
	return out
}

// spones returns the boolean pattern of a matrix (all values 1).
func spones(a *grb.Matrix) *grb.Matrix {
	out := grb.NewMatrix(a.NRows(), a.NCols())
	if err := grb.ApplyMatrix(out, nil, nil, grb.One, a, nil); err != nil {
		panic(err)
	}
	return out
}

// ConnectedComponents labels each node of an undirected graph with the
// minimum node id in its component (label-propagation over MIN-FIRST).
// The input is treated as undirected: A ∪ A'.
func ConnectedComponents(a *grb.Matrix, desc *grb.Descriptor) (*grb.Vector, int, error) {
	n := a.NRows()
	sym := grb.NewMatrix(n, n)
	if err := grb.EWiseAddMatrix(sym, nil, nil, grb.LOr, a, a, grb.DescT1); err != nil {
		return nil, 0, err
	}
	labels := grb.NewVector(n)
	for i := 0; i < n; i++ {
		if err := labels.SetElement(i, float64(i)); err != nil {
			return nil, 0, err
		}
	}
	iters := 0
	for {
		iters++
		next := labels.Dup()
		// next[j] = min(next[j], min_i labels[i] over edges i→j)
		if err := grb.VxM(next, nil, &grb.Min, grb.MinFirst, labels, sym, desc); err != nil {
			return nil, 0, err
		}
		changed := false
		next.Iterate(func(i grb.Index, x float64) bool {
			if old, _ := labels.ExtractElement(i); old != x {
				changed = true
				return false
			}
			return true
		})
		labels = next
		if !changed {
			break
		}
	}
	return labels, iters, nil
}

// ComponentCount returns the number of distinct component labels.
func ComponentCount(labels *grb.Vector) int {
	seen := map[float64]bool{}
	labels.Iterate(func(_ grb.Index, x float64) bool {
		seen[x] = true
		return true
	})
	return len(seen)
}

// SSSP computes single-source shortest paths over the min-plus semiring
// (Bellman-Ford style relaxation). Edge weights are matrix values.
func SSSP(a *grb.Matrix, source grb.Index, desc *grb.Descriptor) (*grb.Vector, error) {
	n := a.NRows()
	dist := grb.NewVector(n)
	if err := dist.SetElement(source, 0); err != nil {
		return nil, err
	}
	for iter := 0; iter < n; iter++ {
		prevN := dist.NVals()
		prevSum := grb.ReduceVectorToScalar(grb.PlusMonoid, dist)
		if err := grb.VxM(dist, nil, &grb.Min, grb.MinPlus, dist, a, desc); err != nil {
			return nil, err
		}
		if dist.NVals() == prevN && grb.ReduceVectorToScalar(grb.PlusMonoid, dist) == prevSum {
			break
		}
	}
	return dist, nil
}

// TriangleCount implements the Sandia algorithm the SuiteSparse paper [5]
// describes: with L the strictly-lower-triangular pattern, the count is
// reduce(C) where C<L> = L·L' over PLUS_PAIR... using L·L with a structural
// mask in row form.
func TriangleCount(a *grb.Matrix, desc *grb.Descriptor) (int, error) {
	n := a.NRows()
	// Symmetrise and drop the diagonal, then take the lower triangle.
	sym := grb.NewMatrix(n, n)
	if err := grb.EWiseAddMatrix(sym, nil, nil, grb.LOr, a, a, grb.DescT1); err != nil {
		return 0, err
	}
	noDiag := grb.NewMatrix(n, n)
	if err := grb.SelectMatrix(noDiag, nil, nil, grb.OffDiag, sym, nil); err != nil {
		return 0, err
	}
	l := grb.NewMatrix(n, n)
	if err := grb.SelectMatrix(l, nil, nil, grb.Tril, noDiag, nil); err != nil {
		return 0, err
	}
	c := grb.NewMatrix(n, n)
	d := grb.Descriptor{Structure: true, TranB: true}
	if desc != nil {
		d.NThreads = desc.NThreads
	}
	if err := grb.MxM(c, l, nil, grb.PlusPair, l, l, &d); err != nil {
		return 0, err
	}
	return int(grb.ReduceMatrixToScalar(grb.PlusMonoid, c)), nil
}

// KTruss returns the k-truss subgraph pattern of an undirected graph: the
// maximal subgraph where every edge participates in at least k-2 triangles.
func KTruss(a *grb.Matrix, k int, desc *grb.Descriptor) (*grb.Matrix, int, error) {
	if k < 3 {
		return nil, 0, fmt.Errorf("algo: k-truss requires k >= 3")
	}
	n := a.NRows()
	// Work on the symmetric, diagonal-free pattern.
	c := grb.NewMatrix(n, n)
	if err := grb.EWiseAddMatrix(c, nil, nil, grb.LOr, a, a, grb.DescT1); err != nil {
		return nil, 0, err
	}
	tmp := grb.NewMatrix(n, n)
	if err := grb.SelectMatrix(tmp, nil, nil, grb.OffDiag, c, nil); err != nil {
		return nil, 0, err
	}
	c = spones(tmp)
	iters := 0
	for {
		iters++
		// support<C> = C·C (each entry counts triangles through the edge).
		support := grb.NewMatrix(n, n)
		d := grb.Descriptor{Structure: true}
		if desc != nil {
			d.NThreads = desc.NThreads
		}
		if err := grb.MxM(support, c, nil, grb.PlusPair, c, c, &d); err != nil {
			return nil, 0, err
		}
		// Keep edges with support >= k-2.
		kept := grb.NewMatrix(n, n)
		if err := grb.SelectMatrix(kept, nil, nil, grb.ValueGE(float64(k-2)), support, nil); err != nil {
			return nil, 0, err
		}
		kept = spones(kept)
		if kept.NVals() == c.NVals() {
			return kept, iters, nil
		}
		c = kept
	}
}

// LocalClusteringCoefficient returns per-node clustering coefficients of the
// undirected pattern of a: triangles(i) / (deg(i) choose 2).
func LocalClusteringCoefficient(a *grb.Matrix, desc *grb.Descriptor) (*grb.Vector, error) {
	n := a.NRows()
	sym := grb.NewMatrix(n, n)
	if err := grb.EWiseAddMatrix(sym, nil, nil, grb.LOr, a, a, grb.DescT1); err != nil {
		return nil, err
	}
	noDiag := grb.NewMatrix(n, n)
	if err := grb.SelectMatrix(noDiag, nil, nil, grb.OffDiag, sym, nil); err != nil {
		return nil, err
	}
	// wedges per node.
	deg := grb.NewVector(n)
	if err := grb.ReduceMatrixToVector(deg, nil, nil, grb.PlusMonoid, spones(noDiag), nil); err != nil {
		return nil, err
	}
	// triangles per node: diag(A·A·A)/2 via masked C<A> = A·A then row sums.
	c := grb.NewMatrix(n, n)
	d := grb.Descriptor{Structure: true}
	if desc != nil {
		d.NThreads = desc.NThreads
	}
	if err := grb.MxM(c, noDiag, nil, grb.PlusPair, noDiag, noDiag, &d); err != nil {
		return nil, err
	}
	tri := grb.NewVector(n)
	if err := grb.ReduceMatrixToVector(tri, nil, nil, grb.PlusMonoid, c, nil); err != nil {
		return nil, err
	}
	out := grb.NewVector(n)
	deg.Iterate(func(i grb.Index, dv float64) bool {
		if dv < 2 {
			return true
		}
		tv, _ := tri.ExtractElement(i)
		// Each triangle at i is counted twice in C's row sum (both neighbour
		// orderings).
		cc := tv / (dv * (dv - 1))
		_ = out.SetElement(i, cc)
		return true
	})
	return out, nil
}
