package grb

// This file holds the vector pull (dot-product) kernel. The push kernels
// (VxMDelta, MxMDelta) scatter each frontier entry's adjacency row into the
// output: cost ~ sum of frontier out-degrees, ideal while the frontier is
// sparse. The pull kernel instead iterates candidate OUTPUT positions and
// intersects each one's in-neighbour list (a row of the operand's transpose)
// against the frontier's bitmap, stopping at the first witness: cost ~
// candidates × (probes until hit), which wins once the frontier is dense
// enough that most probes hit after a couple of entries. grb.BFS carries its
// own pull hop; batched (matrix-frontier) hops always push, because a
// frontier of one source per record never grows dense.
//
// The kernel takes the operand's TRANSPOSE as a delta matrix, so the graph
// layer's Rᵀ feeds it fold-free, exactly like the push kernels consume R.

// bitmap returns the vector's presence bitmap for O(1) membership tests. A
// bitmap-mode vector returns its own bitset zero-copy; a sparse vector
// materialises one in a linear pass (pull pays off only on dense frontiers,
// so this path is rare and cheap relative to the product).
func (v *Vector) bitmap() bitset {
	if v.dense {
		return v.dbits
	}
	bits := newBitset(v.n)
	for _, i := range v.ind {
		bits.set(i)
	}
	return bits
}

// VxMPull replaces w with the structural product u'·B (GrB_vxm over AnyPair,
// no mask, no accumulator) through the pull kernel, taking the TRANSPOSE of
// B as a delta-matrix operand: each candidate output j scans B'(j, :) — j's
// in-neighbours — for an entry of u, and the first one makes w(j). This is
// the dense-frontier direction of direction-optimizing traversal; VxMDelta
// is its push twin over B itself. keep, when non-nil, prunes candidate
// output positions before their in-neighbour scan (pushed destination
// predicates). mask, accum and s must be nil, nil and AnyPair (see
// requireStructural).
func VxMPull(w *Vector, mask *Vector, accum *BinaryOp, s Semiring, u *Vector, bt *DeltaMatrix, keep ColMask, d *Descriptor) error {
	if w == nil || bt == nil || u == nil {
		return ErrNilObject
	}
	if err := requireStructural("pull", mask != nil, accum, s); err != nil {
		return err
	}
	if u.n != bt.ncols {
		return dimErr("pull: u has size %d, operand is %dx%d", u.n, bt.nrows, bt.ncols)
	}
	if w.n != bt.nrows {
		return dimErr("pull: w has size %d, want %d", w.n, bt.nrows)
	}

	ubits := u.bitmap()
	var ind []Index
	for i := 0; i < bt.nrows; i++ {
		if keep != nil && !keep(i) {
			continue
		}
		hit := false
		if r := bt.row(i); r != nil {
			hit = bt.anyLive(i, r, ubits)
		} else {
			for _, j := range bt.main.colInd[bt.main.rowPtr[i]:bt.main.rowPtr[i+1]] {
				if hit = ubits.get(j); hit {
					break
				}
			}
		}
		if hit {
			ind = append(ind, i)
		}
	}
	*w = Vector{n: w.n, ind: ind, val: ones(len(ind))}
	w.maybeDensify()
	return nil
}
