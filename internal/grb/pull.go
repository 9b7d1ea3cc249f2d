package grb

// This file holds the vector pull (dot-product) kernel. The push kernels
// (vxmInternal, mxmOnRows) scatter each frontier entry's adjacency row into
// the output: cost ~ sum of frontier out-degrees, ideal while the frontier is
// sparse. The pull kernel instead iterates candidate OUTPUT positions and
// intersects each one's in-neighbour list (a row of the transposed operand)
// against the frontier's bitmap, with structural/terminal early exit on the
// first witness: cost ~ candidates × (probes until hit), which wins once the
// frontier is dense enough that most probes hit after a couple of entries.
// grb.BFS carries its own pull hop; batched (matrix-frontier) hops always
// push, because a frontier of one source per record never grows dense.
//
// The kernel takes the TRANSPOSED operand as a rowSource, so the graph
// layer's delta matrices (R', adj') feed it fold-free, exactly like the push
// kernels consume R and adj.

// bitmapView returns O(1)-membership views of the vector: its presence
// bitmap and, when needVals is set, a dense value array. A bitmap-mode
// vector returns its own structures zero-copy; a sparse vector materialises
// temporaries in one linear pass (pull pays off only on dense frontiers, so
// this path is rare and cheap relative to the multiply).
func (v *Vector) bitmapView(needVals bool) (bitset, []float64) {
	if v.dense {
		return v.dbits, v.dval
	}
	bits := newBitset(v.n)
	var vals []float64
	if needVals {
		vals = make([]float64, v.n)
	}
	for k, i := range v.ind {
		bits.set(i)
		if needVals {
			vals[i] = v.val[k]
		}
	}
	return bits, vals
}

// pullVxM computes t[i] = ⊕_j u(j) ⊗ at(i, j) for every candidate output
// index i, merging t into w under mask/accum — the pull kernel body, generic
// over the operand's row representation. at is the transpose B' of w = u'·B,
// so its ROWS index the OUTPUT dimension. Masked (and complement-masked)
// candidates are skipped before their dot product starts, so a var-length
// traversal's "not yet reached" mask shrinks the candidate set, not just the
// output.
// keep, when non-nil, is a column mask over the output dimension — the
// executor's pushed destination predicates — pruning candidates the same
// way: positions keep rejects never start their in-neighbour scan.
func pullVxM(w *Vector, mask *Vector, accum *BinaryOp, s Semiring, u *Vector, at rowSource, keep ColMask, d *Descriptor) error {
	atR, atC := at.srcDims()
	if u.n != atC {
		return dimErr("pull: u has size %d, operand is %dx%d", u.n, atR, atC)
	}
	if w.n != atR {
		return dimErr("pull: w has size %d, want %d", w.n, atR)
	}
	if mask != nil && mask.n != w.n {
		return dimErr("pull: mask has size %d, want %d", mask.n, w.n)
	}
	comp, structure := d.comp(), d.structure()

	ubits, uval := u.bitmapView(!s.Structural)

	t := NewVector(w.n)
	nth := d.nthreads()
	nparts := partitionParts(atR, nth, rangeGrain)
	type partial struct {
		ind []Index
		val []float64
	}
	parts := make([]partial, nparts)
	parallelRanges(d.sched(), atR, nth, rangeGrain, func(part, lo, hi int) {
		p := &parts[part]
		var rowBuf rowScratch
		for i := lo; i < hi; i++ {
			if (mask != nil || comp) && !mask.maskAllows(i, comp, structure) {
				continue
			}
			if keep != nil && !keep(i) {
				continue
			}
			ac, av := at.srcRow(i, &rowBuf)
			acc := s.Add.Identity
			found := false
			for k, j := range ac {
				if !ubits.get(j) {
					continue
				}
				if s.Structural {
					// Any witness suffices: the early exit that makes dense-
					// frontier pulls O(1)-ish per candidate.
					acc, found = 1, true
					break
				}
				m := s.Mul.F(uval[j], av[k]) // u(j) ⊗ B(j, i)
				if !found {
					acc, found = m, true
				} else {
					acc = s.Add.Op.F(acc, m)
				}
				if s.Add.Terminal != nil && acc == *s.Add.Terminal {
					break
				}
			}
			if found {
				p.ind = append(p.ind, i)
				p.val = append(p.val, acc)
			}
		}
	})
	for _, p := range parts {
		t.ind = append(t.ind, p.ind...)
		t.val = append(t.val, p.val...)
	}
	t.maybeDensify()
	mergeVector(w, mask, accum, t, d)
	return nil
}

// VxMPull computes w<mask> = accum(w, u'·B) through the pull kernel, taking
// the TRANSPOSE of B as a delta-matrix operand: each candidate output j
// intersects B'(j, :) — j's in-neighbours — against u's bitmap. This is the
// dense-frontier direction of direction-optimizing traversal; VxMDelta is
// its push twin over B itself. keep, when non-nil, prunes candidate output
// positions before their in-neighbour scan (pushed destination predicates).
func VxMPull(w *Vector, mask *Vector, accum *BinaryOp, s Semiring, u *Vector, bt *DeltaMatrix, keep ColMask, d *Descriptor) error {
	if w == nil || bt == nil || u == nil {
		return ErrNilObject
	}
	return pullVxM(w, mask, accum, s, u, bt, keep, d)
}
