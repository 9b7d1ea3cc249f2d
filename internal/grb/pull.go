package grb

import (
	"fmt"
	"sync"
)

// This file holds the pull (dot-product) traversal kernels — the other half
// of direction-optimizing traversal. The push kernels (vxmInternal,
// mxmOnRows) scatter each frontier entry's adjacency row into the output:
// cost ~ sum of frontier out-degrees, ideal while the frontier is sparse.
// The pull kernels instead iterate candidate OUTPUT positions and intersect
// each one's in-neighbour list (a row of the transposed operand) against the
// frontier's bitmap, with structural/terminal early exit on the first
// witness: cost ~ candidates × (probes until hit), which wins once the
// frontier is dense enough that most probes hit after a couple of entries —
// the classic sparse/dense (top-down/bottom-up) BFS switch, applied per hop.
//
// Both kernels take the TRANSPOSED operand as a rowSource, so the graph
// layer's delta matrices (R', adj') feed them fold-free, exactly like the
// push kernels consume R and adj.

// bitmapView returns O(1)-membership views of the vector: its presence
// bitmap and, when needVals is set, a dense value array. A bitmap-mode
// vector returns its own structures zero-copy; a sparse vector materialises
// temporaries in one linear pass (the kernel chooser only picks pull for
// dense frontiers, so this path is rare and cheap relative to the multiply).
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

// mxmPullWorkspace holds the pooled buffers of the batched pull kernel: the
// frontier flipped into per-column record bitmasks, scrubbed via the touched
// list so reuse costs O(touched), not O(dim).
type mxmPullWorkspace struct {
	colBits []uint64 // [dim × words] record-bitmask per frontier column
	touched []Index  // columns with at least one record bit set
	acc     []uint64 // per-candidate accumulator, words wide
	full    []uint64 // union of all record bitmasks (saturation target)
	rowCols [][]Index
}

var mxmPullPool = sync.Pool{New: func() any { return &mxmPullWorkspace{} }}

// MxMPull computes C = F·B for a batched frontier matrix F through the pull
// kernel, taking the TRANSPOSE of B as a rowSource operand. The frontier is
// flipped from CSR rows into per-column bitmasks over the record (row)
// dimension — the batch analogue of the vector bitmap — then every candidate
// output column j ORs together the bitmasks of its in-neighbours B'(j, :),
// early-exiting once every record that could reach j has (saturation). Only
// structural semirings are supported (any witness suffices; traversal runs
// on AnyPair). keep, when non-nil, is a column mask over the candidate
// dimension — the executor's pushed destination predicates — so rejected
// columns never start their in-neighbour scan at all, closing the pushdown
// asymmetry with the push kernel's post-evaluation SelectCols. When
// desc.NThreads > 1 the candidate columns are morselised across the shared
// pool with a deterministic ordered scatter.
func MxMPull(c *Matrix, s Semiring, f *Matrix, bt rowSource, keep ColMask, d *Descriptor) error {
	if c == nil || f == nil || bt == nil {
		return ErrNilObject
	}
	if !s.Structural {
		return fmt.Errorf("%w: mxm pull requires a structural semiring", ErrInvalidValue)
	}
	btR, btC := bt.srcDims()
	if f.ncols != btC {
		return dimErr("mxm pull: F is %dx%d, B' is %dx%d", f.nrows, f.ncols, btR, btC)
	}
	if c.nrows != f.nrows || c.ncols != btR {
		return dimErr("mxm pull: C is %dx%d, want %dx%d", c.nrows, c.ncols, f.nrows, btR)
	}

	nrec := f.nrows
	words := (nrec + 63) / 64
	ws := mxmPullPool.Get().(*mxmPullWorkspace)
	if cap(ws.colBits) < btC*words {
		ws.colBits = make([]uint64, btC*words)
	}
	colBits := ws.colBits[:btC*words]
	touched := ws.touched[:0]
	if cap(ws.acc) < words {
		ws.acc = make([]uint64, words)
		ws.full = make([]uint64, words)
	}
	acc, full := ws.acc[:words], ws.full[:words]
	for i := range full {
		full[i] = 0
	}

	// Flip the frontier: colBits[k] = bitmask of records whose row holds k.
	for r := 0; r < nrec; r++ {
		word, bit := uint64(1)<<(uint(r)&63), r>>6
		for _, k := range f.colInd[f.rowPtr[r]:f.rowPtr[r+1]] {
			base := k * words
			if isZeroWords(colBits[base : base+words]) {
				touched = append(touched, k)
			}
			colBits[base+bit] |= word
			full[bit] |= word
		}
	}

	// Per-record output column lists; j ascends, so each stays sorted.
	if cap(ws.rowCols) < nrec {
		ws.rowCols = make([][]Index, nrec)
	}
	rowCols := ws.rowCols[:nrec]
	for r := range rowCols {
		rowCols[r] = rowCols[r][:0]
	}

	// pullColumn ORs the in-neighbour record bitmasks of candidate column j
	// into the given accumulator, early-exiting at saturation; it reports
	// whether any record reaches j. colBits and full are read-only here, so
	// concurrent calls with private accumulators are safe.
	pullColumn := func(j int, acc []uint64, rowBuf *rowScratch) bool {
		bc, _ := bt.srcRow(j, rowBuf)
		if len(bc) == 0 {
			return false
		}
		for i := range acc {
			acc[i] = 0
		}
		hit := false
		for _, k := range bc {
			base := k * words
			any := false
			for i := 0; i < words; i++ {
				acc[i] |= colBits[base+i]
				if acc[i] != 0 {
					any = true
				}
			}
			if any {
				hit = true
				if equalWords(acc, full) {
					break // every present record reaches j: saturated
				}
			}
		}
		return hit
	}

	nth := d.nthreads()
	nparts := partitionParts(btR, nth, rangeGrain)
	if nparts == 1 {
		var rowBuf rowScratch
		for j := 0; j < btR; j++ {
			if keep != nil && !keep(j) {
				continue
			}
			if !pullColumn(j, acc, &rowBuf) {
				continue
			}
			bitset(acc).iterate(func(r Index) bool {
				rowCols[r] = append(rowCols[r], j)
				return true
			})
		}
	} else {
		// Parallel pull: each morsel scans a contiguous candidate-column
		// range with a private accumulator, buffering (column, bitmask)
		// pairs for its hits. The buffered hits then scatter sequentially in
		// ascending part order, so every record's column list comes out
		// sorted exactly as the serial loop produces it.
		type pullHits struct {
			cols []Index
			bits []uint64
		}
		hits := make([]pullHits, nparts)
		parallelRanges(d.sched(), btR, nth, rangeGrain, func(part, lo, hi int) {
			h := &hits[part]
			pacc := make([]uint64, words)
			var rowBuf rowScratch
			for j := lo; j < hi; j++ {
				if keep != nil && !keep(j) {
					continue
				}
				if !pullColumn(j, pacc, &rowBuf) {
					continue
				}
				h.cols = append(h.cols, j)
				h.bits = append(h.bits, pacc...)
			}
		})
		for pi := range hits {
			h := &hits[pi]
			for k, j := range h.cols {
				bitset(h.bits[k*words : (k+1)*words]).iterate(func(r Index) bool {
					rowCols[r] = append(rowCols[r], j)
					return true
				})
			}
		}
	}

	// Assemble the CSR result (structural: every value is 1).
	total := 0
	for r := range rowCols {
		total += len(rowCols[r])
	}
	t := NewMatrix(c.nrows, c.ncols)
	t.colInd = make([]Index, 0, total)
	t.val = make([]float64, total)
	for i := range t.val {
		t.val[i] = 1
	}
	for r := range rowCols {
		t.rowPtr[r] = len(t.colInd)
		t.colInd = append(t.colInd, rowCols[r]...)
	}
	t.rowPtr[nrec] = len(t.colInd)
	mergeMatrix(c, nil, nil, t, d)

	// Scrub exactly the touched columns before pooling the workspace.
	for _, k := range touched {
		base := k * words
		for i := 0; i < words; i++ {
			colBits[base+i] = 0
		}
	}
	ws.colBits, ws.touched, ws.acc, ws.full, ws.rowCols = colBits, touched, acc, full, rowCols
	mxmPullPool.Put(ws)
	return nil
}

func isZeroWords(ws []uint64) bool {
	for _, w := range ws {
		if w != 0 {
			return false
		}
	}
	return true
}

func equalWords(a, b []uint64) bool {
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
