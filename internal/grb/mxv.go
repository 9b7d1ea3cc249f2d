package grb

import "sync"

// VxMDelta replaces w with the structural product u'·A (GrB_vxm over
// AnyPair, no mask, no accumulator) through the push kernel over a delta
// matrix operand: frontier expansion over a graph matrix with buffered
// writes, reading each row in place without folding. mask, accum and s must
// be nil, nil and AnyPair (see requireStructural).
func VxMDelta(w *Vector, mask *Vector, accum *BinaryOp, s Semiring, u *Vector, a *DeltaMatrix, d *Descriptor) error {
	if w == nil || a == nil || u == nil {
		return ErrNilObject
	}
	if err := requireStructural("vxm", mask != nil, accum, s); err != nil {
		return err
	}
	if u.n != a.nrows {
		return dimErr("vxm: u has size %d, A is %dx%d", u.n, a.nrows, a.ncols)
	}
	if w.n != a.ncols {
		return dimErr("vxm: w has size %d, want %d", w.n, a.ncols)
	}

	// The push (scatter) kernel: for every entry k of u, row k of A marks
	// its columns in a dense workspace; the first witness of a column makes
	// its entry.
	ws := getWorkspace(a.ncols)
	defer workspacePool.Put(ws)
	var outs []Index
	scatter := func(j Index) {
		if !ws.ok[j] {
			ws.ok[j] = true
			outs = append(outs, j)
		}
	}
	rp, ci := a.main.rowPtr, a.main.colInd
	u.Iterate(func(k Index, _ float64) bool {
		r := a.row(k)
		for p := rp[k]; p < rp[k+1]; p++ {
			if !a.buried(r, p) {
				scatter(ci[p])
			}
		}
		if r != nil {
			for _, j := range r.cols {
				scatter(j)
			}
		}
		return true
	})
	sortIndices(outs)
	for _, j := range outs {
		ws.ok[j] = false // scrub the pooled workspace for reuse
	}
	*w = Vector{n: w.n, ind: outs, val: ones(len(outs))}
	w.maybeDensify()
	return nil
}

// workspace is a reusable dense presence buffer. Entries of ok must be false
// when the workspace is returned to the pool; kernels scrub exactly the
// entries they set, so reuse costs O(touched) rather than O(n).
type workspace struct {
	ok []bool
}

var workspacePool = sync.Pool{New: func() any { return &workspace{} }}

func getWorkspace(n int) *workspace {
	ws := workspacePool.Get().(*workspace)
	if cap(ws.ok) < n {
		ws.ok = make([]bool, n)
	}
	ws.ok = ws.ok[:n]
	return ws
}
