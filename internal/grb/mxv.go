package grb

import (
	"fmt"
	"sync"
)

// VxMDelta computes w<mask> = accum(w, u'·A) (GrB_vxm) with the push
// kernel over a delta matrix operand: frontier expansion over a graph matrix
// with buffered writes, consulting main, delta-plus and delta-minus without
// folding. Transposing the delta operand is not supported.
func VxMDelta(w *Vector, mask *Vector, accum *BinaryOp, s Semiring, u *Vector, a *DeltaMatrix, d *Descriptor) error {
	if w == nil || a == nil || u == nil {
		return ErrNilObject
	}
	if d.tranB() {
		return fmt.Errorf("%w: vxm: delta operand cannot be transposed", ErrInvalidValue)
	}
	return vxmInternal(w, mask, accum, s, u, a, d)
}

// vxmInternal is the push (scatter) kernel: for every entry k of u, row k of
// A scatters into a dense accumulator over the output. It is generic over
// the matrix operand's row representation (plain CSR or delta).
func vxmInternal(w *Vector, mask *Vector, accum *BinaryOp, s Semiring, u *Vector, a rowSource, d *Descriptor) error {
	anrows, ancols := a.srcDims()
	if u.n != anrows {
		return dimErr("vxm: u has size %d, A is %dx%d", u.n, anrows, ancols)
	}
	if w.n != ancols {
		return dimErr("vxm: w has size %d, want %d", w.n, ancols)
	}
	if mask != nil && mask.n != w.n {
		return dimErr("vxm: mask has size %d, want %d", mask.n, w.n)
	}
	comp, structure := d.comp(), d.structure()

	ws := getWorkspace(ancols)
	defer putWorkspace(ws)
	wval, wok := ws.val, ws.ok
	var outs []Index
	var rowBuf rowScratch
	scatter := func(k Index, x float64) {
		ac, av := a.srcRow(k, &rowBuf)
		for kk, j := range ac {
			if (mask != nil || comp) && !wok[j] {
				if !mask.maskAllows(j, comp, structure) {
					continue
				}
			}
			var m float64
			if s.Structural {
				if wok[j] {
					continue // any witness suffices
				}
				m = 1
			} else {
				m = s.Mul.F(x, av[kk])
			}
			if !wok[j] {
				wok[j] = true
				wval[j] = m
				outs = append(outs, j)
			} else {
				wval[j] = s.Add.Op.F(wval[j], m)
			}
		}
	}
	u.Iterate(func(k Index, x float64) bool {
		scatter(k, x)
		return true
	})

	t := NewVector(w.n)
	sortIndices(outs)
	t.ind = make([]Index, 0, len(outs))
	t.val = make([]float64, 0, len(outs))
	for _, j := range outs {
		t.ind = append(t.ind, j)
		t.val = append(t.val, wval[j])
		wok[j] = false // scrub the pooled workspace for reuse
	}
	t.maybeDensify()
	mergeVector(w, mask, accum, t, d)
	return nil
}

// workspace is a reusable dense scatter buffer. Entries of ok must be false
// when the workspace is returned to the pool; kernels scrub exactly the
// entries they set, so reuse costs O(touched) rather than O(n).
type workspace struct {
	val []float64
	ok  []bool
}

var workspacePool = sync.Pool{New: func() any { return &workspace{} }}

func getWorkspace(n int) *workspace {
	ws := workspacePool.Get().(*workspace)
	if cap(ws.val) < n {
		ws.val = make([]float64, n)
		ws.ok = make([]bool, n)
	}
	ws.val = ws.val[:n]
	ws.ok = ws.ok[:n]
	return ws
}

func putWorkspace(ws *workspace) { workspacePool.Put(ws) }
