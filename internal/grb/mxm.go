package grb

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
)

// mxmWorkspace is the per-thread dense scatter buffer of the Gustavson
// kernel. Instances are pooled: the mark array carries row stamps drawn from
// a package-global monotonic counter, so a reused workspace never needs
// scrubbing — stale stamps from earlier calls are always smaller than any
// freshly issued stamp.
type mxmWorkspace struct {
	wval []float64
	mark []int64
	// retained-capacity accumulation buffers (see the kernel body)
	ci   []Index
	vv   []float64
	cols []Index
	// merged-row assembly buffer for delta-matrix operands
	row rowScratch
}

var mxmPool = sync.Pool{New: func() any { return &mxmWorkspace{} }}

// mxmStamp issues globally unique row stamps; it starts at 1 so the zero
// value of a fresh mark array never matches.
var mxmStamp atomic.Int64

func getMxMWorkspace(n int) *mxmWorkspace {
	ws := mxmPool.Get().(*mxmWorkspace)
	if cap(ws.mark) < n {
		ws.mark = make([]int64, n)
		ws.wval = make([]float64, n)
	}
	ws.mark = ws.mark[:n]
	ws.wval = ws.wval[:n]
	return ws
}

func putMxMWorkspace(ws *mxmWorkspace) { mxmPool.Put(ws) }

// MxMDelta computes C<Mask> = accum(C, A·B) over the given semiring
// (GrB_mxm) with a delta matrix as the B operand: effective rows of B (main ∪
// delta-plus, minus delta-minus) feed Gustavson's row-wise kernel directly,
// so no fold of B ever happens — the read path of concurrent query
// execution. Desc.TranA transposes A; transposing the delta operand is not
// supported. When desc.NThreads > 1 the rows are split into grained morsels
// on the shared work-stealing pool and merged in deterministic row order. A
// mask prunes candidate output columns inline, row by row.
func MxMDelta(c *Matrix, mask *Matrix, accum *BinaryOp, s Semiring, a *Matrix, b *DeltaMatrix, d *Descriptor) error {
	if c == nil || a == nil || b == nil {
		return ErrNilObject
	}
	if d.tranB() {
		return fmt.Errorf("%w: mxm: delta operand cannot be transposed", ErrInvalidValue)
	}
	if d.tranA() {
		a = transposed(a)
	}
	return mxmOnRows(c, mask, accum, s, a, b, d)
}

// mxmOnRows is the Gustavson kernel body, generic over the B operand's row
// representation.
func mxmOnRows(c *Matrix, mask *Matrix, accum *BinaryOp, s Semiring, a *Matrix, b rowSource, d *Descriptor) error {
	bnrows, bncols := b.srcDims()
	if a.ncols != bnrows {
		return dimErr("mxm: A is %dx%d, B is %dx%d", a.nrows, a.ncols, bnrows, bncols)
	}
	if c.nrows != a.nrows || c.ncols != bncols {
		return dimErr("mxm: C is %dx%d, want %dx%d", c.nrows, c.ncols, a.nrows, bncols)
	}
	if mask != nil && (mask.nrows != c.nrows || mask.ncols != c.ncols) {
		return dimErr("mxm: mask is %dx%d, want %dx%d", mask.nrows, mask.ncols, c.nrows, c.ncols)
	}

	comp, structure := d.comp(), d.structure()
	nth := d.nthreads()
	nparts := partitionParts(a.nrows, nth, mxmRowGrain)
	type partial struct {
		rp []int
		ci []Index
		vv []float64
	}
	parts := make([]partial, nparts)

	parallelRanges(d.sched(), a.nrows, nth, mxmRowGrain, func(part, lo, hi int) {
		ws := getMxMWorkspace(bncols)
		wval, mark := ws.wval, ws.mark
		base := mxmStamp.Add(int64(hi-lo)) - int64(hi-lo)
		// Accumulate into the workspace's retained-capacity buffers, then
		// snapshot exact-size slices before the workspace returns to the
		// pool — repeated small-batch calls then allocate only the result.
		ci, vv, cols := ws.ci[:0], ws.vv[:0], ws.cols[:0]
		p := &parts[part]
		p.rp = make([]int, hi-lo+1)
		for i := lo; i < hi; i++ {
			stamp := base + int64(i-lo) + 1
			cols = cols[:0]
			ac, av := a.rowView(i)
			if s.Structural && len(ac) == 1 {
				// Single-entry row (e.g. a one-hot traversal frontier): the
				// result row is row ac[0] of B verbatim — already sorted and
				// duplicate-free, so skip stamping and sorting entirely.
				bc, _ := b.srcRow(ac[0], &ws.row)
				cols = append(cols, bc...)
			} else {
				for k, acol := range ac {
					bc, bv := b.srcRow(acol, &ws.row)
					if s.Structural {
						for _, j := range bc {
							if mark[j] != stamp {
								mark[j] = stamp
								cols = append(cols, j)
							}
						}
					} else {
						x := av[k]
						for kb, j := range bc {
							m := s.Mul.F(x, bv[kb])
							if mark[j] != stamp {
								mark[j] = stamp
								wval[j] = m
								cols = append(cols, j)
							} else {
								wval[j] = s.Add.Op.F(wval[j], m)
							}
						}
					}
				}
				sortIndices(cols)
			}
			for _, j := range cols {
				if mask != nil || comp {
					if !mask.maskAllowsM(i, j, comp, structure) {
						continue
					}
				}
				ci = append(ci, j)
				if s.Structural {
					vv = append(vv, 1)
				} else {
					vv = append(vv, wval[j])
				}
			}
			p.rp[i-lo+1] = len(ci)
		}
		p.ci = append(make([]Index, 0, len(ci)), ci...)
		p.vv = append(make([]float64, 0, len(vv)), vv...)
		ws.ci, ws.vv, ws.cols = ci, vv, cols
		putMxMWorkspace(ws)
	})

	// Concatenate partials into the result matrix T. A single-part run
	// produced exactly one partial covering every row: adopt its slices
	// instead of copying (the common case for batched traversal frontiers).
	t := NewMatrix(c.nrows, c.ncols)
	if nparts == 1 {
		t.rowPtr = parts[0].rp
		t.colInd, t.val = parts[0].ci, parts[0].vv
	} else {
		total := 0
		for _, p := range parts {
			total += len(p.ci)
		}
		t.colInd = make([]Index, 0, total)
		t.val = make([]float64, 0, total)
		row := 0
		for _, p := range parts {
			base := len(t.colInd)
			for r := 1; r < len(p.rp); r++ {
				row++
				t.rowPtr[row] = base + p.rp[r]
			}
			t.colInd = append(t.colInd, p.ci...)
			t.val = append(t.val, p.vv...)
		}
		for ; row < c.nrows; row++ {
			t.rowPtr[row+1] = t.rowPtr[row]
		}
	}

	mergeMatrix(c, mask, accum, t, d)
	return nil
}

// Size cutoffs of the hybrid index sort: insertion sort below
// insertionSortMax (Gustavson rows are usually short), the standard
// comparison sort in between, and LSD radix once a result row is dense
// enough that O(m log m) comparisons per row dominate the kernel.
const (
	insertionSortMax = 48
	radixSortMin     = 1024
)

// sortIndices sorts a column-index slice with a size-adaptive hybrid. Dense
// result rows — exactly what dense-frontier traversal batches produce —
// previously degraded to comparison sorting per row; radix keeps them
// O(m · bytes-of-dim).
func sortIndices(a []Index) {
	switch {
	case len(a) <= insertionSortMax:
		insertionSort(a)
	case len(a) < radixSortMin:
		sort.Ints(a)
	default:
		radixSortIndices(a)
	}
}

// insertionSort sorts short index slices, where it beats the generic sort;
// sortIndices owns the size dispatch.
func insertionSort(a []Index) {
	for i := 1; i < len(a); i++ {
		x := a[i]
		j := i - 1
		for j >= 0 && a[j] > x {
			a[j+1] = a[j]
			j--
		}
		a[j+1] = x
	}
}

var radixPool = sync.Pool{New: func() any { return &[]Index{} }}

// radixSortIndices is an LSD radix sort over non-negative indices: one
// counting pass per significant byte of the maximum value (two passes for
// any graph under 16M nodes), with a pooled ping-pong buffer.
func radixSortIndices(a []Index) {
	if len(a) < 2 {
		return
	}
	max := 0
	for _, x := range a {
		if x > max {
			max = x
		}
	}
	bufp := radixPool.Get().(*[]Index)
	if cap(*bufp) < len(a) {
		*bufp = make([]Index, len(a))
	}
	src, dst := a, (*bufp)[:len(a)]
	for shift := 0; max>>shift != 0; shift += 8 {
		var counts [256]int
		for _, x := range src {
			counts[(x>>shift)&0xff]++
		}
		pos := 0
		for b := range counts {
			pos, counts[b] = pos+counts[b], pos
		}
		for _, x := range src {
			b := (x >> shift) & 0xff
			dst[counts[b]] = x
			counts[b]++
		}
		src, dst = dst, src
	}
	if &src[0] != &a[0] {
		copy(a, src)
	}
	radixPool.Put(bufp)
}
