package grb

import (
	"sort"
	"sync"
	"sync/atomic"
)

// mxmWorkspace is the per-call dense scatter buffer of the Gustavson
// kernel. Instances are pooled: the mark array carries row stamps drawn from
// a package-global monotonic counter, so a reused workspace never needs
// scrubbing — stale stamps from earlier calls are always smaller than any
// freshly issued stamp.
type mxmWorkspace struct {
	mark []int64
	ci   []Index // retained-capacity accumulation buffer (see the kernel body)
}

var mxmPool = sync.Pool{New: func() any { return &mxmWorkspace{} }}

// mxmStamp issues globally unique row stamps; it starts at 1 so the zero
// value of a fresh mark array never matches.
var mxmStamp atomic.Int64

func getMxMWorkspace(n int) *mxmWorkspace {
	ws := mxmPool.Get().(*mxmWorkspace)
	if cap(ws.mark) < n {
		ws.mark = make([]int64, n)
	}
	ws.mark = ws.mark[:n]
	return ws
}

// MxMDelta replaces C with the structural product A·B (GrB_mxm over AnyPair,
// no mask, no accumulator): MxMParts with B as the one part. mask, accum and
// s must be nil, nil and AnyPair (see requireStructural).
func MxMDelta(c *Matrix, mask *Matrix, accum *BinaryOp, s Semiring, a *Matrix, b *DeltaMatrix, d *Descriptor) error {
	if err := requireStructural("mxm", mask != nil, accum, s); err != nil {
		return err
	}
	return MxMParts(c, a, []*DeltaMatrix{b})
}

// MxMParts replaces C with the structural product A·(B₁ ∨ B₂ ∨ …): C(i, j)
// = 1 wherever some A(i, k) meets some Bₚ(k, j) — RedisGraph's ADD node of
// relation matrices, folded into the product instead of materialised. Each
// part is a delta matrix whose effective rows (main's live entries, then
// delta-plus) Gustavson's row-wise kernel gathers in place under the result
// row's one stamp, so no fold and no union of the parts ever happens — the
// read path of concurrent query execution.
func MxMParts(c *Matrix, a *Matrix, bs []*DeltaMatrix) error {
	if c == nil || a == nil || len(bs) == 0 {
		return ErrNilObject
	}
	for _, b := range bs {
		if b == nil {
			return ErrNilObject
		}
		if a.ncols != b.nrows {
			return dimErr("mxm: A is %dx%d, B is %dx%d", a.nrows, a.ncols, b.nrows, b.ncols)
		}
		if c.nrows != a.nrows || c.ncols != b.ncols {
			return dimErr("mxm: C is %dx%d, want %dx%d", c.nrows, c.ncols, a.nrows, b.ncols)
		}
	}

	ws := getMxMWorkspace(c.ncols)
	mark := ws.mark
	base := mxmStamp.Add(int64(a.nrows)) - int64(a.nrows)
	// Accumulate into the workspace's retained-capacity buffer, then
	// snapshot an exact-size slice before the workspace returns to the
	// pool — repeated small-batch calls then allocate only the result.
	ci := ws.ci[:0]
	rp := make([]int, a.nrows+1)
	for i := 0; i < a.nrows; i++ {
		ac := a.colInd[a.rowPtr[i]:a.rowPtr[i+1]]
		if b := bs[0]; len(bs) == 1 && len(ac) == 1 && b.row(ac[0]) == nil {
			// Single-entry row (a one-hot traversal frontier) on a clean
			// row of a one-part B: the result row is that row verbatim —
			// already sorted and duplicate-free, so skip stamping and
			// sorting entirely. A dirty row is unordered and takes the
			// path below.
			k := ac[0]
			ci = append(ci, b.main.colInd[b.main.rowPtr[k]:b.main.rowPtr[k+1]]...)
		} else {
			stamp := base + int64(i) + 1
			start := len(ci)
			for _, b := range bs {
				brp, bci := b.main.rowPtr, b.main.colInd
				for _, k := range ac {
					r := b.row(k)
					for p := brp[k]; p < brp[k+1]; p++ {
						if j := bci[p]; mark[j] != stamp && !b.buried(r, p) {
							mark[j] = stamp
							ci = append(ci, j)
						}
					}
					if r != nil {
						for _, j := range r.cols {
							if mark[j] != stamp {
								mark[j] = stamp
								ci = append(ci, j)
							}
						}
					}
				}
			}
			sortIndices(ci[start:])
		}
		rp[i+1] = len(ci)
	}
	out := append(make([]Index, 0, len(ci)), ci...)
	ws.ci = ci
	mxmPool.Put(ws)
	c.rowPtr, c.colInd = rp, out
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
