package grb

import "sort"

// Vector is a sparse GraphBLAS vector of float64 values.
//
// Internally it is dual-mode, like SuiteSparse's sparse/bitmap formats: a
// sorted coordinate list while sparse, and a dense value array plus a
// word-packed presence bitmap once the fill ratio crosses a threshold.
// Frontiers start sparse and densify as they grow; the bitmap form gives the
// pull (dot-product) kernel O(1) membership tests, and conversion in either
// direction is a single linear pass.
type Vector struct {
	n     int
	dense bool

	// sparse mode: parallel slices sorted by index
	ind []Index
	val []float64

	// bitmap (dense) mode
	dval  []float64
	dbits bitset
	nnz   int
}

// denseThreshold is the fill ratio above which a vector converts to dense.
const denseThreshold = 8 // convert when nnz > n/denseThreshold

// NewVector returns an empty vector of the given size.
func NewVector(n int) *Vector {
	if n < 0 {
		panic("grb: negative vector size")
	}
	return &Vector{n: n}
}

// NVals returns the number of stored entries.
func (v *Vector) NVals() int {
	if v.dense {
		return v.nnz
	}
	return len(v.ind)
}

// SetElement stores value x at index i, overwriting any existing entry.
func (v *Vector) SetElement(i Index, x float64) error {
	if i < 0 || i >= v.n {
		return boundsErr("vector index %d size %d", i, v.n)
	}
	if v.dense {
		if !v.dbits.get(i) {
			v.dbits.set(i)
			v.nnz++
		}
		v.dval[i] = x
		return nil
	}
	k := sort.Search(len(v.ind), func(k int) bool { return v.ind[k] >= i })
	if k < len(v.ind) && v.ind[k] == i {
		v.val[k] = x
		return nil
	}
	v.ind = append(v.ind, 0)
	v.val = append(v.val, 0)
	copy(v.ind[k+1:], v.ind[k:])
	copy(v.val[k+1:], v.val[k:])
	v.ind[k] = i
	v.val[k] = x
	v.maybeDensify()
	return nil
}

// Iterate calls fn for each entry in ascending index order. fn returning
// false stops the iteration.
func (v *Vector) Iterate(fn func(i Index, x float64) bool) {
	if v.dense {
		v.dbits.iterate(func(i Index) bool { return fn(i, v.dval[i]) })
		return
	}
	for k, i := range v.ind {
		if !fn(i, v.val[k]) {
			return
		}
	}
}

// ones returns n values of 1: a structural product's entries.
func ones(n int) []float64 {
	v := make([]float64, n)
	for k := range v {
		v[k] = 1
	}
	return v
}

func (v *Vector) maybeDensify() {
	if !v.dense && v.n > 0 && len(v.ind)*denseThreshold > v.n {
		v.toDense()
	}
}

func (v *Vector) toDense() {
	if v.dense {
		return
	}
	v.dval = make([]float64, v.n)
	v.dbits = newBitset(v.n)
	for k, i := range v.ind {
		v.dval[i] = v.val[k]
		v.dbits.set(i)
	}
	v.nnz = len(v.ind)
	v.ind, v.val = nil, nil
	v.dense = true
}
