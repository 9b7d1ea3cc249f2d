package grb

import (
	"fmt"
	"slices"
	"sort"
	"strings"
)

// Matrix is a sparse GraphBLAS matrix of float64 values in CSR form.
//
// A Matrix holds no pending updates: every call leaves a complete CSR, so a
// built matrix is safe for any number of concurrent readers without a lock.
// Buffered single-entry writes are DeltaMatrix's job (its Sync is GrB_wait);
// a plain Matrix is built whole by BuildFromRows or a kernel's output.
// Mutating calls are not goroutine-safe.
type Matrix struct {
	nrows, ncols int

	rowPtr []int
	colInd []Index
	val    []float64
}

// NewMatrix returns an empty nrows × ncols matrix.
func NewMatrix(nrows, ncols int) *Matrix {
	if nrows < 0 || ncols < 0 {
		panic("grb: negative matrix dimension")
	}
	return &Matrix{
		nrows:  nrows,
		ncols:  ncols,
		rowPtr: make([]int, nrows+1),
	}
}

// NRows returns the number of rows.
func (m *Matrix) NRows() int { return m.nrows }

// NVals returns the number of stored entries.
func (m *Matrix) NVals() int { return len(m.colInd) }

// Dup returns a deep copy.
func (m *Matrix) Dup() *Matrix {
	return &Matrix{
		nrows:  m.nrows,
		ncols:  m.ncols,
		rowPtr: append([]int(nil), m.rowPtr...),
		colInd: append([]Index(nil), m.colInd...),
		val:    append([]float64(nil), m.val...),
	}
}

// resize grows or shrinks the matrix to nrows × ncols, dropping out-of-range
// entries when shrinking. RedisGraph grows its matrices in chunks as nodes
// are created.
func (m *Matrix) resize(nrows, ncols int) {
	if nrows < 0 || ncols < 0 {
		panic("grb: negative matrix dimension")
	}
	if nrows == m.nrows && ncols == m.ncols {
		return
	}
	if nrows >= m.nrows && ncols >= m.ncols {
		// Pure growth: extend the row pointer array.
		rp := make([]int, nrows+1)
		copy(rp, m.rowPtr)
		for i := m.nrows + 1; i <= nrows; i++ {
			rp[i] = rp[m.nrows]
		}
		m.rowPtr = rp
		m.nrows, m.ncols = nrows, ncols
		return
	}
	// Shrink: rebuild, filtering out-of-range entries.
	rp := make([]int, nrows+1)
	var ci []Index
	var vv []float64
	rows := min(nrows, m.nrows)
	for i := 0; i < rows; i++ {
		rp[i] = len(ci)
		for k := m.rowPtr[i]; k < m.rowPtr[i+1]; k++ {
			if m.colInd[k] < ncols {
				ci = append(ci, m.colInd[k])
				vv = append(vv, m.val[k])
			}
		}
	}
	for i := rows; i <= nrows; i++ {
		rp[i] = len(ci)
	}
	m.rowPtr, m.colInd, m.val = rp, ci, vv
	m.nrows, m.ncols = nrows, ncols
}

// SetElement stores x at (i, j), overwriting any existing entry. It edits the
// CSR in place — a sorted insert that costs O(nnz) — so it is meant for small
// fixtures; bulk construction goes through BuildFromRows.
func (m *Matrix) SetElement(i, j Index, x float64) error {
	if i < 0 || i >= m.nrows || j < 0 || j >= m.ncols {
		return boundsErr("matrix index (%d,%d) dims (%d,%d)", i, j, m.nrows, m.ncols)
	}
	k, ok := m.find(i, j)
	if ok {
		m.val[k] = x
		return nil
	}
	m.colInd = slices.Insert(m.colInd, k, j)
	m.val = slices.Insert(m.val, k, x)
	for r := i + 1; r <= m.nrows; r++ {
		m.rowPtr[r]++
	}
	return nil
}

// ExtractElement returns the entry at (i, j) or ErrNoValue if absent.
func (m *Matrix) ExtractElement(i, j Index) (float64, error) {
	if i < 0 || i >= m.nrows || j < 0 || j >= m.ncols {
		return 0, boundsErr("matrix index (%d,%d) dims (%d,%d)", i, j, m.nrows, m.ncols)
	}
	k, ok := m.find(i, j)
	if !ok {
		return 0, ErrNoValue
	}
	return m.val[k], nil
}

// find returns the position of (i, j) in the CSR, or the position where it
// would be inserted, and whether it is present.
func (m *Matrix) find(i, j Index) (int, bool) {
	if len(m.colInd) == 0 {
		return 0, false // an empty matrix: spare the row pointer loads
	}
	lo, hi := m.rowPtr[i], m.rowPtr[i+1]
	k := lo + sort.Search(hi-lo, func(k int) bool { return m.colInd[lo+k] >= j })
	return k, k < hi && m.colInd[k] == j
}

// Wait is GrB_wait on a plain matrix, which has nothing to fold. Its last
// caller is the benchmark harness's frontier build (benchmark/trace.go:572);
// retargeting that build to BuildFromRows (ROADMAP item 4, Step A) deletes
// both.
func (m *Matrix) Wait() {}

// rowView returns the column indices and values of row i.
func (m *Matrix) rowView(i Index) ([]Index, []float64) {
	lo, hi := m.rowPtr[i], m.rowPtr[i+1]
	return m.colInd[lo:hi], m.val[lo:hi]
}

// BuildFromRows populates an empty matrix as a batch of one-hot rows: row r
// receives a single entry of 1 at column cols[r]. A negative column leaves
// row r empty (used for padding OPTIONAL MATCH rows whose source is null).
// len(cols) must equal NRows. This is the frontier-batch constructor for
// batched traversal: each row is one record's traversal source.
func (m *Matrix) BuildFromRows(cols []Index) error {
	if len(cols) != m.nrows {
		return dimErr("buildFromRows: %d cols for %d rows", len(cols), m.nrows)
	}
	if len(m.colInd) != 0 {
		return fmt.Errorf("%w: build target not empty", ErrInvalidValue)
	}
	ci := make([]Index, 0, len(cols))
	for r, j := range cols {
		m.rowPtr[r] = len(ci)
		if j < 0 {
			continue
		}
		if j >= m.ncols {
			return boundsErr("buildFromRows entry (%d,%d) dims (%d,%d)", r, j, m.nrows, m.ncols)
		}
		ci = append(ci, j)
	}
	m.rowPtr[m.nrows] = len(ci)
	m.colInd, m.val = ci, ones(len(ci))
	return nil
}

// ones returns n values of 1: what a structural matrix stores per entry.
func ones(n int) []float64 {
	v := make([]float64, n)
	for k := range v {
		v[k] = 1
	}
	return v
}

// RowIterate returns the sorted column indices of row i as a zero-copy view
// into the CSR structure. The returned slice must not be modified and is
// valid only until the next mutation of the matrix. Out-of-range rows yield
// nil. This is the scatter-side accessor for batched traversal: row r of the
// result matrix holds record r's reachable destinations.
func (m *Matrix) RowIterate(i Index) []Index {
	if i < 0 || i >= m.nrows {
		return nil
	}
	return m.colInd[m.rowPtr[i]:m.rowPtr[i+1]]
}

// iterate calls fn for every entry in row-major order; fn returning false
// stops the iteration.
func (m *Matrix) iterate(fn func(i, j Index, x float64) bool) {
	for i := 0; i < m.nrows; i++ {
		for k := m.rowPtr[i]; k < m.rowPtr[i+1]; k++ {
			if !fn(i, m.colInd[k], m.val[k]) {
				return
			}
		}
	}
}

// String renders small matrices for debugging and tests.
func (m *Matrix) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Matrix(%dx%d, nvals=%d){", m.nrows, m.ncols, len(m.colInd))
	first := true
	m.iterate(func(i, j Index, x float64) bool {
		if !first {
			b.WriteString(", ")
		}
		first = false
		fmt.Fprintf(&b, "(%d,%d):%g", i, j, x)
		return true
	})
	b.WriteString("}")
	return b.String()
}
