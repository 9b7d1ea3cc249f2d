package grb

import (
	"fmt"
	"slices"
	"sort"
	"strings"
)

// Matrix is a sparse boolean GraphBLAS matrix in CSR form: a pattern of
// entries and no values, like SuiteSparse's iso-valued matrices.
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
	}
}

// grow extends the matrix to nrows × ncols, as RedisGraph grows its
// matrices in chunks while nodes are created.
func (m *Matrix) grow(nrows, ncols int) {
	if nrows < m.nrows || ncols < m.ncols {
		panic("grb: a matrix only grows")
	}
	rp := make([]int, nrows+1)
	copy(rp, m.rowPtr)
	for i := m.nrows + 1; i <= nrows; i++ {
		rp[i] = rp[m.nrows]
	}
	m.rowPtr = rp
	m.nrows, m.ncols = nrows, ncols
}

// SetElement stores an entry at (i, j) unless one is there, ignoring x. It
// edits the CSR in place — a sorted insert that costs O(nnz) — so it is
// meant for small fixtures; bulk construction goes through BuildFromRows.
func (m *Matrix) SetElement(i, j Index, x float64) error {
	if i < 0 || i >= m.nrows || j < 0 || j >= m.ncols {
		return boundsErr("matrix index (%d,%d) dims (%d,%d)", i, j, m.nrows, m.ncols)
	}
	if k, ok := m.find(i, j); !ok {
		m.colInd = slices.Insert(m.colInd, k, j)
		for r := i + 1; r <= m.nrows; r++ {
			m.rowPtr[r]++
		}
	}
	return nil
}

// Has reports whether (i, j) holds an entry; an index out of range holds
// none.
func (m *Matrix) Has(i, j Index) bool {
	if i < 0 || i >= m.nrows || j < 0 || j >= m.ncols {
		return false
	}
	_, ok := m.find(i, j)
	return ok
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
// caller is the benchmark harness (ROADMAP item 4, Step A deletes both).
func (m *Matrix) Wait() {}

// BuildFromRows populates an empty matrix as a batch of one-hot rows: row r
// receives a single entry at column cols[r]. A negative column leaves
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
	m.colInd = ci
	return nil
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
func (m *Matrix) iterate(fn func(i, j Index) bool) {
	for i := 0; i < m.nrows; i++ {
		for k := m.rowPtr[i]; k < m.rowPtr[i+1]; k++ {
			if !fn(i, m.colInd[k]) {
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
	m.iterate(func(i, j Index) bool {
		if !first {
			b.WriteString(", ")
		}
		first = false
		fmt.Fprintf(&b, "(%d,%d)", i, j)
		return true
	})
	b.WriteString("}")
	return b.String()
}
