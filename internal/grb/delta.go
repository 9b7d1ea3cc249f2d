package grb

import (
	"fmt"
	"slices"
	"sort"
)

// DefaultDeltaThreshold is the pending-update count at which Sync folds a
// delta matrix's buffered changes into its main CSR. RedisGraph uses the
// same order of magnitude for its delta-matrix flush.
const DefaultDeltaThreshold = 4096

// rowScratch is the reusable buffer srcRow assembles merged rows into. Each
// kernel goroutine owns one; a row returned through it stays valid until the
// next srcRow call with the same scratch.
type rowScratch struct {
	ci []Index
	vv []float64
}

// deltaRow is one row of buffered inserts, kept sorted by column.
type deltaRow struct {
	cols []Index
	vals []float64
}

// DeltaMatrix is a sparse matrix held as three structures: an immutable main
// CSR, a delta-plus of buffered inserts and a delta-minus of buffered
// deletes — the design RedisGraph adopted so single-edge writes never
// rebuild a CSR and readers never fold. It is the only pending-update buffer
// in the package: Sync plays GrB_wait, folding the deltas into a new main
// CSR in one row-ordered pass.
//
// Every read accessor (ExtractElement, RowIterate, NVals, kernel operands
// via MxMDelta/VxMDelta) consults all three structures without mutating any
// of them, so a DeltaMatrix is safe for any number of concurrent readers.
// Mutations (SetElement, RemoveElement, Sync, Resize) require external
// exclusive locking against those readers — the graph layer provides it via
// its per-graph write lock.
type DeltaMatrix struct {
	nrows, ncols int
	main         *Matrix             // immutable CSR, replaced whole by Sync
	dp           map[Index]*deltaRow // delta-plus: inserts, overriding main
	dm           map[Index][]Index   // delta-minus: deletes of entries present in main
	dpN, dmN     int
	dpSpan       int // one past the highest row delta-plus has held since the last fold
	nvals        int
	threshold    int
}

// NewDeltaMatrix returns an empty nrows × ncols delta matrix.
func NewDeltaMatrix(nrows, ncols int) *DeltaMatrix {
	return &DeltaMatrix{
		nrows:     nrows,
		ncols:     ncols,
		main:      NewMatrix(nrows, ncols),
		threshold: DefaultDeltaThreshold,
	}
}

// DeltaFrom wraps an existing matrix as the main CSR of a clean delta
// matrix. The matrix is adopted, not copied: the caller must not mutate it
// afterwards.
func DeltaFrom(m *Matrix) *DeltaMatrix {
	return &DeltaMatrix{
		nrows:     m.nrows,
		ncols:     m.ncols,
		main:      m,
		nvals:     len(m.colInd),
		threshold: DefaultDeltaThreshold,
	}
}

// NVals returns the number of effective entries. It is O(1) and fold-free:
// the count is maintained incrementally as deltas are buffered.
func (m *DeltaMatrix) NVals() int { return m.nvals }

// Pending returns the number of buffered, not-yet-folded updates.
func (m *DeltaMatrix) Pending() int { return m.dpN + m.dmN }

// Threshold returns the pending-update count that triggers Sync.
func (m *DeltaMatrix) Threshold() int { return m.threshold }

// SetThreshold sets the pending-update count at which Sync folds.
func (m *DeltaMatrix) SetThreshold(n int) {
	if n < 0 {
		n = 0
	}
	m.threshold = n
}

// srcRow returns the effective row i, merged from main,
// delta-plus and delta-minus. Rows without deltas are zero-copy views of the
// main CSR; rows with deltas are assembled into buf, whose contents stay
// valid until the next srcRow call with the same buf.
func (m *DeltaMatrix) srcRow(i Index, buf *rowScratch) ([]Index, []float64) {
	dpr := m.dp[i]
	dmr := m.dm[i]
	mc, mv := m.main.rowView(i)
	if dpr == nil && len(dmr) == 0 {
		return mc, mv
	}
	ci, vv := buf.ci[:0], buf.vv[:0]
	a, b, c := 0, 0, 0 // cursors into main, delta-plus, delta-minus
	var dpc []Index
	var dpv []float64
	if dpr != nil {
		dpc, dpv = dpr.cols, dpr.vals
	}
	for a < len(mc) || b < len(dpc) {
		switch {
		case a >= len(mc):
			ci = append(ci, dpc[b])
			vv = append(vv, dpv[b])
			b++
		case b >= len(dpc) || mc[a] < dpc[b]:
			j := mc[a]
			for c < len(dmr) && dmr[c] < j {
				c++
			}
			if c >= len(dmr) || dmr[c] != j {
				ci = append(ci, j)
				vv = append(vv, mv[a])
			}
			a++
		case mc[a] == dpc[b]: // delta-plus overrides main
			ci = append(ci, dpc[b])
			vv = append(vv, dpv[b])
			a++
			b++
		default: // pending insert comes first
			ci = append(ci, dpc[b])
			vv = append(vv, dpv[b])
			b++
		}
	}
	buf.ci, buf.vv = ci, vv
	return ci, vv
}

// SetElement stores x at (i, j), buffering the update as a delta.
func (m *DeltaMatrix) SetElement(i, j Index, x float64) error {
	if i < 0 || i >= m.nrows || j < 0 || j >= m.ncols {
		return boundsErr("delta matrix index (%d,%d) dims (%d,%d)", i, j, m.nrows, m.ncols)
	}
	if m.dmRemove(i, j) {
		// Entry was delete-buffered, hence present in main: resurrect it.
		m.nvals++
		if k, ok := m.main.find(i, j); ok && m.main.val[k] == x {
			return nil // back to the main value exactly
		}
		m.dpSet(i, j, x)
		return nil
	}
	if dpr := m.dp[i]; dpr != nil {
		if k, ok := findIndex(dpr.cols, j); ok {
			dpr.vals[k] = x // already insert-buffered: update in place
			return nil
		}
	}
	if k, ok := m.main.find(i, j); ok {
		if m.main.val[k] == x {
			return nil // no-op write: the common re-insert of a boolean edge
		}
		m.dpSet(i, j, x) // override without changing the entry count
		return nil
	}
	m.dpSet(i, j, x)
	m.nvals++
	return nil
}

// RemoveElement deletes the entry at (i, j) if present.
func (m *DeltaMatrix) RemoveElement(i, j Index) error {
	if i < 0 || i >= m.nrows || j < 0 || j >= m.ncols {
		return boundsErr("delta matrix index (%d,%d) dims (%d,%d)", i, j, m.nrows, m.ncols)
	}
	if m.dmContains(i, j) {
		return nil // already delete-buffered
	}
	inDP := false
	if dpr := m.dp[i]; dpr != nil {
		if k, ok := findIndex(dpr.cols, j); ok {
			inDP = true
			dpr.cols = append(dpr.cols[:k], dpr.cols[k+1:]...)
			dpr.vals = append(dpr.vals[:k], dpr.vals[k+1:]...)
			m.dpN--
			if len(dpr.cols) == 0 {
				delete(m.dp, i)
			}
		}
	}
	if _, ok := m.main.find(i, j); ok {
		m.dmAdd(i, j)
		m.nvals--
		return nil
	}
	if inDP {
		m.nvals--
	}
	return nil
}

// ExtractElement returns the effective entry at (i, j) or ErrNoValue.
func (m *DeltaMatrix) ExtractElement(i, j Index) (float64, error) {
	if i < 0 || i >= m.nrows || j < 0 || j >= m.ncols {
		return 0, boundsErr("delta matrix index (%d,%d) dims (%d,%d)", i, j, m.nrows, m.ncols)
	}
	if m.dmContains(i, j) {
		return 0, ErrNoValue
	}
	if dpr := m.dp[i]; dpr != nil {
		if k, ok := findIndex(dpr.cols, j); ok {
			return dpr.vals[k], nil
		}
	}
	if k, ok := m.main.find(i, j); ok {
		return m.main.val[k], nil
	}
	return 0, ErrNoValue
}

// RowDegree returns the number of effective entries in row i without
// assembling the row: the main row's length, less its delta-minus entries,
// plus the delta-plus columns main lacks (delta-plus over a main column only
// overrides its value, and delta-minus never shares a column with
// delta-plus).
func (m *DeltaMatrix) RowDegree(i Index) int {
	if i < 0 || i >= m.nrows {
		return 0
	}
	mc, _ := m.main.rowView(i)
	n := len(mc) - len(m.dm[i])
	if dpr := m.dp[i]; dpr != nil {
		a := 0
		for _, j := range dpr.cols {
			for a < len(mc) && mc[a] < j {
				a++
			}
			if a == len(mc) || mc[a] != j {
				n++
			}
		}
	}
	return n
}

// rowLen is RowDegree for a row in range, read from the main CSR's row
// pointers alone when clean (the caller checked that nothing is pending).
func (m *DeltaMatrix) rowLen(i Index, clean bool) int {
	if clean {
		return m.main.rowPtr[i+1] - m.main.rowPtr[i]
	}
	return m.RowDegree(i)
}

// rowSpan returns one past the last row that may hold an entry: past the
// main CSR's last non-empty row, found by binary search over its row
// pointers, and past every row delta-plus has held since the last fold. Rows
// from rowSpan on are empty — for a relation matrix, the dimension's padding
// beyond the highest node ID.
func (m *DeltaMatrix) rowSpan() int {
	rp := m.main.rowPtr
	nnz := rp[m.nrows]
	return max(sort.Search(m.nrows, func(i int) bool { return rp[i] == nnz }), m.dpSpan)
}

// RowIterate returns the sorted effective column indices of row i. Rows
// without deltas are zero-copy views of the main CSR (valid until the next
// Sync/Resize); rows with deltas are freshly allocated.
func (m *DeltaMatrix) RowIterate(i Index) []Index {
	if i < 0 || i >= m.nrows {
		return nil
	}
	if m.dp[i] == nil && len(m.dm[i]) == 0 {
		return m.main.colInd[m.main.rowPtr[i]:m.main.rowPtr[i+1]]
	}
	var buf rowScratch
	ci, _ := m.srcRow(i, &buf)
	return append([]Index(nil), ci...)
}

// AppendDiag appends to dst, in ascending order, the index of every entry of
// a diagonal matrix (for a label diagonal: the label's members), as the
// uint64 entity IDs the graph layer's candidate lists hold. It neither folds
// nor allocates beyond growing dst. It is one merge walk over the main CSR's
// column indices (one per non-empty row) and the sorted delta rows: the runs
// between delta rows are copied whole, a delta row drops its main entry, and
// a delta-plus row is emitted in its place. The delta rows are staged in
// dst's spare capacity past the output's upper bound; with nothing pending
// the walk is one copy of the column indices.
func (m *DeltaMatrix) AppendDiag(dst []uint64) []uint64 {
	mc := m.main.colInd
	bound := len(dst) + len(mc) + len(m.dp)
	grown := slices.Grow(dst, len(mc)+2*len(m.dp)+len(m.dm))
	out, a := grown[:len(dst)], 0
	for _, r := range dirtyRows(m, grown[bound:bound]) {
		i := Index(r)
		k, inMain := slices.BinarySearch(mc[a:], i)
		out = appendIDs(out, mc[a:a+k])
		a += k
		if inMain {
			a++ // overridden by the delta-plus row or dropped by the delta-minus row
		}
		if m.dp[i] != nil {
			out = append(out, r)
		}
	}
	return appendIDs(out, mc[a:])
}

// dirtyRows appends to buf, each once and in ascending order, the rows that
// carry deltas, and returns it; buf must be empty.
func dirtyRows[T ~int | ~uint64](m *DeltaMatrix, buf []T) []T {
	for i := range m.dp {
		buf = append(buf, T(i))
	}
	for i := range m.dm {
		if m.dp[i] == nil {
			buf = append(buf, T(i))
		}
	}
	slices.Sort(buf)
	return buf
}

// appendIDs appends column indices to dst as uint64 entity IDs.
func appendIDs(dst []uint64, cols []Index) []uint64 {
	for _, j := range cols {
		dst = append(dst, uint64(j))
	}
	return dst
}

// Sync folds the buffered deltas into a new main CSR when force is set or
// the pending count has reached the threshold, reporting whether a fold
// happened. This is the only operation that rebuilds the CSR; callers must
// hold the exclusive lock that guards mutations.
func (m *DeltaMatrix) Sync(force bool) bool {
	pending := m.dpN + m.dmN
	if pending == 0 || (!force && pending < m.threshold) {
		return false
	}
	out := m.merged()
	if got := len(out.colInd); got != m.nvals {
		panic(fmt.Sprintf("grb: delta sync drift: folded %d entries, tracked %d", got, m.nvals))
	}
	m.main = out
	m.dp, m.dm = nil, nil
	m.dpN, m.dmN, m.dpSpan = 0, 0, 0
	return true
}

// ForceSync folds unconditionally.
func (m *DeltaMatrix) ForceSync() { m.Sync(true) }

// Resize grows or shrinks the matrix. Growth keeps the deltas buffered;
// shrinking folds first so out-of-range entries are dropped consistently.
func (m *DeltaMatrix) Resize(nrows, ncols int) {
	if nrows < m.nrows || ncols < m.ncols {
		m.ForceSync()
		m.main.resize(nrows, ncols)
		m.nvals = len(m.main.colInd)
	} else {
		m.main.resize(nrows, ncols)
	}
	m.nrows, m.ncols = nrows, ncols
}

// Export returns the effective matrix as a plain CSR. A clean delta matrix
// returns its main CSR directly (zero-copy — the caller must treat it as
// read-only); a dirty one assembles a fresh merged matrix without touching
// the delta state.
func (m *DeltaMatrix) Export() *Matrix {
	if m.Pending() == 0 {
		return m.main
	}
	return m.merged()
}

// merged builds the effective matrix as a fresh CSR in one row-ordered pass,
// into slices preallocated to nvals. The rows carrying deltas are visited in
// ascending order; each span of clean main rows before one is bulk-copied
// with its row pointers shifted, and the dirty row itself is assembled by
// srcRow.
func (m *DeltaMatrix) merged() *Matrix {
	dirty := dirtyRows(m, make([]Index, 0, len(m.dp)+len(m.dm)))
	src := m.main
	out := &Matrix{
		nrows:  m.nrows,
		ncols:  m.ncols,
		rowPtr: make([]int, m.nrows+1),
		colInd: make([]Index, 0, m.nvals),
		val:    make([]float64, 0, m.nvals),
	}
	copySpan := func(lo, hi int) { // clean rows [lo, hi)
		a, b := src.rowPtr[lo], src.rowPtr[hi]
		shift := len(out.colInd) - a
		out.colInd = append(out.colInd, src.colInd[a:b]...)
		out.val = append(out.val, src.val[a:b]...)
		for r := lo + 1; r <= hi; r++ {
			out.rowPtr[r] = src.rowPtr[r] + shift
		}
	}
	var buf rowScratch
	next := 0 // first row not yet written
	for _, i := range dirty {
		copySpan(next, i)
		ci, vv := m.srcRow(i, &buf)
		out.colInd = append(out.colInd, ci...)
		out.val = append(out.val, vv...)
		out.rowPtr[i+1] = len(out.colInd)
		next = i + 1
	}
	copySpan(next, m.nrows)
	return out
}

// String renders small matrices for debugging and tests.
func (m *DeltaMatrix) String() string {
	return fmt.Sprintf("DeltaMatrix(%dx%d, nvals=%d, +%d/-%d pending)",
		m.nrows, m.ncols, m.nvals, m.dpN, m.dmN)
}

// ---- delta bookkeeping ----

func (m *DeltaMatrix) dpSet(i, j Index, x float64) {
	if m.dp == nil {
		m.dp = map[Index]*deltaRow{}
	}
	dpr := m.dp[i]
	if dpr == nil {
		dpr = &deltaRow{}
		m.dp[i] = dpr
		m.dpSpan = max(m.dpSpan, i+1)
	}
	k, ok := findIndex(dpr.cols, j)
	if ok {
		dpr.vals[k] = x
		return
	}
	dpr.cols = append(dpr.cols, 0)
	dpr.vals = append(dpr.vals, 0)
	copy(dpr.cols[k+1:], dpr.cols[k:])
	copy(dpr.vals[k+1:], dpr.vals[k:])
	dpr.cols[k], dpr.vals[k] = j, x
	m.dpN++
}

func (m *DeltaMatrix) dmAdd(i, j Index) {
	if m.dm == nil {
		m.dm = map[Index][]Index{}
	}
	row := m.dm[i]
	k, ok := findIndex(row, j)
	if ok {
		return
	}
	row = append(row, 0)
	copy(row[k+1:], row[k:])
	row[k] = j
	m.dm[i] = row
	m.dmN++
}

func (m *DeltaMatrix) dmContains(i, j Index) bool {
	_, ok := findIndex(m.dm[i], j)
	return ok
}

func (m *DeltaMatrix) dmRemove(i, j Index) bool {
	row := m.dm[i]
	k, ok := findIndex(row, j)
	if !ok {
		return false
	}
	row = append(row[:k], row[k+1:]...)
	if len(row) == 0 {
		delete(m.dm, i)
	} else {
		m.dm[i] = row
	}
	m.dmN--
	return true
}

// findIndex locates j in a sorted index slice, returning its position (or
// the insertion point) and whether it is present.
func findIndex(s []Index, j Index) (int, bool) {
	k := sort.Search(len(s), func(k int) bool { return s[k] >= j })
	return k, k < len(s) && s[k] == j
}
