package grb

import (
	"cmp"
	"fmt"
	"slices"
	"sort"
)

// DefaultDeltaThreshold is the pending-update count at which Sync folds a
// delta matrix's buffered changes into its main CSR. RedisGraph uses the
// same order of magnitude for its delta-matrix flush.
const DefaultDeltaThreshold = 4096

// tailMax is the length at which a delta-plus row's unsorted tail is sorted
// into a run of its own. A write scans the tail linearly, so it stays short.
const tailMax = 32

// wholeRun is the sorted length below which a row is kept as one run
// rather than by the logarithmic method: moving a short run costs less than
// the extra binary search every probe of the row would pay for it.
const wholeRun = 1024

// deltaRow is one dirty row: its delta-plus entries and the count of its
// main entries that delta-minus has buried. The delta-plus columns are
// sorted runs of shrinking length followed by an unsorted tail of fewer than
// tailMax entries. A full tail becomes a run, and the last two runs merge
// while the later one is at least as long as the earlier (the logarithmic
// method) or the row's runs are shorter than wholeRun, so a row of d inserts
// moves O(d log d) entries and a probe searches O(log d) runs. Delta-plus
// never holds a column whose main entry is live: an override buries the
// main entry and buffers the new value here. The two counts are int32 so a
// row takes 80 bytes, not 96: a load makes one per dirty row of every matrix.
type deltaRow struct {
	cols   []Index
	vals   []float64
	runs   []int // end offsets in cols of the sorted runs before the last
	sorted int32 // end offset of the last sorted run: the tail starts here
	minus  int32 // main entries of this row marked in zombies
}

// find returns the position of column j among the row's delta-plus entries.
func (r *deltaRow) find(j Index) (int, bool) {
	start := 0
	for x := 0; x <= len(r.runs); x++ {
		end := int(r.sorted)
		if x < len(r.runs) {
			end = r.runs[x]
		}
		if k := lowerBound(r.cols[start:end], j); start+k < end && r.cols[start+k] == j {
			return start + k, true
		}
		start = end
	}
	for k := start; k < len(r.cols); k++ {
		if r.cols[k] == j {
			return k, true
		}
	}
	return 0, false
}

// lowerBound returns the first position in the sorted s whose index is not
// below j. It has no data-dependent branch: the comparison is the sign of
// s[k] − j (indices are non-negative, so it cannot overflow), which matters
// when a probe searches several runs.
func lowerBound(s []Index, j Index) int {
	base, n := 0, len(s)
	for n > 1 {
		half := n >> 1
		base += half & ((s[base+half-1] - j) >> 63) // + half when s[base+half-1] < j
		n -= half
	}
	if n == 1 && s[base] < j {
		base++
	}
	return base
}

// remove deletes the delta-plus entry at position k: a tail entry is
// replaced by the tail's last, a run entry is shifted out.
func (r *deltaRow) remove(k int) {
	last := len(r.cols) - 1
	if k >= int(r.sorted) {
		r.cols[k], r.vals[k] = r.cols[last], r.vals[last]
	} else {
		copy(r.cols[k:], r.cols[k+1:])
		copy(r.vals[k:], r.vals[k+1:])
		runs, start := r.runs[:0], 0
		for _, end := range r.runs {
			if end > k {
				end--
			}
			if end > start { // drop a run the removal emptied
				runs = append(runs, end)
			}
			start = end
		}
		r.sorted--
		if n := len(runs); n > 0 && runs[n-1] == int(r.sorted) { // the last run emptied
			runs = runs[:n-1]
		}
		r.runs = runs
	}
	r.cols, r.vals = r.cols[:last], r.vals[:last]
}

// DeltaMatrix is a sparse matrix held as three structures, the design
// RedisGraph adopted so single-edge writes never rebuild a CSR and readers
// never fold: an immutable main CSR (M), a delta-plus of buffered inserts
// (DP) and a delta-minus of buffered deletes (DM). It is the only
// pending-update buffer in the package: Sync plays GrB_wait, folding the
// deltas into a new main CSR in one row-ordered pass.
//
// The deltas live in one table indexed by row, so a nil entry is a clean
// row and a reader decides it with one load. A dirty row appends its
// delta-plus entries unsorted, as SuiteSparse's pending tuples are (see
// deltaRow), and delta-minus marks the main entries it deletes as zombies in
// a bitset over main's positions, so the effective row is main's live
// entries plus the delta-plus entries, disjoint, and RowDegree is O(1). The
// kernels walk that pair in place, unordered; the readers that need order
// (RowIterate, Export, MxMDelta's gather of a dirty row) sort into their own
// scratch, so no read path writes to the matrix. The alternative, a writer
// that sorts every tail it touched before releasing its lock, would need a
// hook at every lock release and make each write pay for order that few
// reads want; Sync alone, which holds the lock, compacts each row into one
// run before folding it.
//
// Every read accessor (ExtractElement, RowIterate, RowDegree, NVals, kernel
// operands via MxMDelta/VxMDelta/VxMPull/BFS) is safe for any number of
// concurrent readers. Mutations (SetElement, SetElementIfAbsent,
// RemoveElement, Sync, Resize) require external exclusive locking against
// those readers — the graph layer provides it via its per-graph write lock.
type DeltaMatrix struct {
	nrows, ncols int
	main         *Matrix     // immutable CSR, replaced whole by Sync
	rows         []*deltaRow // dirty rows; its length is one past the highest row dirtied since the last fold
	zombies      bitset      // main positions delta-minus has buried, allocated at the first
	dpN, dmN     int         // delta-plus entries; zombies that are deletes, not overrides
	nvals        int
	threshold    int

	// The writer's merge scratch, and the entries tail sorts and run merges
	// have moved since the matrix was made (read by tests as the write
	// path's work).
	mergeCols []Index
	mergeVals []float64
	moved     int
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

// row returns row i's deltas, nil when the row is clean.
func (m *DeltaMatrix) row(i Index) *deltaRow {
	if i < len(m.rows) {
		return m.rows[i]
	}
	return nil
}

// buried reports whether main position p of a row with deltas r is a zombie.
func (m *DeltaMatrix) buried(r *deltaRow, p int) bool {
	return r != nil && r.minus > 0 && m.zombies.get(p)
}

// setLive sets in b every effective column of dirty row i, in place: main's
// entries that are not zombies, then the delta-plus entries.
func (m *DeltaMatrix) setLive(i Index, r *deltaRow, b bitset) {
	lo, hi := m.main.rowPtr[i], m.main.rowPtr[i+1]
	if r.minus == 0 {
		for _, j := range m.main.colInd[lo:hi] {
			b.set(j)
		}
	} else {
		for p := lo; p < hi; p++ {
			if !m.zombies.get(p) {
				b.set(m.main.colInd[p])
			}
		}
	}
	for _, j := range r.cols {
		b.set(j)
	}
}

// anyLive reports whether some effective column of dirty row i is set in b,
// stopping at the first.
func (m *DeltaMatrix) anyLive(i Index, r *deltaRow, b bitset) bool {
	lo, hi := m.main.rowPtr[i], m.main.rowPtr[i+1]
	for p, j := range m.main.colInd[lo:hi] {
		if b.get(j) && (r.minus == 0 || !m.zombies.get(lo+p)) {
			return true
		}
	}
	for _, j := range r.cols {
		if b.get(j) {
			return true
		}
	}
	return false
}

// SetElement stores x at (i, j), buffering the update as a delta.
func (m *DeltaMatrix) SetElement(i, j Index, x float64) error {
	if i < 0 || i >= m.nrows || j < 0 || j >= m.ncols {
		return boundsErr("delta matrix index (%d,%d) dims (%d,%d)", i, j, m.nrows, m.ncols)
	}
	m.set(i, j, x, true)
	return nil
}

// SetElementIfAbsent stores x at (i, j) unless an entry is there already,
// reporting whether it stored: one probe where ExtractElement followed by
// SetElement would take two.
func (m *DeltaMatrix) SetElementIfAbsent(i, j Index, x float64) (bool, error) {
	if i < 0 || i >= m.nrows || j < 0 || j >= m.ncols {
		return false, boundsErr("delta matrix index (%d,%d) dims (%d,%d)", i, j, m.nrows, m.ncols)
	}
	return !m.set(i, j, x, false), nil
}

// set finds (i, j) once and stores x there (an existing entry only when
// replace is set), reporting whether an entry existed.
func (m *DeltaMatrix) set(i, j Index, x float64, replace bool) bool {
	r := m.row(i)
	if r != nil {
		if k, ok := r.find(j); ok {
			if replace {
				r.vals[k] = x // already insert-buffered: update in place
			}
			return true
		}
	}
	k, inMain := m.main.find(i, j)
	switch {
	case !inMain:
		m.dpAppend(m.dirty(i, r), j, x)
		m.nvals++
		return false
	case !m.buried(r, k): // a live main entry
		if replace && m.main.val[k] != x { // else the common no-op re-insert of a boolean edge
			r = m.dirty(i, r)
			m.bury(r, k) // override: the new value is buffered, the count stays
			m.dpAppend(r, j, x)
		}
		return true
	}
	// A delete-buffered main entry: resurrect it.
	m.dmN--
	m.nvals++
	if m.main.val[k] == x {
		m.zombies.unset(k) // back to the main value exactly
		r.minus--
		m.tidy(i, r)
	} else {
		m.dpAppend(r, j, x) // the zombie stays, now an override
	}
	return false
}

// RemoveElement deletes the entry at (i, j) if present.
func (m *DeltaMatrix) RemoveElement(i, j Index) error {
	if i < 0 || i >= m.nrows || j < 0 || j >= m.ncols {
		return boundsErr("delta matrix index (%d,%d) dims (%d,%d)", i, j, m.nrows, m.ncols)
	}
	r := m.row(i)
	if r != nil {
		if k, ok := r.find(j); ok {
			r.remove(k)
			m.dpN--
			m.nvals--
			if r.minus > 0 {
				if _, over := m.main.find(i, j); over {
					m.dmN++ // the override's zombie is now a delete
					return nil
				}
			}
			m.tidy(i, r)
			return nil
		}
	}
	k, inMain := m.main.find(i, j)
	if !inMain || m.buried(r, k) {
		return nil // absent or already delete-buffered
	}
	m.bury(m.dirty(i, r), k)
	m.dmN++
	m.nvals--
	return nil
}

// ExtractElement returns the effective entry at (i, j) or ErrNoValue.
func (m *DeltaMatrix) ExtractElement(i, j Index) (float64, error) {
	if i < 0 || i >= m.nrows || j < 0 || j >= m.ncols {
		return 0, boundsErr("delta matrix index (%d,%d) dims (%d,%d)", i, j, m.nrows, m.ncols)
	}
	r := m.row(i)
	if r != nil {
		if k, ok := r.find(j); ok {
			return r.vals[k], nil
		}
	}
	if k, ok := m.main.find(i, j); ok && !m.buried(r, k) {
		return m.main.val[k], nil
	}
	return 0, ErrNoValue
}

// RowDegree returns the number of effective entries in row i in O(1): the
// main row's length, less its zombies, plus its delta-plus entries (which
// never share a column with a live main entry).
func (m *DeltaMatrix) RowDegree(i Index) int {
	if i < 0 || i >= m.nrows {
		return 0
	}
	return m.rowLen(i, false)
}

// rowLen is RowDegree for a row in range. With clean set (the caller checked
// once that nothing is pending) it reads the row pointers alone, which the
// BFS loops that sum a degree per reached vertex need.
func (m *DeltaMatrix) rowLen(i Index, clean bool) int {
	n := m.main.rowPtr[i+1] - m.main.rowPtr[i]
	if !clean {
		if r := m.row(i); r != nil {
			n += len(r.cols) - int(r.minus)
		}
	}
	return n
}

// rowSpan returns one past the last row that may hold an entry: past the
// main CSR's last non-empty row, found by binary search over its row
// pointers, and past every row dirtied since the last fold. Rows from
// rowSpan on are empty — for a relation matrix, the dimension's padding
// beyond the highest node ID.
func (m *DeltaMatrix) rowSpan() int {
	rp := m.main.rowPtr
	nnz := rp[m.nrows]
	return max(sort.Search(m.nrows, func(i int) bool { return rp[i] == nnz }), len(m.rows))
}

// RowIterate returns the sorted effective column indices of row i. Clean
// rows are zero-copy views of the main CSR (valid until the next
// Sync/Resize); dirty rows are freshly allocated.
func (m *DeltaMatrix) RowIterate(i Index) []Index {
	if i < 0 || i >= m.nrows {
		return nil
	}
	r := m.row(i)
	if r == nil {
		return m.main.colInd[m.main.rowPtr[i]:m.main.rowPtr[i+1]]
	}
	out := make([]Index, 0, m.RowDegree(i))
	for p := m.main.rowPtr[i]; p < m.main.rowPtr[i+1]; p++ {
		if !m.buried(r, p) {
			out = append(out, m.main.colInd[p])
		}
	}
	out = append(out, r.cols...)
	slices.Sort(out)
	return out
}

// AppendDiag appends to dst, in ascending order, the index of every entry of
// a diagonal matrix (for a label diagonal: the label's members), as the
// uint64 entity IDs the graph layer's candidate lists hold. It neither folds
// nor allocates beyond growing dst. It is one merge walk over the main CSR's
// column indices (one per non-empty row) and the dirty rows: the runs
// between dirty rows are copied whole, a dirty row keeps its main entry
// unless it is a zombie, and emits its delta-plus entry (the two never
// coexist). With nothing pending the walk is one copy of the column indices.
func (m *DeltaMatrix) AppendDiag(dst []uint64) []uint64 {
	mc := m.main.colInd
	out, a := slices.Grow(dst, len(mc)+m.dpN), 0
	for i, r := range m.rows {
		if r == nil {
			continue
		}
		k, inMain := slices.BinarySearch(mc[a:], i)
		out = appendIDs(out, mc[a:a+k])
		a += k
		if inMain {
			if !m.buried(r, a) {
				out = append(out, uint64(i))
			}
			a++
		}
		if len(r.cols) > 0 {
			out = append(out, uint64(i))
		}
	}
	return appendIDs(out, mc[a:])
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
	for _, r := range m.rows {
		if r != nil {
			m.compact(r, true) // so merged reads each row as it stands
		}
	}
	out := m.merged()
	if got := len(out.colInd); got != m.nvals {
		panic(fmt.Sprintf("grb: delta sync drift: folded %d entries, tracked %d", got, m.nvals))
	}
	m.main = out
	m.rows, m.zombies, m.mergeCols, m.mergeVals = nil, nil, nil, nil
	m.dpN, m.dmN = 0, 0
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

// entry is one (column, value) pair of a delta-plus row being sorted.
type entry struct {
	col Index
	val float64
}

// merged builds the effective matrix as a fresh CSR in one row-ordered pass,
// into slices preallocated to nvals. Each span of clean main rows before a
// dirty row is bulk-copied with its row pointers shifted; the dirty row's
// delta-plus entries are merged with main's live entries — read in place
// when Sync has compacted them into one sorted run, else sorted into scratch
// (Export is a read and leaves the row as it is).
func (m *DeltaMatrix) merged() *Matrix {
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
	var es []entry
	var sc []Index
	var sv []float64
	next := 0 // first row not yet written
	for i, r := range m.rows {
		if r == nil {
			continue
		}
		copySpan(next, i)
		dc, dv := r.cols, r.vals
		if len(r.runs) > 0 || int(r.sorted) < len(dc) { // not one sorted run
			es = es[:0]
			for k, j := range dc {
				es = append(es, entry{j, dv[k]})
			}
			slices.SortFunc(es, func(x, y entry) int { return cmp.Compare(x.col, y.col) })
			sc, sv = sc[:0], sv[:0]
			for _, e := range es {
				sc, sv = append(sc, e.col), append(sv, e.val)
			}
			dc, dv = sc, sv
		}
		b := 0
		for p := src.rowPtr[i]; p < src.rowPtr[i+1]; p++ {
			if r.minus > 0 && m.zombies.get(p) {
				continue
			}
			j := src.colInd[p]
			for ; b < len(dc) && dc[b] < j; b++ {
				out.colInd, out.val = append(out.colInd, dc[b]), append(out.val, dv[b])
			}
			out.colInd, out.val = append(out.colInd, j), append(out.val, src.val[p])
		}
		out.colInd, out.val = append(out.colInd, dc[b:]...), append(out.val, dv[b:]...)
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

// dirty returns row i's deltas (r, when the caller already has them),
// making the row dirty if it is clean.
func (m *DeltaMatrix) dirty(i Index, r *deltaRow) *deltaRow {
	if r != nil {
		return r
	}
	if i >= len(m.rows) {
		m.rows = append(m.rows, make([]*deltaRow, i+1-len(m.rows))...)
	}
	r = &deltaRow{}
	m.rows[i] = r
	return r
}

// tidy makes row i clean again once its deltas are gone.
func (m *DeltaMatrix) tidy(i Index, r *deltaRow) {
	if len(r.cols) == 0 && r.minus == 0 {
		m.rows[i] = nil
	}
}

// bury marks main position k of row r as a zombie.
func (m *DeltaMatrix) bury(r *deltaRow, k int) {
	if m.zombies == nil {
		m.zombies = newBitset(len(m.main.colInd))
	}
	m.zombies.set(k)
	r.minus++
}

// dpAppend buffers a new delta-plus entry at the end of the row's tail;
// a full tail is compacted.
func (m *DeltaMatrix) dpAppend(r *deltaRow, j Index, x float64) {
	r.cols = append(r.cols, j)
	r.vals = append(r.vals, x)
	m.dpN++
	if len(r.cols)-int(r.sorted) == tailMax {
		m.compact(r, false)
	}
}

// compact sorts the row's tail into a run of its own, then merges the last
// two runs while the later is at least as long as the earlier or the runs
// hold fewer than wholeRun entries — with all set, until the row is one
// sorted run.
func (m *DeltaMatrix) compact(r *deltaRow, all bool) {
	if t := int(r.sorted); t < len(r.cols) {
		for a := t + 1; a < len(r.cols); a++ { // insertion sort of the tail
			c, v := r.cols[a], r.vals[a]
			b := a
			for ; b > t && r.cols[b-1] > c; b-- {
				r.cols[b], r.vals[b] = r.cols[b-1], r.vals[b-1]
			}
			r.cols[b], r.vals[b] = c, v
			m.moved += a - b
		}
		if t > 0 {
			r.runs = append(r.runs, t)
		}
		r.sorted = int32(len(r.cols))
	}
	for n := len(r.runs); n > 0; n-- {
		a, b, c := 0, r.runs[n-1], int(r.sorted)
		if n >= 2 {
			a = r.runs[n-2]
		}
		if !all && c-b < b-a && c >= wholeRun {
			break
		}
		m.mergeRuns(r, a, b, c)
		r.runs = r.runs[:n-1]
	}
}

// mergeRuns merges the adjacent sorted runs [a, b) and [b, c) of a row in
// place, staging the first in the writer's scratch.
func (m *DeltaMatrix) mergeRuns(r *deltaRow, a, b, c int) {
	lc := append(m.mergeCols[:0], r.cols[a:b]...)
	lv := append(m.mergeVals[:0], r.vals[a:b]...)
	x, y, o := 0, b, a
	for ; x < len(lc) && y < c; o++ {
		if r.cols[y] < lc[x] {
			r.cols[o], r.vals[o] = r.cols[y], r.vals[y]
			y++
		} else {
			r.cols[o], r.vals[o] = lc[x], lv[x]
			x++
		}
	}
	copy(r.cols[o:], lc[x:]) // what is left of [b, c) is already in place
	copy(r.vals[o:], lv[x:])
	m.mergeCols, m.mergeVals = lc, lv
	m.moved += (b - a) + (c - a)
}
