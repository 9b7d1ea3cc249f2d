package grb

import (
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"testing"
)

// applyOps drives the same operation stream into a DeltaMatrix and a plain
// (fold-on-write) reference matrix.
func applyOps(t *testing.T, n, ops int, seed int64, syncEvery int) (*DeltaMatrix, *Matrix) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	dm := NewDeltaMatrix(n, n)
	dm.SetThreshold(1 << 30) // fold only when the test asks
	ref := NewMatrix(n, n)
	for k := 0; k < ops; k++ {
		i, j := rng.Intn(n), rng.Intn(n)
		if rng.Intn(3) == 0 {
			if err := dm.RemoveElement(i, j); err != nil {
				t.Fatal(err)
			}
			removeEntry(ref, i, j)
		} else {
			x := float64(1 + rng.Intn(4))
			if err := dm.SetElement(i, j, x); err != nil {
				t.Fatal(err)
			}
			if err := ref.SetElement(i, j, x); err != nil {
				t.Fatal(err)
			}
		}
		if syncEvery > 0 && k%syncEvery == 0 {
			dm.ForceSync()
		}
	}
	return dm, ref
}

func assertSameMatrix(t *testing.T, dm *DeltaMatrix, ref *Matrix) {
	t.Helper()
	if dm.NVals() != ref.NVals() {
		t.Fatalf("nvals: delta %d, ref %d", dm.NVals(), ref.NVals())
	}
	ri, rj, rv := tuples(ref)
	// Walk the delta matrix row by row: RowIterate names each row's columns
	// and ExtractElement each value.
	var di, dj []Index
	var dv []float64
	for i := 0; i < ref.nrows; i++ {
		for _, j := range dm.RowIterate(i) {
			x, err := dm.ExtractElement(i, j)
			if err != nil {
				t.Fatalf("(%d,%d): %v", i, j, err)
			}
			di, dj, dv = append(di, i), append(dj, j), append(dv, x)
		}
	}
	if len(di) != len(ri) {
		t.Fatalf("tuples: delta %d, ref %d", len(di), len(ri))
	}
	for k := range ri {
		if di[k] != ri[k] || dj[k] != rj[k] || dv[k] != rv[k] {
			t.Fatalf("tuple %d: delta (%d,%d)=%g, ref (%d,%d)=%g",
				k, di[k], dj[k], dv[k], ri[k], rj[k], rv[k])
		}
	}
	// Point probes and row accessors agree too.
	for i := 0; i < ref.NRows(); i++ {
		if got, want := dm.RowDegree(i), len(ref.RowIterate(i)); got != want {
			t.Fatalf("row %d degree: delta %d, ref %d", i, got, want)
		}
		rc := ref.RowIterate(i)
		dc := dm.RowIterate(i)
		for k := range rc {
			if dc[k] != rc[k] {
				t.Fatalf("row %d col %d: delta %d, ref %d", i, k, dc[k], rc[k])
			}
		}
	}
}

func TestDeltaMatrixMatchesFoldedReference(t *testing.T) {
	for _, syncEvery := range []int{0, 1, 17} {
		dm, ref := applyOps(t, 24, 600, int64(100+syncEvery), syncEvery)
		assertSameMatrix(t, dm, ref)
		// Folding everything must not change the effective contents.
		dm.ForceSync()
		if dm.Pending() != 0 {
			t.Fatal("pending deltas after force sync")
		}
		assertSameMatrix(t, dm, ref)
	}
	// A larger matrix whose rows are mostly clean, so the fold copies long
	// spans of main between dirty rows: each case puts a dirty row at a span
	// boundary, and the merged CSR must equal the reference array for array.
	const n = 64
	type op struct {
		del  bool
		i, j Index
		x    float64
	}
	rowOf := func(ref *Matrix, i Index) []Index { return append([]Index(nil), ref.RowIterate(i)...) }
	for _, tc := range []struct {
		name      string
		emptyMain bool
		ops       func(ref *Matrix) []op
	}{
		{"first and last row", false, func(ref *Matrix) []op {
			return []op{{i: 0, j: 1, x: 5}, {del: true, i: n - 1, j: rowOf(ref, n-1)[0]}}
		}},
		{"adjacent rows", false, func(ref *Matrix) []op {
			return []op{{i: 10, j: 0, x: 5}, {i: 11, j: 0, x: 6}, {del: true, i: 12, j: rowOf(ref, 12)[0]}}
		}},
		{"row emptied by delta-minus", false, func(ref *Matrix) []op {
			var ops []op
			for _, j := range rowOf(ref, 20) {
				ops = append(ops, op{del: true, i: 20, j: j})
			}
			return ops
		}},
		{"value override", false, func(ref *Matrix) []op {
			return []op{{i: 30, j: rowOf(ref, 30)[0], x: 9}}
		}},
		{"every row dirty over an empty main", true, func(*Matrix) []op {
			var ops []op
			for i := 0; i < n; i++ {
				ops = append(ops, op{i: i, j: (i * 5) % n, x: 1}, op{i: i, j: (i*5 + 3) % n, x: 2})
			}
			return ops
		}},
	} {
		ref := NewMatrix(n, n)
		if !tc.emptyMain {
			var rows, cols []Index
			var vals []float64
			for i := 0; i < n; i++ {
				for k := 0; k <= i%3; k++ {
					rows, cols, vals = append(rows, i), append(cols, (i*7+k*13+2)%n), append(vals, float64(1+k))
				}
			}
			for k := range rows {
				if _, err := ref.ExtractElement(rows[k], cols[k]); err != nil {
					must(t, ref.SetElement(rows[k], cols[k], vals[k])) // first wins
				}
			}
		}
		dm := DeltaFrom(ref.Dup())
		dm.SetThreshold(1 << 30)
		for _, o := range tc.ops(ref) {
			if o.del {
				must(t, dm.RemoveElement(o.i, o.j))
				removeEntry(ref, o.i, o.j)
			} else {
				must(t, dm.SetElement(o.i, o.j, o.x))
				must(t, ref.SetElement(o.i, o.j, o.x))
			}
		}
		if dm.Pending() == 0 {
			t.Fatalf("%s: fixture must carry pending deltas", tc.name)
		}
		assertSameMatrix(t, dm, ref)
		assertSameCSR(t, tc.name+": export", dm.Export(), ref)
		dm.ForceSync()
		assertSameCSR(t, tc.name+": sync", dm.main, ref)
		assertSameMatrix(t, dm, ref)
	}
}

// assertSameCSR compares two plain matrices array for array.
func assertSameCSR(t *testing.T, what string, got, want *Matrix) {
	t.Helper()
	if !slices.Equal(got.rowPtr, want.rowPtr) || !slices.Equal(got.colInd, want.colInd) || !slices.Equal(got.val, want.val) {
		t.Fatalf("%s:\n got %v %v %v\nwant %v %v %v", what,
			got.rowPtr, got.colInd, got.val, want.rowPtr, want.colInd, want.val)
	}
}

// TestRowDegreeAllocs: RowDegree counts a row with delta-plus and
// delta-minus entries without assembling it.
func TestRowDegreeAllocs(t *testing.T) {
	m := NewMatrix(2, 8)
	for j := 0; j < 8; j += 2 {
		must(t, m.SetElement(1, j, 1))
	}
	dm := DeltaFrom(m)
	dm.SetThreshold(1 << 30)
	must(t, dm.SetElement(1, 3, 1)) // delta-plus on a column main lacks
	must(t, dm.SetElement(1, 4, 2)) // delta-plus override of a main entry
	must(t, dm.RemoveElement(1, 6)) // delta-minus
	if d := dm.RowDegree(1); d != 4 {
		t.Fatalf("degree = %d, want 4", d)
	}
	if n := testing.AllocsPerRun(100, func() { dm.RowDegree(1) }); n != 0 {
		t.Fatalf("RowDegree allocated %.0f times", n)
	}
}

func TestDeltaMatrixSetRemoveBookkeeping(t *testing.T) {
	dm := NewDeltaMatrix(4, 4)
	dm.SetThreshold(1 << 30)
	check := func(nvals, pending int) {
		t.Helper()
		if dm.NVals() != nvals || dm.Pending() != pending {
			t.Fatalf("nvals=%d pending=%d, want %d/%d", dm.NVals(), dm.Pending(), nvals, pending)
		}
	}
	dm.SetElement(1, 2, 1)
	check(1, 1)
	dm.SetElement(1, 2, 1) // idempotent pending insert
	check(1, 1)
	dm.ForceSync()
	check(1, 0)
	dm.SetElement(1, 2, 1) // no-op re-insert of an existing entry
	check(1, 0)
	dm.SetElement(1, 2, 7) // override changes the value, not the count
	check(1, 1)
	if x, err := dm.ExtractElement(1, 2); err != nil || x != 7 {
		t.Fatalf("override read: %v %v", x, err)
	}
	dm.RemoveElement(1, 2) // removes the override and buffers the delete
	check(0, 1)
	if _, err := dm.ExtractElement(1, 2); err != ErrNoValue {
		t.Fatalf("deleted read: %v", err)
	}
	dm.SetElement(1, 2, 1) // resurrect to the exact main value: clean again
	check(1, 0)
	dm.ForceSync()
	check(1, 0)
}

// TestDeltaMatrixAppendDiag checks the member walk of a diagonal against
// pending delta-plus and delta-minus rows without folding, and the clean
// column-index copy after Sync.
func TestDeltaMatrixAppendDiag(t *testing.T) {
	m := NewMatrix(6, 6)
	for _, i := range []Index{1, 3, 4} {
		must(t, m.SetElement(i, i, 1))
	}
	dm := DeltaFrom(m)
	dm.SetThreshold(1 << 30)
	check := func(when string, want []uint64) {
		t.Helper()
		if got := dm.AppendDiag([]uint64{9}); !slices.Equal(got, append([]uint64{9}, want...)) {
			t.Fatalf("%s: members %v, want 9 then %v", when, got, want)
		}
	}
	check("clean", []uint64{1, 3, 4})
	must(t, dm.SetElement(0, 0, 1)) // delta-plus on an empty row
	must(t, dm.SetElement(3, 3, 1)) // delta-plus override of a main entry
	must(t, dm.RemoveElement(1, 1)) // delta-minus empties row 1
	must(t, dm.SetElement(5, 5, 1)) // a delta-plus row inserted
	must(t, dm.RemoveElement(5, 5)) // and emptied again
	want := []uint64{0, 3, 4}
	check("pending", want)
	if dm.Pending() == 0 {
		t.Fatal("AppendDiag must not fold")
	}
	buf := make([]uint64, 0, 8)
	if n := testing.AllocsPerRun(10, func() { buf = dm.AppendDiag(buf[:0]) }); n != 0 {
		t.Fatalf("pending AppendDiag allocated %.0f times into a large enough buffer", n)
	}
	dm.ForceSync()
	check("synced", want)
	if n := testing.AllocsPerRun(10, func() { buf = dm.AppendDiag(buf[:0]) }); n != 0 {
		t.Fatalf("clean AppendDiag allocated %.0f times into a large enough buffer", n)
	}
}

// TestDeltaMatrixAppendDiagRandom checks the merge walk against a per-row
// probe on diagonals with random pending inserts, overrides and deletes,
// appended after a non-empty prefix.
func TestDeltaMatrixAppendDiagRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for round := 0; round < 200; round++ {
		n := 1 + rng.Intn(40)
		m := NewMatrix(n, n)
		for i := 0; i < n; i++ {
			if rng.Intn(2) == 0 {
				must(t, m.SetElement(i, i, 1))
			}
		}
		dm := DeltaFrom(m)
		dm.SetThreshold(1 << 30)
		for k := rng.Intn(2 * n); k > 0; k-- {
			i := rng.Intn(n)
			if rng.Intn(2) == 0 {
				must(t, dm.SetElement(i, i, float64(1+rng.Intn(2))))
			} else {
				must(t, dm.RemoveElement(i, i))
			}
		}
		want := []uint64{42}
		for i := 0; i < n; i++ {
			if _, err := dm.ExtractElement(i, i); err == nil {
				want = append(want, uint64(i))
			}
		}
		if got := dm.AppendDiag([]uint64{42}); !slices.Equal(got, want) {
			t.Fatalf("round %d: members %v, want %v (%v)", round, got, want, dm)
		}
	}
}

func TestDeltaMatrixThresholdSync(t *testing.T) {
	dm := NewDeltaMatrix(8, 8)
	dm.SetThreshold(4)
	for j := 0; j < 3; j++ {
		dm.SetElement(0, Index(j), 1)
	}
	if dm.Sync(false) {
		t.Fatal("sync fired below threshold")
	}
	dm.SetElement(0, 3, 1)
	if !dm.Sync(false) {
		t.Fatal("sync did not fire at threshold")
	}
	if dm.Pending() != 0 || dm.NVals() != 4 {
		t.Fatalf("after sync: pending=%d nvals=%d", dm.Pending(), dm.NVals())
	}
	// Threshold 0 folds on any pending update.
	dm.SetThreshold(0)
	dm.SetElement(5, 5, 1)
	if !dm.Sync(false) {
		t.Fatal("threshold 0 must fold any pending update")
	}
}

// TestMxMDeltaMatchesExportedMxM checks MxMDelta over a dirty delta matrix,
// and again after ForceSync, against the dense product with its
// fold-on-write reference: the matrix Export returns, built without the
// delta code.
func TestMxMDeltaMatchesExportedMxM(t *testing.T) {
	dm, ref := applyOps(t, 20, 400, 7, 0)
	f := NewMatrix(6, 20)
	rng := rand.New(rand.NewSource(9))
	for r := 0; r < 6; r++ {
		f.SetElement(r, rng.Intn(20), 1)
	}
	f.SetElement(2, rng.Intn(20), 1) // one row merges several operand rows
	want := denseMxM(toDenseM(f), toDenseM(ref))
	for _, state := range []string{"pending", "synced"} {
		if state == "synced" {
			dm.ForceSync()
		} else if dm.Pending() == 0 {
			t.Fatal("fixture must carry pending deltas")
		}
		got := NewMatrix(6, 20)
		if err := MxMDelta(got, nil, nil, AnyPair, f, dm, nil); err != nil {
			t.Fatal(err)
		}
		expectDenseEq(t, got, want)
	}
}

// TestVxMDeltaMatchesExportedVxM is the VxMDelta counterpart, plus VxMPull
// over the transpose, each on pending operands and after ForceSync.
func TestVxMDeltaMatchesExportedVxM(t *testing.T) {
	dm, ref := applyOps(t, 20, 400, 11, 0)
	u := NewVector(20)
	u.SetElement(3, 1)
	u.SetElement(12, 1)
	want := denseVxM(u, toDenseM(ref))
	r := rand.New(rand.NewSource(12))
	a, at, aref := randomDeltaPair(r, 40)
	ua := randVector(r, 40, 0.2)
	wantA := denseVxM(ua, aref)
	for _, state := range []string{"pending", "synced"} {
		if state == "synced" {
			dm.ForceSync()
			a.ForceSync()
			at.ForceSync()
		} else if dm.Pending() == 0 || a.Pending() == 0 || at.Pending() == 0 {
			t.Fatal("fixtures must carry pending deltas")
		}
		got := NewVector(20)
		if err := VxMDelta(got, nil, nil, AnyPair, u, dm, nil); err != nil {
			t.Fatal(err)
		}
		expectVecEq(t, got, want)
		push, pull := NewVector(40), NewVector(40)
		if err := VxMDelta(push, nil, nil, AnyPair, ua, a, nil); err != nil {
			t.Fatal(err)
		}
		if err := VxMPull(pull, nil, nil, AnyPair, ua, at, nil, nil); err != nil {
			t.Fatal(err)
		}
		expectVecEq(t, push, wantA)
		expectVecEq(t, pull, wantA)
	}
}

// TestDeltaMatrixConcurrentReaders exercises every fold-free read accessor
// from many goroutines against a dirty delta matrix whose rows hold unsorted
// delta-plus tails, one of them behind a sorted run. Mutations require the
// caller's exclusive lock; concurrent reads must require nothing. Run under
// -race this is the regression test for a read path that writes: a fold, or
// a sort of a tail in place.
func TestDeltaMatrixConcurrentReaders(t *testing.T) {
	const n, hub = 96, 7
	dm, ref := applyOps(t, n, 2000, 5, 0)
	for _, j := range rand.New(rand.NewSource(6)).Perm(n)[:tailMax+13] {
		must(t, dm.SetElement(hub, j, 2))
		must(t, ref.SetElement(hub, j, 2))
	}
	if r := dm.row(hub); r == nil || r.sorted == 0 || slices.IsSorted(r.cols[r.sorted:]) {
		t.Fatal("fixture must hold a sorted run followed by an unsorted tail")
	}
	want := dm.Export()
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			f := NewMatrix(4, n)
			for r := 0; r < 4; r++ {
				f.SetElement(r, rng.Intn(n), 1)
			}
			f.SetElement(0, hub, 1)
			for iter := 0; iter < 50; iter++ {
				i, j := rng.Intn(n), rng.Intn(n)
				if iter%5 == 0 {
					i = hub
				}
				dm.ExtractElement(i, j)
				dm.RowIterate(i)
				dm.RowDegree(i)
				if dm.NVals() != ref.NVals() {
					panic("nvals changed under readers")
				}
				out := NewMatrix(4, n)
				if err := MxMDelta(out, nil, nil, AnyPair, f, dm, nil); err != nil {
					panic(err)
				}
				u := NewVector(n)
				u.SetElement(i, 1)
				wv, pv := NewVector(n), NewVector(n)
				if err := VxMDelta(wv, nil, nil, AnyPair, u, dm, nil); err != nil {
					panic(err)
				}
				if err := VxMPull(pv, nil, nil, AnyPair, u, dm, nil, nil); err != nil {
					panic(err)
				}
				// dm stands in for its own transpose: only the reads matter.
				if err := BFS(dm, dm, i, 2, func(h *BFSHop) (bool, error) {
					return h.FrontierDegree(100) > 50, nil
				}, func(int, []Index) error { return nil }); err != nil {
					panic(err)
				}
				if got := dm.Export(); !slices.Equal(got.colInd, want.colInd) {
					panic("export changed under readers")
				}
			}
		}(int64(w))
	}
	wg.Wait()
	assertSameMatrix(t, dm, ref)
}

func TestDeltaMatrixResizeGrowKeepsDeltas(t *testing.T) {
	dm := NewDeltaMatrix(4, 4)
	dm.SetThreshold(1 << 30)
	dm.SetElement(1, 1, 1)
	dm.Resize(8, 8)
	if dm.Pending() == 0 {
		t.Fatal("growth must not fold")
	}
	dm.SetElement(6, 7, 1)
	if dm.NVals() != 2 {
		t.Fatalf("nvals = %d", dm.NVals())
	}
	if _, err := dm.ExtractElement(6, 7); err != nil {
		t.Fatal(err)
	}
	dm.ForceSync()
	if dm.NVals() != 2 {
		t.Fatalf("nvals after sync = %d", dm.NVals())
	}
}

func TestDeltaFromAdoptsMatrix(t *testing.T) {
	m := NewMatrix(3, 3)
	m.SetElement(0, 1, 1)
	m.SetElement(2, 2, 1)
	dm := DeltaFrom(m)
	if dm.NVals() != 2 || dm.Pending() != 0 {
		t.Fatalf("wrap: nvals=%d pending=%d", dm.NVals(), dm.Pending())
	}
	if dm.Export() != m {
		t.Fatal("clean export must be the adopted matrix")
	}
}

// TestDeltaStarInsertWork inserts a star of 2^16 leaves into one row in
// random order and counts the entries the write path moves (tail sorts and
// run merges): O(d log d), where a sorted row that shifts on every insert
// moves about d²/4 ≈ 10⁹. The row must still read back whole and sorted.
func TestDeltaStarInsertWork(t *testing.T) {
	const d = 1 << 16
	dm := NewDeltaMatrix(1, d)
	dm.SetThreshold(1 << 30)
	for _, j := range rand.New(rand.NewSource(8)).Perm(d) {
		must(t, dm.SetElement(0, j, float64(j+1)))
	}
	if limit := 2 * d * 16; dm.moved > limit { // 2 d log2 d
		t.Fatalf("moved %d entries for %d inserts, want at most %d", dm.moved, d, limit)
	}
	if got := dm.RowDegree(0); got != d || dm.NVals() != d {
		t.Fatalf("degree %d, nvals %d, want %d", got, dm.NVals(), d)
	}
	row := dm.RowIterate(0)
	for j := range row {
		if row[j] != j {
			t.Fatalf("column %d reads %d", j, row[j])
		}
	}
	for _, j := range []Index{0, 1234, d - 1} {
		if x, err := dm.ExtractElement(0, j); err != nil || x != float64(j+1) {
			t.Fatalf("(0,%d) = %v %v", j, x, err)
		}
	}
}

// deltaOracle is the map reference of the differential test: one column map
// per row.
type deltaOracle []map[Index]float64

func (o deltaOracle) nvals() int {
	n := 0
	for _, r := range o {
		n += len(r)
	}
	return n
}

func (o deltaOracle) cols(i Index) []Index {
	out := make([]Index, 0, len(o[i]))
	for j := range o[i] {
		out = append(out, j)
	}
	slices.Sort(out)
	return out
}

// csr is the oracle as the matrix Export must return.
func (o deltaOracle) csr(n int) *Matrix {
	m := &Matrix{nrows: n, ncols: n, rowPtr: make([]int, n+1)}
	for i := range o {
		for _, j := range o.cols(i) {
			m.colInd, m.val = append(m.colInd, j), append(m.val, o[i][j])
		}
		m.rowPtr[i+1] = len(m.colInd)
	}
	return m
}

// TestDeltaMatrixDifferential interleaves inserts, deletes, resurrections
// and value overrides on hub rows and spread rows of a delta matrix over a
// folded main, mirrored into its transpose and into a diagonal, and checks
// every read path against a map reference: the touched entry, the touched
// row's RowDegree and RowIterate, and NVals after every op, and the whole
// matrix (every entry and row, Export, AppendDiag, and one BFS push and
// pull, VxMDelta, VxMPull and MxMDelta hop) every fullEvery ops, after
// ForceSync and at the end. The small case checks the whole matrix after
// every op; the hub case grows its first hub row's pending entries past
// wholeRun, so its runs merge by the logarithmic method.
func TestDeltaMatrixDifferential(t *testing.T) {
	for _, tc := range []struct {
		name              string
		n, ops, fullEvery int
		hubShare, syncAt  int
	}{
		{"small", 96, 1200, 1, 3, 600},
		{"hub", 2048, 8000, 1000, 5, 7000},
	} {
		t.Run(tc.name, func(t *testing.T) {
			n := tc.n
			rng := rand.New(rand.NewSource(int64(n)))
			hubs := []Index{0, n / 2, n - 1}
			ref, diag := make(deltaOracle, n), make(deltaOracle, n)
			for i := range ref {
				ref[i], diag[i] = map[Index]float64{}, map[Index]float64{}
			}
			// A folded main to delete from, resurrect and override.
			var mainKeys [][2]Index
			for k := 0; k < 2*n; k++ {
				i, j := rng.Intn(n), rng.Intn(n)
				if k%4 == 0 {
					i = hubs[k%len(hubs)]
				}
				if _, ok := ref[i][j]; !ok {
					ref[i][j] = float64(1 + rng.Intn(3))
					mainKeys = append(mainKeys, [2]Index{i, j})
				}
				if k%3 == 0 {
					diag[i][i] = 1
				}
			}
			m := ref.csr(n)
			a, at, d := DeltaFrom(m.Dup()), DeltaFrom(transposeOf(m)), DeltaFrom(diag.csr(n))
			for _, x := range []*DeltaMatrix{a, at, d} {
				x.SetThreshold(1 << 30)
			}
			keys := append([][2]Index(nil), mainKeys...)
			set := func(i, j Index, x float64) {
				must(t, a.SetElement(i, j, x))
				must(t, at.SetElement(j, i, 1))
				ref[i][j] = x
			}
			remove := func(i, j Index) {
				must(t, a.RemoveElement(i, j))
				must(t, at.RemoveElement(j, i))
				delete(ref[i], j)
			}
			for op := 1; op <= tc.ops; op++ {
				var i, j Index
				switch kind := rng.Intn(10); {
				case kind < tc.hubShare: // insert into a hub row, mostly the first
					i, j = hubs[max(0, rng.Intn(len(hubs)+3)-3)], rng.Intn(n)
					set(i, j, float64(1+rng.Intn(3)))
					keys = append(keys, [2]Index{i, j})
				case kind < 5: // insert into a spread row
					i, j = rng.Intn(n), rng.Intn(n)
					set(i, j, float64(1+rng.Intn(3)))
					keys = append(keys, [2]Index{i, j})
				case kind < 7: // delete a pending or folded entry, or nothing
					k := keys[rng.Intn(len(keys))]
					i, j = k[0], k[1]
					remove(i, j)
				case kind < 8: // resurrect a main entry, to its value or another
					k := mainKeys[rng.Intn(len(mainKeys))]
					i, j = k[0], k[1]
					x, _ := m.ExtractElement(i, j)
					if rng.Intn(2) == 0 {
						x = float64(4 + rng.Intn(3))
					}
					remove(i, j)
					set(i, j, x)
				default: // override the value of a live entry
					k := keys[rng.Intn(len(keys))]
					i, j = k[0], k[1]
					if _, ok := ref[i][j]; ok {
						set(i, j, float64(1+rng.Intn(6)))
					}
				}
				if k := rng.Intn(n); rng.Intn(2) == 0 {
					must(t, d.SetElement(k, k, 1))
					diag[k][k] = 1
				} else {
					must(t, d.RemoveElement(k, k))
					delete(diag[k], k)
				}
				checkDeltaRow(t, a, ref, i, []Index{j})
				if a.NVals() != ref.nvals() {
					t.Fatalf("op %d: nvals %d, want %d", op, a.NVals(), ref.nvals())
				}
				if op%tc.fullEvery == 0 || op == tc.ops {
					checkDeltaAll(t, fmt.Sprintf("op %d", op), a, at, d, ref, diag, hubs)
				}
				if op == tc.syncAt {
					if a.Pending() == 0 || at.Pending() == 0 || d.Pending() == 0 {
						t.Fatal("fixture must carry pending deltas")
					}
					if r := a.row(hubs[0]); tc.name == "hub" && (r == nil || len(r.runs) == 0) {
						t.Fatal("the first hub row must hold several runs before the fold")
					}
					a.ForceSync()
					at.ForceSync()
					d.ForceSync()
					checkDeltaAll(t, "after ForceSync", a, at, d, ref, diag, hubs)
				}
			}
			a.ForceSync()
			at.ForceSync()
			d.ForceSync()
			checkDeltaAll(t, "final ForceSync", a, at, d, ref, diag, hubs)
		})
	}
}

// checkDeltaRow compares row i's degree and columns with the oracle, and
// the entries at the given columns of it.
func checkDeltaRow(t *testing.T, a *DeltaMatrix, ref deltaOracle, i Index, cols []Index) {
	t.Helper()
	want := ref.cols(i)
	if got := a.RowDegree(i); got != len(want) {
		t.Fatalf("row %d: degree %d, want %d", i, got, len(want))
	}
	if got := a.RowIterate(i); !slices.Equal(got, want) {
		t.Fatalf("row %d: columns %v, want %v", i, got, want)
	}
	for _, j := range cols {
		x, err := a.ExtractElement(i, j)
		if want, ok := ref[i][j]; ok != (err == nil) || x != want {
			t.Fatalf("(%d,%d) = %v %v, want %v (present %v)", i, j, x, err, want, ok)
		}
	}
}

// checkDeltaAll compares the whole of a, its transpose at and the diagonal
// d with the oracles, through every read accessor and one hop of each
// kernel.
func checkDeltaAll(t *testing.T, when string, a, at, d *DeltaMatrix, ref, diag deltaOracle, hubs []Index) {
	t.Helper()
	n := len(ref)
	if a.NVals() != ref.nvals() {
		t.Fatalf("%s: nvals %d, want %d", when, a.NVals(), ref.nvals())
	}
	for i := 0; i < n; i++ {
		checkDeltaRow(t, a, ref, i, append(ref.cols(i), (i*7+3)%n))
	}
	assertSameCSR(t, when+": export", a.Export(), ref.csr(n))
	var members []uint64
	for i := 0; i < n; i++ {
		if len(diag[i]) > 0 {
			members = append(members, uint64(i))
		}
	}
	if got := d.AppendDiag(nil); !slices.Equal(got, members) {
		t.Fatalf("%s: diagonal members %v, want %v", when, got, members)
	}
	srcs := []Index{hubs[0], hubs[1], n / 3}
	union := map[Index]float64{}
	for _, s := range srcs[:2] {
		for j := range ref[s] {
			union[j] = 1
		}
	}
	u := NewVector(n)
	for _, s := range srcs[:2] {
		u.SetElement(s, 1)
	}
	push, pull := NewVector(n), NewVector(n)
	must(t, VxMDelta(push, nil, nil, AnyPair, u, a, nil))
	must(t, VxMPull(pull, nil, nil, AnyPair, u, at, nil, nil))
	expectVecEq(t, push, union)
	expectVecEq(t, pull, union)
	f := NewMatrix(len(srcs), n)
	must(t, f.BuildFromRows(srcs))
	c := NewMatrix(len(srcs), n)
	must(t, MxMDelta(c, nil, nil, AnyPair, f, a, nil))
	for r, s := range srcs {
		if got, want := c.RowIterate(r), ref.cols(s); !slices.Equal(got, want) {
			t.Fatalf("%s: MxMDelta row %d (source %d): %v, want %v", when, r, s, got, want)
		}
	}
	for _, mode := range []string{"push", "pull"} {
		src := hubs[2]
		levels, _, err := bfsLevels(a, at, src, 1, mode)
		if err != nil {
			t.Fatal(err)
		}
		want := slices.DeleteFunc(ref.cols(src), func(j Index) bool { return j == src })
		var got []Index
		if len(levels) > 1 {
			got = levels[1]
		}
		if !slices.Equal(got, want) && (len(got) != 0 || len(want) != 0) {
			t.Fatalf("%s: BFS %s hop from %d: %v, want %v", when, mode, src, got, want)
		}
	}
}
