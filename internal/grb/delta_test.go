package grb

import (
	"fmt"
	"maps"
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
			if err := dm.SetElement(i, j, 1); err != nil {
				t.Fatal(err)
			}
			if err := ref.SetElement(i, j, 1); err != nil {
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
	ri, rj := tuples(ref)
	// Walk the delta matrix row by row: RowIterate names each row's columns
	// and Has probes each entry.
	var di, dj []Index
	for i := 0; i < ref.nrows; i++ {
		for _, j := range dm.RowIterate(i) {
			if !dm.Has(i, j) {
				t.Fatalf("(%d,%d): RowIterate lists it, Has does not", i, j)
			}
			di, dj = append(di, i), append(dj, j)
		}
	}
	if len(di) != len(ri) {
		t.Fatalf("tuples: delta %d, ref %d", len(di), len(ri))
	}
	for k := range ri {
		if di[k] != ri[k] || dj[k] != rj[k] {
			t.Fatalf("tuple %d: delta (%d,%d), ref (%d,%d)", k, di[k], dj[k], ri[k], rj[k])
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
	}
	rowOf := func(ref *Matrix, i Index) []Index { return append([]Index(nil), ref.RowIterate(i)...) }
	for _, tc := range []struct {
		name      string
		emptyMain bool
		ops       func(ref *Matrix) []op
	}{
		{"first and last row", false, func(ref *Matrix) []op {
			return []op{{i: 0, j: 1}, {del: true, i: n - 1, j: rowOf(ref, n-1)[0]}}
		}},
		{"adjacent rows", false, func(ref *Matrix) []op {
			return []op{{i: 10, j: 0}, {i: 11, j: 0}, {del: true, i: 12, j: rowOf(ref, 12)[0]}}
		}},
		{"row emptied by delta-minus", false, func(ref *Matrix) []op {
			var ops []op
			for _, j := range rowOf(ref, 20) {
				ops = append(ops, op{del: true, i: 20, j: j})
			}
			return ops
		}},
		{"buried main entry re-inserted", false, func(ref *Matrix) []op {
			j := rowOf(ref, 30)[0] // row 30's only entry
			return []op{{del: true, i: 30, j: j}, {i: 30, j: j}, {i: 30, j: j + 1}}
		}},
		{"every row dirty over an empty main", true, func(*Matrix) []op {
			var ops []op
			for i := 0; i < n; i++ {
				ops = append(ops, op{i: i, j: (i * 5) % n}, op{i: i, j: (i*5 + 3) % n})
			}
			return ops
		}},
	} {
		ref := NewMatrix(n, n)
		if !tc.emptyMain {
			for i := 0; i < n; i++ {
				for k := 0; k <= i%3; k++ {
					must(t, ref.SetElement(i, (i*7+k*13+2)%n, 1))
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
				must(t, dm.SetElement(o.i, o.j, 1))
				must(t, ref.SetElement(o.i, o.j, 1))
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
	if !slices.Equal(got.rowPtr, want.rowPtr) || !slices.Equal(got.colInd, want.colInd) {
		t.Fatalf("%s:\n got %v %v\nwant %v %v", what, got.rowPtr, got.colInd, want.rowPtr, want.colInd)
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
	must(t, dm.SetElement(1, 4, 1)) // re-insert of a main entry: no delta
	must(t, dm.RemoveElement(1, 6)) // delta-minus
	if d := dm.RowDegree(1); d != 4 {
		t.Fatalf("degree = %d, want 4", d)
	}
	if n := testing.AllocsPerRun(100, func() { dm.RowDegree(1) }); n != 0 {
		t.Fatalf("RowDegree allocated %.0f times", n)
	}
}

// TestDeltaMatrixSetRemoveBookkeeping follows one entry of an ID matrix
// through insert, re-insert, ID rewrite, fold, promote, delete and the
// buried entry's re-insert. A rewrite and an unburying are in place: neither
// buffers an update, and a zombie is only ever a delete.
func TestDeltaMatrixSetRemoveBookkeeping(t *testing.T) {
	dm := NewIDMatrix(4, 4)
	dm.SetThreshold(1 << 30)
	check := func(nvals, pending int, id uint64, present bool) {
		t.Helper()
		got, err := dm.ExtractElement(1, 2)
		if dm.NVals() != nvals || dm.Pending() != pending || got != id || (err == nil) != present || dm.Has(1, 2) != present {
			t.Fatalf("nvals=%d pending=%d ID=%d,%v, want %d/%d %d, present %v",
				dm.NVals(), dm.Pending(), got, err, nvals, pending, id, present)
		}
	}
	insert := func(id uint64, want bool) {
		t.Helper()
		if stored, err := dm.InsertID(1, 2, id); err != nil || stored != want {
			t.Fatalf("InsertID(%d) = %v, %v, want stored %v", id, stored, err, want)
		}
	}
	insert(5, true)
	check(1, 1, 5, true)
	insert(6, false) // a pending entry: the first ID stays
	check(1, 1, 5, true)
	must(t, dm.SetID(1, 2, 7)) // the pending entry's ID is rewritten
	check(1, 1, 7, true)
	dm.ForceSync()
	check(1, 0, 7, true)
	insert(6, false) // a folded entry: no-op
	check(1, 0, 7, true)
	must(t, dm.SetID(1, 2, 8)) // promote: main's ID is rewritten, nothing buffered
	check(1, 0, 8, true)
	must(t, dm.RemoveElement(1, 2)) // buffers the delete
	check(0, 1, 0, false)
	insert(9, true) // unburied with the new ID: clean again
	check(1, 0, 9, true)
	if dm.row(1) != nil {
		t.Fatal("the unburied row must be clean")
	}
	dm.ForceSync()
	check(1, 0, 9, true)
}

// TestDeltaMatrixPatternReinsert re-inserts present and buried entries of a
// pattern: a present entry, pending or folded, is a no-op, and a buried one
// is unburied, so NVals, Pending and every row read back exact.
func TestDeltaMatrixPatternReinsert(t *testing.T) {
	m := NewMatrix(3, 4)
	for _, e := range [][2]Index{{0, 1}, {0, 3}, {2, 0}} {
		must(t, m.SetElement(e[0], e[1], 1))
	}
	dm := DeltaFrom(m)
	dm.SetThreshold(1 << 30)
	must(t, dm.SetElement(1, 2, 1)) // a pending insert
	must(t, dm.RemoveElement(0, 3)) // a buried main entry
	check := func(when string, nvals, pending int, rows [][]Index) {
		t.Helper()
		if dm.NVals() != nvals || dm.Pending() != pending {
			t.Fatalf("%s: nvals=%d pending=%d, want %d/%d", when, dm.NVals(), dm.Pending(), nvals, pending)
		}
		for i, want := range rows {
			if got := dm.RowIterate(i); !slices.Equal(got, want) || dm.RowDegree(i) != len(want) {
				t.Fatalf("%s: row %d = %v (degree %d), want %v", when, i, got, dm.RowDegree(i), want)
			}
		}
	}
	check("fixture", 3, 2, [][]Index{{1}, {2}, {0}})
	for _, e := range [][2]Index{{0, 1}, {1, 2}, {2, 0}} {
		if stored, err := dm.Insert(e[0], e[1]); err != nil || stored {
			t.Fatalf("re-insert of present (%d,%d) stored: %v %v", e[0], e[1], stored, err)
		}
		check(fmt.Sprintf("re-insert (%d,%d)", e[0], e[1]), 3, 2, [][]Index{{1}, {2}, {0}})
	}
	if stored, err := dm.Insert(0, 3); err != nil || !stored {
		t.Fatalf("re-insert of buried (0,3): %v %v", stored, err)
	}
	check("unburied", 4, 1, [][]Index{{1, 3}, {2}, {0}})
	if dm.row(0) != nil {
		t.Fatal("the unburied row must be clean")
	}
	dm.ForceSync()
	check("synced", 4, 0, [][]Index{{1, 3}, {2}, {0}})
}

// TestDeltaMatrixIDsAreExact stores edge IDs above 2^53, where a float64
// would round them, and reads each back exactly: pending, after a fold,
// after a promote (an in-place rewrite) carried through a second fold, and
// after a buried entry's re-insert.
func TestDeltaMatrixIDsAreExact(t *testing.T) {
	const big = 1<<53 + 1
	dm := NewIDMatrix(4, 4)
	dm.SetThreshold(1 << 30)
	check := func(when string, i, j Index, want uint64) {
		t.Helper()
		if got, err := dm.ExtractElement(i, j); err != nil || got != want {
			t.Fatalf("%s: (%d,%d) = %d,%v, want ID %d", when, i, j, got, err, want)
		}
	}
	for _, e := range []struct {
		i, j Index
		id   uint64
	}{{1, 2, big}, {1, 0, big + 2}, {3, 3, big + 4}} {
		if stored, err := dm.InsertID(e.i, e.j, e.id); err != nil || !stored {
			t.Fatalf("InsertID(%d,%d): %v %v", e.i, e.j, stored, err)
		}
	}
	check("pending", 1, 2, big)
	check("pending", 1, 0, big+2)
	if !dm.Sync(true) {
		t.Fatal("the fixture must fold")
	}
	check("synced", 1, 2, big)
	check("synced", 3, 3, big+4)
	must(t, dm.SetID(1, 2, big+6)) // promote
	check("promoted", 1, 2, big+6)
	if _, err := dm.InsertID(2, 1, big+8); err != nil { // something for the second fold to do
		t.Fatal(err)
	}
	dm.Sync(true)
	check("promoted and synced", 1, 2, big+6)
	check("promoted and synced", 1, 0, big+2)
	check("promoted and synced", 2, 1, big+8)
	must(t, dm.RemoveElement(1, 0))
	if _, err := dm.InsertID(1, 0, big+10); err != nil {
		t.Fatal(err)
	}
	check("re-inserted", 1, 0, big+10)
	if _, err := dm.InsertID(0, 0, big+12); err != nil {
		t.Fatal(err)
	}
	dm.Sync(true)
	check("re-inserted and synced", 1, 0, big+10)
	check("re-inserted and synced", 0, 0, big+12)
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
	must(t, dm.SetElement(3, 3, 1)) // re-insert of a main entry: no delta
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
// probe on diagonals with random pending inserts, re-inserts and deletes,
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
				must(t, dm.SetElement(i, i, 1))
			} else {
				must(t, dm.RemoveElement(i, i))
			}
		}
		want := []uint64{42}
		for i := 0; i < n; i++ {
			if dm.Has(i, i) {
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
				dm.Has(i, j)
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
				if err := BFS([]*DeltaMatrix{dm}, []*DeltaMatrix{dm}, i, 2, func(h *BFSHop) (bool, error) {
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
	if !dm.Has(6, 7) {
		t.Fatal("(6,7) is missing after growth")
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

// TestDeltaStarInsertWork inserts a star of 2^16 leaves into one row of an
// ID matrix in random order and counts the entries the write path moves
// (tail sorts and run merges): O(d log d), where a sorted row that shifts on
// every insert moves about d²/4 ≈ 10⁹. The row must still read back whole
// and sorted, every column with its own ID.
func TestDeltaStarInsertWork(t *testing.T) {
	const d = 1 << 16
	dm := NewIDMatrix(1, d)
	dm.SetThreshold(1 << 30)
	for _, j := range rand.New(rand.NewSource(8)).Perm(d) {
		if _, err := dm.InsertID(0, j, uint64(j+1)); err != nil {
			t.Fatal(err)
		}
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
	for j := 0; j < d; j++ {
		if id, err := dm.ExtractElement(0, j); err != nil || id != uint64(j+1) {
			t.Fatalf("(0,%d) = %d %v, want %d", j, id, err, j+1)
		}
	}
}

// deltaOracle is the map reference of the differential test: one column map
// per row, holding each entry's ID.
type deltaOracle []map[Index]uint64

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

// csr is the oracle as the matrix Export must return, and its IDs in the
// same order, as an ID matrix's fold must leave them.
func (o deltaOracle) csr(n int) (*Matrix, []uint64) {
	m := &Matrix{nrows: n, ncols: n, rowPtr: make([]int, n+1)}
	ids := []uint64{}
	for i := range o {
		for _, j := range o.cols(i) {
			m.colInd, ids = append(m.colInd, j), append(ids, o[i][j])
		}
		m.rowPtr[i+1] = len(m.colInd)
	}
	return m, ids
}

// TestDeltaMatrixDifferential interleaves inserts, deletes, re-inserts of
// buried entries and ID rewrites (promotes) on hub rows and spread rows of
// an ID matrix over a folded main, mirrored into its pattern transpose and
// into a diagonal, and checks every read path against a map reference: the
// touched entry's ID, the touched row's RowDegree and RowIterate, and NVals
// after every op, and the whole matrix (every entry and row, Export, the
// folded IDs, AppendDiag, and one BFS push and pull, VxMDelta, VxMPull and
// MxMDelta hop) every fullEvery ops, after ForceSync and at the end. The small case checks the whole matrix after
// every op; the hub case grows its first hub row's pending entries past
// wholeRun, so its runs merge by the logarithmic method.
func TestDeltaMatrixDifferential(t *testing.T) {
	for _, tc := range []struct {
		name              string
		n, ops, fullEvery int
		hubShare, syncAt  int
	}{
		{"small", 96, 1200, 1, 3, 600},
		{"hub", 4096, 8000, 1000, 5, 7000},
	} {
		t.Run(tc.name, func(t *testing.T) {
			n := tc.n
			rng := rand.New(rand.NewSource(int64(n)))
			hubs := []Index{0, n / 2, n - 1}
			ref, diag := make(deltaOracle, n), make(deltaOracle, n)
			for i := range ref {
				ref[i], diag[i] = map[Index]uint64{}, map[Index]uint64{}
			}
			// IDs start above 2^53, where a float64 would round them.
			nextID := uint64(1<<53 + 1)
			newID := func() uint64 { nextID++; return nextID }
			// A folded main to delete from, re-insert into and promote.
			var mainKeys [][2]Index
			for k := 0; k < 2*n; k++ {
				i, j := rng.Intn(n), rng.Intn(n)
				if k%4 == 0 {
					i = hubs[k%len(hubs)]
				}
				if _, ok := ref[i][j]; !ok {
					ref[i][j] = newID()
					mainKeys = append(mainKeys, [2]Index{i, j})
				}
				if k%3 == 0 {
					diag[i][i] = 0
				}
			}
			mainIDs := make([]map[Index]uint64, n)
			for i := range ref {
				mainIDs[i] = maps.Clone(ref[i])
			}
			m, ids := ref.csr(n)
			dm, _ := diag.csr(n)
			a, at, d := DeltaFrom(m.Dup()), DeltaFrom(transposeOf(m)), DeltaFrom(dm)
			a.ids = ids
			for _, x := range []*DeltaMatrix{a, at, d} {
				x.SetThreshold(1 << 30)
			}
			keys := append([][2]Index(nil), mainKeys...)
			// set inserts (i, j) with ID id, or promotes id if (i, j) is there.
			set := func(i, j Index, id uint64) {
				if _, ok := ref[i][j]; ok {
					must(t, a.SetID(i, j, id))
				} else if stored, err := a.InsertID(i, j, id); err != nil || !stored {
					t.Fatalf("InsertID(%d,%d): %v %v", i, j, stored, err)
				}
				must(t, at.SetElement(j, i, 1))
				ref[i][j] = id
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
					set(i, j, newID())
					keys = append(keys, [2]Index{i, j})
				case kind < 5: // insert into a spread row
					i, j = rng.Intn(n), rng.Intn(n)
					set(i, j, newID())
					keys = append(keys, [2]Index{i, j})
				case kind < 7: // delete a pending or folded entry, or nothing
					k := keys[rng.Intn(len(keys))]
					i, j = k[0], k[1]
					remove(i, j)
				case kind < 8: // re-insert a buried main entry, with its ID or another
					k := mainKeys[rng.Intn(len(mainKeys))]
					i, j = k[0], k[1]
					id := mainIDs[i][j]
					if rng.Intn(2) == 0 {
						id = newID()
					}
					remove(i, j)
					set(i, j, id)
				default: // promote: rewrite the ID of a live entry
					k := keys[rng.Intn(len(keys))]
					i, j = k[0], k[1]
					if _, ok := ref[i][j]; ok {
						set(i, j, newID())
					}
				}
				if k := rng.Intn(n); rng.Intn(2) == 0 {
					must(t, d.SetElement(k, k, 1))
					diag[k][k] = 0
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
		id, err := a.ExtractElement(i, j)
		if want, in := ref[i][j]; (err == nil) != in || id != want || a.Has(i, j) != in {
			t.Fatalf("(%d,%d) = %d %v, want %d (present %v)", i, j, id, err, want, in)
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
	want, ids := ref.csr(n)
	assertSameCSR(t, when+": export", a.Export(), want)
	if a.Pending() == 0 && !slices.Equal(a.ids, ids) {
		t.Fatalf("%s: folded IDs %v, want %v", when, a.ids, ids)
	}
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
		levels, _, err := bfsLevels([]*DeltaMatrix{a}, []*DeltaMatrix{at}, src, 1, mode)
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
