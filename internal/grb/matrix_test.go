package grb

import (
	"errors"
	"math/rand"
	"testing"
)

func TestMatrixSetExtract(t *testing.T) {
	m := NewMatrix(4, 5)
	if err := m.SetElement(1, 2, 3.5); err != nil {
		t.Fatal(err)
	}
	if err := m.SetElement(3, 0, -1); err != nil {
		t.Fatal(err)
	}
	if !m.Has(1, 2) || !m.Has(3, 0) {
		t.Fatalf("stored entries missing: %s", m)
	}
	if m.Has(0, 0) {
		t.Fatal("(0,0) must be absent")
	}
	if m.NVals() != 2 {
		t.Fatalf("nvals = %d, want 2", m.NVals())
	}
}

func TestMatrixOverwriteAndRemove(t *testing.T) {
	m := NewMatrix(3, 3)
	check := func(i, j Index, present bool, nvals int) {
		t.Helper()
		if m.Has(i, j) != present || m.NVals() != nvals {
			t.Fatalf("(%d,%d): present %v nvals %d, want %v %d", i, j, m.Has(i, j), m.NVals(), present, nvals)
		}
	}
	must(t, m.SetElement(0, 0, 1))
	must(t, m.SetElement(0, 0, 2)) // a pattern re-insert changes nothing
	check(0, 0, true, 1)

	removeEntry(m, 0, 0)
	check(0, 0, false, 0)
	// Remove of an absent entry is a no-op.
	removeEntry(m, 2, 2)
	check(2, 2, false, 0)
	// Set after remove resurrects.
	must(t, m.SetElement(0, 0, 9))
	check(0, 0, true, 1)
}

func TestMatrixOutOfBounds(t *testing.T) {
	m := NewMatrix(2, 2)
	for _, f := range []func() error{
		func() error { return m.SetElement(2, 0, 1) },
		func() error { return m.SetElement(0, -1, 1) },
	} {
		if err := f(); !errors.Is(err, ErrIndexOutOfBounds) {
			t.Fatalf("want ErrIndexOutOfBounds, got %v", err)
		}
	}
	if m.Has(0, 2) || m.Has(-1, 0) {
		t.Fatal("an index out of range holds no entry")
	}
}

// TestMatrixSetElementKeepsRowsSorted drives in-place SetElement and the
// test-side removeEntry against a map reference: every row stays sorted and
// the row pointers stay consistent after each edit.
func TestMatrixSetElementKeepsRowsSorted(t *testing.T) {
	type pos struct{ i, j Index }
	rng := rand.New(rand.NewSource(7))
	m := NewMatrix(20, 20)
	ref := map[pos]bool{}
	for step := 0; step < 500; step++ {
		i, j := rng.Intn(20), rng.Intn(20)
		if rng.Intn(5) == 0 {
			removeEntry(m, i, j)
			delete(ref, pos{i, j})
		} else {
			must(t, m.SetElement(i, j, 1))
			ref[pos{i, j}] = true
		}
		if m.NVals() != len(ref) || m.rowPtr[m.nrows] != len(ref) {
			t.Fatalf("step %d: nvals = %d, last row pointer %d, want %d", step, m.NVals(), m.rowPtr[m.nrows], len(ref))
		}
	}
	prev := pos{-1, -1}
	m.iterate(func(i, j Index) bool {
		if i < prev.i || (i == prev.i && j <= prev.j) {
			t.Fatalf("iteration out of order: (%d,%d) after (%d,%d)", i, j, prev.i, prev.j)
		}
		prev = pos{i, j}
		if !ref[pos{i, j}] {
			t.Fatalf("(%d,%d) is not in the reference", i, j)
		}
		return true
	})
}

// TestMatrixResizeGrowShrink grows a matrix, keeping its entries, and
// checks that a shrink, which nothing asks for, panics instead of dropping
// entries.
func TestMatrixResizeGrowShrink(t *testing.T) {
	m := NewMatrix(3, 3)
	must(t, m.SetElement(0, 0, 1))
	must(t, m.SetElement(2, 2, 2))
	m.grow(5, 5)
	if m.nrows != 5 || m.ncols != 5 || m.NVals() != 2 || !m.Has(2, 2) {
		t.Fatalf("after grow: %s", m)
	}
	must(t, m.SetElement(4, 4, 3))
	defer func() {
		if recover() == nil || m.NVals() != 3 {
			t.Fatalf("a shrink must panic and keep the matrix: %s", m)
		}
	}()
	m.grow(2, 2)
}

func TestMatrixDupIndependence(t *testing.T) {
	m := NewMatrix(2, 2)
	must(t, m.SetElement(0, 1, 4))
	d := m.Dup()
	must(t, m.SetElement(1, 0, 5))
	if !d.Has(0, 1) || d.Has(1, 0) || d.NVals() != 1 {
		t.Fatalf("dup mutated: %s", d)
	}
}

func TestRowDegree(t *testing.T) {
	m := NewMatrix(3, 3)
	must(t, m.SetElement(1, 0, 1))
	must(t, m.SetElement(1, 2, 1))
	dm := DeltaFrom(m)
	if d := dm.RowDegree(1); d != 2 {
		t.Fatalf("degree = %d, want 2", d)
	}
	if d := dm.RowDegree(0); d != 0 {
		t.Fatalf("degree = %d, want 0", d)
	}
	// Buffered writes count without a fold; out-of-range rows are empty.
	must(t, dm.RemoveElement(1, 0))
	must(t, dm.SetElement(0, 2, 1))
	if d0, d1 := dm.RowDegree(0), dm.RowDegree(1); d0 != 1 || d1 != 1 {
		t.Fatalf("degrees after deltas = %d, %d, want 1, 1", d0, d1)
	}
	if d := dm.RowDegree(3); d != 0 {
		t.Fatalf("out-of-range degree = %d", d)
	}
}

func must(t *testing.T, err error) {
	t.Helper()
	if err != nil {
		t.Fatal(err)
	}
}
