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
	if x, err := m.ExtractElement(1, 2); err != nil || x != 3.5 {
		t.Fatalf("read: %v %v", x, err)
	}
	if _, err := m.ExtractElement(0, 0); !errors.Is(err, ErrNoValue) {
		t.Fatalf("want ErrNoValue, got %v", err)
	}
	if m.NVals() != 2 {
		t.Fatalf("nvals = %d, want 2", m.NVals())
	}
}

func TestMatrixOverwriteAndRemove(t *testing.T) {
	m := NewMatrix(3, 3)
	check := func(i, j Index, want float64, present bool) {
		t.Helper()
		x, err := m.ExtractElement(i, j)
		if present && (err != nil || x != want) {
			t.Fatalf("(%d,%d): got %v,%v want %v", i, j, x, err, want)
		}
		if !present && !errors.Is(err, ErrNoValue) {
			t.Fatalf("(%d,%d): want absent, got %v,%v", i, j, x, err)
		}
	}
	must(t, m.SetElement(0, 0, 1))
	must(t, m.SetElement(0, 0, 2)) // overwrite
	check(0, 0, 2, true)
	if m.NVals() != 1 {
		t.Fatalf("nvals = %d, want 1", m.NVals())
	}

	removeEntry(m, 0, 0)
	check(0, 0, 0, false)
	if m.NVals() != 0 {
		t.Fatalf("nvals = %d, want 0", m.NVals())
	}
	// Remove of an absent entry is a no-op.
	removeEntry(m, 2, 2)
	// Set after remove resurrects.
	must(t, m.SetElement(0, 0, 9))
	check(0, 0, 9, true)
}

func TestMatrixOutOfBounds(t *testing.T) {
	m := NewMatrix(2, 2)
	for _, f := range []func() error{
		func() error { return m.SetElement(2, 0, 1) },
		func() error { return m.SetElement(0, -1, 1) },
		func() error { _, err := m.ExtractElement(0, 2); return err },
	} {
		if err := f(); !errors.Is(err, ErrIndexOutOfBounds) {
			t.Fatalf("want ErrIndexOutOfBounds, got %v", err)
		}
	}
}

// TestMatrixSetElementKeepsRowsSorted drives in-place SetElement and the
// test-side removeEntry against a map reference: every row stays sorted and
// the row pointers stay consistent after each edit.
func TestMatrixSetElementKeepsRowsSorted(t *testing.T) {
	type pos struct{ i, j Index }
	rng := rand.New(rand.NewSource(7))
	m := NewMatrix(20, 20)
	ref := map[pos]float64{}
	for step := 0; step < 500; step++ {
		i, j := rng.Intn(20), rng.Intn(20)
		if rng.Intn(5) == 0 {
			removeEntry(m, i, j)
			delete(ref, pos{i, j})
		} else {
			x := rng.Float64()
			must(t, m.SetElement(i, j, x))
			ref[pos{i, j}] = x
		}
		if m.NVals() != len(ref) || m.rowPtr[m.nrows] != len(ref) {
			t.Fatalf("step %d: nvals = %d, last row pointer %d, want %d", step, m.NVals(), m.rowPtr[m.nrows], len(ref))
		}
	}
	prev := pos{-1, -1}
	m.iterate(func(i, j Index, x float64) bool {
		if i < prev.i || (i == prev.i && j <= prev.j) {
			t.Fatalf("iteration out of order: (%d,%d) after (%d,%d)", i, j, prev.i, prev.j)
		}
		prev = pos{i, j}
		if ref[pos{i, j}] != x {
			t.Fatalf("(%d,%d): got %g want %g", i, j, x, ref[pos{i, j}])
		}
		return true
	})
}

func TestMatrixResizeGrowShrink(t *testing.T) {
	m := NewMatrix(3, 3)
	must(t, m.SetElement(0, 0, 1))
	must(t, m.SetElement(2, 2, 2))
	m.resize(5, 5)
	if m.nrows != 5 || m.ncols != 5 || m.NVals() != 2 {
		t.Fatalf("after grow: %dx%d nvals=%d", m.nrows, m.ncols, m.NVals())
	}
	must(t, m.SetElement(4, 4, 3))
	m.resize(2, 2)
	if m.NVals() != 1 {
		t.Fatalf("after shrink: nvals=%d want 1", m.NVals())
	}
	if x, _ := m.ExtractElement(0, 0); x != 1 {
		t.Fatalf("surviving entry: %g", x)
	}
}

func TestMatrixDupIndependence(t *testing.T) {
	m := NewMatrix(2, 2)
	must(t, m.SetElement(0, 1, 4))
	d := m.Dup()
	must(t, m.SetElement(0, 1, 5))
	if x, _ := d.ExtractElement(0, 1); x != 4 {
		t.Fatalf("dup mutated: %g", x)
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
