package grb

import (
	"reflect"
	"testing"
)

func TestSelectColsMatrix(t *testing.T) {
	m := NewMatrix(3, 5)
	for _, e := range [][2]Index{{0, 0}, {0, 2}, {0, 4}, {1, 1}, {1, 2}, {2, 3}} {
		if err := m.SetElement(e[0], e[1], 1); err != nil {
			t.Fatal(err)
		}
	}
	SelectCols(m, func(j Index) bool { return j%2 == 0 })
	var got [][2]Index
	m.iterate(func(i, j Index, x float64) bool {
		got = append(got, [2]Index{i, j})
		return true
	})
	want := [][2]Index{{0, 0}, {0, 2}, {0, 4}, {1, 2}}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("SelectCols: got %v, want %v", got, want)
	}
	if m.NVals() != 4 {
		t.Fatalf("NVals = %d", m.NVals())
	}
	// Rejecting everything empties the matrix but keeps its shape.
	SelectCols(m, func(Index) bool { return false })
	if m.NVals() != 0 || m.nrows != 3 || m.ncols != 5 {
		t.Fatalf("empty select: %s", m)
	}
}

func TestDiagMaskDeltaAndPlain(t *testing.T) {
	// A label-like diagonal delta matrix with a buffered insert and delete:
	// the mask must see the effective structure without a fold.
	dm := NewDeltaMatrix(6, 6)
	for _, j := range []Index{1, 3, 5} {
		if err := dm.SetElement(j, j, 1); err != nil {
			t.Fatal(err)
		}
	}
	dm.ForceSync()
	if err := dm.RemoveElement(3, 3); err != nil {
		t.Fatal(err)
	}
	if err := dm.SetElement(0, 0, 1); err != nil {
		t.Fatal(err)
	}
	mask := DiagMask(dm)
	for j, want := range map[Index]bool{0: true, 1: true, 2: false, 3: false, 5: true} {
		if mask(j) != want {
			t.Fatalf("DiagMask(%d) = %v, want %v (pending deltas)", j, mask(j), want)
		}
	}
	// Plain Matrix source works the same.
	m := NewMatrix(4, 4)
	if err := m.SetElement(2, 2, 1); err != nil {
		t.Fatal(err)
	}
	pm := DiagMask(m)
	if !pm(2) || pm(1) {
		t.Fatal("DiagMask over plain Matrix wrong")
	}
}

func TestIndexSetAndAndMasks(t *testing.T) {
	set := IndexSetMask([]Index{1, 4, 9})
	if !set(4) || set(5) {
		t.Fatal("IndexSetMask membership wrong")
	}
	if IndexSetMask(nil)(0) {
		t.Fatal("empty IndexSetMask must reject everything")
	}
	both := AndMasks([]ColMask{set, func(j Index) bool { return j > 2 }})
	if both(1) || !both(4) || both(5) {
		t.Fatal("AndMasks conjunction wrong")
	}
}
