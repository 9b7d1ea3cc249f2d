package grb

import (
	"reflect"
	"testing"
)

func TestBuildFromRows(t *testing.T) {
	f := NewMatrix(4, 6)
	if err := f.BuildFromRows([]Index{3, -1, 0, 3}); err != nil {
		t.Fatal(err)
	}
	if f.NVals() != 3 {
		t.Fatalf("nvals = %d, want 3", f.NVals())
	}
	want := [][]Index{{3}, {}, {0}, {3}}
	for r := 0; r < 4; r++ {
		got := f.RowIterate(r)
		if len(got) != len(want[r]) {
			t.Fatalf("row %d = %v, want %v", r, got, want[r])
		}
		for k := range got {
			if got[k] != want[r][k] {
				t.Fatalf("row %d = %v, want %v", r, got, want[r])
			}
		}
		for _, j := range got {
			if x, err := f.ExtractElement(r, j); err != nil || x != 1 {
				t.Fatalf("(%d,%d) = %v, %v", r, j, x, err)
			}
		}
	}
}

func TestBuildFromRowsErrors(t *testing.T) {
	f := NewMatrix(2, 3)
	if err := f.BuildFromRows([]Index{0}); err == nil {
		t.Fatal("want length-mismatch error")
	}
	if err := f.BuildFromRows([]Index{0, 3}); err == nil {
		t.Fatal("want bounds error")
	}
	f2 := NewMatrix(2, 3)
	if err := f2.SetElement(0, 0, 1); err != nil {
		t.Fatal(err)
	}
	if err := f2.BuildFromRows([]Index{0, 1}); err == nil {
		t.Fatal("want non-empty-target error")
	}
}

// TestBatchedMxMMatchesPerRecordVxM is the kernel-level version of the
// traversal equivalence claim: a one-hot frontier matrix times the adjacency
// matrix gives, row by row, exactly what per-record VxM gives, and both
// give row s of the adjacency's dense reference.
func TestBatchedMxMMatchesPerRecordVxM(t *testing.T) {
	const n = 32
	a := NewMatrix(n, n)
	for i := 0; i < n; i++ {
		for _, j := range []Index{(i * 7) % n, (i*3 + 1) % n, (i + 13) % n} {
			if err := a.SetElement(i, j, 1); err != nil {
				t.Fatal(err)
			}
		}
	}
	srcs := []Index{0, 5, 5, 31, -1, 17}
	f := NewMatrix(len(srcs), n)
	if err := f.BuildFromRows(srcs); err != nil {
		t.Fatal(err)
	}
	c := NewMatrix(len(srcs), n)
	if err := mxm(c, f, a, nil); err != nil {
		t.Fatal(err)
	}
	da := toDenseM(a)
	for r, s := range srcs {
		want := []Index{}
		perRecord := []Index{}
		if s >= 0 {
			for j := 0; j < n; j++ {
				if da.at(s, j) {
					want = append(want, j)
				}
			}
			u := NewVector(n)
			if err := u.SetElement(s, 1); err != nil {
				t.Fatal(err)
			}
			w := NewVector(n)
			if err := vxm(w, u, a, nil); err != nil {
				t.Fatal(err)
			}
			ind, _ := vectorTuples(w)
			perRecord = append(perRecord, ind...)
		}
		got := append([]Index{}, c.RowIterate(r)...)
		if !reflect.DeepEqual(got, want) || !reflect.DeepEqual(perRecord, want) {
			t.Fatalf("row %d (src %d): batched %v, per-record %v, want %v", r, s, got, perRecord, want)
		}
	}
}

// TestMxMWorkspaceReuse runs many MxM calls back to back to exercise the
// pooled workspace and its monotonic stamps.
func TestMxMWorkspaceReuse(t *testing.T) {
	a := NewMatrix(8, 8)
	for i := 0; i < 8; i++ {
		if err := a.SetElement(i, (i+1)%8, 1); err != nil {
			t.Fatal(err)
		}
	}
	for round := 0; round < 100; round++ {
		c := NewMatrix(8, 8)
		if err := mxm(c, a, a, nil); err != nil {
			t.Fatal(err)
		}
		if c.NVals() != 8 {
			t.Fatalf("round %d: nvals = %d, want 8", round, c.NVals())
		}
		for i := 0; i < 8; i++ {
			if _, err := c.ExtractElement(i, (i+2)%8); err != nil {
				t.Fatalf("round %d: missing (%d,%d)", round, i, (i+2)%8)
			}
		}
	}
}
