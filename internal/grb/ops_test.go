package grb

import (
	"math/rand"
	"slices"
	"testing"
)

// TestMxMPartsMatchesUnion checks the product with a k = 1…4 part operand
// against a dense product with the parts' union, for parts clean and with
// pending deltas, frontier rows one-hot and wider, and the parts in either
// order. The graph hands the kernel a multi-type,
// untyped or undirected hop this way: relation matrices whose values are
// edge IDs, one of them possibly a transpose of another.
func TestMxMPartsMatchesUnion(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	const n = 40
	for k := 1; k <= 4; k++ {
		for _, pending := range []bool{false, true} {
			parts := make([]*DeltaMatrix, k)
			union := newDense(n, n)
			for p := range parts {
				dm := DeltaFrom(randMatrix(rng, n, n, 0.08))
				dm.SetThreshold(1 << 30)
				if pending {
					for e := 0; e < 30; e++ {
						i, j := rng.Intn(n), rng.Intn(n)
						if e%3 == 0 {
							_ = dm.RemoveElement(i, j)
						} else {
							must(t, dm.SetElement(i, j, float64(e)))
						}
					}
					if dm.Pending() == 0 {
						t.Fatal("pending part has no deltas")
					}
				}
				parts[p] = dm
				for x, ok := range toDenseM(dm.Export()).ok {
					union.ok[x] = union.ok[x] || ok
				}
			}
			f := NewMatrix(n, n)
			one := make([]Index, n)
			for i := range one {
				one[i] = i
			}
			must(t, f.BuildFromRows(one)) // one-hot rows, then wider ones
			wide := randMatrix(rng, n, n, 0.1)
			f = stackRows(f, wide)
			want := denseMxM(toDenseM(f), union)
			reversed := append([]*DeltaMatrix(nil), parts...)
			slices.Reverse(reversed)
			for _, bs := range [][]*DeltaMatrix{parts, reversed} {
				got := NewMatrix(2*n, n)
				must(t, MxMParts(got, f, bs))
				expectDenseEq(t, got, want)
			}
		}
	}
	a, c := NewMatrix(3, 3), NewMatrix(3, 3)
	if err := MxMParts(c, a, []*DeltaMatrix{NewDeltaMatrix(3, 3), nil}); err != ErrNilObject {
		t.Fatalf("nil part: err = %v, want ErrNilObject", err)
	}
	if err := MxMParts(c, a, nil); err != ErrNilObject {
		t.Fatalf("no part: err = %v, want ErrNilObject", err)
	}
	if err := MxMParts(c, a, []*DeltaMatrix{NewDeltaMatrix(3, 3), NewDeltaMatrix(3, 4)}); err == nil {
		t.Fatal("a part of the wrong size: want a dimension error")
	}
}

// TestEWiseAddMatrixFoldsRelations checks the fold of relation matrices
// that MxMParts does in place of a materialised union: the parts' values
// are edge IDs, so an entry holding 0 still counts, and a cell set in two
// parts yields one entry. An identity frontier makes the product the union.
func TestEWiseAddMatrixFoldsRelations(t *testing.T) {
	r1 := NewMatrix(3, 3)
	must(t, r1.SetElement(0, 1, 5))
	r2 := NewMatrix(3, 3)
	must(t, r2.SetElement(1, 2, 9))
	must(t, r2.SetElement(0, 1, 3))
	must(t, r2.SetElement(2, 0, 0))
	parts := []*DeltaMatrix{DeltaFrom(r1), DeltaFrom(r2)}
	got := NewMatrix(3, 3)
	must(t, MxMParts(got, identity(3), parts))
	want := newDense(3, 3)
	want.set(0, 1)
	want.set(1, 2)
	want.set(2, 0)
	expectDenseEq(t, got, want)
	if got.NVals() != 3 {
		t.Fatalf("union holds %d entries for 3 cells", got.NVals())
	}
	parts = append(parts, NewDeltaMatrix(3, 4))
	if err := MxMParts(got, identity(3), parts); err == nil {
		t.Fatal("want a dimension error")
	}
}

// TestEWiseAddMatrixKWay checks the one-call product over k = 1…4 parts
// against the pairwise fold (the OR of the one-part products), with the
// parts clean and with pending deltas, and that the result holds one entry
// per cell.
func TestEWiseAddMatrixKWay(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	const n = 40
	for k := 1; k <= 4; k++ {
		for _, pending := range []bool{false, true} {
			parts := make([]*DeltaMatrix, k)
			for p := range parts {
				dm := DeltaFrom(randMatrix(rng, n, n, 0.08))
				dm.SetThreshold(1 << 30)
				if pending {
					for e := 0; e < 30; e++ {
						i, j := rng.Intn(n), rng.Intn(n)
						if e%3 == 0 {
							_ = dm.RemoveElement(i, j)
						} else {
							must(t, dm.SetElement(i, j, float64(e)))
						}
					}
					if dm.Pending() == 0 {
						t.Fatal("pending part has no deltas")
					}
				}
				parts[p] = dm
			}
			f := randMatrix(rng, n, n, 0.1)
			pairwise := newDense(n, n)
			for _, p := range parts {
				one := NewMatrix(n, n)
				must(t, MxMParts(one, f, []*DeltaMatrix{p}))
				for x, ok := range toDenseM(one).ok {
					pairwise.ok[x] = pairwise.ok[x] || ok
				}
			}
			got := NewMatrix(n, n)
			must(t, MxMParts(got, f, parts))
			expectDenseEq(t, got, pairwise)
			cells := 0
			for _, ok := range pairwise.ok {
				if ok {
					cells++
				}
			}
			if got.NVals() != cells {
				t.Fatalf("k=%d pending=%v: product holds %d entries for %d cells", k, pending, got.NVals(), cells)
			}
		}
	}
}

// stackRows returns a with b's rows appended below its own.
func stackRows(a, b *Matrix) *Matrix {
	out := NewMatrix(a.nrows+b.nrows, a.ncols)
	for _, m := range []struct {
		src *Matrix
		off int
	}{{a, 0}, {b, a.nrows}} {
		rows, cols := tuples(m.src)
		for k := range rows {
			if err := out.SetElement(rows[k]+m.off, cols[k], 1); err != nil {
				panic(err)
			}
		}
	}
	return out
}
