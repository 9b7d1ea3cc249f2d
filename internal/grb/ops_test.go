package grb

import (
	"math/rand"
	"testing"
)

func TestEWiseAddMatrixFoldsRelations(t *testing.T) {
	// The graph folds relation matrices, whose values are edge IDs, into one
	// multi-type operand; C is the running union, so it aliases A.
	r1 := NewMatrix(3, 3)
	must(t, r1.SetElement(0, 1, 5))
	r2 := NewMatrix(3, 3)
	must(t, r2.SetElement(1, 2, 9))
	must(t, r2.SetElement(0, 1, 3))
	must(t, r2.SetElement(2, 0, 0))
	adj := NewMatrix(3, 3)
	for _, r := range []*Matrix{r1, r2} {
		must(t, EWiseAddMatrix(adj, adj, r))
	}
	want := newDense(3, 3)
	want.set(0, 1)
	want.set(1, 2)
	want.set(2, 0)
	expectDenseEq(t, adj, want)
	if err := EWiseAddMatrix(adj, adj, NewMatrix(3, 4)); err == nil {
		t.Fatal("want a dimension error")
	}
}

// TestEWiseAddMatrixKWay checks the one-call union of k = 1…4 parts against
// the pairwise fold (a running union merged with one part at a time) and
// against a dense union, with the parts exported from clean and from pending
// delta matrices, and with C aliasing the first part.
func TestEWiseAddMatrixKWay(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	const n = 40
	for k := 1; k <= 4; k++ {
		for _, pending := range []bool{false, true} {
			parts := make([]*Matrix, k)
			want := newDense(n, n)
			for p := range parts {
				dm := DeltaFrom(randMatrix(rng, n, n, 0.08))
				dm.SetThreshold(1 << 30)
				if pending {
					for e := 0; e < 30; e++ {
						i, j := rng.Intn(n), rng.Intn(n)
						if e%3 == 0 {
							_ = dm.RemoveElement(i, j)
						} else {
							must(t, dm.SetElement(i, j, 1))
						}
					}
					if dm.Pending() == 0 {
						t.Fatal("pending part has no deltas")
					}
				}
				parts[p] = dm.Export()
				for x, ok := range toDenseM(parts[p]).ok {
					want.ok[x] = want.ok[x] || ok
				}
			}
			pairwise := NewMatrix(n, n)
			for _, p := range parts {
				must(t, EWiseAddMatrix(pairwise, pairwise, p))
			}
			got := NewMatrix(n, n)
			must(t, EWiseAddMatrix(got, parts...))
			if !sameMatrix(got, pairwise) {
				t.Fatalf("k=%d pending=%v: one-call union differs from the pairwise fold", k, pending)
			}
			expectDenseEq(t, got, want)
			if cells := countTrue(want.ok); got.NVals() != cells {
				t.Fatalf("k=%d pending=%v: union holds %d entries for %d cells", k, pending, got.NVals(), cells)
			}
			alias := parts[0].Dup()
			must(t, EWiseAddMatrix(alias, append([]*Matrix{alias}, parts[1:]...)...))
			if !sameMatrix(alias, got) {
				t.Fatalf("k=%d pending=%v: union into its first part differs", k, pending)
			}
		}
	}
	if err := EWiseAddMatrix(NewMatrix(3, 3), NewMatrix(3, 3), nil); err != ErrNilObject {
		t.Fatalf("nil part: err = %v, want ErrNilObject", err)
	}
}

func countTrue(ok []bool) int {
	n := 0
	for _, b := range ok {
		if b {
			n++
		}
	}
	return n
}
