package grb

import (
	"math/rand"
	"testing"
)

func TestEWiseAddMatrixFoldsRelations(t *testing.T) {
	// The graph engine folds per-relation matrices into THE adjacency.
	r1 := NewMatrix(3, 3)
	must(t, r1.SetElement(0, 1, 1))
	r2 := NewMatrix(3, 3)
	must(t, r2.SetElement(1, 2, 1))
	must(t, r2.SetElement(0, 1, 1))
	adj := NewMatrix(3, 3)
	must(t, EWiseAddMatrix(adj, nil, nil, LOr, r1, r2, nil))
	if adj.NVals() != 2 {
		t.Fatalf("nvals=%d", adj.NVals())
	}
	if x, _ := adj.ExtractElement(0, 1); x != 1 {
		t.Fatalf("x=%g", x)
	}
}

func TestTransposeAgainstReference(t *testing.T) {
	rng := rand.New(rand.NewSource(67))
	a := randMatrix(rng, 9, 5, 0.4)
	c := transposed(a)
	da := toDenseM(a)
	want := newDense(5, 9)
	for i := 0; i < 9; i++ {
		for j := 0; j < 5; j++ {
			if v, ok := da.at(i, j); ok {
				want.set(j, i, v)
			}
		}
	}
	expectDenseEq(t, c, want)
	// (A')' == A
	expectDenseEq(t, transposed(c), da)
}
