package grb

import "testing"

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
