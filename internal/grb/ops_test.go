package grb

import (
	"math/rand"
	"testing"
)

func TestEWiseAddVectorUnion(t *testing.T) {
	u := NewVector(5)
	must(t, u.SetElement(0, 1))
	must(t, u.SetElement(2, 3))
	v := NewVector(5)
	must(t, v.SetElement(2, 4))
	must(t, v.SetElement(4, 9))
	w := NewVector(5)
	must(t, EWiseAddVector(w, nil, nil, Plus, u, v, nil))
	expectVecEq(t, w, map[Index]float64{0: 1, 2: 7, 4: 9})
}

func TestEWiseMultVectorIntersection(t *testing.T) {
	u := NewVector(5)
	must(t, u.SetElement(0, 2))
	must(t, u.SetElement(2, 3))
	v := NewVector(5)
	must(t, v.SetElement(2, 4))
	must(t, v.SetElement(4, 9))
	w := NewVector(5)
	must(t, EWiseMultVector(w, nil, nil, Times, u, v, nil))
	expectVecEq(t, w, map[Index]float64{2: 12})
}

func TestEWiseVectorMasked(t *testing.T) {
	u := DenseVector(6, 1)
	v := DenseVector(6, 2)
	mask := NewVector(6)
	must(t, mask.SetElement(1, 1))
	must(t, mask.SetElement(3, 1))
	w := NewVector(6)
	must(t, EWiseAddVector(w, mask, nil, Plus, u, v, DescS))
	expectVecEq(t, w, map[Index]float64{1: 3, 3: 3})
}

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

func TestApplyVector(t *testing.T) {
	u := NewVector(4)
	must(t, u.SetElement(1, -3))
	must(t, u.SetElement(2, 5))
	w := NewVector(4)
	must(t, ApplyBindSecond(w, nil, nil, Times, u, 10, nil))
	expectVecEq(t, w, map[Index]float64{1: -30, 2: 50})
	// Masked to {2} with an accumulator: w[2] += 5·2, w[1] is kept.
	mask := NewVector(4)
	must(t, mask.SetElement(2, 1))
	must(t, ApplyBindSecond(w, mask, &Plus, Times, u, 2, DescS))
	expectVecEq(t, w, map[Index]float64{1: -30, 2: 60})
}

func TestApplyMatrixOne(t *testing.T) {
	rng := rand.New(rand.NewSource(59))
	a := randMatrix(rng, 6, 6, 0.4)
	c := NewMatrix(6, 6)
	must(t, ApplyMatrix(c, nil, nil, One, a, nil))
	if c.NVals() != a.NVals() {
		t.Fatalf("pattern changed: %d vs %d", c.NVals(), a.NVals())
	}
	c.iterate(func(i, j Index, x float64) bool {
		if x != 1 {
			t.Fatalf("(%d,%d)=%g", i, j, x)
		}
		return true
	})
}

func TestSelectTrilTriu(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	a := randMatrix(rng, 10, 10, 0.4)
	l := NewMatrix(10, 10)
	u := NewMatrix(10, 10)
	must(t, SelectMatrix(l, nil, nil, Tril, a, nil))
	must(t, SelectMatrix(u, nil, nil, Triu, a, nil))
	l.iterate(func(i, j Index, _ float64) bool {
		if j > i {
			t.Fatalf("tril kept (%d,%d)", i, j)
		}
		return true
	})
	u.iterate(func(i, j Index, _ float64) bool {
		if j < i {
			t.Fatalf("triu kept (%d,%d)", i, j)
		}
		return true
	})
	diag := 0
	a.iterate(func(i, j Index, _ float64) bool {
		if i == j {
			diag++
		}
		return true
	})
	if l.NVals()+u.NVals() != a.NVals()+diag {
		t.Fatalf("tril+triu=%d, want %d", l.NVals()+u.NVals(), a.NVals()+diag)
	}
}

func TestSelectValuePredicates(t *testing.T) {
	a := NewMatrix(3, 3)
	for i := 0; i < 3; i++ {
		for j := 0; j < 3; j++ {
			must(t, a.SetElement(i, j, float64(i*3+j)))
		}
	}
	c := NewMatrix(3, 3)
	must(t, SelectMatrix(c, nil, nil, ValueGE(5), a, nil))
	want := newDense(3, 3)
	for _, x := range []int{5, 6, 7, 8} {
		want.set(x/3, x%3, float64(x))
	}
	expectDenseEq(t, c, want)
}

func TestReduceMatrixToVectorRowsAndCols(t *testing.T) {
	a := NewMatrix(3, 4)
	must(t, a.SetElement(0, 0, 1))
	must(t, a.SetElement(0, 3, 2))
	must(t, a.SetElement(2, 1, 5))
	rows := NewVector(3)
	must(t, ReduceMatrixToVector(rows, nil, nil, PlusMonoid, a, nil))
	expectVecEq(t, rows, map[Index]float64{0: 3, 2: 5})
	cols := NewVector(4)
	must(t, ReduceMatrixToVector(cols, nil, nil, PlusMonoid, a, DescT0))
	expectVecEq(t, cols, map[Index]float64{0: 1, 1: 5, 3: 2})
}

func TestReduceScalars(t *testing.T) {
	a := NewMatrix(3, 3)
	must(t, a.SetElement(0, 1, 2))
	must(t, a.SetElement(2, 2, 3))
	if s := ReduceMatrixToScalar(PlusMonoid, a); s != 5 {
		t.Fatalf("sum=%g", s)
	}
	if s := ReduceMatrixToScalar(MaxMonoid, a); s != 3 {
		t.Fatalf("max=%g", s)
	}
	u := NewVector(4)
	must(t, u.SetElement(1, 7))
	must(t, u.SetElement(3, -2))
	if s := ReduceVectorToScalar(PlusMonoid, u); s != 5 {
		t.Fatalf("vsum=%g", s)
	}
	if s := ReduceVectorToScalar(MinMonoid, u); s != -2 {
		t.Fatalf("vmin=%g", s)
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

func TestVectorAssignScalarMasked(t *testing.T) {
	w := NewVector(5)
	must(t, w.SetElement(0, 9))
	mask := NewVector(5)
	must(t, mask.SetElement(2, 1))
	must(t, mask.SetElement(4, 1))
	must(t, VectorAssignScalar(w, mask, nil, 7, nil, DescS))
	expectVecEq(t, w, map[Index]float64{0: 9, 2: 7, 4: 7})
}

func TestVectorAssignSubset(t *testing.T) {
	w := NewVector(6)
	must(t, w.SetElement(1, 1))
	must(t, w.SetElement(3, 3))
	// Positions {3, 5} receive the scalar (accumulated where present); w[1]
	// is untouched.
	must(t, VectorAssignScalar(w, nil, &Plus, 40, []Index{3, 5}, nil))
	expectVecEq(t, w, map[Index]float64{1: 1, 3: 43, 5: 40})
	// A complemented mask over {5} under Replace: 3 is written, 5 is
	// protected, and Replace drops 5's old entry.
	mask := NewVector(6)
	must(t, mask.SetElement(5, 1))
	must(t, VectorAssignScalar(w, mask, nil, 7, []Index{3, 5}, DescRSC))
	expectVecEq(t, w, map[Index]float64{1: 1, 3: 7})
}
