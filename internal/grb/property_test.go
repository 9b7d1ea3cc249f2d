package grb

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

// cooSpec is a quick.Generator producing a random small sparse matrix spec.
type cooSpec struct {
	NRows, NCols int
	Rows, Cols   []Index
	Vals         []float64
}

func (cooSpec) Generate(r *rand.Rand, size int) reflect.Value {
	nr := r.Intn(12) + 1
	nc := r.Intn(12) + 1
	nnz := r.Intn(nr*nc + 1)
	s := cooSpec{NRows: nr, NCols: nc}
	for k := 0; k < nnz; k++ {
		s.Rows = append(s.Rows, r.Intn(nr))
		s.Cols = append(s.Cols, r.Intn(nc))
		s.Vals = append(s.Vals, float64(r.Intn(7)+1))
	}
	return reflect.ValueOf(s)
}

func (s cooSpec) matrix() *Matrix {
	m := NewMatrix(s.NRows, s.NCols)
	if err := m.build(s.Rows, s.Cols, s.Vals, Second); err != nil {
		panic(err)
	}
	return m
}

func sameMatrix(a, b *Matrix) bool {
	if a.NRows() != b.NRows() || a.NCols() != b.NCols() || a.NVals() != b.NVals() {
		return false
	}
	ra, ca, va := tuples(a)
	rb, cb, vb := tuples(b)
	for k := range ra {
		if ra[k] != rb[k] || ca[k] != cb[k] || va[k] != vb[k] {
			return false
		}
	}
	return true
}

func TestPropTransposeInvolution(t *testing.T) {
	f := func(s cooSpec) bool {
		a := s.matrix()
		return sameMatrix(transposed(transposed(a)), a)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestPropIdentityIsMxMNeutral(t *testing.T) {
	f := func(s cooSpec) bool {
		a := s.matrix()
		c := NewMatrix(a.NRows(), a.NCols())
		if err := MxM(c, nil, nil, PlusTimes, identity(a.NRows()), a, nil); err != nil {
			return false
		}
		return sameMatrix(c, a)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

func TestPropEWiseAddCommutative(t *testing.T) {
	f := func(s1, s2 cooSpec) bool {
		// Reshape s2 onto s1's dims by clamping indices.
		a := s1.matrix()
		b := NewMatrix(a.NRows(), a.NCols())
		for k := range s2.Rows {
			_ = b.SetElement(s2.Rows[k]%a.NRows(), s2.Cols[k]%a.NCols(), s2.Vals[k])
		}
		c1 := NewMatrix(a.NRows(), a.NCols())
		c2 := NewMatrix(a.NRows(), a.NCols())
		if EWiseAddMatrix(c1, nil, nil, Plus, a, b, nil) != nil {
			return false
		}
		if EWiseAddMatrix(c2, nil, nil, Plus, b, a, nil) != nil {
			return false
		}
		return sameMatrix(c1, c2)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

func TestPropMxMAssociativeBoolean(t *testing.T) {
	f := func(s cooSpec) bool {
		// Square boolean matrix: (A·A)·A == A·(A·A) over LOR-LAND.
		n := s.NRows
		a := NewMatrix(n, n)
		for k := range s.Rows {
			_ = a.SetElement(s.Rows[k], s.Cols[k]%n, 1)
		}
		aa := NewMatrix(n, n)
		if MxM(aa, nil, nil, LorLand, a, a, nil) != nil {
			return false
		}
		left := NewMatrix(n, n)
		if MxM(left, nil, nil, LorLand, aa, a, nil) != nil {
			return false
		}
		right := NewMatrix(n, n)
		if MxM(right, nil, nil, LorLand, a, aa, nil) != nil {
			return false
		}
		return sameMatrix(left, right)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestPropMaskPartition(t *testing.T) {
	// Masked result ∪ complement-masked result == unmasked result.
	f := func(s, ms cooSpec) bool {
		a := s.matrix()
		mask := NewMatrix(a.NRows(), a.NCols())
		for k := range ms.Rows {
			_ = mask.SetElement(ms.Rows[k]%a.NRows(), ms.Cols[k]%a.NCols(), 1)
		}
		u := NewVector(a.NCols())
		for j := 0; j < a.NCols(); j += 2 {
			_ = u.SetElement(j, 1)
		}
		full := NewVector(a.NRows())
		if mxv(full, nil, nil, PlusTimes, a, u, nil) != nil {
			return false
		}
		vmask := NewVector(a.NRows())
		for i := 0; i < a.NRows(); i += 3 {
			_ = vmask.SetElement(i, 1)
		}
		inMask := NewVector(a.NRows())
		if mxv(inMask, vmask, nil, PlusTimes, a, u, DescS) != nil {
			return false
		}
		// Stale entries everywhere: Replace must clear the ones the
		// complemented mask protects.
		outMask := DenseVector(a.NRows(), 42)
		if mxv(outMask, vmask, nil, PlusTimes, a, u, DescRSC) != nil {
			return false
		}
		union := NewVector(a.NRows())
		if EWiseAddVector(union, nil, nil, Plus, inMask, outMask, nil) != nil {
			return false
		}
		// Union must equal full (patterns are disjoint, so Plus is safe).
		fi, fv := full.extractTuples()
		ui, uv := union.extractTuples()
		if len(fi) != len(ui) {
			return false
		}
		for k := range fi {
			if fi[k] != ui[k] || fv[k] != uv[k] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestPropVxMMatchesMxVTranspose(t *testing.T) {
	f := func(s cooSpec) bool {
		a := s.matrix()
		u := NewVector(a.NRows())
		for i := 0; i < a.NRows(); i += 2 {
			_ = u.SetElement(i, float64(i+1))
		}
		w1 := NewVector(a.NCols())
		if VxM(w1, nil, nil, PlusTimes, u, a, nil) != nil {
			return false
		}
		w2 := NewVector(a.NCols())
		if mxv(w2, nil, nil, PlusTimes, transposed(a), u, nil) != nil {
			return false
		}
		i1, v1 := w1.extractTuples()
		i2, v2 := w2.extractTuples()
		if len(i1) != len(i2) {
			return false
		}
		for k := range i1 {
			if i1[k] != i2[k] || v1[k] != v2[k] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

func TestPropReduceMatchesTupleSum(t *testing.T) {
	f := func(s cooSpec) bool {
		a := s.matrix()
		_, _, vals := tuples(a)
		sum := 0.0
		for _, v := range vals {
			sum += v
		}
		return ReduceMatrixToScalar(PlusMonoid, a) == sum
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
