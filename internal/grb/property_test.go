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
}

func (cooSpec) Generate(r *rand.Rand, size int) reflect.Value {
	nr := r.Intn(12) + 1
	nc := r.Intn(12) + 1
	nnz := r.Intn(nr*nc + 1)
	s := cooSpec{NRows: nr, NCols: nc}
	for k := 0; k < nnz; k++ {
		s.Rows = append(s.Rows, r.Intn(nr))
		s.Cols = append(s.Cols, r.Intn(nc))
	}
	return reflect.ValueOf(s)
}

// matrix builds the spec; a repeated position is one entry.
func (s cooSpec) matrix() *Matrix {
	m := NewMatrix(s.NRows, s.NCols)
	for k := range s.Rows {
		if err := m.SetElement(s.Rows[k], s.Cols[k], 1); err != nil {
			panic(err)
		}
	}
	return m
}

func sameMatrix(a, b *Matrix) bool {
	if a.nrows != b.nrows || a.ncols != b.ncols || a.NVals() != b.NVals() {
		return false
	}
	ra, ca := tuples(a)
	rb, cb := tuples(b)
	for k := range ra {
		if ra[k] != rb[k] || ca[k] != cb[k] {
			return false
		}
	}
	return true
}

func TestPropIdentityIsMxMNeutral(t *testing.T) {
	f := func(s cooSpec) bool {
		a := s.matrix()
		c := NewMatrix(a.nrows, a.ncols)
		if err := mxm(c, identity(a.nrows), a, nil); err != nil {
			return false
		}
		return sameDense(c, toDenseM(a))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

// TestPropMxMPartsCommutative checks that a two-part operand's product
// does not depend on the parts' order and equals the product with their
// union.
func TestPropMxMPartsCommutative(t *testing.T) {
	f := func(s1, s2, s3 cooSpec) bool {
		// Reshape s2 and s3 onto square operands of s1's row count, and s1
		// into a frontier of as many columns, by clamping indices.
		n := s1.NRows
		a, b1, b2 := NewMatrix(s1.NRows, n), NewMatrix(n, n), NewMatrix(n, n)
		for k := range s1.Rows {
			_ = a.SetElement(s1.Rows[k], s1.Cols[k]%n, 1)
		}
		for k := range s2.Rows {
			_ = b1.SetElement(s2.Rows[k]%n, s2.Cols[k]%n, 1)
		}
		for k := range s3.Rows {
			_ = b2.SetElement(s3.Rows[k]%n, s3.Cols[k]%n, 1)
		}
		p1, p2 := DeltaFrom(b1), DeltaFrom(b2)
		c1, c2 := NewMatrix(a.nrows, n), NewMatrix(a.nrows, n)
		if MxMParts(c1, a, []*DeltaMatrix{p1, p2}) != nil || MxMParts(c2, a, []*DeltaMatrix{p2, p1}) != nil {
			return false
		}
		union := toDenseM(b1)
		for k, ok := range toDenseM(b2).ok {
			union.ok[k] = union.ok[k] || ok
		}
		return sameMatrix(c1, c2) && sameDense(c1, denseMxM(toDenseM(a), union))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

func TestPropMxMAssociativeBoolean(t *testing.T) {
	f := func(s cooSpec) bool {
		// Square boolean matrix: (A·A)·A == A·(A·A) structurally.
		n := s.NRows
		a := NewMatrix(n, n)
		for k := range s.Rows {
			_ = a.SetElement(s.Rows[k], s.Cols[k]%n, 1)
		}
		aa := NewMatrix(n, n)
		if mxm(aa, a, a, nil) != nil {
			return false
		}
		left := NewMatrix(n, n)
		if mxm(left, aa, a, nil) != nil {
			return false
		}
		right := NewMatrix(n, n)
		if mxm(right, a, aa, nil) != nil {
			return false
		}
		da := toDenseM(a)
		return sameMatrix(left, right) && sameDense(left, denseMxM(denseMxM(da, da), da))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestPropMaskPartition(t *testing.T) {
	// The pull kernel under a candidate mask and under its complement:
	// the two results are disjoint, and their union is the unmasked result,
	// which is the dense reference.
	f := func(s, ms cooSpec) bool {
		a := s.matrix()
		u := NewVector(a.ncols)
		for j := 0; j < a.ncols; j += 2 {
			_ = u.SetElement(j, 1)
		}
		full := NewVector(a.nrows)
		if mxv(full, a, u, nil) != nil {
			return false
		}
		in := map[Index]bool{}
		for _, i := range ms.Rows {
			in[i%a.nrows] = true
		}
		inMask, outMask := NewVector(a.nrows), NewVector(a.nrows)
		if VxMPull(inMask, nil, nil, AnyPair, u, DeltaFrom(a), func(i Index) bool { return in[i] }, nil) != nil ||
			VxMPull(outMask, nil, nil, AnyPair, u, DeltaFrom(a), func(i Index) bool { return !in[i] }, nil) != nil {
			return false
		}
		want := denseMxV(toDenseM(a), u)
		if !sameVector(full, vectorFrom(a.nrows, want)) {
			return false
		}
		union := map[Index]float64{}
		for _, part := range []*Vector{inMask, outMask} {
			ind, val := vectorTuples(part)
			for k, i := range ind {
				if _, dup := union[i]; dup {
					return false
				}
				union[i] = val[k]
			}
		}
		return sameVector(full, vectorFrom(a.nrows, union))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// vectorFrom builds a size-n vector holding the given entries.
func vectorFrom(n int, entries map[Index]float64) *Vector {
	v := NewVector(n)
	for i, x := range entries {
		if err := v.SetElement(i, x); err != nil {
			panic(err)
		}
	}
	return v
}

func TestPropVxMMatchesMxVTranspose(t *testing.T) {
	f := func(s cooSpec) bool {
		a := s.matrix()
		u := NewVector(a.nrows)
		for i := 0; i < a.nrows; i += 2 {
			_ = u.SetElement(i, float64(i+1))
		}
		w1 := NewVector(a.ncols)
		if vxm(w1, u, a, nil) != nil {
			return false
		}
		w2 := NewVector(a.ncols)
		if mxv(w2, transposeOf(a), u, nil) != nil {
			return false
		}
		want := denseVxM(u, toDenseM(a))
		i1, v1 := vectorTuples(w1)
		if len(i1) != len(want) {
			return false
		}
		for k, i := range i1 {
			if v1[k] != want[i] {
				return false
			}
		}
		return sameVector(w1, w2)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

// sameDense reports whether m holds exactly d's pattern.
func sameDense(m *Matrix, d *dense) bool {
	md := toDenseM(m)
	if md.nr != d.nr || md.nc != d.nc {
		return false
	}
	for k := range d.ok {
		if md.ok[k] != d.ok[k] {
			return false
		}
	}
	return true
}
