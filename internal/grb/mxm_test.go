package grb

import (
	"errors"
	"math/rand"
	"testing"
)

func TestMxMAgainstDenseReference(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 60; trial++ {
		// Dense enough rows that most result rows merge several operand
		// rows, and some one-hot rows for the verbatim-copy path.
		a := randMatrix(rng, 13, 9, rng.Float64()*0.5)
		b := randMatrix(rng, 9, 17, 0.3)
		c := NewMatrix(13, 17)
		must(t, mxm(c, a, b, nil))
		expectDenseEq(t, c, denseMxM(toDenseM(a), toDenseM(b)))
	}
}

// TestMxMParallelMatchesSerial checks a descriptor's thread count changes
// nothing: kernels ignore it and run on the caller.
func TestMxMParallelMatchesSerial(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	a := randMatrix(rng, 60, 60, 0.1)
	b := randMatrix(rng, 60, 60, 0.1)
	serial := NewMatrix(60, 60)
	must(t, mxm(serial, a, b, nil))
	parallel := NewMatrix(60, 60)
	must(t, mxm(parallel, a, b, &Descriptor{NThreads: 4}))
	expectDenseEq(t, parallel, toDenseM(serial))
	expectDenseEq(t, serial, denseMxM(toDenseM(a), toDenseM(b)))
}

func TestMxMDimensionErrors(t *testing.T) {
	a := NewMatrix(3, 4)
	b := NewMatrix(5, 2)
	c := NewMatrix(3, 2)
	if err := mxm(c, a, b, nil); err == nil {
		t.Fatal("want inner-dimension error")
	}
	b2 := NewMatrix(4, 2)
	bad := NewMatrix(2, 2)
	if err := mxm(bad, a, b2, nil); err == nil {
		t.Fatal("want output-dimension error")
	}
	if err := mxm(nil, a, b2, nil); err == nil {
		t.Fatal("want nil error")
	}
}

func TestIdentityMxMIsIdentity(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	a := randMatrix(rng, 12, 12, 0.25)
	c := NewMatrix(12, 12)
	must(t, mxm(c, identity(12), a, nil))
	expectDenseEq(t, c, toDenseM(a))
	must(t, mxm(c, a, identity(12), nil))
	expectDenseEq(t, c, toDenseM(a))
}

// TestKernelsRejectGeneralArguments checks that the three products refuse
// what they no longer compute — a mask, an accumulator, a semiring other
// than AnyPair — with ErrInvalidValue and leave the output alone, and that
// (nil, nil, AnyPair), the arguments every caller passes, still computes the
// product.
func TestKernelsRejectGeneralArguments(t *testing.T) {
	a := identity(4)
	da := DeltaFrom(a)
	u := NewVector(4)
	must(t, u.SetElement(2, 1))
	stale := NewMatrix(4, 4)
	must(t, stale.SetElement(0, 3, 7))
	staleV := NewVector(4)
	must(t, staleV.SetElement(3, 7))
	plusTimes := Semiring{Name: "plus_times"}
	for _, tc := range []struct {
		name   string
		masked bool
		accum  *BinaryOp
		s      Semiring
	}{
		{"a mask", true, nil, AnyPair},
		{"an accumulator", false, &BinaryOp{Name: "plus"}, AnyPair},
		{"a non-AnyPair semiring", false, nil, plusTimes},
		{"the zero semiring", false, nil, Semiring{}},
	} {
		var mm *Matrix
		var vm *Vector
		if tc.masked {
			mm, vm = identity(4), u
		}
		c := stale.Dup()
		if err := MxMDelta(c, mm, tc.accum, tc.s, a, da, nil); !errors.Is(err, ErrInvalidValue) {
			t.Errorf("MxMDelta with %s: err = %v, want ErrInvalidValue", tc.name, err)
		}
		if !sameMatrix(c, stale) {
			t.Errorf("MxMDelta with %s wrote its output: %v", tc.name, c)
		}
		for kernel, run := range map[string]func(w *Vector) error{
			"VxMDelta": func(w *Vector) error { return VxMDelta(w, vm, tc.accum, tc.s, u, da, nil) },
			"VxMPull":  func(w *Vector) error { return VxMPull(w, vm, tc.accum, tc.s, u, da, nil, nil) },
		} {
			w := NewVector(4)
			must(t, w.SetElement(3, 7))
			if err := run(w); !errors.Is(err, ErrInvalidValue) {
				t.Errorf("%s with %s: err = %v, want ErrInvalidValue", kernel, tc.name, err)
			}
			if !sameVector(w, staleV) {
				t.Errorf("%s with %s wrote its output", kernel, tc.name)
			}
		}
	}

	// The harness's arguments: the output is replaced by the product.
	c := stale.Dup()
	must(t, MxMDelta(c, nil, nil, AnyPair, a, da, &Descriptor{NThreads: 1}))
	expectDenseEq(t, c, toDenseM(a))
	w := staleV
	must(t, VxMDelta(w, nil, nil, AnyPair, u, da, &Descriptor{NThreads: 1}))
	expectVecEq(t, w, map[Index]float64{2: 1})
	w = NewVector(4)
	must(t, w.SetElement(3, 7))
	must(t, VxMPull(w, nil, nil, AnyPair, u, da, nil, &Descriptor{NThreads: 1}))
	expectVecEq(t, w, map[Index]float64{2: 1})
}
