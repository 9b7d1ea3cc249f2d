package grb

import (
	"math/rand"
	"testing"
)

// TestMxVAgainstReference checks the pull kernel as A·u: it reads A's rows
// as its transposed operand, so each output i intersects row i with u.
func TestMxVAgainstReference(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for trial := 0; trial < 32; trial++ {
		a := randMatrix(rng, 15, 12, 0.3)
		u := randVector(rng, 12, rng.Float64())
		w := NewVector(15)
		must(t, mxv(w, a, u, nil))
		expectVecEq(t, w, denseMxV(toDenseM(a), u))
	}
}

func TestVxMEqualsMxVOnTranspose(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	for trial := 0; trial < 8; trial++ {
		a := randMatrix(rng, 10, 14, 0.3)
		u := randVector(rng, 10, 0.5)
		w1 := NewVector(14)
		must(t, vxm(w1, u, a, nil))
		expectVecEq(t, w1, denseVxM(u, toDenseM(a)))
		// u'·A = A'·u.
		w2 := NewVector(14)
		must(t, mxv(w2, transposeOf(a), u, nil))
		if !sameVector(w1, w2) {
			t.Fatalf("trial %d: VxM and MxV on the transpose differ", trial)
		}
	}
}

// TestMxVMaskedPull checks the pull kernel's candidate mask on A·u: keep
// restricts the output to its positions, and entries the output held before
// are replaced, not merged.
func TestMxVMaskedPull(t *testing.T) {
	rng := rand.New(rand.NewSource(47))
	a := randMatrix(rng, 12, 12, 0.4)
	u := randVector(rng, 12, 0.5)
	mask := randVector(rng, 12, 0.5)
	inMask := vectorSet(mask)
	keep := func(i Index) bool { return inMask[i] }
	w := NewVector(12)
	must(t, w.SetElement(0, 99))
	must(t, VxMPull(w, nil, nil, AnyPair, u, DeltaFrom(a), keep, nil))
	want := denseMxV(toDenseM(a), u)
	for i := range want {
		if !keep(i) {
			delete(want, i)
		}
	}
	expectVecEq(t, w, want)
}
