package grb

import (
	"errors"
	"math/rand"
	"testing"
)

func denseMxV(a *dense, u *Vector, s Semiring) map[Index]float64 {
	out := map[Index]float64{}
	for i := 0; i < a.nr; i++ {
		acc := s.Add.Identity
		found := false
		for j := 0; j < a.nc; j++ {
			av, aok := a.at(i, j)
			uv, uok := u.get(j)
			if aok && uok {
				m := s.Mul.F(av, uv)
				if s.Structural {
					m = 1
				}
				if !found {
					acc, found = m, true
				} else {
					acc = s.Add.Op.F(acc, m)
				}
			}
		}
		if found {
			out[i] = acc
		}
	}
	return out
}

// mxv computes w<mask> = accum(w, A·u) as VxMDelta over the transposed
// matrix: u'·A' = (A·u)' whenever ⊗ commutes.
func mxv(w, mask *Vector, accum *BinaryOp, s Semiring, a *Matrix, u *Vector, d *Descriptor) error {
	return vxm(w, mask, accum, s, u, transposed(a), d)
}

func TestMxVAgainstReference(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for _, s := range []Semiring{PlusTimes, MinPlus, LorLand, AnyPair} {
		for trial := 0; trial < 8; trial++ {
			a := randMatrix(rng, 15, 12, 0.3)
			u := randVector(rng, 12, 0.4)
			w := NewVector(15)
			must(t, mxv(w, nil, nil, s, a, u, nil))
			expectVecEq(t, w, denseMxV(toDenseM(a), u, s))
		}
	}
}

// TestVxMTranB checks u'·A' over a materialised transpose against a dense
// reference, and that the delta kernel rejects desc.TranB instead of
// ignoring it. The non-commutative semirings pin the operand order: ⊗ must
// see u(k) on the left.
func TestVxMTranB(t *testing.T) {
	for _, tc := range []struct {
		name string
		s    Semiring
	}{
		{"plus_times", PlusTimes},
		{"min_plus", MinPlus},
		{"lor_land", LorLand},
		{"any_pair", AnyPair},
		{"plus_first", PlusFirst},
		{"plus_second", PlusSecond},
		{"min_first", MinFirst},
		{"min_second", MinSecond},
	} {
		t.Run(tc.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(43))
			for trial := 0; trial < 20; trial++ {
				a := randMatrix(rng, 14, 10, 0.3)
				u := randVector(rng, 10, 0.5)
				w := NewVector(14)
				must(t, vxm(w, nil, nil, tc.s, u, transposed(a), nil))
				expectVecEq(t, w, denseVxM(u, toDenseM(transposed(a)), tc.s))
				if err := vxm(w, nil, nil, tc.s, u, a, DescT1); !errors.Is(err, ErrInvalidValue) {
					t.Fatalf("trial %d: TranB on a delta operand: err = %v", trial, err)
				}
			}
		})
	}
}

func TestVxMEqualsMxVOnTranspose(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	for trial := 0; trial < 8; trial++ {
		a := randMatrix(rng, 10, 14, 0.3)
		u := randVector(rng, 10, 0.5)
		w1 := NewVector(14)
		must(t, vxm(w1, nil, nil, PlusTimes, u, a, nil))
		expectVecEq(t, w1, denseVxM(u, toDenseM(a), PlusTimes))
		// u'·A = A'·u.
		w2 := NewVector(14)
		must(t, mxv(w2, nil, nil, PlusTimes, transposed(a), u, nil))
		if !sameVector(w1, w2) {
			t.Fatalf("trial %d: VxM and MxV on the transpose differ", trial)
		}
	}
}

func TestVxMComplementMaskBFS(t *testing.T) {
	// Path graph 0→1→2→3; frontier expansion with complemented visited mask.
	a := NewMatrix(4, 4)
	for i := 0; i < 3; i++ {
		must(t, a.SetElement(i, i+1, 1))
	}
	frontier := NewVector(4)
	must(t, frontier.SetElement(0, 1))
	visited := NewVector(4)
	addPattern(t, visited, frontier)

	// Hop 1: frontier<!visited> = frontier·A
	must(t, vxm(frontier, visited, nil, AnyPair, frontier, a, DescRSC))
	expectVecEq(t, frontier, map[Index]float64{1: 1})
	addPattern(t, visited, frontier)

	must(t, vxm(frontier, visited, nil, AnyPair, frontier, a, DescRSC))
	expectVecEq(t, frontier, map[Index]float64{2: 1})
	addPattern(t, visited, frontier)

	must(t, vxm(frontier, visited, nil, AnyPair, frontier, a, DescRSC))
	expectVecEq(t, frontier, map[Index]float64{3: 1})
	addPattern(t, visited, frontier)

	// Hop 4: no new nodes.
	must(t, vxm(frontier, visited, nil, AnyPair, frontier, a, DescRSC))
	expectVecEq(t, frontier, map[Index]float64{})
	expectVecEq(t, visited, map[Index]float64{0: 1, 1: 1, 2: 1, 3: 1})
}

func TestVxMCycleMaskPreventsRevisit(t *testing.T) {
	// 3-cycle: without the mask the frontier loops forever; with the
	// complement mask it empties after 3 hops.
	a := NewMatrix(3, 3)
	must(t, a.SetElement(0, 1, 1))
	must(t, a.SetElement(1, 2, 1))
	must(t, a.SetElement(2, 0, 1))
	frontier := NewVector(3)
	must(t, frontier.SetElement(0, 1))
	visited := NewVector(3)
	addPattern(t, visited, frontier)
	hops := 0
	for frontier.NVals() > 0 && hops < 10 {
		must(t, vxm(frontier, visited, nil, AnyPair, frontier, a, DescRSC))
		addPattern(t, visited, frontier)
		hops++
	}
	if hops != 3 {
		t.Fatalf("hops = %d, want 3", hops)
	}
}

func TestMxVMaskedPull(t *testing.T) {
	rng := rand.New(rand.NewSource(47))
	a := randMatrix(rng, 12, 12, 0.4)
	u := randVector(rng, 12, 0.5)
	mask := randVector(rng, 12, 0.5)
	w := NewVector(12)
	must(t, w.SetElement(0, 99)) // stale: Replace or the missing accumulator drops it
	must(t, mxv(w, mask, nil, PlusTimes, a, u, &Descriptor{Structure: true, Replace: true}))
	ref := denseMxV(toDenseM(a), u, PlusTimes)
	for i := range ref {
		if _, ok := mask.get(i); !ok {
			delete(ref, i)
		}
	}
	expectVecEq(t, w, ref)
}

func TestMxVAccumAddsIntoExisting(t *testing.T) {
	a := identity(3)
	u := NewVector(3)
	must(t, u.SetElement(1, 5))
	w := NewVector(3)
	must(t, w.SetElement(1, 2))
	must(t, w.SetElement(2, 7))
	must(t, mxv(w, nil, &Plus, PlusTimes, a, u, nil))
	expectVecEq(t, w, map[Index]float64{1: 7, 2: 7})
}

func TestMinPlusRelaxation(t *testing.T) {
	// Bellman-Ford step: dist' = min(dist, dist ⊕ A) over min-plus.
	inf := 1e18
	a := NewMatrix(3, 3)
	must(t, a.SetElement(0, 1, 4))
	must(t, a.SetElement(0, 2, 10))
	must(t, a.SetElement(1, 2, 2))
	dist := NewVector(3)
	must(t, dist.SetElement(0, 0))
	must(t, dist.SetElement(1, inf))
	must(t, dist.SetElement(2, inf))
	for iter := 0; iter < 2; iter++ {
		must(t, vxm(dist, nil, &Min, MinPlus, dist, a, nil))
	}
	if x, _ := dist.get(2); x != 6 {
		t.Fatalf("dist[2] = %g, want 6", x)
	}
}

// addPattern sets w(i) = 1 for every entry i of u: reached |= next.
func addPattern(t *testing.T, w, u *Vector) {
	t.Helper()
	u.Iterate(func(i Index, _ float64) bool {
		must(t, w.SetElement(i, 1))
		return true
	})
}
