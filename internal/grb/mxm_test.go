package grb

import (
	"errors"
	"math/rand"
	"testing"
)

func TestMxMAgainstDenseReference(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for _, s := range []Semiring{PlusTimes, MinPlus, LorLand, PlusPair, AnyPair, MaxPlus} {
		for trial := 0; trial < 10; trial++ {
			a := randMatrix(rng, 13, 9, 0.3)
			b := randMatrix(rng, 9, 17, 0.3)
			c := NewMatrix(13, 17)
			must(t, mxm(c, nil, nil, s, a, b, nil))
			want := denseMxM(toDenseM(a), toDenseM(b), s)
			if s.Structural {
				// Structural semirings produce 1 wherever the reference has
				// any entry.
				for i := range want.v {
					if want.ok[i] {
						want.v[i] = 1
					}
				}
			}
			expectDenseEq(t, c, want)
		}
	}
}

func TestMxMParallelMatchesSerial(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	a := randMatrix(rng, 60, 60, 0.1)
	b := randMatrix(rng, 60, 60, 0.1)
	serial := NewMatrix(60, 60)
	must(t, mxm(serial, nil, nil, PlusTimes, a, b, nil))
	parallel := NewMatrix(60, 60)
	must(t, mxm(parallel, nil, nil, PlusTimes, a, b, &Descriptor{NThreads: 4}))
	expectDenseEq(t, parallel, toDenseM(serial))
}

func TestMxMDimensionErrors(t *testing.T) {
	a := NewMatrix(3, 4)
	b := NewMatrix(5, 2)
	c := NewMatrix(3, 2)
	if err := mxm(c, nil, nil, PlusTimes, a, b, nil); err == nil {
		t.Fatal("want inner-dimension error")
	}
	b2 := NewMatrix(4, 2)
	bad := NewMatrix(2, 2)
	if err := mxm(bad, nil, nil, PlusTimes, a, b2, nil); err == nil {
		t.Fatal("want output-dimension error")
	}
	if err := mxm(nil, nil, nil, PlusTimes, a, b2, nil); err == nil {
		t.Fatal("want nil error")
	}
}

func TestMxMWithMask(t *testing.T) {
	// Triangle-count style: C<L> = L·L with PlusPair on a triangle.
	l := NewMatrix(3, 3)
	must(t, l.SetElement(1, 0, 1))
	must(t, l.SetElement(2, 0, 1))
	must(t, l.SetElement(2, 1, 1))
	c := NewMatrix(3, 3)
	must(t, mxm(c, l, nil, PlusPair, l, l, DescS))
	// L·L has (2,0)=1 (via 1); mask keeps only positions of L.
	if c.NVals() != 1 {
		t.Fatalf("nvals=%d want 1: %v", c.NVals(), c)
	}
	if x, _ := c.ExtractElement(2, 0); x != 1 {
		t.Fatalf("got %g", x)
	}
}

func TestMxMComplementMask(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	a := randMatrix(rng, 10, 10, 0.4)
	b := randMatrix(rng, 10, 10, 0.4)
	mask := randMatrix(rng, 10, 10, 0.5)

	full := NewMatrix(10, 10)
	must(t, mxm(full, nil, nil, PlusTimes, a, b, nil))
	masked := NewMatrix(10, 10)
	must(t, mxm(masked, mask, nil, PlusTimes, a, b, DescS))
	compMasked := NewMatrix(10, 10)
	must(t, mxm(compMasked, mask, nil, PlusTimes, a, b, DescRSC))

	// masked ∪ compMasked must equal the dense product, and they must be
	// disjoint: each is the product restricted to its side of the mask.
	md, cd := toDenseM(masked), toDenseM(compMasked)
	dmask, want := toDenseM(mask), denseMxM(toDenseM(a), toDenseM(b), PlusTimes)
	wantIn, wantOut := newDense(10, 10), newDense(10, 10)
	for i := 0; i < 10; i++ {
		for j := 0; j < 10; j++ {
			_, mok := md.at(i, j)
			_, cok := cd.at(i, j)
			if mok && cok {
				t.Fatalf("(%d,%d) in both masked and complement", i, j)
			}
			if v, ok := want.at(i, j); ok {
				if _, in := dmask.at(i, j); in {
					wantIn.set(i, j, v)
				} else {
					wantOut.set(i, j, v)
				}
			}
		}
	}
	expectDenseEq(t, full, want)
	expectDenseEq(t, masked, wantIn)
	expectDenseEq(t, compMasked, wantOut)
}

func TestMxMTransposeDescriptors(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	a := randMatrix(rng, 6, 8, 0.4)
	b := randMatrix(rng, 6, 7, 0.4)
	// C = A'·B
	c := NewMatrix(8, 7)
	must(t, mxm(c, nil, nil, PlusTimes, a, b, DescT0))
	at := transposed(a)
	want := denseMxM(toDenseM(at), toDenseM(b), PlusTimes)
	expectDenseEq(t, c, want)

	// The delta operand B cannot be transposed: an error, not a silent A·B.
	b2 := randMatrix(rng, 8, 7, 0.4)
	c2 := NewMatrix(6, 7)
	if err := mxm(c2, nil, nil, PlusTimes, a, b2, DescT1); !errors.Is(err, ErrInvalidValue) {
		t.Fatalf("TranB on a delta operand: err = %v", err)
	}
}

func TestMxMAccum(t *testing.T) {
	a := identity(3)
	c := NewMatrix(3, 3)
	must(t, c.SetElement(0, 0, 10))
	must(t, c.SetElement(1, 2, 5))
	must(t, mxm(c, nil, &Plus, PlusTimes, a, a, nil))
	// C += I: (0,0)=11, (1,1)=1, (2,2)=1, and (1,2)=5 survives.
	if x, _ := c.ExtractElement(0, 0); x != 11 {
		t.Fatalf("(0,0)=%g", x)
	}
	if x, _ := c.ExtractElement(1, 2); x != 5 {
		t.Fatalf("(1,2)=%g", x)
	}
	if x, _ := c.ExtractElement(1, 1); x != 1 {
		t.Fatalf("(1,1)=%g", x)
	}
	if c.NVals() != 4 {
		t.Fatalf("nvals=%d", c.NVals())
	}
}

func TestIdentityMxMIsIdentity(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	a := randMatrix(rng, 12, 12, 0.25)
	c := NewMatrix(12, 12)
	must(t, mxm(c, nil, nil, PlusTimes, identity(12), a, nil))
	expectDenseEq(t, c, toDenseM(a))
	must(t, mxm(c, nil, nil, PlusTimes, a, identity(12), nil))
	expectDenseEq(t, c, toDenseM(a))
}
