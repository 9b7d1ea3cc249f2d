package grb

import (
	"math/rand"
	"slices"
	"sort"
	"testing"
	"testing/quick"
)

// TestPullVxMMatchesPush checks that the pull kernel computes exactly what
// the push kernel computes for w = u'·B over the traversal semiring, across
// random matrices, frontier densities and batch deltas.
func TestPullVxMMatchesPush(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 200; trial++ {
		n := rng.Intn(40) + 1
		b := randMatrix(rng, n, n, rng.Float64())
		u := randVector(rng, n, rng.Float64())
		bd := DeltaFrom(b.Dup())

		push := NewVector(n)
		if err := VxMDelta(push, nil, nil, AnyPair, u, bd, nil); err != nil {
			t.Fatal(err)
		}
		pull := NewVector(n)
		bt := DeltaFrom(transposed(b))
		if err := VxMPull(pull, nil, nil, AnyPair, u, bt, nil, nil); err != nil {
			t.Fatal(err)
		}
		if !sameVector(push, pull) {
			t.Fatalf("trial %d: push %v != pull %v", trial, push, pull)
		}
	}
}

// TestPullVxMMaskedMatchesPush checks the complemented structural mask path
// (the var-length "not yet reached" mask): pull must both skip the masked
// candidates and agree with the push kernel entry for entry.
func TestPullVxMMaskedMatchesPush(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	d := &Descriptor{Comp: true, Structure: true, Replace: true}
	for trial := 0; trial < 200; trial++ {
		n := rng.Intn(40) + 1
		b := randMatrix(rng, n, n, rng.Float64())
		u := randVector(rng, n, rng.Float64())
		mask := randVector(rng, n, rng.Float64())
		bd := DeltaFrom(b.Dup())

		push := NewVector(n)
		if err := VxMDelta(push, mask, nil, AnyPair, u, bd, d); err != nil {
			t.Fatal(err)
		}
		pull := NewVector(n)
		bt := DeltaFrom(transposed(b))
		if err := VxMPull(pull, mask, nil, AnyPair, u, bt, nil, d); err != nil {
			t.Fatal(err)
		}
		if !sameVector(push, pull) {
			t.Fatalf("trial %d: push %v != pull %v", trial, push, pull)
		}
	}
}

// TestPullVxMNonStructural checks the pull kernel's general (value) path
// against the push kernel, over commutative and non-commutative ⊗: both
// compute u(k) ⊗ B(k, j).
func TestPullVxMNonStructural(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for _, s := range []Semiring{PlusTimes, PlusFirst, PlusSecond, MinFirst} {
		for trial := 0; trial < 100; trial++ {
			n := rng.Intn(24) + 1
			b := randMatrix(rng, n, n, rng.Float64())
			u := randVector(rng, n, rng.Float64())

			push := NewVector(n)
			if err := vxm(push, nil, nil, s, u, b, nil); err != nil {
				t.Fatal(err)
			}
			pull := NewVector(n)
			if err := VxMPull(pull, nil, nil, s, u, DeltaFrom(transposed(b)), nil, nil); err != nil {
				t.Fatal(err)
			}
			if !sameVector(push, pull) {
				t.Fatalf("%s trial %d: push %v != pull %v", s.Name, trial, push, pull)
			}
		}
	}
}

func sameVector(a, b *Vector) bool {
	if a.n != b.n || a.NVals() != b.NVals() {
		return false
	}
	ia, va := a.extractTuples()
	ib, vb := b.extractTuples()
	for k := range ia {
		if ia[k] != ib[k] || va[k] != vb[k] {
			return false
		}
	}
	return true
}

// TestBitmapSparseRoundTrip checks that flipping a vector from sorted-
// coordinate to bitmap form, and reading its coordinates back out, preserves
// its contents exactly.
func TestBitmapSparseRoundTrip(t *testing.T) {
	f := func(n uint8, idx []uint16, vals []int8) bool {
		size := int(n) + 1
		v := NewVector(size)
		want := map[Index]float64{}
		for k, ix := range idx {
			i := int(ix) % size
			x := 1.0
			if len(vals) > 0 {
				x = float64(vals[k%len(vals)]%7) + 8
			}
			_ = v.SetElement(i, x)
			want[i] = x
		}
		check := func() bool {
			if v.NVals() != len(want) {
				return false
			}
			ok := true
			v.Iterate(func(i Index, x float64) bool {
				if want[i] != x {
					ok = false
				}
				return ok
			})
			return ok
		}
		if !check() {
			return false
		}
		ind, _ := v.extractTuples()
		v.toDense()
		if !check() {
			return false
		}
		back, _ := v.extractTuples()
		return slices.Equal(ind, back)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// TestBitmapIterationSorted checks bitmap-mode iteration yields ascending
// indices (kernels rely on sorted output rows).
func TestBitmapIterationSorted(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	v := NewVector(500)
	for k := 0; k < 400; k++ {
		_ = v.SetElement(rng.Intn(500), 1)
	}
	if !v.dense {
		t.Fatal("expected bitmap mode at this fill ratio")
	}
	prev := -1
	v.Iterate(func(i Index, _ float64) bool {
		if i <= prev {
			t.Fatalf("iteration not ascending: %d after %d", i, prev)
		}
		prev = i
		return true
	})
}

// TestSortIndicesHybrid checks the insertion/pdq/radix hybrid across every
// size regime against the standard sort.
func TestSortIndicesHybrid(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	for _, n := range []int{0, 1, 2, 47, 48, 49, 1023, 1024, 5000} {
		for trial := 0; trial < 5; trial++ {
			a := make([]Index, n)
			maxV := 1 << uint(rng.Intn(24)+1)
			for i := range a {
				a[i] = rng.Intn(maxV)
			}
			want := append([]Index(nil), a...)
			sort.Ints(want)
			sortIndices(a)
			for i := range a {
				if a[i] != want[i] {
					t.Fatalf("n=%d: mismatch at %d: %d != %d", n, i, a[i], want[i])
				}
			}
		}
	}
}
