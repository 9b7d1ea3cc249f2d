package grb

import (
	"math/rand"
	"slices"
	"sort"
	"testing"
	"testing/quick"
)

// TestPullVxMMatchesPush checks that the pull kernel computes exactly what
// the push kernel computes for w = u'·B, across random matrices and frontier
// densities.
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
		bt := DeltaFrom(transposeOf(b))
		if err := VxMPull(pull, nil, nil, AnyPair, u, bt, nil, nil); err != nil {
			t.Fatal(err)
		}
		if !sameVector(push, pull) {
			t.Fatalf("trial %d: push %v != pull %v", trial, push, pull)
		}
	}
}

// TestPullVxMMaskedMatchesPush checks the pull kernel's candidate mask (the
// pushed destination predicates): pull must skip the candidates keep rejects
// and agree, entry for entry, with the push result less those positions.
func TestPullVxMMaskedMatchesPush(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 200; trial++ {
		n := rng.Intn(40) + 1
		b := randMatrix(rng, n, n, rng.Float64())
		u := randVector(rng, n, rng.Float64())
		mask := randVector(rng, n, rng.Float64())
		inMask := vectorSet(mask)
		probed := map[Index]bool{}
		keep := func(j Index) bool {
			probed[j] = true
			return !inMask[j]
		}

		push := NewVector(n)
		if err := VxMDelta(push, nil, nil, AnyPair, u, DeltaFrom(b), nil); err != nil {
			t.Fatal(err)
		}
		want := map[Index]float64{}
		push.Iterate(func(j Index, x float64) bool {
			if !inMask[j] {
				want[j] = x
			}
			return true
		})
		pull := NewVector(n)
		if err := VxMPull(pull, nil, nil, AnyPair, u, DeltaFrom(transposeOf(b)), keep, nil); err != nil {
			t.Fatal(err)
		}
		expectVecEq(t, pull, want)
		if len(probed) != n {
			t.Fatalf("trial %d: keep saw %d of %d candidates", trial, len(probed), n)
		}
	}
}

func sameVector(a, b *Vector) bool {
	if a.n != b.n || a.NVals() != b.NVals() {
		return false
	}
	ia, va := vectorTuples(a)
	ib, vb := vectorTuples(b)
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
		ind, _ := vectorTuples(v)
		v.toDense()
		if !check() {
			return false
		}
		back, _ := vectorTuples(v)
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
