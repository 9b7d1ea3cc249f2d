package grb

import (
	"errors"
	"math/rand"
	"testing"
)

func TestVectorBasics(t *testing.T) {
	v := NewVector(10)
	must(t, v.SetElement(3, 1.5))
	must(t, v.SetElement(7, 2.5))
	must(t, v.SetElement(3, 4.5)) // overwrite
	if v.NVals() != 2 {
		t.Fatalf("nvals=%d", v.NVals())
	}
	expectVecEq(t, v, map[Index]float64{3: 4.5, 7: 2.5})
	if err := v.SetElement(10, 0); !errors.Is(err, ErrIndexOutOfBounds) {
		t.Fatalf("want bounds error, got %v", err)
	}
}

func TestVectorDensifyAndBack(t *testing.T) {
	n := 64
	v := NewVector(n)
	ref := map[Index]float64{}
	for i := 0; i < n; i += 2 {
		must(t, v.SetElement(i, float64(i)))
		ref[i] = float64(i)
	}
	if !v.dense {
		t.Fatal("vector should have densified at 50% fill")
	}
	expectVecEq(t, v, ref)
	// Mutations in dense mode.
	must(t, v.SetElement(1, 99))
	ref[1] = 99
	must(t, v.SetElement(0, -1))
	ref[0] = -1
	expectVecEq(t, v, ref)
}

func TestVectorIterateOrderAndStop(t *testing.T) {
	v := NewVector(100)
	for _, i := range []Index{42, 7, 99, 0} {
		must(t, v.SetElement(i, float64(i)))
	}
	var seen []Index
	v.Iterate(func(i Index, x float64) bool {
		seen = append(seen, i)
		return len(seen) < 3
	})
	if len(seen) != 3 || seen[0] != 0 || seen[1] != 7 || seen[2] != 42 {
		t.Fatalf("seen = %v", seen)
	}
}

func TestVectorBuildAndTuples(t *testing.T) {
	// Tuples come out sorted in both representations.
	for _, n := range []int{100, 4} {
		v := NewVector(n)
		must(t, v.SetElement(3, 5))
		must(t, v.SetElement(1, 1))
		if v.dense != (n == 4) {
			t.Fatalf("n=%d: dense=%v", n, v.dense)
		}
		ind, val := vectorTuples(v)
		if len(ind) != 2 || ind[0] != 1 || ind[1] != 3 || val[0] != 1 || val[1] != 5 {
			t.Fatalf("n=%d: tuples %v %v", n, ind, val)
		}
	}
}

func TestVectorRandomizedAgainstMap(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	v := NewVector(50)
	ref := map[Index]float64{}
	for step := 0; step < 2000; step++ {
		i, x := rng.Intn(50), rng.Float64()
		must(t, v.SetElement(i, x))
		ref[i] = x
		expectVecEq(t, v, ref) // through the sparse phase and the densify
	}
}
