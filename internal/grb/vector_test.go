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
	if v.NVals() != 2 || v.Size() != 10 {
		t.Fatalf("nvals=%d size=%d", v.NVals(), v.Size())
	}
	if x, err := v.ExtractElement(3); err != nil || x != 1.5 {
		t.Fatalf("%v %v", x, err)
	}
	if _, err := v.ExtractElement(4); !errors.Is(err, ErrNoValue) {
		t.Fatalf("want ErrNoValue, got %v", err)
	}
	must(t, v.removeElement(3))
	if v.NVals() != 1 {
		t.Fatalf("nvals=%d", v.NVals())
	}
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
	must(t, v.removeElement(0))
	delete(ref, 0)
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
		ind, val := v.extractTuples()
		if len(ind) != 2 || ind[0] != 1 || ind[1] != 3 || val[0] != 1 || val[1] != 5 {
			t.Fatalf("n=%d: tuples %v %v", n, ind, val)
		}
	}
}

func TestVectorDupClearString(t *testing.T) {
	v := NewVector(5)
	must(t, v.SetElement(2, 7))
	d := v.Dup()
	must(t, v.removeElement(2))
	if v.NVals() != 0 || d.NVals() != 1 {
		t.Fatalf("remove/dup: %d %d", v.NVals(), d.NVals())
	}
	if s := d.String(); s != "Vector(n=5, nvals=1){2:7}" {
		t.Fatalf("string: %s", s)
	}
}

func TestVectorRandomizedAgainstMap(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	v := NewVector(50)
	ref := map[Index]float64{}
	for step := 0; step < 2000; step++ {
		i := rng.Intn(50)
		switch rng.Intn(3) {
		case 0, 1:
			x := rng.Float64()
			must(t, v.SetElement(i, x))
			ref[i] = x
		case 2:
			must(t, v.removeElement(i))
			delete(ref, i)
		}
	}
	expectVecEq(t, v, ref)
}

func TestDenseVectorConstructor(t *testing.T) {
	v := DenseVector(4, 2.5)
	if v.NVals() != 4 {
		t.Fatalf("nvals=%d", v.NVals())
	}
	if x, _ := v.ExtractElement(3); x != 2.5 {
		t.Fatalf("x=%g", x)
	}
}
