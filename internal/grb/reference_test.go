package grb

import (
	"math"
	"math/rand"
	"slices"
	"testing"
)

// Dense pattern references the sparse kernels are checked against. Every
// kernel computes the structural product, so a reference holds presence
// alone.

// mxm and vxm run the delta kernels with a plain B operand wrapped as a
// clean delta matrix, the shape every engine call sees between syncs; mxv
// runs the pull kernel, which reads A's rows as its transposed operand, so
// it computes A·u.
func mxm(c, a, b *Matrix, d *Descriptor) error {
	return MxMDelta(c, nil, nil, AnyPair, a, DeltaFrom(b), d)
}

func vxm(w, u *Vector, a *Matrix, d *Descriptor) error {
	return VxMDelta(w, nil, nil, AnyPair, u, DeltaFrom(a), d)
}

func mxv(w *Vector, a *Matrix, u *Vector, d *Descriptor) error {
	return VxMPull(w, nil, nil, AnyPair, u, DeltaFrom(a), nil, d)
}

// boolMatrix builds an nrows × ncols 0/1 matrix from an edge list; parallel
// edges collapse into one entry.
func boolMatrix(nrows, ncols int, src, dst []Index) *Matrix {
	m := NewMatrix(nrows, ncols)
	for k := range src {
		if err := m.SetElement(src[k], dst[k], 1); err != nil {
			panic(err)
		}
	}
	return m
}

// transposeOf returns m': the pull kernel's operand for u'·m.
func transposeOf(m *Matrix) *Matrix {
	t := NewMatrix(m.ncols, m.nrows)
	m.iterate(func(i, j Index) bool {
		if err := t.SetElement(j, i, 1); err != nil {
			panic(err)
		}
		return true
	})
	return t
}

// dense is a row-major presence pattern.
type dense struct {
	nr, nc int
	ok     []bool
}

func newDense(nr, nc int) *dense {
	return &dense{nr: nr, nc: nc, ok: make([]bool, nr*nc)}
}

func (d *dense) at(i, j int) bool { return d.ok[i*d.nc+j] }

func (d *dense) set(i, j int) { d.ok[i*d.nc+j] = true }

func toDenseM(m *Matrix) *dense {
	d := newDense(m.nrows, m.ncols)
	m.iterate(func(i, j Index) bool {
		d.set(i, j)
		return true
	})
	return d
}

// denseMxM is the reference structural product: (i, j) is present iff some
// k has both A(i, k) and B(k, j).
func denseMxM(a, b *dense) *dense {
	c := newDense(a.nr, b.nc)
	for i := 0; i < a.nr; i++ {
		for j := 0; j < b.nc; j++ {
			for k := 0; k < a.nc; k++ {
				if a.at(i, k) && b.at(k, j) {
					c.set(i, j)
					break
				}
			}
		}
	}
	return c
}

// expectDenseEq checks that got holds exactly want's pattern.
func expectDenseEq(t *testing.T, got *Matrix, want *dense) {
	t.Helper()
	if got.nrows != want.nr || got.ncols != want.nc {
		t.Fatalf("dims: got %dx%d want %dx%d", got.nrows, got.ncols, want.nr, want.nc)
	}
	gd := toDenseM(got)
	for i := 0; i < want.nr; i++ {
		for j := 0; j < want.nc; j++ {
			if g, w := gd.at(i, j), want.at(i, j); g != w {
				t.Fatalf("(%d,%d): presence got %v want %v", i, j, g, w)
			}
		}
	}
}

// denseVxM is the reference structural u'·A: entry j is 1 iff some k has
// both u(k) and A(k, j).
func denseVxM(u *Vector, a *dense) map[Index]float64 {
	in, _ := vectorTuples(u)
	out := map[Index]float64{}
	for j := 0; j < a.nc; j++ {
		for _, k := range in {
			if a.at(k, j) {
				out[j] = 1
				break
			}
		}
	}
	return out
}

// denseMxV is the reference structural A·u: entry i is 1 iff some j has
// both A(i, j) and u(j).
func denseMxV(a *dense, u *Vector) map[Index]float64 {
	in, _ := vectorTuples(u)
	out := map[Index]float64{}
	for i := 0; i < a.nr; i++ {
		for _, j := range in {
			if a.at(i, j) {
				out[i] = 1
				break
			}
		}
	}
	return out
}

func expectVecEq(t *testing.T, got *Vector, want map[Index]float64) {
	t.Helper()
	if got.NVals() != len(want) {
		ind, val := vectorTuples(got)
		t.Fatalf("nvals: got %d (%v %v) want %d (%v)", got.NVals(), ind, val, len(want), want)
	}
	got.Iterate(func(i Index, x float64) bool {
		wv, ok := want[i]
		if !ok {
			t.Fatalf("unexpected entry %d:%g", i, x)
		}
		if math.Abs(x-wv) > 1e-9 {
			t.Fatalf("entry %d: got %g want %g", i, x, wv)
		}
		return true
	})
}

// vectorTuples returns v's entries as sorted parallel slices.
func vectorTuples(v *Vector) (ind []Index, val []float64) {
	v.Iterate(func(i Index, x float64) bool {
		ind = append(ind, i)
		val = append(val, x)
		return true
	})
	return ind, val
}

// vectorSet returns v's pattern.
func vectorSet(v *Vector) map[Index]bool {
	set := map[Index]bool{}
	v.Iterate(func(i Index, _ float64) bool {
		set[i] = true
		return true
	})
	return set
}

// tuples returns m's entries as parallel COO slices in row-major order.
func tuples(m *Matrix) (rows, cols []Index) {
	m.iterate(func(i, j Index) bool {
		rows = append(rows, i)
		cols = append(cols, j)
		return true
	})
	return rows, cols
}

// removeEntry deletes (i, j) from m in place if present: the test-side
// counterpart of SetElement for fold-on-write reference matrices.
func removeEntry(m *Matrix, i, j Index) {
	k, ok := m.find(i, j)
	if !ok {
		return
	}
	m.colInd = slices.Delete(m.colInd, k, k+1)
	for r := i + 1; r <= m.nrows; r++ {
		m.rowPtr[r]--
	}
}

// identity returns the n × n identity matrix.
func identity(n int) *Matrix {
	m := NewMatrix(n, n)
	for i := 0; i < n; i++ {
		if err := m.SetElement(i, i, 1); err != nil {
			panic(err)
		}
	}
	return m
}

// randMatrix builds a random nr × nc matrix with the given density.
func randMatrix(rng *rand.Rand, nr, nc int, density float64) *Matrix {
	m := NewMatrix(nr, nc)
	for i := 0; i < nr; i++ {
		for j := 0; j < nc; j++ {
			if rng.Float64() < density {
				if err := m.SetElement(i, j, 1); err != nil {
					panic(err)
				}
			}
		}
	}
	return m
}

func randVector(rng *rand.Rand, n int, density float64) *Vector {
	v := NewVector(n)
	for i := 0; i < n; i++ {
		if rng.Float64() < density {
			if err := v.SetElement(i, float64(rng.Intn(9)+1)); err != nil {
				panic(err)
			}
		}
	}
	return v
}
