package grb

import (
	"math"
	"math/rand"
	"slices"
	"testing"
)

// Dense reference implementations the sparse kernels are checked against.

type dense struct {
	nr, nc int
	v      []float64 // values
	ok     []bool    // presence
}

func newDense(nr, nc int) *dense {
	return &dense{nr: nr, nc: nc, v: make([]float64, nr*nc), ok: make([]bool, nr*nc)}
}

func (d *dense) at(i, j int) (float64, bool) { return d.v[i*d.nc+j], d.ok[i*d.nc+j] }

func (d *dense) set(i, j int, x float64) {
	d.v[i*d.nc+j] = x
	d.ok[i*d.nc+j] = true
}

func toDenseM(m *Matrix) *dense {
	d := newDense(m.NRows(), m.NCols())
	m.iterate(func(i, j Index, x float64) bool {
		d.set(i, j, x)
		return true
	})
	return d
}

func denseMxM(a, b *dense, s Semiring) *dense {
	c := newDense(a.nr, b.nc)
	for i := 0; i < a.nr; i++ {
		for j := 0; j < b.nc; j++ {
			acc := s.Add.Identity
			found := false
			for k := 0; k < a.nc; k++ {
				av, aok := a.at(i, k)
				bv, bok := b.at(k, j)
				if aok && bok {
					m := s.Mul.F(av, bv)
					if !found {
						acc, found = m, true
					} else {
						acc = s.Add.Op.F(acc, m)
					}
				}
			}
			if found {
				c.set(i, j, acc)
			}
		}
	}
	return c
}

func expectDenseEq(t *testing.T, got *Matrix, want *dense) {
	t.Helper()
	gd := toDenseM(got)
	if gd.nr != want.nr || gd.nc != want.nc {
		t.Fatalf("dims: got %dx%d want %dx%d", gd.nr, gd.nc, want.nr, want.nc)
	}
	for i := 0; i < want.nr; i++ {
		for j := 0; j < want.nc; j++ {
			gv, gok := gd.at(i, j)
			wv, wok := want.at(i, j)
			if gok != wok {
				t.Fatalf("(%d,%d): presence got %v want %v", i, j, gok, wok)
			}
			if gok && math.Abs(gv-wv) > 1e-9 {
				t.Fatalf("(%d,%d): got %g want %g", i, j, gv, wv)
			}
		}
	}
}

func expectVecEq(t *testing.T, got *Vector, want map[Index]float64) {
	t.Helper()
	if got.NVals() != len(want) {
		t.Fatalf("nvals: got %d (%v) want %d (%v)", got.NVals(), got, len(want), want)
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

// tuples returns m's entries as parallel COO slices in row-major order.
func tuples(m *Matrix) (rows, cols []Index, vals []float64) {
	m.iterate(func(i, j Index, x float64) bool {
		rows = append(rows, i)
		cols = append(cols, j)
		vals = append(vals, x)
		return true
	})
	return rows, cols, vals
}

// removeEntry deletes (i, j) from m in place if present: the test-side
// counterpart of SetElement for fold-on-write reference matrices.
func removeEntry(m *Matrix, i, j Index) {
	k, ok := m.find(i, j)
	if !ok {
		return
	}
	m.colInd = slices.Delete(m.colInd, k, k+1)
	m.val = slices.Delete(m.val, k, k+1)
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
				if err := m.SetElement(i, j, float64(rng.Intn(9)+1)); err != nil {
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
