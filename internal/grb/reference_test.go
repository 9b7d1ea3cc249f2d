package grb

import (
	"math"
	"math/rand"
	"slices"
	"testing"
)

// Dense reference implementations the sparse kernels are checked against.

// Operators, monoids, semirings and descriptor presets only the tests use.
// The engine runs AnyPair alone, but the kernels are generic over the
// semiring, mask and accumulator; these pin that generality against the
// dense reference.
var (
	Plus   = BinaryOp{"plus", func(x, y float64) float64 { return x + y }}
	Times  = BinaryOp{"times", func(x, y float64) float64 { return x * y }}
	Min    = BinaryOp{"min", func(x, y float64) float64 { return min(x, y) }}
	Max    = BinaryOp{"max", func(x, y float64) float64 { return max(x, y) }}
	First  = BinaryOp{"first", func(x, _ float64) float64 { return x }}
	Second = BinaryOp{"second", func(_, y float64) float64 { return y }}
	LAnd   = BinaryOp{"land", func(x, y float64) float64 { return b2f(x != 0 && y != 0) }}

	PlusMonoid = Monoid{Op: Plus, Identity: 0}
	MinMonoid  = Monoid{Op: Min, Identity: math.Inf(1), Terminal: term(math.Inf(-1))}
	MaxMonoid  = Monoid{Op: Max, Identity: math.Inf(-1), Terminal: term(math.Inf(1))}

	PlusTimes  = Semiring{Name: "plus_times", Add: PlusMonoid, Mul: Times}
	LorLand    = Semiring{Name: "lor_land", Add: LOrMonoid, Mul: LAnd, Structural: true}
	PlusPair   = Semiring{Name: "plus_pair", Add: PlusMonoid, Mul: Pair}
	MinPlus    = Semiring{Name: "min_plus", Add: MinMonoid, Mul: Plus}
	MaxPlus    = Semiring{Name: "max_plus", Add: MaxMonoid, Mul: Plus}
	MinFirst   = Semiring{Name: "min_first", Add: MinMonoid, Mul: First}
	MinSecond  = Semiring{Name: "min_second", Add: MinMonoid, Mul: Second}
	PlusFirst  = Semiring{Name: "plus_first", Add: PlusMonoid, Mul: First}
	PlusSecond = Semiring{Name: "plus_second", Add: PlusMonoid, Mul: Second}

	DescT0  = &Descriptor{TranA: true}
	DescT1  = &Descriptor{TranB: true}
	DescS   = &Descriptor{Structure: true}
	DescRSC = &Descriptor{Replace: true, Structure: true, Comp: true}
)

// mxm and vxm run the delta kernels with a plain B operand wrapped as a
// clean delta matrix, the shape every engine call sees between syncs.
func mxm(c, mask *Matrix, accum *BinaryOp, s Semiring, a, b *Matrix, d *Descriptor) error {
	return MxMDelta(c, mask, accum, s, a, DeltaFrom(b), d)
}

func vxm(w, mask *Vector, accum *BinaryOp, s Semiring, u *Vector, a *Matrix, d *Descriptor) error {
	return VxMDelta(w, mask, accum, s, u, DeltaFrom(a), d)
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
	d := newDense(m.nrows, m.ncols)
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

// denseVxM is the reference u'·A: entry j folds u(k) ⊗ A(k, j) over every k
// where both are present, with u(k) on the left.
func denseVxM(u *Vector, a *dense, s Semiring) map[Index]float64 {
	out := map[Index]float64{}
	for j := 0; j < a.nc; j++ {
		acc, found := s.Add.Identity, false
		for k := 0; k < a.nr; k++ {
			av, aok := a.at(k, j)
			uv, uok := u.get(k)
			if !aok || !uok {
				continue
			}
			m := s.Mul.F(uv, av)
			if s.Structural {
				m = 1
			}
			if !found {
				acc, found = m, true
			} else {
				acc = s.Add.Op.F(acc, m)
			}
		}
		if found {
			out[j] = acc
		}
	}
	return out
}

func expectVecEq(t *testing.T, got *Vector, want map[Index]float64) {
	t.Helper()
	if got.NVals() != len(want) {
		ind, val := got.extractTuples()
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
