package grb

// ApplyMatrix computes C<Mask> = accum(C, f(A)).
func ApplyMatrix(c *Matrix, mask *Matrix, accum *BinaryOp, f UnaryOp, a *Matrix, d *Descriptor) error {
	if c == nil || a == nil {
		return ErrNilObject
	}
	if d.tranA() {
		a = transposed(a)
	}
	if c.nrows != a.nrows || c.ncols != a.ncols {
		return dimErr("apply: C %dx%d, A %dx%d", c.nrows, c.ncols, a.nrows, a.ncols)
	}
	comp, structure := d.comp(), d.structure()
	t := NewMatrix(c.nrows, c.ncols)
	for i := 0; i < a.nrows; i++ {
		ac, av := a.rowView(i)
		for k, j := range ac {
			if mask == nil && !comp || mask.maskAllowsM(i, j, comp, structure) {
				t.colInd = append(t.colInd, j)
				t.val = append(t.val, f.F(av[k]))
			}
		}
		t.rowPtr[i+1] = len(t.colInd)
	}
	mergeMatrix(c, mask, accum, t, d)
	return nil
}

// ApplyBindSecond computes w<mask> = accum(w, f(u, scalar)) entry-wise, a
// GxB bind-second apply.
func ApplyBindSecond(w *Vector, mask *Vector, accum *BinaryOp, f BinaryOp, u *Vector, scalar float64, d *Descriptor) error {
	if w == nil || u == nil {
		return ErrNilObject
	}
	if w.n != u.n {
		return dimErr("apply: w %d, u %d", w.n, u.n)
	}
	comp, structure := d.comp(), d.structure()
	t := NewVector(w.n)
	u.Iterate(func(i Index, x float64) bool {
		if mask == nil && !comp || mask.maskAllows(i, comp, structure) {
			t.ind = append(t.ind, i)
			t.val = append(t.val, f.F(x, scalar))
		}
		return true
	})
	t.maybeDensify()
	mergeVector(w, mask, accum, t, d)
	return nil
}

// SelectMatrix computes C<Mask> = accum(C, A keeping entries where pred ≠ 0).
// Tril/Triu selection is how the triangle-counting algorithm derives L and U.
func SelectMatrix(c *Matrix, mask *Matrix, accum *BinaryOp, pred IndexUnaryOp, a *Matrix, d *Descriptor) error {
	if c == nil || a == nil {
		return ErrNilObject
	}
	if d.tranA() {
		a = transposed(a)
	}
	if c.nrows != a.nrows || c.ncols != a.ncols {
		return dimErr("select: C %dx%d, A %dx%d", c.nrows, c.ncols, a.nrows, a.ncols)
	}
	comp, structure := d.comp(), d.structure()
	t := NewMatrix(c.nrows, c.ncols)
	for i := 0; i < a.nrows; i++ {
		ac, av := a.rowView(i)
		for k, j := range ac {
			if pred.F(i, j, av[k]) == 0 {
				continue
			}
			if mask == nil && !comp || mask.maskAllowsM(i, j, comp, structure) {
				t.colInd = append(t.colInd, j)
				t.val = append(t.val, av[k])
			}
		}
		t.rowPtr[i+1] = len(t.colInd)
	}
	mergeMatrix(c, mask, accum, t, d)
	return nil
}
