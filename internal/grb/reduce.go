package grb

// ReduceMatrixToVector computes w<mask> = accum(w, reduce-rows(A)) with the
// monoid (GrB_Matrix_reduce_Monoid). Descriptor TranA reduces columns.
func ReduceMatrixToVector(w *Vector, mask *Vector, accum *BinaryOp, m Monoid, a *Matrix, d *Descriptor) error {
	if w == nil || a == nil {
		return ErrNilObject
	}
	if d.tranA() {
		a = transposed(a)
	}
	if w.n != a.nrows {
		return dimErr("reduce: w %d, A has %d rows", w.n, a.nrows)
	}
	comp, structure := d.comp(), d.structure()
	t := NewVector(w.n)
	for i := 0; i < a.nrows; i++ {
		_, av := a.rowView(i)
		if len(av) == 0 {
			continue
		}
		if (mask != nil || comp) && !mask.maskAllows(i, comp, structure) {
			continue
		}
		acc := av[0]
		for _, x := range av[1:] {
			acc = m.Op.F(acc, x)
			if m.Terminal != nil && acc == *m.Terminal {
				break
			}
		}
		t.ind = append(t.ind, i)
		t.val = append(t.val, acc)
	}
	t.maybeDensify()
	mergeVector(w, mask, accum, t, d)
	return nil
}

// ReduceMatrixToScalar folds every entry of A with the monoid.
func ReduceMatrixToScalar(m Monoid, a *Matrix) float64 {
	acc := m.Identity
	for _, x := range a.val {
		acc = m.Op.F(acc, x)
		if m.Terminal != nil && acc == *m.Terminal {
			return acc
		}
	}
	return acc
}

// ReduceVectorToScalar folds every entry of u with the monoid.
func ReduceVectorToScalar(m Monoid, u *Vector) float64 {
	acc := m.Identity
	u.Iterate(func(_ Index, x float64) bool {
		acc = m.Op.F(acc, x)
		return m.Terminal == nil || acc != *m.Terminal
	})
	return acc
}
