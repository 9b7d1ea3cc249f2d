package grb

// VectorAssignScalar computes w<mask>(I) = accum(w(I), x): every selected
// (and mask-permitted) position receives the scalar. A nil I targets every
// index. BFS uses this to stamp levels onto the visited vector.
func VectorAssignScalar(w *Vector, mask *Vector, accum *BinaryOp, x float64, i []Index, d *Descriptor) error {
	if w == nil {
		return ErrNilObject
	}
	comp, structure := d.comp(), d.structure()
	apply := func(dst Index) error {
		if dst < 0 || dst >= w.n {
			return boundsErr("assign index %d size %d", dst, w.n)
		}
		if mask != nil || comp {
			if !mask.maskAllows(dst, comp, structure) {
				return nil
			}
		}
		if accum != nil {
			if old, ok := w.get(dst); ok {
				return w.SetElement(dst, accum.F(old, x))
			}
		}
		return w.SetElement(dst, x)
	}
	if i == nil {
		// Dense scalar expansion under mask.
		if mask != nil && !comp && !d.replace() {
			// Fast path: only masked positions change.
			var err error
			mask.Iterate(func(idx Index, mv float64) bool {
				if structure || mv != 0 {
					err = apply(idx)
				}
				return err == nil
			})
			return err
		}
		for dst := 0; dst < w.n; dst++ {
			if err := apply(dst); err != nil {
				return err
			}
		}
		if d.replace() {
			return clearOutsideMask(w, mask, comp, structure)
		}
		return nil
	}
	for _, dst := range i {
		if err := apply(dst); err != nil {
			return err
		}
	}
	if d.replace() {
		return clearOutsideMask(w, mask, comp, structure)
	}
	return nil
}

func clearOutsideMask(w *Vector, mask *Vector, comp, structure bool) error {
	var drop []Index
	w.Iterate(func(idx Index, _ float64) bool {
		if !mask.maskAllows(idx, comp, structure) {
			drop = append(drop, idx)
		}
		return true
	})
	for _, idx := range drop {
		if err := w.removeElement(idx); err != nil {
			return err
		}
	}
	return nil
}
