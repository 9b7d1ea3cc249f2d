package grb

// merge.go implements the C<M> = accum(C, T) write-back semantics shared by
// every GraphBLAS operation. Kernels compute T restricted to the mask
// (entries at positions the mask forbids are never produced), then call
// mergeVector / mergeMatrix to combine T with the existing contents of the
// output under the mask, accumulator and REPLACE descriptor.

// mergeVector writes t into w.
// t must already be mask-restricted.
func mergeVector(w *Vector, mask *Vector, accum *BinaryOp, t *Vector, d *Descriptor) {
	comp, structure, replace := d.comp(), d.structure(), d.replace()
	noMask := mask == nil && !comp
	if noMask && accum == nil {
		// Unmasked, no accumulator: w is simply replaced by t.
		*w = *t
		return
	}
	out := NewVector(w.n)
	out.ind = make([]Index, 0, w.NVals()+t.NVals())
	out.val = make([]float64, 0, w.NVals()+t.NVals())

	wi, wv := w.extractTuples()
	ti, tv := t.extractTuples()
	a, b := 0, 0
	push := func(i Index, x float64) {
		out.ind = append(out.ind, i)
		out.val = append(out.val, x)
	}
	for a < len(wi) || b < len(ti) {
		switch {
		case b >= len(ti) || (a < len(wi) && wi[a] < ti[b]):
			// Entry only in old w.
			i := wi[a]
			allowed := mask.maskAllows(i, comp, structure)
			if allowed {
				// In the masked (writable) region: with an accumulator the
				// old entry survives; without, it is overwritten by T which
				// has no entry here, so it is deleted.
				if accum != nil {
					push(i, wv[a])
				}
			} else if !replace {
				push(i, wv[a])
			}
			a++
		case a >= len(wi) || ti[b] < wi[a]:
			// Entry only in t (t is already mask-restricted).
			push(ti[b], tv[b])
			b++
		default:
			// Present in both.
			i := wi[a]
			if accum != nil {
				push(i, accum.F(wv[a], tv[b]))
			} else {
				push(i, tv[b])
			}
			a++
			b++
		}
	}
	out.maybeDensify()
	*w = *out
}

// mergeMatrix writes t into c, row by row, with the same semantics.
func mergeMatrix(c *Matrix, mask *Matrix, accum *BinaryOp, t *Matrix, d *Descriptor) {
	comp, structure, replace := d.comp(), d.structure(), d.replace()
	noMask := mask == nil && !comp
	if noMask && accum == nil {
		c.rowPtr, c.colInd, c.val = t.rowPtr, t.colInd, t.val
		return
	}
	rp := make([]int, c.nrows+1)
	var ci []Index
	var vv []float64
	for i := 0; i < c.nrows; i++ {
		rp[i] = len(ci)
		cc, cval := c.rowView(i)
		tc, tval := t.rowView(i)
		a, b := 0, 0
		for a < len(cc) || b < len(tc) {
			switch {
			case b >= len(tc) || (a < len(cc) && cc[a] < tc[b]):
				j := cc[a]
				allowed := mask.maskAllowsM(i, j, comp, structure)
				if allowed {
					if accum != nil {
						ci = append(ci, j)
						vv = append(vv, cval[a])
					}
				} else if !replace {
					ci = append(ci, j)
					vv = append(vv, cval[a])
				}
				a++
			case a >= len(cc) || tc[b] < cc[a]:
				ci = append(ci, tc[b])
				vv = append(vv, tval[b])
				b++
			default:
				j := cc[a]
				ci = append(ci, j)
				if accum != nil {
					vv = append(vv, accum.F(cval[a], tval[b]))
				} else {
					vv = append(vv, tval[b])
				}
				a++
				b++
			}
		}
	}
	rp[c.nrows] = len(ci)
	c.rowPtr, c.colInd, c.val = rp, ci, vv
}
