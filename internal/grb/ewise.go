package grb

// EWiseAddMatrix computes C<Mask> = accum(C, A ⊕ B) over the union pattern.
// Descriptor TranA/TranB transpose the inputs. RedisGraph uses this to fold
// per-relation matrices into the combined adjacency matrix.
func EWiseAddMatrix(c *Matrix, mask *Matrix, accum *BinaryOp, op BinaryOp, a, b *Matrix, d *Descriptor) error {
	if c == nil || a == nil || b == nil {
		return ErrNilObject
	}
	if d.tranA() {
		a = transposed(a)
	}
	if d.tranB() {
		b = transposed(b)
	}
	if a.nrows != b.nrows || a.ncols != b.ncols {
		return dimErr("ewiseadd: A %dx%d, B %dx%d", a.nrows, a.ncols, b.nrows, b.ncols)
	}
	if c.nrows != a.nrows || c.ncols != a.ncols {
		return dimErr("ewiseadd: C %dx%d, want %dx%d", c.nrows, c.ncols, a.nrows, a.ncols)
	}
	comp, structure := d.comp(), d.structure()
	t := NewMatrix(c.nrows, c.ncols)
	for i := 0; i < a.nrows; i++ {
		ac, av := a.rowView(i)
		bc, bv := b.rowView(i)
		x, y := 0, 0
		push := func(j Index, v float64) {
			if (mask != nil || comp) && !mask.maskAllowsM(i, j, comp, structure) {
				return
			}
			t.colInd = append(t.colInd, j)
			t.val = append(t.val, v)
		}
		for x < len(ac) || y < len(bc) {
			switch {
			case y >= len(bc) || (x < len(ac) && ac[x] < bc[y]):
				push(ac[x], av[x])
				x++
			case x >= len(ac) || bc[y] < ac[x]:
				push(bc[y], bv[y])
				y++
			default:
				push(ac[x], op.F(av[x], bv[y]))
				x++
				y++
			}
		}
		t.rowPtr[i+1] = len(t.colInd)
	}
	mergeMatrix(c, mask, accum, t, d)
	return nil
}
