package grb

// EWiseAddMatrix sets C to the pattern union of A and B: an entry of 1
// wherever either holds one. C's previous contents are replaced, and C may be
// A or B. The graph folds relation matrices into a multi-type traversal
// operand with it; nothing reads the union's values.
func EWiseAddMatrix(c, a, b *Matrix) error {
	if c == nil || a == nil || b == nil {
		return ErrNilObject
	}
	if a.nrows != b.nrows || a.ncols != b.ncols {
		return dimErr("ewiseadd: A %dx%d, B %dx%d", a.nrows, a.ncols, b.nrows, b.ncols)
	}
	if c.nrows != a.nrows || c.ncols != a.ncols {
		return dimErr("ewiseadd: C %dx%d, want %dx%d", c.nrows, c.ncols, a.nrows, a.ncols)
	}
	rp := make([]int, a.nrows+1)
	ci := make([]Index, 0, max(len(a.colInd), len(b.colInd)))
	for i := 0; i < a.nrows; i++ {
		ac, _ := a.rowView(i)
		bc, _ := b.rowView(i)
		x, y := 0, 0
		for x < len(ac) && y < len(bc) {
			switch {
			case ac[x] < bc[y]:
				ci = append(ci, ac[x])
				x++
			case bc[y] < ac[x]:
				ci = append(ci, bc[y])
				y++
			default:
				ci = append(ci, ac[x])
				x++
				y++
			}
		}
		ci = append(append(ci, ac[x:]...), bc[y:]...)
		rp[i+1] = len(ci)
	}
	c.rowPtr, c.colInd, c.val = rp, ci, ones(len(ci))
	return nil
}
