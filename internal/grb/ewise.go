package grb

// EWiseAddMatrix sets C to the pattern union of its parts: an entry of 1
// wherever any part holds one. Each row is merged once across all the parts,
// so every union entry is written once however many parts there are. C's
// previous contents are replaced, and C may be one of the parts. The graph
// folds relation matrices into a multi-type or undirected traversal operand
// with it; nothing reads the union's values.
func EWiseAddMatrix(c *Matrix, parts ...*Matrix) error {
	if c == nil {
		return ErrNilObject
	}
	nnz := 0
	for _, p := range parts {
		if p == nil {
			return ErrNilObject
		}
		if p.nrows != c.nrows || p.ncols != c.ncols {
			return dimErr("ewiseadd: part %dx%d, C %dx%d", p.nrows, p.ncols, c.nrows, c.ncols)
		}
		nnz += len(p.colInd)
	}
	rp := make([]int, c.nrows+1)
	ci := make([]Index, 0, nnz)
	live := make([][]Index, 0, len(parts)) // the current row's non-empty remainders
	for i := 0; i < c.nrows; i++ {
		live = live[:0]
		for _, p := range parts {
			if r, _ := p.rowView(i); len(r) > 0 {
				live = append(live, r)
			}
		}
		for len(live) > 1 {
			j := live[0][0]
			for _, r := range live[1:] {
				j = min(j, r[0])
			}
			ci = append(ci, j)
			k := 0
			for _, r := range live {
				if r[0] == j {
					r = r[1:]
				}
				if len(r) > 0 {
					live[k] = r
					k++
				}
			}
			live = live[:k]
		}
		if len(live) == 1 {
			ci = append(ci, live[0]...)
		}
		rp[i+1] = len(ci)
	}
	c.rowPtr, c.colInd, c.val = rp, ci, ones(len(ci))
	return nil
}
