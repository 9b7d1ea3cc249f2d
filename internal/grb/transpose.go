package grb

// transposed returns A' as a new materialised matrix using a counting sort,
// O(nnz + nrows + ncols).
func transposed(a *Matrix) *Matrix {
	t := NewMatrix(a.ncols, a.nrows)
	nnz := len(a.colInd)
	t.colInd = make([]Index, nnz)
	t.val = make([]float64, nnz)
	// Count entries per output row (input column).
	for _, j := range a.colInd {
		t.rowPtr[j+1]++
	}
	for i := 0; i < t.nrows; i++ {
		t.rowPtr[i+1] += t.rowPtr[i]
	}
	next := append([]int(nil), t.rowPtr[:t.nrows]...)
	for i := 0; i < a.nrows; i++ {
		for k := a.rowPtr[i]; k < a.rowPtr[i+1]; k++ {
			j := a.colInd[k]
			p := next[j]
			next[j]++
			t.colInd[p] = i
			t.val[p] = a.val[k]
		}
	}
	return t
}
