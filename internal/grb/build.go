package grb

// BoolMatrixFromEdges builds an nrows × ncols boolean (0/1) matrix from an
// edge list, deduplicating parallel edges — the adjacency-matrix constructor
// used by generators and tests.
func BoolMatrixFromEdges(nrows, ncols int, src, dst []Index) (*Matrix, error) {
	vals := make([]float64, len(src))
	for i := range vals {
		vals[i] = 1
	}
	m := NewMatrix(nrows, ncols)
	if err := m.build(src, dst, vals, First); err != nil {
		return nil, err
	}
	return m, nil
}

// DenseVector returns a vector with every index set to x.
func DenseVector(n int, x float64) *Vector {
	v := NewVector(n)
	v.dense = true
	v.dval = make([]float64, n)
	v.dbits = newBitset(n)
	v.dbits.setAll(n)
	for i := range v.dval {
		v.dval[i] = x
	}
	v.nnz = n
	return v
}
