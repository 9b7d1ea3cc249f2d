package grb

// rowScratch is the reusable buffer a rowSource assembles merged rows into.
// Each kernel goroutine owns one; a row returned through it stays valid
// until the next srcRow call with the same scratch.
type rowScratch struct {
	ci []Index
	vv []float64
}

// rowSource abstracts the stored-matrix operand of a kernel: either a plain
// CSR matrix or a DeltaMatrix whose effective rows are merged
// from main/delta-plus/delta-minus on the fly. This is what lets read
// queries run kernels against a graph with buffered writes without folding.
type rowSource interface {
	srcDims() (nrows, ncols int)
	srcRow(i Index, buf *rowScratch) ([]Index, []float64)
}

func (m *Matrix) srcDims() (int, int) { return m.nrows, m.ncols }

// srcRow implements rowSource for a plain matrix: a zero-copy view of row i.
func (m *Matrix) srcRow(i Index, _ *rowScratch) ([]Index, []float64) {
	return m.rowView(i)
}
