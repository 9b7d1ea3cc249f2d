package grb

// Descriptor carries an operation's execution settings, in the GraphBLAS
// call shape. Every kernel runs on the calling goroutine: a query is never
// split across goroutines, so the settings are ignored. Its only non-test
// user is benchmark/trace.go, which builds one for MxMDelta, VxMDelta and
// VxMPull.
type Descriptor struct {
	// NThreads mirrors SuiteSparse's GxB_NTHREADS; kernels ignore it.
	NThreads int
}
