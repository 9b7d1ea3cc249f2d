// Package grb is a pure-Go implementation of the GraphBLAS C API subset that
// RedisGraph depends on (SuiteSparse:GraphBLAS in the paper).
//
// It provides sparse matrices in CSR form, delta matrices (the one
// pending-update buffer: SuiteSparse's non-blocking mode, with
// DeltaMatrix.Sync as GrB_wait), sparse/dense dual-mode vectors, and the
// operations the engine and the benchmark harness call: BFS and MxMParts
// (MxMDelta for one part) over a list of delta matrices whose union is the
// operand, VxMDelta/VxMPull (push and pull) over one delta operand, and
// column selection.
//
// Every product is structural, over the AnyPair semiring: an output entry is
// 1 wherever some A(i, k) meets some B(k, j), and a kernel stops at the first
// witness without reading a value. No product takes a mask, an accumulator
// or an input transpose; each replaces its output. Matrix values are float64:
// structure matrices store 1.0, a relation matrix its edge IDs.
//
// Every kernel runs on the calling goroutine: a query is never split across
// goroutines, and a Descriptor's thread count is ignored. Concurrency comes
// from concurrent queries: a Matrix holds no pending state, so once built it
// may be read by any number of goroutines without a lock; a DeltaMatrix's
// readers never fold either. Mutating calls (SetElement, Sync, a kernel writing its output)
// are not goroutine-safe: the graph layer runs them under its write lock.
package grb

import (
	"errors"
	"fmt"
)

// Index is the type of row/column indices. GraphBLAS uses uint64; int keeps
// Go slice indexing natural and is wide enough for any in-memory graph here.
type Index = int

// Errors mirror the GrB_Info failure codes that callers can act on.
var (
	ErrDimensionMismatch = errors.New("grb: dimension mismatch")
	ErrIndexOutOfBounds  = errors.New("grb: index out of bounds")
	ErrNoValue           = errors.New("grb: no entry at index")
	ErrNilObject         = errors.New("grb: nil object")
	ErrInvalidValue      = errors.New("grb: invalid value")
)

func dimErr(format string, args ...any) error {
	return fmt.Errorf("%w: %s", ErrDimensionMismatch, fmt.Sprintf(format, args...))
}

func boundsErr(format string, args ...any) error {
	return fmt.Errorf("%w: %s", ErrIndexOutOfBounds, fmt.Sprintf(format, args...))
}
