// Package grb is a pure-Go implementation of the GraphBLAS C API subset that
// RedisGraph depends on (SuiteSparse:GraphBLAS in the paper).
//
// It provides sparse matrices in CSR form, delta matrices (the one
// pending-update buffer: SuiteSparse's non-blocking mode, with
// DeltaMatrix.Sync as GrB_wait), sparse/dense dual-mode vectors, masks and
// descriptors, and the operations the engine and the benchmark harness
// call: BFS, masked MxM (push) and VxM (push and pull) over a delta operand,
// column selection and element-wise matrix add. Only code a binary runs is
// kept: the kernels are generic over the semiring, but AnyPair is the only
// one defined here; the tests define the others and check the kernels
// against a dense reference.
//
// Values are float64 throughout; boolean matrices store 1.0 and pair with
// the structural AnyPair semiring, whose kernels never inspect values, which
// is how adjacency traversals avoid per-entry function-call overhead.
//
// Concurrency: a Matrix holds no pending state, so once built it may be read
// by any number of goroutines without a lock; a DeltaMatrix's readers never
// fold either. Mutating calls (SetElement, Sync, a kernel writing its output)
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
