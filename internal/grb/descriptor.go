package grb

import "redisgraph/internal/pool"

// Descriptor carries an operation's execution settings. The zero value (and
// a nil *Descriptor) runs the operation on the calling goroutine under the
// pool's background context.
type Descriptor struct {
	// NThreads bounds intra-operation parallelism, like SuiteSparse's
	// GxB_NTHREADS. 0 or 1 keeps the operation on the calling goroutine,
	// which is the RedisGraph one-core-per-query configuration.
	NThreads int
	// Sched tags every morsel this operation submits with the owning
	// query's scheduling context, so the shared pool's fair dispatcher can
	// attribute and balance work across concurrent queries. Nil falls back
	// to the pool's background context.
	Sched *pool.SchedCtx
}

func (d *Descriptor) nthreads() int {
	if d == nil || d.NThreads < 2 {
		return 1
	}
	return d.NThreads
}

func (d *Descriptor) sched() *pool.SchedCtx {
	if d == nil {
		return nil
	}
	return d.Sched
}
