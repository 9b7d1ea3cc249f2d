package grb

import "redisgraph/internal/pool"

// Descriptor modifies operation behaviour, mirroring GrB_Descriptor fields.
// The zero value (and a nil *Descriptor) means default behaviour.
type Descriptor struct {
	// Replace clears the output object before the masked result is written
	// (GrB_REPLACE). Without it, entries outside the mask are kept.
	Replace bool
	// Comp complements the mask (GrB_COMP): the operation writes where the
	// mask has NO entry / a zero value.
	Comp bool
	// Structure uses the mask's pattern and ignores its values (GrB_STRUCTURE).
	Structure bool
	// TranA / TranB transpose the first / second input (GrB_INP0, GrB_INP1).
	TranA bool
	TranB bool
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

func (d *Descriptor) replace() bool {
	return d != nil && d.Replace
}

func (d *Descriptor) comp() bool {
	return d != nil && d.Comp
}

func (d *Descriptor) structure() bool {
	return d != nil && d.Structure
}

func (d *Descriptor) tranA() bool {
	return d != nil && d.TranA
}

func (d *Descriptor) tranB() bool {
	return d != nil && d.TranB
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
