package core

import (
	"time"

	"redisgraph/internal/graph"
	"redisgraph/internal/grb"
	"redisgraph/internal/pool"
	"redisgraph/internal/value"
)

// execCtx carries per-query execution state.
type execCtx struct {
	g      *graph.Graph
	params map[string]value.Value
	desc   *grb.Descriptor
	stats  *Statistics
	// mut mediates the exclusive-lock bursts write operations wrap around
	// their graph mutations.
	mut mutLocker
	// parts holds the matrix lists operand resolves, one per direction, so
	// a var-length hop holds its operand and the transpose at once.
	parts [2][]*grb.DeltaMatrix
	// batch, when non-zero, overrides the pipeline batch size
	// (Config.TraverseBatch); 1 forces tuple-at-a-time execution.
	batch int
	// threads is the resolved per-query thread budget (Config.OpThreads,
	// >= 1). It widens automatic batch sizes so morselised kernels see
	// enough frontier rows, and is 1 inside parallel pipeline segments.
	threads int
	// kernel selects the traversal kernel direction (Config.TraverseKernel):
	// density-adaptive per hop by default, forced for differential baselines.
	kernel kernelMode
	// deadline, when non-zero, aborts long queries (the benchmark's timeout
	// guard; the paper reports RedisGraph had none on the large graphs).
	deadline time.Time
	// sched is the query's pool scheduling context (nil under
	// FAIR_SCHEDULER 0): pipeline segments and kernel morsels submitted
	// through it are attributed to this query by the fair dispatcher.
	sched *pool.SchedCtx
}

// operand resolves an algebraic operand — with transpose set, its
// transpose — under the lock the query already holds, into a list the
// context owns and reuses: valid until the next call with the same
// transpose flag. An empty list means none of the operand's names exists:
// no entries.
func (ctx *execCtx) operand(op *algebraicOperand, transpose bool) []*grb.DeltaMatrix {
	t := 0
	if transpose {
		t = 1
	}
	ctx.parts[t] = op.parts(ctx.g, transpose, ctx.parts[t][:0])
	return ctx.parts[t]
}

// mutLocker brackets the mutation bursts of a write query. Under concurrent
// execution the query rests on the shared lock and each burst upgrades to
// the exclusive lock (BeginMutation/EndMutation); under coarse locking the
// whole query already holds the exclusive lock and the brackets are no-ops.
type mutLocker struct {
	g          *graph.Graph
	concurrent bool
}

func (l *mutLocker) begin() {
	if l.concurrent {
		l.g.BeginMutation()
	}
}

func (l *mutLocker) end() {
	if l.concurrent {
		l.g.EndMutation()
	}
}

func (ctx *execCtx) expired() bool {
	return !ctx.deadline.IsZero() && time.Now().After(ctx.deadline)
}

// batchSize is the effective pipeline batch size: the number of records an
// operation aims to put in each batch it produces. Config.TraverseBatch
// overrides the default; 1 is tuple-at-a-time execution — one-row batches
// and frontiers through the same operators (the differential tests'
// baseline).
func (ctx *execCtx) batchSize() int {
	if ctx.batch > 0 {
		return ctx.batch
	}
	return scaledBatch(defaultTraverseBatch, ctx.threads)
}

// traverseBatch resolves the effective frontier batch size for a traversal
// operation planned with the given default.
func (ctx *execCtx) traverseBatch(planned int) int {
	bs := planned
	if ctx.batch != 0 {
		bs = ctx.batch
	} else {
		bs = scaledBatch(bs, ctx.threads)
	}
	if bs < 1 {
		bs = 1
	}
	return bs
}

// maxAutoBatch caps the thread-scaled automatic batch size; past ~1k rows
// the frontier stops fitting comfortably in cache and wider batches stop
// paying for themselves.
const maxAutoBatch = 1024

// scaledBatch widens an automatic batch size by the query's thread budget:
// the morselised kernels split frontier rows across workers, so the default
// 64-row batch would leave most of a multi-thread budget idle. Explicit
// TRAVERSE_BATCH settings are never scaled.
func scaledBatch(base, threads int) int {
	if threads <= 1 {
		return base
	}
	bs := base * threads
	if bs > maxAutoBatch {
		bs = maxAutoBatch
	}
	return bs
}

// forWorker derives the execution context for one parallel pipeline segment:
// private operand lists (operand reuses them) and a single-threaded kernel
// descriptor — the segments themselves are the
// query's parallelism. Segments only exist in read-only plans
// (parallelizePlan refuses writes), so sharing the graph, params, stats and
// deadline by value is safe.
func (ctx *execCtx) forWorker() *execCtx {
	c := *ctx
	c.parts = [2][]*grb.DeltaMatrix{}
	c.desc = &grb.Descriptor{NThreads: 1, Sched: ctx.sched}
	c.threads = 1
	return &c
}

// planNode is one immutable node of a query plan: what the planner builds,
// the plan cache stores and EXPLAIN prints. Nothing writes a node once plan
// construction (buildPlanOpts, including the parallel-segment decision) has
// returned, so any number of concurrent executions share one tree.
type planNode interface {
	// name is the node's display name for EXPLAIN/PROFILE.
	name() string
	// args describes the planned parameters for EXPLAIN.
	args() string
	// children returns the input nodes (for plan printing and walking).
	children() []planNode
}

// unary is the base of every node with at most one input.
type unary struct{ child planNode }

func (u *unary) children() []planNode {
	if u.child == nil {
		return nil
	}
	return []planNode{u.child}
}

// input exposes the link parallelizePlan splices its merge node into while
// the plan is still under construction.
func (u *unary) input() *unary { return u }

// operation is a running op: the per-execution state of one plan node (pull
// buffers, arenas, memos, done flags) plus a pointer to the node it runs.
// instantiate builds a fresh tree of them per execution. Every hot operation
// produces and consumes whole record batches so that frontier matrices
// coming out of the algebraic traversals are never re-serialised into
// per-record pulls.
type operation interface {
	// nextBatch returns the next non-empty batch of records, or nil when
	// depleted. Implementations loop internally rather than returning empty
	// batches.
	nextBatch(ctx *execCtx) (recordBatch, error)
}

// profileDescriber is implemented by running ops whose PROFILE line carries
// what only execution knows: the effective batch size and kernel mix of a
// traversal, the summed worker time of a parallel merge.
type profileDescriber interface {
	profileArgs() string
}

// batchPuller lets an operation consume its batch-producing child one record
// at a time (traversal gather loops, scans re-priming per child record).
type batchPuller struct {
	buf recordBatch
	pos int
}

func (p *batchPuller) pull(ctx *execCtx, from operation) (record, error) {
	for {
		if p.pos < len(p.buf) {
			r := p.buf[p.pos]
			p.buf[p.pos] = nil
			p.pos++
			return r, nil
		}
		b, err := from.nextBatch(ctx)
		if err != nil || b == nil {
			return nil, err
		}
		p.buf, p.pos = b, 0
	}
}

// profiledOp decorates a running op with record/time accounting
// (GRAPH.PROFILE). Records are accounted per batch: the rows-per-op counts
// stay identical to the tuple-at-a-time engine's.
type profiledOp struct {
	inner   operation
	records int
	elapsed time.Duration
}

func (p *profiledOp) nextBatch(ctx *execCtx) (recordBatch, error) {
	start := time.Now()
	b, err := p.inner.nextBatch(ctx)
	p.elapsed += time.Since(start)
	p.records += len(b)
	return b, err
}
