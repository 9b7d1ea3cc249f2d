// Morsel scheduler: the per-process worker pool behind intra-query
// parallelism. Kernels and pipeline segments split their work into grained
// morsels (contiguous row ranges, whole pipeline segments) and submit them
// here instead of spawning goroutines per call — the morsel-driven execution
// model, sized once per process.
//
// A job distributes its morsels over per-participant deques. Each
// participant drains its own deque bottom-first (keeping adjacent ranges on
// one goroutine) and steals from the other deques top-first once it runs
// dry, so skewed morsel costs — power-law adjacency rows — rebalance without
// a central queue. The submitting goroutine always participates, which
// guarantees progress even when every pool worker is busy with other jobs,
// and makes nested submission (a segment running a parallel kernel) safe:
// the inner caller just drains its own job inline.
//
// The pool is multi-tenant: every job is tagged with the scheduling context
// (SchedCtx) of the query that submitted it, and idle workers assist the
// *least-served* active context first (deficit scheduling over accumulated
// worker nanos, with aging so a long-running query cannot starve newly
// arrived short ones). A global thread budget (SetBudget /
// GLOBAL_THREAD_BUDGET) caps how many pool workers assist concurrently
// across all queries; submitting callers always run regardless, so a budget
// of 1 degrades gracefully to caller-serial execution per query.
package pool

import (
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

// Parallelism is the morsel pool's participant budget: one per logical CPU,
// with a floor of 4 so the stealing and cross-goroutine merge paths stay
// exercised (and race-detectable) on small hosts — mild oversubscription
// there is harmless, silent serialisation is not.
func Parallelism() int {
	p := runtime.GOMAXPROCS(0)
	if p < 4 {
		p = 4
	}
	return p
}

// budgetKnob holds the raw GLOBAL_THREAD_BUDGET setting; 0 means "auto",
// resolved to GOMAXPROCS at read time so runtime changes are picked up.
var budgetKnob atomic.Int32

// SetBudget sets the global thread budget shared by all queries. n <= 0
// restores the default (GOMAXPROCS at read time). Raising the budget wakes
// any workers parked on it.
func SetBudget(n int) {
	if n < 0 {
		n = 0
	}
	budgetKnob.Store(int32(n))
	sched.mu.Lock()
	// The pool (and its cond) starts lazily with the first morsel job;
	// before that there are no parked workers to wake.
	if sched.cond != nil {
		sched.cond.Broadcast()
	}
	sched.mu.Unlock()
}

// Budget reports the resolved global thread budget. The default matches the
// pool's participant sizing — GOMAXPROCS with the same floor of 4 — so small
// hosts keep exercising the cross-goroutine steal and merge paths; an
// explicit SetBudget value is honoured exactly.
func Budget() int {
	if b := int(budgetKnob.Load()); b > 0 {
		return b
	}
	return Parallelism()
}

// activeQueries counts SchedCtxs between BeginQuery and End — the divisor
// for elastic per-query parallelism.
var activeQueries atomic.Int32

// EffectiveThreads resolves the thread count a query should actually plan
// and execute with right now: the requested (configured) count, clamped to
// its fair share of the global budget — budget divided by active queries,
// floor 1. With one active query this is min(requested, budget); under
// concurrent load per-query parallelism shrinks instead of oversubscribing.
func EffectiveThreads(requested int) int {
	if requested < 1 {
		requested = 1
	}
	b := Budget()
	a := int(activeQueries.Load())
	if a < 1 {
		a = 1
	}
	share := b / a
	if share < 1 {
		share = 1
	}
	if requested < share {
		return requested
	}
	return share
}

// ActiveQueries reports how many scheduling contexts are currently between
// BeginQuery and End.
func ActiveQueries() int {
	return int(activeQueries.Load())
}

// SchedCtx is one query's scheduling context. Every morsel job the query
// submits is tagged with it; the fair dispatcher uses the accumulated
// service time to pick which query idle workers assist next. Obtain one via
// BeginQuery and release it with End.
type SchedCtx struct {
	seq     int64        // arrival order, FIFO tie-break
	served  atomic.Int64 // total compute nanos spent on this query's morsels
	workers atomic.Int64 // nanos contributed by pool workers (excludes caller)
	morsels atomic.Int64 // morsels executed for this query
	stolen  atomic.Int64 // morsels executed by pool workers (vs the caller)

	// jobs with outstanding worker offers; guarded by sched.mu.
	jobs []*morselJob
	// waitingSince is when the context last transitioned to having pending
	// work (nanos); the aging credit subtracts it so queued contexts gain
	// priority the longer they wait. Guarded by sched.mu.
	waitingSince int64

	background bool // process-wide fallback context, not an active query
}

// WorkerNanos reports pool-worker time contributed to this query so far —
// PROFILE's scheduler accounting.
func (sc *SchedCtx) WorkerNanos() int64 { return sc.workers.Load() }

// ServedNanos reports total compute nanos (caller + workers) spent on this
// query's morsels.
func (sc *SchedCtx) ServedNanos() int64 { return sc.served.Load() }

// StolenMorsels reports how many of this query's morsels ran on pool
// workers rather than the submitting goroutine.
func (sc *SchedCtx) StolenMorsels() int64 { return sc.stolen.Load() }

// seqCounter hands out FIFO arrival order for contexts.
var seqCounter atomic.Int64

// BeginQuery registers a new scheduling context for one query execution.
// Pair with End.
func BeginQuery() *SchedCtx {
	sc := &SchedCtx{seq: seqCounter.Add(1)}
	activeQueries.Add(1)
	return sc
}

// End deregisters the context. Outstanding jobs have already completed by
// the time a query ends (ParallelCtx is synchronous), so this only drops
// the active-query count.
func (sc *SchedCtx) End() {
	if sc.background {
		return
	}
	activeQueries.Add(-1)
}

// backgroundCtx tags jobs submitted through the legacy Parallel entry point
// (tests, maintenance work). It is not an active query: it doesn't shrink
// other queries' effective thread share, and its ever-growing service total
// means real queries always win the fair pick while it still ages into
// service on an otherwise idle pool.
var backgroundCtx = &SchedCtx{background: true}

// sched is the central dispatcher state: contexts with outstanding worker
// offers, plus the count of pool workers currently assisting (the busy set
// the global budget caps).
var sched struct {
	mu      sync.Mutex
	cond    *sync.Cond
	pending []*SchedCtx // contexts with >= 1 job holding unclaimed offers
	busy    int         // pool workers currently running morsels
}

var (
	morselOnce    sync.Once
	morselWorkers int

	statStolen  atomic.Int64 // morsels run by pool workers, process-wide
	statCaller  atomic.Int64 // morsels run by submitting callers
	statWorkerT atomic.Int64 // pool-worker nanos, process-wide
)

// Stats is a snapshot of process-wide scheduler counters, reported by INFO's
// # Scheduler section.
type Stats struct {
	ActiveQueries int
	BusyWorkers   int
	Budget        int
	StolenMorsels int64
	CallerMorsels int64
	WorkerNanos   int64
}

// ReadStats snapshots the scheduler counters.
func ReadStats() Stats {
	sched.mu.Lock()
	busy := sched.busy
	sched.mu.Unlock()
	return Stats{
		ActiveQueries: ActiveQueries(),
		BusyWorkers:   busy,
		Budget:        Budget(),
		StolenMorsels: statStolen.Load(),
		CallerMorsels: statCaller.Load(),
		WorkerNanos:   statWorkerT.Load(),
	}
}

func startMorselPool() {
	morselOnce.Do(func() {
		morselWorkers = Parallelism()
		sched.cond = sync.NewCond(&sched.mu)
		// workers-1 pool goroutines; the submitting caller is the final
		// participant of its own job.
		for i := 1; i < morselWorkers; i++ {
			go workerLoop()
		}
	})
}

// assistBudget is how many pool workers may run morsels concurrently: the
// global budget minus one slot notionally reserved for the submitting
// caller, so GLOBAL_THREAD_BUDGET=1 means no worker assists and every query
// runs caller-serial.
func assistBudget() int {
	b := Budget() - 1
	if b < 0 {
		b = 0
	}
	return b
}

// pickFair selects the pending context with the lowest aged service time:
// accumulated served nanos minus the time the context has been waiting for
// a worker. New queries (served 0) win immediately; a heavily-served
// context regains priority as it ages in the queue, so long analytical
// queries and short lookups interleave instead of starving each other.
// FIFO arrival order breaks ties. Caller holds sched.mu.
func pickFair(now int64) *SchedCtx {
	var best *SchedCtx
	var bestKey int64
	for _, sc := range sched.pending {
		key := sc.served.Load() - (now - sc.waitingSince)
		if best == nil || key < bestKey || (key == bestKey && sc.seq < best.seq) {
			best, bestKey = sc, key
		}
	}
	return best
}

// takeOffer pops one worker offer from the context's FIFO job list,
// removing drained jobs and empty contexts from the pending set. Caller
// holds sched.mu.
func takeOffer(sc *SchedCtx) *morselJob {
	j := sc.jobs[0]
	j.offers--
	if j.offers == 0 {
		sc.jobs = sc.jobs[1:]
		if len(sc.jobs) == 0 {
			removePending(sc)
		}
	}
	return j
}

func removePending(sc *SchedCtx) {
	for i, p := range sched.pending {
		if p == sc {
			sched.pending = append(sched.pending[:i], sched.pending[i+1:]...)
			return
		}
	}
}

// workerLoop is one pool goroutine: wait until some context has unclaimed
// offers and the busy set is under the assist budget, pick the least-served
// context, run one participant share of its job, account the service time,
// repeat.
func workerLoop() {
	for {
		sched.mu.Lock()
		for len(sched.pending) == 0 || sched.busy >= assistBudget() {
			sched.cond.Wait()
		}
		sc := pickFair(time.Now().UnixNano())
		j := takeOffer(sc)
		sched.busy++
		sched.mu.Unlock()

		if slot := int(j.slots.Add(1)); slot < len(j.deques) {
			start := time.Now()
			j.run(slot, true)
			elapsed := time.Since(start).Nanoseconds()
			sc.served.Add(elapsed)
			sc.workers.Add(elapsed)
			statWorkerT.Add(elapsed)
		}

		sched.mu.Lock()
		sched.busy--
		if len(sched.pending) > 0 && sched.busy < assistBudget() {
			sched.cond.Signal()
		}
		sched.mu.Unlock()
	}
}

// morselJob is one parallel-for: n morsels block-distributed over
// per-participant deques, a completion count, and a done latch closed by
// whichever participant finishes the last morsel.
type morselJob struct {
	fn        func(i int)
	sc        *SchedCtx
	deques    []morselDeque
	slots     atomic.Int32 // participant slots claimed by pool workers
	remaining atomic.Int32 // morsels not yet completed
	done      chan struct{}
	offers    int // unclaimed worker offers; guarded by sched.mu
}

// morselDeque holds one participant's share of a job's morsel indices. The
// owner pops the tail, thieves take the head; a mutex suffices at morsel
// granularity (tens of pops per job, each guarding real kernel work).
type morselDeque struct {
	mu  sync.Mutex
	ids []int
}

func (d *morselDeque) popTail() (int, bool) {
	d.mu.Lock()
	n := len(d.ids)
	if n == 0 {
		d.mu.Unlock()
		return 0, false
	}
	i := d.ids[n-1]
	d.ids = d.ids[:n-1]
	d.mu.Unlock()
	return i, true
}

func (d *morselDeque) popHead() (int, bool) {
	d.mu.Lock()
	if len(d.ids) == 0 {
		d.mu.Unlock()
		return 0, false
	}
	i := d.ids[0]
	d.ids = d.ids[1:]
	d.mu.Unlock()
	return i, true
}

// run drains morsels as participant slot: own deque first, then stealing
// round-robin from the others, returning once no morsel remains claimable.
// worker distinguishes pool-worker participants from the submitting caller
// for the stolen-morsel accounting.
func (j *morselJob) run(slot int, worker bool) {
	p := len(j.deques)
	for {
		i, ok := j.deques[slot].popTail()
		for d := 1; !ok && d < p; d++ {
			i, ok = j.deques[(slot+d)%p].popHead()
		}
		if !ok {
			break
		}
		j.fn(i)
		// Count the morsel before completing it: the last completion closes
		// done, and ParallelCtx's caller may read the counters right after.
		j.sc.morsels.Add(1)
		if worker {
			j.sc.stolen.Add(1)
			statStolen.Add(1)
		} else {
			statCaller.Add(1)
		}
		if j.remaining.Add(-1) == 0 {
			close(j.done)
		}
	}
}

// Parallel runs fn(i) for every i in [0, n) under the process-wide
// background scheduling context. Kernel and executor paths should prefer
// ParallelCtx with the query's own context so the fair dispatcher can
// attribute and balance the work.
func Parallel(parallelism, n int, fn func(i int)) {
	ParallelCtx(nil, parallelism, n, fn)
}

// ParallelCtx runs fn(i) for every i in [0, n) and returns when all calls
// have completed, tagging the job with the query's scheduling context (nil
// falls back to the shared background context). Up to `parallelism`
// participants run concurrently: the caller plus pool workers granted by
// the fair dispatcher under the global thread budget. With parallelism <= 1
// (or a single morsel) every call runs inline on the caller — the
// zero-overhead path for per-query thread counts of 1. The done-latch close
// orders every fn's writes before ParallelCtx returns, so callers may read
// per-morsel results without further synchronisation.
func ParallelCtx(sc *SchedCtx, parallelism, n int, fn func(i int)) {
	if n <= 0 {
		return
	}
	if parallelism > n {
		parallelism = n
	}
	if parallelism <= 1 || n == 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	if sc == nil {
		sc = backgroundCtx
	}
	startMorselPool()
	if parallelism > morselWorkers {
		parallelism = morselWorkers
	}
	j := &morselJob{
		fn:     fn,
		sc:     sc,
		deques: make([]morselDeque, parallelism),
		done:   make(chan struct{}),
		offers: parallelism - 1,
	}
	j.remaining.Store(int32(n))
	// Block-distribute the indices: deque p owns the p-th contiguous run,
	// so each participant works a dense range while thieves chip at the far
	// end of loaded deques. One backing array serves every deque; pops only
	// re-slice.
	ids := make([]int, n)
	for i := range ids {
		ids[i] = i
	}
	for p := 0; p < parallelism; p++ {
		lo, hi := p*n/parallelism, (p+1)*n/parallelism
		j.deques[p].ids = ids[lo:hi:hi]
	}
	// Publish the job's worker offers under the query's context and wake
	// workers; the fair dispatcher hands them out least-served-first. The
	// caller drains whatever nobody claims, and a worker that picks the job
	// up after completion sees empty deques and moves on immediately.
	sched.mu.Lock()
	if len(sc.jobs) == 0 {
		sc.waitingSince = time.Now().UnixNano()
		sched.pending = append(sched.pending, sc)
	}
	sc.jobs = append(sc.jobs, j)
	sched.cond.Broadcast()
	sched.mu.Unlock()

	start := time.Now()
	j.run(0, false)
	<-j.done
	sc.served.Add(time.Since(start).Nanoseconds())

	// Retract any offers no worker claimed so completed jobs don't linger
	// in the dispatch queue.
	sched.mu.Lock()
	if j.offers > 0 {
		j.offers = 0
		for i, q := range sc.jobs {
			if q == j {
				sc.jobs = append(sc.jobs[:i], sc.jobs[i+1:]...)
				break
			}
		}
		if len(sc.jobs) == 0 {
			removePending(sc)
		}
	}
	sched.mu.Unlock()
}
