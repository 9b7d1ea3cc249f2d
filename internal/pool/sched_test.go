package pool

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestEffectiveThreads checks the elastic share: budget divided by active
// queries, floor 1, clamped to the requested count.
func TestEffectiveThreads(t *testing.T) {
	SetBudget(8)
	defer SetBudget(0)
	if got := EffectiveThreads(16); got != 8 {
		t.Fatalf("one active query: EffectiveThreads(16) = %d, want 8", got)
	}
	if got := EffectiveThreads(3); got != 3 {
		t.Fatalf("request below share: EffectiveThreads(3) = %d, want 3", got)
	}
	scs := make([]*SchedCtx, 4)
	for i := range scs {
		scs[i] = BeginQuery()
	}
	if got := EffectiveThreads(16); got != 2 {
		t.Fatalf("4 active queries, budget 8: EffectiveThreads(16) = %d, want 2", got)
	}
	for _, sc := range scs[1:] {
		sc.End()
	}
	// 1 active query again (scs[0] still live).
	if got := EffectiveThreads(16); got != 8 {
		t.Fatalf("after End: EffectiveThreads(16) = %d, want 8", got)
	}
	scs[0].End()
	SetBudget(1)
	for i := 0; i < 3; i++ {
		sc := BeginQuery()
		defer sc.End()
	}
	if got := EffectiveThreads(16); got != 1 {
		t.Fatalf("budget 1: EffectiveThreads(16) = %d, want 1 (floor)", got)
	}
}

// TestParallelCtxAccounting checks a tagged job attributes its service time
// and morsel counts to the submitting context.
func TestParallelCtxAccounting(t *testing.T) {
	sc := BeginQuery()
	defer sc.End()
	var sum atomic.Int64
	// No sleep in the morsels: the caller's share of ServedNanos spans the
	// whole job on the monotonic clock, so it is positive for any job.
	ParallelCtx(sc, 4, 64, func(i int) { sum.Add(int64(i)) })
	if want := int64(64 * 63 / 2); sum.Load() != want {
		t.Fatalf("sum = %d, want %d", sum.Load(), want)
	}
	if sc.ServedNanos() <= 0 {
		t.Fatalf("ServedNanos = %d, want > 0", sc.ServedNanos())
	}
	if sc.morsels.Load() != 64 {
		t.Fatalf("morsels = %d, want 64", sc.morsels.Load())
	}
	if sc.StolenMorsels()+sc.morsels.Load() < 64 {
		t.Fatalf("stolen %d exceeds morsel count", sc.StolenMorsels())
	}
}

// TestBudgetOneIsCallerSerial checks GLOBAL_THREAD_BUDGET=1 keeps pool
// workers out entirely: every morsel runs on the submitting goroutine.
func TestBudgetOneIsCallerSerial(t *testing.T) {
	SetBudget(1)
	defer SetBudget(0)
	sc := BeginQuery()
	defer sc.End()
	var ran atomic.Int32
	ParallelCtx(sc, 8, 100, func(i int) { ran.Add(1) })
	if ran.Load() != 100 {
		t.Fatalf("ran %d morsels, want 100", ran.Load())
	}
	if sc.StolenMorsels() != 0 {
		t.Fatalf("budget 1: %d morsels ran on pool workers, want 0", sc.StolenMorsels())
	}
}

// TestFairPickPrefersLeastServed checks the dispatcher's pick: a context
// with heavy accumulated service loses to a fresh one at equal age.
func TestFairPickPrefersLeastServed(t *testing.T) {
	heavy, light := BeginQuery(), BeginQuery()
	defer heavy.End()
	defer light.End()
	heavy.served.Store(int64(time.Second))
	now := time.Now().UnixNano()
	heavy.waitingSince, light.waitingSince = now, now
	sched.mu.Lock()
	sched.pending = append(sched.pending, heavy, light)
	got := pickFair(now)
	sched.pending = sched.pending[:len(sched.pending)-2]
	sched.mu.Unlock()
	if got != light {
		t.Fatalf("pickFair chose the heavily-served context")
	}
	// Aging: once the heavy context has waited long enough, it wins again.
	heavy.waitingSince = now - int64(2*time.Second)
	sched.mu.Lock()
	sched.pending = append(sched.pending, heavy, light)
	got = pickFair(now)
	sched.pending = sched.pending[:len(sched.pending)-2]
	sched.mu.Unlock()
	if got != heavy {
		t.Fatalf("aged context did not regain priority")
	}
}

// TestConcurrentTaggedJobs hammers the fair dispatcher with many contexts
// submitting at once; every job must complete exactly.
func TestConcurrentTaggedJobs(t *testing.T) {
	const queries, n = 16, 128
	var wg sync.WaitGroup
	sums := make([]int64, queries)
	for q := 0; q < queries; q++ {
		wg.Add(1)
		go func(q int) {
			defer wg.Done()
			sc := BeginQuery()
			defer sc.End()
			var sum atomic.Int64
			ParallelCtx(sc, 4, n, func(i int) { sum.Add(int64(i)) })
			sums[q] = sum.Load()
		}(q)
	}
	wg.Wait()
	want := int64(n * (n - 1) / 2)
	for q, got := range sums {
		if got != want {
			t.Fatalf("query %d: sum = %d, want %d", q, got, want)
		}
	}
}

// TestGateImmediateAdmission checks under-limit acquires admit without
// queueing, and that a limit below 1 is clamped to one permit.
func TestGateImmediateAdmission(t *testing.T) {
	g := NewGate(100)
	for i := 0; i < 100; i++ {
		if _, err := g.Acquire(0); err != nil {
			t.Fatalf("under-limit acquire %d rejected: %v", i, err)
		}
	}
	s := g.Snapshot()
	if s.Admitted != 100 || s.Rejected != 0 || s.QueuedTotal != 0 {
		t.Fatalf("under-limit stats: %+v", s)
	}
	b := NewGate(2)
	if _, err := b.Acquire(0); err != nil {
		t.Fatal(err)
	}
	if _, err := b.Acquire(0); err != nil {
		t.Fatal(err)
	}
	if _, err := b.Acquire(0); err != ErrBusy {
		t.Fatalf("saturated gate with no timeout: err = %v, want ErrBusy", err)
	}
	z := NewGate(0)
	if _, err := z.Acquire(0); err != nil {
		t.Fatalf("NewGate(0) has no permit: %v", err)
	}
	if _, err := z.Acquire(0); err != ErrBusy {
		t.Fatalf("NewGate(0) second acquire: err = %v, want ErrBusy (one permit)", err)
	}
	if l := z.Snapshot().Limit; l != 1 {
		t.Fatalf("NewGate(0) limit = %d, want 1", l)
	}
}

// TestGateFIFOAndRelease checks queued waiters are admitted in arrival
// order as slots free. Waiter 2 starts only once waiter 1 is queued, so the
// arrival order is fixed without timing.
func TestGateFIFOAndRelease(t *testing.T) {
	g := NewGate(1)
	if _, err := g.Acquire(0); err != nil {
		t.Fatal(err)
	}
	order := make(chan int, 2)
	for i := 1; i <= 2; i++ {
		go func(i int) {
			if _, err := g.Acquire(5 * time.Second); err != nil {
				t.Errorf("waiter %d rejected: %v", i, err)
				order <- -i
				return
			}
			order <- i
			g.Release()
		}(i)
		waitQueued(g, i)
	}
	g.Release()
	if first := <-order; first != 1 {
		t.Fatalf("first admitted waiter = %d, want 1 (FIFO)", first)
	}
	if second := <-order; second != 2 {
		t.Fatalf("second admitted waiter = %d, want 2", second)
	}
}

// waitQueued yields until n acquirers wait in g's queue.
func waitQueued(g *Gate, n int) {
	for g.Snapshot().QueuedNow < n {
		runtime.Gosched()
	}
}

// TestGateTimeoutBusy checks the queue-wait deadline fails fast with
// ErrBusy and the slot is reclaimed from the queue.
func TestGateTimeoutBusy(t *testing.T) {
	g := NewGate(1)
	if _, err := g.Acquire(0); err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	if _, err := g.Acquire(30 * time.Millisecond); err != ErrBusy {
		t.Fatalf("err = %v, want ErrBusy", err)
	}
	if waited := time.Since(start); waited > 5*time.Second {
		t.Fatalf("timeout took %v", waited)
	}
	s := g.Snapshot()
	if s.Rejected != 1 || s.QueuedNow != 0 {
		t.Fatalf("after timeout: %+v", s)
	}
	// Releasing now admits a fresh acquire immediately.
	g.Release()
	if _, err := g.Acquire(0); err != nil {
		t.Fatalf("post-release acquire: %v", err)
	}
}
