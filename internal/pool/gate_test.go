package pool

import (
	"runtime"
	"testing"
	"time"
)

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
