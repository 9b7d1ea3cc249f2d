package pool

import (
	"errors"
	"sync"
	"sync/atomic"
	"time"
)

// ErrBusy is returned by Gate.Acquire when every permit is held and the
// queue-wait deadline expires before one frees. The server surfaces it as a
// Redis -BUSY error so clients can back off and retry instead of stacking
// up behind an overloaded server.
var ErrBusy = errors.New("BUSY max concurrent queries reached and queue wait exceeded the admission timeout")

// Gate is the inter-query admission control: a fixed number of permits with
// FIFO queueing. Queries past the limit wait in arrival order up to a
// per-query deadline, then fail fast with ErrBusy — bounded queueing instead
// of unbounded pile-up.
type Gate struct {
	mu       sync.Mutex
	limit    int
	inflight int
	queue    []*gateWaiter

	admitted    atomic.Int64 // queries admitted (immediately or after queueing)
	queuedTotal atomic.Int64 // queries that had to queue
	rejected    atomic.Int64 // queries that timed out waiting
}

type gateWaiter struct {
	ready   chan struct{}
	granted bool // set under Gate.mu before ready is closed
}

// NewGate returns a gate with limit permits (limit < 1 is clamped to 1).
// Besides the server, its only non-test caller is the benchmark harness's
// pool.gate probe (benchmark/trace.go).
func NewGate(limit int) *Gate {
	return &Gate{limit: max(limit, 1)}
}

// admitQueuedLocked promotes FIFO waiters while capacity allows.
func (g *Gate) admitQueuedLocked() {
	for len(g.queue) > 0 && g.inflight < g.limit {
		w := g.queue[0]
		g.queue = g.queue[1:]
		g.inflight++
		g.admitted.Add(1)
		w.granted = true
		close(w.ready)
	}
}

// Acquire admits one query, queueing FIFO behind the limit for at most
// timeout (<= 0 means fail immediately when saturated). It reports how long
// the query waited; on timeout it returns ErrBusy and the query must not
// run. Every successful Acquire must be paired with Release.
func (g *Gate) Acquire(timeout time.Duration) (time.Duration, error) {
	g.mu.Lock()
	if g.inflight < g.limit {
		g.inflight++
		g.admitted.Add(1)
		g.mu.Unlock()
		return 0, nil
	}
	if timeout <= 0 {
		g.rejected.Add(1)
		g.mu.Unlock()
		return 0, ErrBusy
	}
	w := &gateWaiter{ready: make(chan struct{})}
	g.queue = append(g.queue, w)
	g.queuedTotal.Add(1)
	g.mu.Unlock()

	start := time.Now()
	timer := time.NewTimer(timeout)
	defer timer.Stop()
	select {
	case <-w.ready:
		return time.Since(start), nil
	case <-timer.C:
	}
	// Deadline expired; a grant may have raced it. Decide under the lock.
	g.mu.Lock()
	if w.granted {
		g.mu.Unlock()
		return time.Since(start), nil
	}
	for i, q := range g.queue {
		if q == w {
			g.queue = append(g.queue[:i], g.queue[i+1:]...)
			break
		}
	}
	g.rejected.Add(1)
	g.mu.Unlock()
	return 0, ErrBusy
}

// Release returns one admission slot and promotes the next FIFO waiter.
func (g *Gate) Release() {
	g.mu.Lock()
	if g.inflight > 0 {
		g.inflight--
	}
	g.admitQueuedLocked()
	g.mu.Unlock()
}

// GateStats is a counter snapshot for observability.
type GateStats struct {
	Limit       int   `json:"limit"`
	Inflight    int   `json:"inflight"`
	QueuedNow   int   `json:"queued_now"`
	Admitted    int64 `json:"admitted"`
	QueuedTotal int64 `json:"queued_total"`
	Rejected    int64 `json:"rejected"`
}

// Snapshot reads the gate counters.
func (g *Gate) Snapshot() GateStats {
	g.mu.Lock()
	limit, inflight, queued := g.limit, g.inflight, len(g.queue)
	g.mu.Unlock()
	return GateStats{
		Limit:       limit,
		Inflight:    inflight,
		QueuedNow:   queued,
		Admitted:    g.admitted.Load(),
		QueuedTotal: g.queuedTotal.Load(),
		Rejected:    g.rejected.Load(),
	}
}
