// Package pool holds the server's concurrency machinery: the admission Gate,
// whose THREAD_COUNT permits bound how many queries execute at once (the
// paper's fixed threadpool, Section II: one query on one thread, the client
// blocked until its reply). A query runs on its connection goroutine and is
// never split across goroutines. Pool, a fixed set of worker goroutines, and
// Parallel, a plain fan-out, are held only for the benchmark harness.
package pool

import (
	"fmt"
	"sync"
	"sync/atomic"
)

// Task is a unit of work returning an arbitrary result.
type Task func() (any, error)

// Future resolves to a task's result.
type Future struct {
	done chan struct{}
	val  any
	err  error
}

// Wait blocks until the task completes.
func (f *Future) Wait() (any, error) {
	<-f.done
	return f.val, f.err
}

// Pool is a fixed-size worker pool. Its only non-test caller is the
// benchmark harness's pool.submit_wait probe (benchmark/trace.go); dropping
// that probe (ROADMAP item 4, Step A) deletes Pool, Future, Task and their
// tests.
type Pool struct {
	tasks  chan func()
	wg     sync.WaitGroup
	closed atomic.Bool
}

// New starts a pool with n workers (n < 1 is clamped to 1). Its only
// non-test caller is benchmark/trace.go.
func New(n int) *Pool {
	if n < 1 {
		n = 1
	}
	p := &Pool{tasks: make(chan func(), 1024)}
	for i := 0; i < n; i++ {
		p.wg.Add(1)
		go func() {
			defer p.wg.Done()
			for t := range p.tasks {
				t()
			}
		}()
	}
	return p
}

// Submit enqueues a task, returning a Future for its completion. It must
// not race with Close: a Submit that passes the closed check while Close
// runs sends on a closed channel.
func (p *Pool) Submit(t Task) (*Future, error) {
	if p.closed.Load() {
		return nil, fmt.Errorf("pool: closed")
	}
	f := &Future{done: make(chan struct{})}
	p.tasks <- func() {
		defer func() {
			if r := recover(); r != nil {
				f.err = fmt.Errorf("pool: task panic: %v", r)
			}
			close(f.done)
		}()
		f.val, f.err = t()
	}
	return f, nil
}

// Close drains queued tasks and stops the workers.
func (p *Pool) Close() {
	if !p.closed.CompareAndSwap(false, true) {
		return
	}
	close(p.tasks)
	p.wg.Wait()
}
