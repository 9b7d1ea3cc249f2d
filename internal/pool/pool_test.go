package pool

import (
	"fmt"
	"sync/atomic"
	"testing"
)

func TestSubmitAndWait(t *testing.T) {
	p := New(4)
	defer p.Close()
	f, err := p.Submit(func() (any, error) { return 42, nil })
	if err != nil {
		t.Fatal(err)
	}
	v, err := f.Wait()
	if err != nil || v.(int) != 42 {
		t.Fatalf("%v %v", v, err)
	}
}

func TestErrorsPropagate(t *testing.T) {
	p := New(1)
	defer p.Close()
	f, _ := p.Submit(func() (any, error) { return nil, fmt.Errorf("boom") })
	if _, err := f.Wait(); err == nil || err.Error() != "boom" {
		t.Fatalf("err = %v", err)
	}
}

func TestPanicRecovered(t *testing.T) {
	p := New(1)
	defer p.Close()
	f, _ := p.Submit(func() (any, error) { panic("eek") })
	if _, err := f.Wait(); err == nil {
		t.Fatal("want panic error")
	}
	// Worker survives.
	f2, _ := p.Submit(func() (any, error) { return "ok", nil })
	if v, err := f2.Wait(); err != nil || v.(string) != "ok" {
		t.Fatalf("%v %v", v, err)
	}
}

func TestConcurrencyBoundedByPoolSize(t *testing.T) {
	p := New(2)
	defer p.Close()
	var active, maxActive int32
	started := make(chan struct{}, 20)
	release := make(chan struct{})
	var futures []*Future
	for i := 0; i < 20; i++ {
		f, err := p.Submit(func() (any, error) {
			cur := atomic.AddInt32(&active, 1)
			for {
				m := atomic.LoadInt32(&maxActive)
				if cur <= m || atomic.CompareAndSwapInt32(&maxActive, m, cur) {
					break
				}
			}
			started <- struct{}{}
			<-release
			atomic.AddInt32(&active, -1)
			return nil, nil
		})
		if err != nil {
			t.Fatal(err)
		}
		futures = append(futures, f)
	}
	// Both workers are inside a task before any task may finish, so the
	// two overlap by construction.
	<-started
	<-started
	close(release)
	for _, f := range futures {
		f.Wait()
	}
	if maxActive != 2 {
		t.Fatalf("max concurrency %d, want pool size 2", maxActive)
	}
}

func TestSubmitAfterClose(t *testing.T) {
	p := New(1)
	p.Close()
	if _, err := p.Submit(func() (any, error) { return nil, nil }); err == nil {
		t.Fatal("want closed error")
	}
	p.Close() // double close is a no-op
}
