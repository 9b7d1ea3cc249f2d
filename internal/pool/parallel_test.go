package pool

import (
	"sync"
	"sync/atomic"
	"testing"
)

// TestParallelRunsEveryIndexOnce checks the core contract across inline,
// partial and saturated parallelism: fn(i) runs exactly once per index and
// all effects are visible when Parallel returns.
func TestParallelRunsEveryIndexOnce(t *testing.T) {
	for _, tc := range []struct{ parallelism, n int }{
		{1, 1}, {1, 100}, {4, 1}, {4, 3}, {4, 100}, {8, 257}, {64, 1000},
	} {
		counts := make([]int32, tc.n)
		Parallel(tc.parallelism, tc.n, func(i int) {
			atomic.AddInt32(&counts[i], 1)
		})
		for i, c := range counts {
			if c != 1 {
				t.Fatalf("parallelism=%d n=%d: index %d ran %d times", tc.parallelism, tc.n, i, c)
			}
		}
	}
}

// TestParallelZeroAndNegative checks degenerate sizes run nothing and return.
func TestParallelZeroAndNegative(t *testing.T) {
	ran := false
	Parallel(4, 0, func(i int) { ran = true })
	Parallel(4, -3, func(i int) { ran = true })
	if ran {
		t.Fatal("fn ran for n <= 0")
	}
}

// TestParallelInlineWhenSerial checks parallelism <= 1 stays on the calling
// goroutine, in index order.
func TestParallelInlineWhenSerial(t *testing.T) {
	var order []int
	Parallel(1, 10, func(i int) { order = append(order, i) })
	for i, v := range order {
		if v != i {
			t.Fatalf("serial path reordered: %v", order)
		}
	}
}

// TestParallelNested fans out from inside another fan-out's call; every
// inner index must still run exactly once.
func TestParallelNested(t *testing.T) {
	var total atomic.Int64
	Parallel(4, 8, func(i int) {
		Parallel(4, 16, func(j int) {
			total.Add(1)
		})
	})
	if got := total.Load(); got != 8*16 {
		t.Fatalf("nested total = %d, want %d", got, 8*16)
	}
}

// TestParallelConcurrentJobs runs many fan-outs from concurrent goroutines;
// every job must still complete exactly.
func TestParallelConcurrentJobs(t *testing.T) {
	const jobs, n = 32, 64
	var wg sync.WaitGroup
	totals := make([]int64, jobs)
	for j := 0; j < jobs; j++ {
		wg.Add(1)
		go func(j int) {
			defer wg.Done()
			var sum atomic.Int64
			Parallel(4, n, func(i int) { sum.Add(int64(i)) })
			totals[j] = sum.Load()
		}(j)
	}
	wg.Wait()
	want := int64(n * (n - 1) / 2)
	for j, got := range totals {
		if got != want {
			t.Fatalf("job %d: sum = %d, want %d", j, got, want)
		}
	}
}
