package pool

import "sync"

// Parallel runs fn(i) for every i in [0, n) on up to parallelism goroutines,
// each taking one contiguous range, and returns when every call has
// completed. With parallelism <= 1 (or one index) it loops inline on the
// caller. Its only non-test caller is the benchmark harness's dispatch probe
// (benchmark/trace.go's measurePool); queries never fan out.
func Parallel(parallelism, n int, fn func(i int)) {
	parallelism = min(parallelism, n)
	if parallelism <= 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	var wg sync.WaitGroup
	for p := 0; p < parallelism; p++ {
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			for i := lo; i < hi; i++ {
				fn(i)
			}
		}(p*n/parallelism, (p+1)*n/parallelism)
	}
	wg.Wait()
}
