package grb

import (
	"math/rand"
	"testing"
)

// TestPartitionParts pins the morsel-sizing policy: serial budgets and tiny
// inputs stay inline (one part), and grained partitioning never produces
// more parts than the grain allows or than over-partitioning wants.
func TestPartitionParts(t *testing.T) {
	cases := []struct {
		n, nthreads, grain, want int
	}{
		{0, 4, 16, 1},      // empty input stays inline
		{1, 4, 16, 1},      // single row stays inline
		{100, 1, 16, 1},    // serial budget stays inline
		{10, 4, 16, 1},     // under one grain: no split
		{17, 4, 16, 2},     // just past one grain: two morsels
		{64, 4, 16, 4},     // grain-limited: 64 rows / 16 = 4 morsels
		{10000, 4, 16, 16}, // thread-limited: 4 threads x 4 morsels
		{10000, 2, 256, 8}, // 2 threads x 4 morsels under the grain cap
		{300, 8, 256, 2},   // grain-limited below the thread budget
	}
	for _, c := range cases {
		if got := partitionParts(c.n, c.nthreads, c.grain); got != c.want {
			t.Errorf("partitionParts(%d, %d, %d) = %d, want %d", c.n, c.nthreads, c.grain, got, c.want)
		}
	}
}

// TestParallelRangesCoversExactly checks the grained range splitter visits
// every index exactly once with non-overlapping, ordered ranges per part.
func TestParallelRangesCoversExactly(t *testing.T) {
	for _, n := range []int{0, 1, 5, 64, 257, 1000} {
		for _, nth := range []int{1, 2, 4, 8} {
			counts := make([]int32, n)
			parallelRanges(nil, n, nth, 16, func(part, lo, hi int) {
				for i := lo; i < hi; i++ {
					counts[i]++ // parts own disjoint ranges: no atomics needed
				}
			})
			for i, c := range counts {
				if c != 1 {
					t.Fatalf("n=%d nth=%d: index %d visited %d times", n, nth, i, c)
				}
			}
		}
	}
}

// TestKernelsParallelDifferential runs every morselised kernel at thread
// counts {1, 2, 4, 8} over the same inputs and requires bit-identical
// results: the ordered per-part merge must make the output independent of
// the worker count and of steal interleavings. Each product kernel's serial
// result must also equal the dense reference.
func TestKernelsParallelDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	threadCounts := []int{1, 2, 4, 8}
	for trial := 0; trial < 40; trial++ {
		nrec := rng.Intn(130) + 1
		n := rng.Intn(60) + 1
		f := randMatrix(rng, nrec, n, rng.Float64()*0.5)
		b := randMatrix(rng, n, n, rng.Float64()*0.6)
		bd := DeltaFrom(b.Dup())
		bt := DeltaFrom(transposeOf(b))
		u := randVector(rng, n, rng.Float64())
		df, db := toDenseM(f), toDenseM(b)

		// MxMDelta (the push Gustavson kernel, row-partitioned).
		baseD := NewMatrix(nrec, n)
		must(t, MxMDelta(baseD, nil, nil, AnyPair, f, bd, nil))
		expectDenseEq(t, baseD, denseMxM(df, db))
		for _, nth := range threadCounts {
			c := NewMatrix(nrec, n)
			must(t, MxMDelta(c, nil, nil, AnyPair, f, bd, &Descriptor{NThreads: nth}))
			if !sameMatrix(baseD, c) {
				t.Fatalf("trial %d: MxMDelta NThreads=%d diverged", trial, nth)
			}
		}

		// VxMPull (candidate-partitioned vector pull).
		baseV := NewVector(n)
		must(t, VxMPull(baseV, nil, nil, AnyPair, u, bt, nil, nil))
		expectVecEq(t, baseV, denseVxM(u, db))
		for _, nth := range threadCounts {
			w := NewVector(n)
			must(t, VxMPull(w, nil, nil, AnyPair, u, bt, nil, &Descriptor{NThreads: nth}))
			if !sameVector(baseV, w) {
				t.Fatalf("trial %d: VxMPull NThreads=%d diverged", trial, nth)
			}
		}

		// SelectCols (row-partitioned two-phase compaction).
		keep := func(j Index) bool { return j%3 != 0 }
		baseS := b.Dup()
		SelectCols(baseS, keep, nil)
		for _, nth := range threadCounts {
			m := b.Dup()
			SelectCols(m, keep, &Descriptor{NThreads: nth})
			if !sameMatrix(baseS, m) {
				t.Fatalf("trial %d: SelectCols NThreads=%d diverged", trial, nth)
			}
		}
	}
}
