package grb

import (
	"math/rand"
	"testing"
)

// BenchmarkDeltaSetElement times DeltaMatrix.SetElement buffering new
// entries between folds: 2^14 inserts into one hub row in random column
// order, and 2^14 inserts spread one per row. A hub insert probes the row's
// sorted runs and unsorted tail and appends (the tail's sorts and the run
// merges cost O(log d) moves per insert); a spread insert starts a row of its
// own in the row table. It reports ns per insert.
//
//	go test -run '^$' -bench DeltaSetElement ./internal/grb
func BenchmarkDeltaSetElement(b *testing.B) {
	const n = 1 << 14
	perm := rand.New(rand.NewSource(3)).Perm(n)
	for _, shape := range []string{"hub", "spread"} {
		b.Run(shape, func(b *testing.B) {
			for it := 0; it < b.N; it++ {
				b.StopTimer()
				m := NewDeltaMatrix(n, n)
				m.SetThreshold(1 << 30) // never fold: time the buffering alone
				b.StartTimer()
				for k, j := range perm {
					i := 0
					if shape == "spread" {
						i = perm[n-1-k]
					}
					if err := m.SetElement(i, j, 1); err != nil {
						b.Fatal(err)
					}
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*n), "ns/insert")
		})
	}
}
