package grb

import (
	"math/rand"
	"testing"
)

// BenchmarkMxMHop times one fixed-length hop as the engine's batched
// traversal runs it: a 64-row frontier holding one source per record (what
// BuildFromRows makes of a batch) multiplied by the relation operand through
// MxMDelta into a fresh output, over the RMAT scale-13 graph BenchmarkBFSHop
// uses. The clean operand is read through its main CSR, the dirty one (the
// same graph with ~3 000 pending updates) row by row in place. It cycles
// through 16 frontiers of vertices with an out-edge and reports ns per
// scattered entry (the frontier's out-edges) and ns per frontier row.
//
//	go test -run '^$' -bench MxMHop ./internal/grb
func BenchmarkMxMHop(b *testing.B) {
	const scale, rows, frontiers = 13, 64, 16
	for _, state := range []string{"clean", "dirty"} {
		a, _ := rmatOperands(scale, state == "dirty")
		fs, degs := hopFrontiers(a, rows, frontiers)
		b.Run(state, func(b *testing.B) {
			entries := 0
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				k := i % len(fs)
				c := NewMatrix(rows, a.ncols)
				if err := MxMDelta(c, nil, nil, AnyPair, fs[k], a, nil); err != nil {
					b.Fatal(err)
				}
				entries += degs[k]
			}
			ns := float64(b.Elapsed().Nanoseconds())
			b.ReportMetric(ns/float64(max(entries, 1)), "ns/entry")
			b.ReportMetric(ns/float64(b.N*rows), "ns/row")
		})
	}
}

// hopFrontiers returns n one-source-per-row frontiers of the given number of
// rows over vertices of a with an out-edge (in a fixed shuffled order), and
// each frontier's out-edge count.
func hopFrontiers(a *DeltaMatrix, rows, n int) ([]*Matrix, []int) {
	var srcs []Index
	for _, v := range rand.New(rand.NewSource(5)).Perm(a.nrows) {
		if a.RowDegree(v) > 0 {
			srcs = append(srcs, v)
		}
		if len(srcs) == rows*n {
			break
		}
	}
	fs, degs := make([]*Matrix, n), make([]int, n)
	for k := range fs {
		batch := srcs[k*rows : (k+1)*rows]
		fs[k] = NewMatrix(rows, a.ncols)
		if err := fs[k].BuildFromRows(batch); err != nil {
			panic(err)
		}
		for _, v := range batch {
			degs[k] += a.RowDegree(v)
		}
	}
	return fs, degs
}
