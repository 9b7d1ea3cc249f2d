package persist

import (
	"bytes"
	"fmt"
	"math/rand"
	"runtime"
	"testing"

	"redisgraph/internal/gen"
	"redisgraph/internal/graph"
	"redisgraph/internal/value"
)

// BenchmarkPersistLoad times Load of the snapshot the wire benchmark's
// server starts from: the scale-13 Graph500 RMAT graph (seed 1) with uid,
// age, score and city on every :Node and an index on :Node(uid). Load
// replays every edge through CreateEdge into the delta matrices and folds
// once at the end, so it is almost all of the server's start-up. The
// snapshot is built outside the timer; the metrics are µs per edge record
// and heapB/edge, the heap one loaded graph holds per edge (a GC before and
// after one more Load, outside the timer, as benchmark/trace.go measures
// graph.heap_bytes_per_edge).
//
//	go test -run '^$' -bench PersistLoad ./internal/persist
func BenchmarkPersistLoad(b *testing.B) {
	e := gen.RMAT(gen.Graph500Defaults(13, 1))
	g := graph.New("g")
	g.Lock()
	rng := rand.New(rand.NewSource(1))
	for v := 0; v < e.NumNodes; v++ {
		g.CreateNode([]string{"Node"}, map[string]value.Value{
			"uid":   value.NewInt(int64(v)),
			"age":   value.NewInt(int64(rng.Intn(100))),
			"score": value.NewFloat(float64(rng.Intn(10001)) / 100),
			"city":  value.NewString(fmt.Sprintf("city-%02d", rng.Intn(64))),
		})
	}
	for i := range e.Src {
		if _, err := g.CreateEdge("F", uint64(e.Src[i]), uint64(e.Dst[i]), nil); err != nil {
			b.Fatal(err)
		}
	}
	g.CreateIndex("Node", "uid")
	g.Sync()
	g.Unlock()
	var buf bytes.Buffer
	if err := Save(g, &buf); err != nil {
		b.Fatal(err)
	}
	snap := buf.Bytes()
	b.ResetTimer()
	for it := 0; it < b.N; it++ {
		if _, err := Load(bytes.NewReader(snap)); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Microseconds())/float64(b.N*len(e.Src)), "µs/edge")
	b.StopTimer()
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	loaded, err := Load(bytes.NewReader(snap))
	if err != nil {
		b.Fatal(err)
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	b.ReportMetric((float64(after.HeapAlloc)-float64(before.HeapAlloc))/float64(loaded.EdgeCount()), "heapB/edge")
	runtime.KeepAlive(loaded)
}
