// bench_test.go runs the paper's evaluation as Go benchmarks — one per
// table/figure plus kernel and design-choice ablations. Run everything with:
//
//	go test -bench . -benchmem
//
// Scales are small so the suite completes quickly; cmd/khop-bench runs the
// same experiments at configurable scale with full seed counts.
package redisgraph

import (
	"fmt"
	"runtime"
	"testing"

	"redisgraph/internal/baseline"
	"redisgraph/internal/bench"
	"redisgraph/internal/gen"
	"redisgraph/internal/graph"
	"redisgraph/internal/grb"
)

const benchScale = 12

type fixture struct {
	name    string
	edges   *gen.EdgeList
	g       *graph.Graph
	engines []baseline.Engine
	seeds   []int
}

var fixtures map[string]*fixture

// rel returns the fixture graph's :F relation matrix, every edge's type.
func (f *fixture) rel() *grb.DeltaMatrix {
	tid, _ := f.g.Schema.RelTypeID("F")
	return f.g.RelationMatrix(tid)
}

func getFixture(name string) *fixture {
	if fixtures == nil {
		fixtures = map[string]*fixture{}
	}
	if f, ok := fixtures[name]; ok {
		return f
	}
	var d bench.Dataset
	switch name {
	case "graph500":
		d = bench.Graph500Dataset(benchScale)
	case "twitter":
		d = bench.TwitterDataset(benchScale)
	default:
		panic("unknown fixture " + name)
	}
	f := &fixture{name: name, edges: d.Edges}
	f.g = bench.BuildGraph(d.Name, d.Edges)
	f.engines = bench.Systems(f.g, d.Edges)
	f.seeds = gen.Seeds(d.Edges, 64, 3)
	fixtures[name] = f
	return f
}

// engine returns the line-up entry with the given name.
func (f *fixture) engine(name string) baseline.Engine {
	for _, e := range f.engines {
		if e.Name() == name {
			return e
		}
	}
	panic("unknown engine " + name)
}

// ---- E1 / Fig. 1: 1-hop average response time per system ----

func BenchmarkFig1(b *testing.B) {
	for _, ds := range []string{"graph500", "twitter"} {
		f := getFixture(ds)
		for _, e := range f.engines {
			b.Run(fmt.Sprintf("%s/%s", ds, e.Name()), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					e.KHopCount(f.seeds[i%len(f.seeds)], 1)
				}
			})
		}
	}
}

// ---- E2: k-hop table, k ∈ {1,2,3,6} ----

func BenchmarkKHop(b *testing.B) {
	for _, ds := range []string{"graph500", "twitter"} {
		f := getFixture(ds)
		for _, k := range []int{1, 2, 3, 6} {
			for _, e := range f.engines {
				b.Run(fmt.Sprintf("%s/k=%d/%s", ds, k, e.Name()), func(b *testing.B) {
					for i := 0; i < b.N; i++ {
						e.KHopCount(f.seeds[i%len(f.seeds)], k)
					}
				})
			}
		}
	}
}

// ---- E3: concurrent-throughput architecture comparison ----

func BenchmarkThroughput(b *testing.B) {
	f := getFixture("graph500")
	rg := bench.NewRedisGraphEngine(f.g, 1)
	b.Run("RedisGraphPool", func(b *testing.B) {
		b.RunParallel(func(pb *testing.PB) {
			i := 0
			for pb.Next() {
				rg.KHopCount(f.seeds[i%len(f.seeds)], 1)
				i++
			}
		})
	})
	tg := baseline.NewParallelAdjList(f.edges.NumNodes, f.edges.Src, f.edges.Dst, runtime.GOMAXPROCS(0))
	b.Run("TigerGraphAllCores", func(b *testing.B) {
		// All-cores engines serialise queries; no RunParallel.
		for i := 0; i < b.N; i++ {
			tg.KHopCount(f.seeds[i%len(f.seeds)], 1)
		}
	})
}

// ---- E4: 6-hop robustness ----

func BenchmarkRobust6Hop(b *testing.B) {
	f := getFixture("graph500")
	e := f.engine("RedisGraph")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		e.KHopCount(f.seeds[i%len(f.seeds)], 6)
	}
}

// ---- Ablations (DESIGN.md §5) ----

// AblationMaskedTraversal: 3-hop BFS whose reached set masks each hop,
// grb.BFS called directly on the graph's :F relation matrix.
func BenchmarkAblationMaskedTraversal(b *testing.B) {
	f := getFixture("graph500")
	rel := []*grb.DeltaMatrix{f.rel()}
	b.Run("masked", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			err := grb.BFS(rel, nil, f.seeds[i%len(f.seeds)], 3, nil, func(int, []grb.Index) error { return nil })
			if err != nil {
				b.Fatal(err)
			}
		}
	})
}

// AblationOpThreads: single-core query kernels (RedisGraph's model) vs
// intra-op parallelism for one query.
func BenchmarkAblationOpThreads(b *testing.B) {
	f := getFixture("graph500")
	for _, th := range []int{1, 2, 4} {
		e := bench.NewRedisGraphEngine(f.g, th)
		b.Run(fmt.Sprintf("threads=%d", th), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				e.KHopCount(f.seeds[i%len(f.seeds)], 2)
			}
		})
	}
}

// BenchmarkGraphBLASKernels measures the raw kernels the traversals stand on.
func BenchmarkGraphBLASKernels(b *testing.B) {
	rel := getFixture("graph500").rel()
	n := rel.Export().NRows()
	b.Run("vxm-onehot", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			u := grb.NewVector(n)
			_ = u.SetElement(i%n, 1)
			w := grb.NewVector(n)
			if err := grb.VxMDelta(w, nil, nil, grb.AnyPair, u, rel, nil); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkCypherPipeline isolates the non-kernel part of a query: parse,
// plan and execute a 1-hop count through the full stack.
func BenchmarkCypherPipeline(b *testing.B) {
	f := getFixture("graph500")
	e := f.engine("RedisGraph")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		e.KHopCount(f.seeds[i%len(f.seeds)], 1)
	}
}
