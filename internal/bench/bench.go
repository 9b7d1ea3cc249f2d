// Package bench reproduces the paper's evaluation: the TigerGraph k-hop
// neighbourhood-count benchmark over Graph500 (RMAT) and Twitter-like
// graphs, across RedisGraph, its BFS kernel alone and the measured reference
// engines of package baseline, plus the threadpool-throughput and
// robustness experiments.
package bench

import (
	"fmt"
	"sort"
	"time"

	"redisgraph/internal/baseline"
	"redisgraph/internal/core"
	"redisgraph/internal/gen"
	"redisgraph/internal/graph"
	"redisgraph/internal/grb"
	"redisgraph/internal/value"
)

// Dataset is one benchmark graph.
type Dataset struct {
	Name  string
	Edges *gen.EdgeList
}

// Graph500Dataset generates the RMAT dataset at the given scale
// (paper: scale ~21/EF16 → 2.4M vertices, 67M edges; laptop default 14).
func Graph500Dataset(scale int) Dataset {
	return Dataset{
		Name:  fmt.Sprintf("graph500-%d", scale),
		Edges: gen.RMAT(gen.Graph500Defaults(scale, 42)),
	}
}

// TwitterDataset generates the Twitter-like power-law dataset. The paper's
// crawl has mean degree ~35; the laptop-scale default uses 2^scale nodes
// with mean out-degree 20.
func TwitterDataset(scale int) Dataset {
	return Dataset{
		Name: fmt.Sprintf("twitter-%d", scale),
		Edges: gen.Twitter(gen.TwitterConfig{
			NumNodes:     1 << scale,
			EdgesPerNode: 20,
			Seed:         7,
		}),
	}
}

// BuildGraph bulk-loads an edge list into a RedisGraph store: one :Node per
// vertex carrying an indexed uid property, one :F relationship per edge.
func BuildGraph(name string, e *gen.EdgeList) *graph.Graph {
	g := graph.New(name)
	g.Lock()
	for v := 0; v < e.NumNodes; v++ {
		g.CreateNode([]string{"Node"}, map[string]value.Value{
			"uid": value.NewInt(int64(v)),
		})
	}
	for i := range e.Src {
		if _, err := g.CreateEdge("F", uint64(e.Src[i]), uint64(e.Dst[i]), nil); err != nil {
			panic(err)
		}
	}
	g.CreateIndex("Node", "uid")
	g.Sync()
	g.Unlock()
	return g
}

// redisGraphEngine answers k-hop queries through the full database stack:
// Cypher parse → plan (index scan + variable-length traversal) → GraphBLAS.
type redisGraphEngine struct{ g *graph.Graph }

// NewRedisGraphEngine wraps a loaded graph as a benchmark engine.
func NewRedisGraphEngine(g *graph.Graph) baseline.Engine {
	return &redisGraphEngine{g: g}
}

func (r *redisGraphEngine) Name() string { return "RedisGraph" }

func (r *redisGraphEngine) KHopCount(seed, k int) int {
	q := fmt.Sprintf(`MATCH (s:Node {uid: $seed})-[:F*1..%d]->(n) RETURN count(n)`, k)
	rs, err := core.ROQuery(r.g, q, map[string]value.Value{"seed": value.NewInt(int64(seed))}, core.Config{})
	if err != nil {
		panic(fmt.Sprintf("bench: %v", err))
	}
	return int(rs.Rows[0][0].Int())
}

// bfsEngine answers k-hop queries with grb.BFS called directly on the
// graph's :F relation matrix, push hops only: the kernel RedisGraph's query
// runs, without Cypher, planning or records around it.
type bfsEngine struct{ g *graph.Graph }

func (b bfsEngine) Name() string { return "grb.BFS" }

// KHopCount relies on BuildGraph giving vertex v the node ID v.
func (b bfsEngine) KHopCount(seed, k int) int {
	b.g.RLock()
	defer b.g.RUnlock()
	tid, ok := b.g.Schema.RelTypeID("F")
	if !ok {
		return 0 // no edges: nothing past the seed
	}
	count := 0
	err := grb.BFS([]*grb.DeltaMatrix{b.g.RelationMatrix(tid)}, nil, seed, k, nil, func(hop int, level []grb.Index) error {
		if hop > 0 {
			count += len(level)
		}
		return nil
	})
	if err != nil {
		panic(fmt.Sprintf("bench: %v", err))
	}
	return count
}

// Systems assembles the benchmark line-up for a dataset: RedisGraph through
// its full stack, its BFS kernel alone, and the baseline engines built from
// the same edge list. Every entry is measured; none adds an injected cost.
func Systems(g *graph.Graph, e *gen.EdgeList) []baseline.Engine {
	return []baseline.Engine{
		NewRedisGraphEngine(g),
		bfsEngine{g},
		baseline.NewAdjList(e.NumNodes, e.Src, e.Dst),
		baseline.NewParallelAdjList(e.NumNodes, e.Src, e.Dst, 0),
		baseline.NewObjectStore(e.NumNodes, e.Src, e.Dst),
	}
}

// Measurement is one (system, dataset, k) latency sample set.
type Measurement struct {
	System  string
	Dataset string
	K       int
	Seeds   int
	MeanMS  float64
	P50MS   float64
	P95MS   float64
	Counts  []int
}

// RunKHop measures a system over the given seeds, sequentially, as the
// paper's single-request benchmark does.
func RunKHop(e baseline.Engine, dataset string, k int, seeds []int) Measurement {
	lat := make([]float64, len(seeds))
	counts := make([]int, len(seeds))
	for i, s := range seeds {
		t0 := time.Now()
		counts[i] = e.KHopCount(s, k)
		lat[i] = float64(time.Since(t0).Nanoseconds()) / 1e6
	}
	sort.Float64s(lat)
	mean := 0.0
	for _, l := range lat {
		mean += l
	}
	mean /= float64(len(lat))
	return Measurement{
		System: e.Name(), Dataset: dataset, K: k, Seeds: len(seeds),
		MeanMS: mean,
		P50MS:  lat[len(lat)/2],
		P95MS:  lat[(len(lat)*95)/100],
		Counts: counts,
	}
}

// SeedCounts returns the TigerGraph benchmark's per-k seed counts: 300 for
// one- and two-hop queries, 10 for three- and six-hop.
func SeedCounts(k int) int {
	if k <= 2 {
		return 300
	}
	return 10
}
