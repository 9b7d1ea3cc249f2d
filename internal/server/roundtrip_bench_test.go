package server

import (
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"redisgraph/internal/client"
	"redisgraph/internal/gen"
	"redisgraph/internal/value"
)

// benchServer starts a THREAD_COUNT 2 server over loopback whose graph "g"
// holds nodes :Node vertices with an indexed uid (0 … nodes-1) and an age,
// plus one :F edge per entry of edges (nil: none). The caller closes it.
func benchServer(b *testing.B, nodes int, edges *gen.EdgeList) *Server {
	s := New(Options{Addr: "127.0.0.1:0", ThreadCount: 2})
	if err := s.Start(); err != nil {
		b.Fatal(err)
	}
	g := s.Graph("g")
	g.Lock()
	g.CreateIndex("Node", "uid")
	for i := 0; i < nodes; i++ {
		g.CreateNode([]string{"Node"}, map[string]value.Value{
			"uid": value.NewInt(int64(i)),
			"age": value.NewInt(int64(i % 100)),
		})
	}
	if edges != nil {
		for i := range edges.Src {
			if _, err := g.CreateEdge("F", uint64(edges.Src[i]), uint64(edges.Dst[i]), nil); err != nil {
				b.Fatal(err)
			}
		}
	}
	g.Sync()
	g.Unlock()
	return s
}

// BenchmarkServerRoundTrip times one command over an in-process loopback
// connection: PING, which reads, executes inline and writes, and a
// parameterised point-lookup GRAPH.RO_QUERY on an indexed label, which adds
// admission, the plan-cache hit, the query and the result-set encode. The
// difference between the two is the cost of the GRAPH.* path.
func BenchmarkServerRoundTrip(b *testing.B) {
	const nodes = 1024
	s := benchServer(b, nodes, nil)
	defer s.Close()
	c, err := client.Dial(s.Addr())
	if err != nil {
		b.Fatal(err)
	}
	defer c.Close()
	queries := make([]string, 64)
	for i := range queries {
		queries[i] = fmt.Sprintf("CYPHER seed=%d MATCH (s:Node {uid: $seed}) RETURN s.uid, s.age", i*(nodes/len(queries)))
	}
	b.Run("ping", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := c.Do("PING"); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("point-lookup", func(b *testing.B) {
		if _, err := c.Do("GRAPH.RO_QUERY", "g", queries[0]); err != nil { // plan once
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			v, err := c.Do("GRAPH.RO_QUERY", "g", queries[i%len(queries)])
			if err != nil {
				b.Fatal(err)
			}
			if rows := v.([]any)[1].([]any); len(rows) != 1 {
				b.Fatalf("point lookup returned %d rows", len(rows))
			}
		}
	})
}

// BenchmarkServerConcurrent is the paper's threadpool model on the served
// path: {1, 4, 16} loopback connections share one THREAD_COUNT 2 server,
// each query running on its connection goroutine under an admission permit.
// It runs the parameterised point-lookup and a seeded *1..3 count over a
// scale-10 RMAT graph, b.N queries in all, and reports throughput and the
// p50 and p95 round trip. Every reply must carry one row.
func BenchmarkServerConcurrent(b *testing.B) {
	el := gen.RMAT(gen.Graph500Defaults(10, 1))
	s := benchServer(b, el.NumNodes, el)
	defer s.Close()
	shapes := []struct{ name, query string }{
		{"point-lookup", "MATCH (s:Node {uid: $seed}) RETURN s.uid, s.age"},
		{"khop-count", "MATCH (s:Node {uid: $seed})-[:F*1..3]->(n) RETURN count(n)"},
	}
	for _, sh := range shapes {
		for _, conns := range []int{1, 4, 16} {
			b.Run(fmt.Sprintf("%s/conns=%d", sh.name, conns), func(b *testing.B) {
				clients := make([]*client.Client, conns)
				for i := range clients {
					c, err := client.Dial(s.Addr())
					if err != nil {
						b.Fatal(err)
					}
					defer c.Close()
					clients[i] = c
				}
				query := func(i int) string {
					return fmt.Sprintf("CYPHER seed=%d %s", i*7919%el.NumNodes, sh.query)
				}
				if _, err := clients[0].Do("GRAPH.RO_QUERY", "g", query(0)); err != nil { // plan once
					b.Fatal(err)
				}
				lat := make([][]time.Duration, conns)
				var next atomic.Int64
				var wg sync.WaitGroup
				b.ResetTimer()
				begin := time.Now()
				for w, c := range clients {
					wg.Add(1)
					go func() {
						defer wg.Done()
						for i := int(next.Add(1)) - 1; i < b.N; i = int(next.Add(1)) - 1 {
							start := time.Now()
							v, err := c.Do("GRAPH.RO_QUERY", "g", query(i))
							if err != nil {
								b.Error(err)
								return
							}
							lat[w] = append(lat[w], time.Since(start))
							if rows := v.([]any)[1].([]any); len(rows) != 1 {
								b.Errorf("%s returned %d rows", sh.name, len(rows))
								return
							}
						}
					}()
				}
				wg.Wait()
				elapsed := time.Since(begin)
				b.StopTimer()
				all := slices.Concat(lat...)
				if len(all) == 0 {
					return
				}
				slices.Sort(all)
				quantile := func(q float64) float64 {
					return float64(all[int(q*float64(len(all)-1))].Nanoseconds()) / 1e3
				}
				b.ReportMetric(float64(len(all))/elapsed.Seconds(), "ops/s")
				b.ReportMetric(quantile(0.50), "p50-µs")
				b.ReportMetric(quantile(0.95), "p95-µs")
			})
		}
	}
}
