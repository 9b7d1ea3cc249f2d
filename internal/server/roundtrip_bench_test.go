package server

import (
	"fmt"
	"testing"

	"redisgraph/internal/client"
	"redisgraph/internal/value"
)

// BenchmarkServerRoundTrip times one command over an in-process loopback
// connection: PING, which reads, executes inline and writes, and a
// parameterised point-lookup GRAPH.RO_QUERY on an indexed label, which adds
// admission, the plan-cache hit, the query and the result-set encode. The
// difference between the two is the cost of the GRAPH.* path.
func BenchmarkServerRoundTrip(b *testing.B) {
	const nodes = 1024
	s := New(Options{Addr: "127.0.0.1:0", ThreadCount: 2})
	if err := s.Start(); err != nil {
		b.Fatal(err)
	}
	defer s.Close()
	g := s.Graph("g")
	g.Lock()
	g.CreateIndex("Node", "uid")
	for i := 0; i < nodes; i++ {
		g.CreateNode([]string{"Node"}, map[string]value.Value{
			"uid": value.NewInt(int64(i)),
			"age": value.NewInt(int64(i % 100)),
		})
	}
	g.Sync()
	g.Unlock()
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
