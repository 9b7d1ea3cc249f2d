package cypher

import "testing"

// BenchmarkParseParams times what the server does to a GRAPH.QUERY text
// before the plan cache: ParseParams splits the CYPHER k=v prefix into
// parameters, then CanonicalQueryText makes the plan-cache key. The texts
// are the wire benchmark's point-lookup and khop queries with one parameter
// each; the metric is ns per query text.
//
//	go test -run '^$' -bench ParseParams ./internal/cypher
func BenchmarkParseParams(b *testing.B) {
	for _, c := range []struct{ name, text string }{
		{"point-lookup", "CYPHER seed=4242 MATCH (s:Node {uid: $seed}) RETURN s.uid, s.age, s.city"},
		{"khop", "CYPHER seed=4242 MATCH (s:Node {uid: $seed})-[:F*1..3]->(n) RETURN count(n)"},
	} {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				params, query, err := ParseParams(c.text)
				if err != nil || len(params) != 1 {
					b.Fatalf("%q: %v, %d params", c.text, err, len(params))
				}
				if CanonicalQueryText(query) == "" {
					b.Fatal("empty canonical text")
				}
			}
		})
	}
}
