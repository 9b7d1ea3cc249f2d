package server

import (
	"fmt"
	"sync"
	"testing"

	"redisgraph/internal/client"
)

// TestConcurrentMixedGraphTraffic drives GRAPH.RO_QUERY readers concurrently
// with GRAPH.QUERY writers over real connections — the server-level slice of
// the delta-matrix reader/writer regression (run with -race in CI).
func TestConcurrentMixedGraphTraffic(t *testing.T) {
	s, seedConn := startServer(t)
	const nodes = 24
	for i := 0; i < nodes; i++ {
		if _, err := seedConn.Query("g", fmt.Sprintf(`CREATE (:N {uid: %d})`, i)); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < nodes; i++ {
		q := fmt.Sprintf(`MATCH (a:N {uid: %d}), (b:N {uid: %d}) CREATE (a)-[:R]->(b)`, i, (i+1)%nodes)
		if _, err := seedConn.Query("g", q); err != nil {
			t.Fatal(err)
		}
	}

	var wg sync.WaitGroup
	errc := make(chan error, 16)
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			c, err := client.Dial(s.Addr())
			if err != nil {
				errc <- err
				return
			}
			defer c.Close()
			for i := 0; i < 30; i++ {
				q := `MATCH (a:N)-[:R]->(b:N) RETURN count(b)`
				if i%2 == 1 {
					q = fmt.Sprintf(`MATCH (a:N {uid: %d})-[:R*1..2]->(b) RETURN count(b)`, (w+i)%nodes)
				}
				if _, err := c.Do("GRAPH.RO_QUERY", "g", q); err != nil {
					errc <- fmt.Errorf("reader: %s: %w", q, err)
					return
				}
			}
		}(w)
	}
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			c, err := client.Dial(s.Addr())
			if err != nil {
				errc <- err
				return
			}
			defer c.Close()
			for i := 0; i < 20; i++ {
				x, y := (w*13+i)%nodes, (w*5+i*3)%nodes
				var q string
				if i%2 == 0 {
					q = fmt.Sprintf(`MATCH (a:N {uid: %d}), (b:N {uid: %d}) CREATE (a)-[:W]->(b)`, x, y)
				} else {
					q = fmt.Sprintf(`MATCH (a:N {uid: %d})-[e:W]->(b) DELETE e`, x)
				}
				if _, err := c.Query("g", q); err != nil {
					errc <- fmt.Errorf("writer: %s: %w", q, err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Fatal(err)
	}

	rep, err := seedConn.Do("GRAPH.RO_QUERY", "g", `MATCH (a:N)-[:R]->(b:N) RETURN count(b)`)
	if err != nil {
		t.Fatal(err)
	}
	rows := rep.([]any)[1].([]any)
	if got := rows[0].([]any)[0].(int64); got != nodes {
		t.Fatalf(":R ring damaged: count = %d, want %d", got, nodes)
	}
}
