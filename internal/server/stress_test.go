package server

import (
	"fmt"
	"runtime"
	"strings"
	"sync"
	"testing"

	"redisgraph/internal/client"
)

// seedRing builds a directed :R ring of n :N nodes (uid 0..n-1) on graph "g",
// so every read query below has a closed-form answer: from any uid there is
// exactly one path of each length, hence count(b) over [:R*1..k] is k.
func seedRing(t *testing.T, c *client.Client, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		if _, err := c.Query("g", fmt.Sprintf(`CREATE (:N {uid: %d})`, i)); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < n; i++ {
		q := fmt.Sprintf(`MATCH (a:N {uid: %d}), (b:N {uid: %d}) CREATE (a)-[:R]->(b)`, i, (i+1)%n)
		if _, err := c.Query("g", q); err != nil {
			t.Fatal(err)
		}
	}
}

// scalarRow extracts the single int64 cell of a query reply.
func scalarRow(t *testing.T, rep any) int64 {
	t.Helper()
	rows := rep.([]any)[1].([]any)
	if len(rows) != 1 {
		t.Fatalf("want 1 row, got %d", len(rows))
	}
	return rows[0].([]any)[0].(int64)
}

// configSet applies GRAPH.CONFIG SET name value over c.
func configSet(t *testing.T, c *client.Client, name string, value int) {
	t.Helper()
	if _, err := c.Do("GRAPH.CONFIG", "SET", name, fmt.Sprint(value)); err != nil {
		t.Fatalf("GRAPH.CONFIG SET %s %d: %v", name, value, err)
	}
}

// TestStressAdmissionSchedulerGrid drives N concurrent clients of mixed
// read/write traffic — cached plan shapes (literal-normalized repeats) and
// uncached ones (distinct var-length bounds) — across a CPU budget x
// THREAD_COUNT grid. Each query runs on its connection goroutine, so the CPU
// budget is the Go runtime's processor count (GOMAXPROCS): budget 1 with
// several permits makes admitted queries share one core and be preempted
// mid-query. The admission timeout is generous, so every query must be
// admitted eventually: any -BUSY error is a failure, and every read must
// return its closed-form row. Run with -race in CI to cover the gate paths.
func TestStressAdmissionSchedulerGrid(t *testing.T) {
	const (
		nClients = 6
		nNodes   = 16
		opsPer   = 10
	)
	// budget is GOMAXPROCS; restore it for the rest of the package.
	prev := runtime.GOMAXPROCS(0)
	t.Cleanup(func() { runtime.GOMAXPROCS(prev) })
	for _, budget := range []int{1, 2, nClients} {
		// limit is THREAD_COUNT, the admission gate's permit count.
		for _, limit := range []int{1, 4, nClients} {
			t.Run(fmt.Sprintf("budget=%d/limit=%d", budget, limit), func(t *testing.T) {
				runtime.GOMAXPROCS(budget)
				s := New(Options{Addr: "127.0.0.1:0", ThreadCount: limit})
				if err := s.Start(); err != nil {
					t.Fatal(err)
				}
				defer s.Close()
				seedConn, err := client.Dial(s.Addr())
				if err != nil {
					t.Fatal(err)
				}
				defer seedConn.Close()
				configSet(t, seedConn, "ADMISSION_TIMEOUT", 30000)
				seedRing(t, seedConn, nNodes)

				var wg sync.WaitGroup
				errc := make(chan error, nClients)
				for w := 0; w < nClients; w++ {
					wg.Add(1)
					go func(w int) {
						defer wg.Done()
						c, err := client.Dial(s.Addr())
						if err != nil {
							errc <- err
							return
						}
						defer c.Close()
						for i := 0; i < opsPer; i++ {
							uid := (w*7 + i) % nNodes
							switch i % 4 {
							case 0, 1:
								// Hot shape: literals normalize to one
								// cache entry, so this is the cached-plan
								// path after the first execution.
								rep, err := c.Do("GRAPH.RO_QUERY", "g",
									fmt.Sprintf(`MATCH (a:N {uid: %d})-[:R]->(b) RETURN count(b)`, uid))
								if err != nil {
									errc <- fmt.Errorf("client %d cached read: %w", w, err)
									return
								}
								if got := scalarRow(t, rep); got != 1 {
									errc <- fmt.Errorf("client %d: 1-hop count = %d, want 1", w, got)
									return
								}
							case 2:
								// Cold shape: the var-length bound is part
								// of the plan shape, so each k is a fresh
								// plan (the uncached path). A ring has one
								// path per length: count = k.
								k := 1 + (w+i)%3
								rep, err := c.Do("GRAPH.RO_QUERY", "g",
									fmt.Sprintf(`MATCH (a:N {uid: %d})-[:R*1..%d]->(b) RETURN count(b)`, uid, k))
								if err != nil {
									errc <- fmt.Errorf("client %d uncached read: %w", w, err)
									return
								}
								if got := scalarRow(t, rep); got != int64(k) {
									errc <- fmt.Errorf("client %d: *1..%d count = %d, want %d", w, k, got, k)
									return
								}
							case 3:
								// Writers touch only :W edges, invisible to
								// the [:R] readers above.
								x, y := (w*13+i)%nNodes, (w*5+i*3)%nNodes
								q := fmt.Sprintf(`MATCH (a:N {uid: %d}), (b:N {uid: %d}) CREATE (a)-[:W]->(b)`, x, y)
								if i%2 == 1 {
									q = fmt.Sprintf(`MATCH (a:N {uid: %d})-[e:W]->(b) DELETE e`, x)
								}
								if _, err := c.Query("g", q); err != nil {
									errc <- fmt.Errorf("client %d write: %w", w, err)
									return
								}
							}
						}
					}(w)
				}
				wg.Wait()
				close(errc)
				for err := range errc {
					if strings.Contains(err.Error(), "BUSY") {
						t.Fatalf("busy error below the admission timeout: %v", err)
					}
					t.Fatal(err)
				}
				// The :R ring survived the churn.
				rep, err := seedConn.Do("GRAPH.RO_QUERY", "g", `MATCH (a:N)-[:R]->(b:N) RETURN count(b)`)
				if err != nil {
					t.Fatal(err)
				}
				if got := scalarRow(t, rep); got != nNodes {
					t.Fatalf(":R ring damaged: count = %d, want %d", got, nNodes)
				}
			})
		}
	}
}

// TestStressAdmissionSaturation starts a server with one admission permit
// (THREAD_COUNT 1) and a fail-fast admission timeout, holds that permit from
// the test itself (no query to race), and asserts a wire arrival is rejected
// with -BUSY while it is held — and admitted again once it is released.
func TestStressAdmissionSaturation(t *testing.T) {
	s := New(Options{Addr: "127.0.0.1:0", ThreadCount: 1})
	if err := s.Start(); err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	c, err := client.Dial(s.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	configSet(t, c, "ADMISSION_TIMEOUT", 0) // fail saturated arrivals immediately
	g := s.Graph("g")
	g.Lock()
	for i := 0; i < 1500; i++ {
		g.CreateNode([]string{"N"}, nil)
	}
	g.Sync()
	g.Unlock()

	const probe = `MATCH (a:N) RETURN count(a)`
	if _, err := s.gate.Acquire(0); err != nil {
		t.Fatalf("taking the only slot: %v", err)
	}
	_, err = c.Do("GRAPH.RO_QUERY", "g", probe)
	s.gate.Release()
	if err == nil || !strings.Contains(err.Error(), "BUSY") {
		t.Fatalf("probe while the gate was saturated: err = %v, want -BUSY", err)
	}
	if st := s.gate.Snapshot(); st.Rejected != 1 {
		t.Fatalf("gate counted %d rejections, want 1", st.Rejected)
	}
	// Gate drained: queries are admitted again.
	rep, err := c.Do("GRAPH.RO_QUERY", "g", probe)
	if err != nil {
		t.Fatalf("after drain: %v", err)
	}
	if got := scalarRow(t, rep); got != 1500 {
		t.Fatalf("after drain: count = %d, want 1500", got)
	}
}
