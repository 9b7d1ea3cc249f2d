package core

import (
	"fmt"
	"sync"
	"testing"

	"redisgraph/internal/graph"
)

// raceFixture builds a graph that still carries pending deltas (a huge sync
// threshold keeps every write buffered), the state in which the old read
// path would fold matrices under the read lock.
func raceFixture(t *testing.T, nodes int) *graph.Graph {
	t.Helper()
	g := graph.New("race")
	g.SetSyncThreshold(1 << 30)
	mustQ := func(q string) {
		t.Helper()
		if _, err := Query(g, q, nil, Config{}); err != nil {
			t.Fatalf("%s: %v", q, err)
		}
	}
	for i := 0; i < nodes; i++ {
		mustQ(fmt.Sprintf(`CREATE (:N {uid: %d})`, i))
	}
	for i := 0; i < nodes; i++ {
		mustQ(fmt.Sprintf(`MATCH (a:N {uid: %d}), (b:N {uid: %d}) CREATE (a)-[:R]->(b)`, i, (i+1)%nodes))
	}
	if g.PendingDeltas() == 0 {
		t.Fatal("fixture must carry pending deltas")
	}
	return g
}

// TestConcurrentROQueries is the regression test for the read-path mutation
// hazard: many read-only queries against one graph whose matrices all carry
// pending deltas. Every read accessor must be fold-free, so under -race no
// write to shared kernel state may be observed.
func TestConcurrentROQueries(t *testing.T) {
	g := raceFixture(t, 32)
	queries := []string{
		`MATCH (a:N)-[:R]->(b:N) RETURN count(b)`,
		`MATCH (a:N)<-[:R]-(b:N) RETURN count(b)`,
		`MATCH (a:N)-[:R*1..3]->(b) RETURN count(b)`,
		`MATCH (a:N {uid: 3})-[e:R]->(b) RETURN b.uid`,
		`MATCH (a:N) RETURN count(a)`,
		`MATCH (a:N)-[:R]-(b:N) RETURN count(b)`, // both-direction union
	}
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				q := queries[(w+i)%len(queries)]
				cfg := Config{}
				if _, err := ROQuery(g, q, nil, cfg); err != nil {
					panic(fmt.Sprintf("%s: %v", q, err))
				}
			}
		}(w)
	}
	wg.Wait()
	if g.PendingDeltas() == 0 {
		t.Fatal("read-only queries must not fold deltas")
	}
}

// TestConcurrentReadWriteQueries runs read-only queries concurrently with a
// stream of write queries against the same graph: the delta-matrix locking
// lets readers share the lock with a write query's read phase, with the
// exclusive lock taken only for mutation bursts. Under -race this validates
// the whole reader/writer discipline end to end.
func TestConcurrentReadWriteQueries(t *testing.T) {
	g := raceFixture(t, 32)
	g.SetSyncThreshold(16) // exercise mid-stream folds too
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			queries := []string{
				`MATCH (a:N)-[:R]->(b:N) RETURN count(b)`,
				`MATCH (a:N)-[:W]->(b:N) RETURN count(b)`,
				`MATCH (a:N)-[:R|W]->(b) RETURN count(b)`,
				`MATCH (a:N {uid: 5})-[:R*1..2]->(b) RETURN count(b)`,
			}
			i := 0
			for {
				select {
				case <-stop:
					return
				default:
				}
				q := queries[(w+i)%len(queries)]
				cfg := Config{}
				i++
				if _, err := ROQuery(g, q, nil, cfg); err != nil {
					panic(fmt.Sprintf("%s: %v", q, err))
				}
			}
		}(w)
	}
	// Two writers: their queries serialise on the graph's writer mutex but
	// interleave with the readers above.
	var writers sync.WaitGroup
	for w := 0; w < 2; w++ {
		writers.Add(1)
		go func(w int) {
			defer writers.Done()
			for i := 0; i < 60; i++ {
				x, y := (w*17+i)%32, (w*7+i*3)%32
				var q string
				switch i % 3 {
				case 0:
					q = fmt.Sprintf(`MATCH (a:N {uid: %d}), (b:N {uid: %d}) CREATE (a)-[:W]->(b)`, x, y)
				case 1:
					q = fmt.Sprintf(`MATCH (a:N {uid: %d})-[e:W]->(b) DELETE e`, x)
				default:
					q = fmt.Sprintf(`MATCH (a:N {uid: %d}) SET a.w = %d`, x, i)
				}
				cfg := Config{}
				if _, err := Query(g, q, nil, cfg); err != nil {
					panic(fmt.Sprintf("%s: %v", q, err))
				}
			}
		}(w)
	}
	writers.Wait()
	close(stop)
	wg.Wait()

	// The ring of :R edges is untouched by the writers.
	rs, err := ROQuery(g, `MATCH (a:N)-[:R]->(b:N) RETURN count(b)`, nil, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if got := rs.Rows[0][0].Int(); got != 32 {
		t.Fatalf(":R ring damaged: count = %d, want 32", got)
	}
}

// TestConcurrentLateBoundNames races readers whose query names a label and a
// relationship type that do not exist yet against a writer that creates
// them. Plan nodes hold names and resolve them against the schema while the
// reader holds the shared lock, so under -race no lookup may overlap the
// writer's mutation burst, and each reader's count never goes backwards.
func TestConcurrentLateBoundNames(t *testing.T) {
	const read, writes = `MATCH (a)-[:NEW]->(b:NEWL) RETURN count(b)`, 40
	g := graph.New("late")
	pc := NewPlanCache(DefaultPlanCacheSize)
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			last := int64(0)
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				cfg := Config{}
				if (w+i)%2 == 0 {
					cfg.PlanCache = pc // plans cached before the names existed
				}
				rs, err := ROQuery(g, read, nil, cfg)
				if err != nil {
					t.Errorf("reader %d: %v", w, err)
					return
				}
				n := rs.Rows[0][0].Int()
				if n < last {
					t.Errorf("reader %d: count went from %d to %d", w, last, n)
					return
				}
				last = n
			}
		}(w)
	}
	for i := 0; i < writes; i++ {
		if _, err := Query(g, `CREATE (:NEWL)-[:NEW]->(:NEWL)`, nil, Config{}); err != nil {
			t.Error(err)
			break
		}
	}
	close(stop)
	wg.Wait()
	if got := singleInt(t, q(t, g, read)); got != writes {
		t.Fatalf("final count = %d, want %d", got, writes)
	}
}

// TestConcurrentUnionReaders runs union-shaped hops — undirected, two-type,
// untyped and var-length, whose kernels OR several relation matrices in
// place — on read-locked goroutines while a writer creates and deletes :S
// edges, so the matrices they read carry pending deltas that keep changing
// between queries. Under -race this guards the list kernels' shared reads;
// each answer must also lie between the ring's and the ring plus every :S
// edge's.
func TestConcurrentUnionReaders(t *testing.T) {
	const nodes, spokes = 32, 8
	g := raceFixture(t, nodes) // a :R ring, every write buffered
	queries := []struct {
		q      string
		lo, hi int64
	}{
		{`MATCH (a:N {uid: 0})-[:R]-(b) RETURN count(b)`, 2, 2},
		{`MATCH (a:N {uid: 0})-[:R|S]->(b) RETURN count(b)`, 1, 1 + spokes},
		{`MATCH (a:N {uid: 0})-[:S|R]-(b) RETURN count(b)`, 2, 2 + spokes},
		{`MATCH (a:N {uid: 0})-[]->(b) RETURN count(b)`, 1, 1 + spokes},
		{`MATCH (a:N {uid: 0})-[:R|S*1..2]-(b) RETURN count(b)`, 4, nodes - 1},
		{`MATCH (a:N)-[:R|S]->(b:N {uid: 5}) RETURN count(a)`, 1, 2},
	}
	var wg sync.WaitGroup
	done := make(chan struct{})
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-done:
					return
				default:
				}
				c := queries[(w+i)%len(queries)]
				cfg := Config{kernel: []kernelMode{kernelAuto, kernelPull, kernelPush}[(w+i)%3]}
				rs, err := ROQuery(g, c.q, nil, cfg)
				if err != nil {
					panic(fmt.Sprintf("%s: %v", c.q, err))
				}
				if got := rs.Rows[0][0].Int(); got < c.lo || got > c.hi {
					panic(fmt.Sprintf("%s = %d, want within [%d, %d]", c.q, got, c.lo, c.hi))
				}
			}
		}(w)
	}
	for round := 0; round < 6; round++ {
		for k := 1; k <= spokes; k++ {
			q := fmt.Sprintf(`MATCH (a:N {uid: 0}), (b:N {uid: %d}) CREATE (a)-[:S]->(b)`, 3*k)
			if _, err := Query(g, q, nil, Config{}); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := Query(g, `MATCH (:N {uid: 0})-[e:S]->() DELETE e`, nil, Config{}); err != nil {
			t.Fatal(err)
		}
	}
	close(done)
	wg.Wait()
	if g.PendingDeltas() == 0 {
		t.Fatal("the writes must stay buffered")
	}
}
