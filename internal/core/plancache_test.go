package core

import (
	"fmt"
	"strings"
	"sync"
	"testing"

	"redisgraph/internal/cypher"
	"redisgraph/internal/graph"
	"redisgraph/internal/value"
)

// runSortedP is runSorted with parameter bindings.
func runSortedP(t testing.TB, g *graph.Graph, query string, params map[string]value.Value, cfg Config) []string {
	t.Helper()
	rs, err := Query(g, query, params, cfg)
	if err != nil {
		t.Fatalf("cfg=%+v %s: %v", cfg, query, err)
	}
	rows := make([]string, len(rs.Rows))
	for i, row := range rs.Rows {
		parts := make([]string, len(row))
		for j, v := range row {
			parts[j] = v.String()
		}
		rows[i] = strings.Join(parts, "|")
	}
	sortStrings(rows)
	return append([]string{strings.Join(rs.Columns, ",")}, rows...)
}

func sortStrings(s []string) {
	for i := 1; i < len(s); i++ {
		for j := i; j > 0 && s[j] < s[j-1]; j-- {
			s[j], s[j-1] = s[j-1], s[j]
		}
	}
}

func intParam(name string, v int64) map[string]value.Value {
	return map[string]value.Value{name: value.NewInt(v)}
}

// TestPlanCacheDifferentialParams re-binds parameters against one cached
// template — including param-driven index seeds and pushed scan filters —
// and checks every answer against the uncached baseline.
func TestPlanCacheDifferentialParams(t *testing.T) {
	g := adversarialGraph(t, 200)
	pc := NewPlanCache(DefaultPlanCacheSize)
	cached := Config{PlanCache: pc}
	uncached := Config{}
	queries := []string{
		// Index seed from a parameter.
		`MATCH (a:Hub {uid: $id})-[:D]->(b) RETURN b.uid`,
		// Pushed property filter from a parameter.
		`MATCH (a:Hub) WHERE a.uid = $id RETURN a.uid`,
		// Parameter in a residual predicate and a projection.
		`MATCH (a:Hub)-[:D]->(b:Hub) WHERE b.uid > $id RETURN a.uid, b.uid + $id`,
		// Aggregation above a parameterized seed.
		`MATCH (a:Hub {uid: $id})-[:D]->(b) RETURN count(b)`,
		`MATCH (a:Hub {uid: $id})-[:D*1..2]->(b) RETURN count(b)`,
	}
	for _, q := range queries {
		for _, id := range []int64{0, 7, 63, 199, 4096} {
			p := intParam("id", id)
			got := runSortedP(t, g, q, p, cached)
			want := runSortedP(t, g, q, p, uncached)
			if strings.Join(got, "\n") != strings.Join(want, "\n") {
				t.Errorf("id=%d divergence\nquery: %s\ngot:\n%s\nwant:\n%s",
					id, q, strings.Join(got, "\n"), strings.Join(want, "\n"))
			}
		}
	}
	c := pc.Counters()
	if c.Misses != uint64(len(queries)) {
		t.Errorf("misses = %d, want %d (one per shape)", c.Misses, len(queries))
	}
	if want := uint64(len(queries) * 4); c.Hits != want {
		t.Errorf("hits = %d, want %d (re-binds must not replan)", c.Hits, want)
	}
}

// TestPlanCacheWhitespaceCanonicalization checks formatting variants of one
// shape share a single cache entry.
func TestPlanCacheWhitespaceCanonicalization(t *testing.T) {
	g := adversarialGraph(t, 50)
	pc := NewPlanCache(DefaultPlanCacheSize)
	cfg := Config{PlanCache: pc}
	variants := []string{
		`MATCH (a:Hub {uid: $id})-[:D]->(b) RETURN b.uid`,
		`  MATCH   (a:Hub {uid: $id})-[:D]->(b)   RETURN b.uid  `,
		"MATCH (a:Hub {uid: $id})-[:D]->(b)\n\tRETURN b.uid",
	}
	for _, q := range variants {
		runSortedP(t, g, q, intParam("id", 7), cfg)
	}
	if n := pc.Len(); n != 1 {
		t.Errorf("cache holds %d entries, want 1 shared across formatting variants", n)
	}
	// A different string literal is a different shape, never a false share.
	runSortedP(t, g, `MATCH (a:Hub) WHERE a.uid = 1 RETURN 'x  y'`, nil, cfg)
	runSortedP(t, g, `MATCH (a:Hub) WHERE a.uid = 1 RETURN 'x y'`, nil, cfg)
	if n := pc.Len(); n != 3 {
		t.Errorf("cache holds %d entries, want 3 (quoted spacing is significant)", n)
	}
}

// TestPlanCacheEpochRevalidation checks that cached reads track edge writes:
// every write moves the graph's epoch, none moves its schema, so each read
// is a hit on the same template and its answer matches the uncached run.
func TestPlanCacheEpochRevalidation(t *testing.T) {
	g := adversarialGraph(t, 200)
	pc := NewPlanCache(DefaultPlanCacheSize)
	cached := Config{PlanCache: pc}
	uncached := Config{}
	read := `MATCH (a:Hub {uid: $id})-[:D]->(b) RETURN b.uid`
	runSortedP(t, g, read, intParam("id", 7), cached) // prime

	for i := 0; i < 5; i++ {
		write := fmt.Sprintf(`MATCH (a:Hub {uid: 7}), (b:Hub {uid: %d}) CREATE (a)-[:D]->(b)`, 100+i)
		if _, err := Query(g, write, nil, cached); err != nil {
			t.Fatalf("write: %v", err)
		}
		hits := pc.Counters().Hits
		got := runSortedP(t, g, read, intParam("id", 7), cached)
		want := runSortedP(t, g, read, intParam("id", 7), uncached)
		if strings.Join(got, "\n") != strings.Join(want, "\n") {
			t.Errorf("after write %d: cached read stale\ngot:\n%s\nwant:\n%s",
				i, strings.Join(got, "\n"), strings.Join(want, "\n"))
		}
		if c := pc.Counters(); c.Hits != hits+1 {
			t.Errorf("after write %d: counters %v, want the read to hit", i, c)
		}
	}
	if c := pc.Counters(); c.Invalidations != 0 {
		t.Errorf("counters %v: edge writes leave the schema alone, no replan expected", c)
	}
}

// explainBody is EXPLAIN without its plan-cache header line.
func explainBody(t testing.TB, g *graph.Graph, query string, cfg Config) string {
	t.Helper()
	lines, err := Explain(g, query, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if strings.HasPrefix(lines[0], "plan:") {
		lines = lines[1:]
	}
	return strings.Join(lines, "\n")
}

// TestPlanCacheStatsInvalidation checks that cardinality drift keeps the
// template, as in RedisGraph: only a schema change replans. A 3x edge burst
// and growing a label 300-fold both leave the cached plan in place while a
// fresh plan comes out different, and the stale plan still answers exactly
// as the uncached run does.
func TestPlanCacheStatsInvalidation(t *testing.T) {
	keeps := func(t *testing.T, g *graph.Graph, pc *PlanCache, read, planned string) {
		t.Helper()
		cached := Config{PlanCache: pc}
		got := runSortedP(t, g, read, nil, cached)
		want := runSortedP(t, g, read, nil, Config{})
		if strings.Join(got, "\n") != strings.Join(want, "\n") {
			t.Errorf("cached read after drift differs\ngot:\n%s\nwant:\n%s",
				strings.Join(got, "\n"), strings.Join(want, "\n"))
		}
		if now := explainBody(t, g, read, cached); now != planned {
			t.Errorf("drift replaced the template:\nbefore:\n%s\nafter:\n%s", planned, now)
		}
		if fresh := explainBody(t, g, read, Config{}); fresh == planned {
			t.Errorf("a fresh plan after drift is the cached one; the drift tests nothing:\n%s", fresh)
		}
		if c := pc.Counters(); c.Invalidations != 0 {
			t.Errorf("counters %v: cardinality drift must not replan", c)
		}
	}

	t.Run("edge-burst", func(t *testing.T) {
		g := adversarialGraph(t, 200)
		pc := NewPlanCache(DefaultPlanCacheSize)
		read := `MATCH (a:Hub)-[:D]->(b:Hub) RETURN b.uid, count(a)`
		planned := explainBody(t, g, read, Config{PlanCache: pc})
		// Triple the :D edge count. The 200 hubs are the first nodes
		// adversarialGraph creates, so their ids are 0..199.
		g.Lock()
		for h := 0; h < 200; h++ {
			for k := 0; k < 8; k++ {
				if _, err := g.CreateEdge("D", uint64(h), uint64((h*3+k*17+5)%200), nil); err != nil {
					t.Fatalf("edge: %v", err)
				}
			}
		}
		g.Sync()
		g.Unlock()
		keeps(t, g, pc, read, planned)
	})

	t.Run("label-drift", func(t *testing.T) {
		// 10 :A nodes each joined to 10 of 100 :B nodes: a plan enters at
		// the smaller label, a:A. Node-only CREATEs then grow :A to 3 010,
		// past :B, so a fresh plan enters at b:B instead.
		g := graph.New("drift")
		if _, err := Query(g, `UNWIND range(0, 99) AS i CREATE (:B {uid: i})`, nil, Config{}); err != nil {
			t.Fatal(err)
		}
		if _, err := Query(g, `UNWIND range(0, 9) AS i CREATE (a:A {uid: i}) WITH a, i
			MATCH (b:B) WHERE b.uid % 10 = i CREATE (a)-[:R]->(b)`, nil, Config{}); err != nil {
			t.Fatal(err)
		}
		pc := NewPlanCache(DefaultPlanCacheSize)
		read := `MATCH (a:A)-[:R]->(b:B) RETURN a.uid, b.uid`
		planned := explainBody(t, g, read, Config{PlanCache: pc})
		if !strings.Contains(planned, "NodeByLabelScan | a:A") {
			t.Fatalf("setup: the plan should enter at a:A:\n%s", planned)
		}
		if _, err := Query(g, `UNWIND range(10, 3009) AS i CREATE (:A {uid: i})`, nil, Config{PlanCache: pc}); err != nil {
			t.Fatal(err)
		}
		if fresh := explainBody(t, g, read, Config{}); !strings.Contains(fresh, "NodeByLabelScan | b:B") {
			t.Fatalf("setup: after the drift a fresh plan should enter at b:B:\n%s", fresh)
		}
		keeps(t, g, pc, read, planned)
	})
}

func mustAttr(t testing.TB, g *graph.Graph, name string) int {
	t.Helper()
	id, ok := g.Schema.AttrID(name)
	if !ok {
		t.Fatalf("attribute %q not interned", name)
	}
	return id
}

// TestPlanCacheSchemaInvalidation checks schema mutations the write epoch
// cannot see: a cached plan against an unknown label must count the label
// once it exists, and index create/drop must retarget the entry point.
func TestPlanCacheSchemaInvalidation(t *testing.T) {
	g := adversarialGraph(t, 50)
	pc := NewPlanCache(DefaultPlanCacheSize)
	cached := Config{PlanCache: pc}

	// An unknown label plans as a scan by name; creating the first :Ghost
	// node interns the label, and the next run must count it.
	read := `MATCH (n:Ghost) RETURN count(n)`
	got := runSortedP(t, g, read, nil, cached)
	if got[1] != "0" {
		t.Fatalf("empty label count = %q, want 0", got[1])
	}
	if _, err := Query(g, `CREATE (:Ghost {uid: 1})`, nil, cached); err != nil {
		t.Fatal(err)
	}
	if got := runSortedP(t, g, read, nil, cached); got[1] != "1" {
		t.Errorf("cached count after label creation = %q, want 1", got[1])
	}

	// Dropping an index must retarget the cached index-scan entry point.
	seek := `MATCH (a:Hub {uid: $id}) RETURN a.uid`
	runSortedP(t, g, seek, intParam("id", 3), cached) // prime with index
	g.Lock()
	if !g.Schema.DropIndex(mustLabel(t, g, "Hub"), mustAttr(t, g, "uid")) {
		t.Fatal("expected Hub.uid index to exist")
	}
	g.Unlock()
	got = runSortedP(t, g, seek, intParam("id", 3), cached)
	want := runSortedP(t, g, seek, intParam("id", 3), Config{})
	if strings.Join(got, "\n") != strings.Join(want, "\n") {
		t.Errorf("post-drop cached seek stale\ngot:\n%s\nwant:\n%s",
			strings.Join(got, "\n"), strings.Join(want, "\n"))
	}
}

func mustLabel(t testing.TB, g *graph.Graph, name string) int {
	t.Helper()
	id, ok := g.Schema.LabelID(name)
	if !ok {
		t.Fatalf("label %q not interned", name)
	}
	return id
}

// TestPlanCacheDifferentialConfigs runs one query through one shared cache
// across the planner/batch/kernel grid: the cost-planner toggle keys separate
// templates, batch and kernel resolve at execution time on a shared one, and
// every cell must match the uncached answer.
func TestPlanCacheDifferentialConfigs(t *testing.T) {
	g := adversarialGraph(t, 200)
	pc := NewPlanCache(DefaultPlanCacheSize)
	queries := []string{
		`MATCH (a:Hub)-[:D]->(b:Hub) RETURN b.uid, count(a)`,
		`MATCH (a:Hub {uid: $id})-[:D]->(b) RETURN b.uid`,
		`MATCH (a:Hub)-[:D]->(b:Hub) RETURN DISTINCT b.uid`,
	}
	p := intParam("id", 7)
	for _, q := range queries {
		for _, textual := range []bool{false, true} {
			for _, batch := range []int{1, 64} {
				for _, kernel := range kernelModes {
					cfg := Config{noCostPlanner: textual, batch: batch, kernel: kernel}
					want := runSortedP(t, g, q, p, cfg)
					cfg.PlanCache = pc
					got := runSortedP(t, g, q, p, cfg)
					if strings.Join(got, "\n") != strings.Join(want, "\n") {
						t.Errorf("cfg=%+v divergence\nquery: %s\ngot:\n%s\nwant:\n%s",
							cfg, q, strings.Join(got, "\n"), strings.Join(want, "\n"))
					}
				}
			}
		}
	}
	// 3 shapes x 2 planner settings = 6 templates; batch/kernel never fork.
	if n := pc.Len(); n != 6 {
		t.Errorf("cache holds %d templates, want 6 (batch/kernel must not key)", n)
	}
}

// TestPlanCacheEviction thrashes a capacity-2 cache with three shapes:
// correctness must survive constant eviction and the counters must show it.
func TestPlanCacheEviction(t *testing.T) {
	g := adversarialGraph(t, 100)
	pc := NewPlanCache(2)
	cached := Config{PlanCache: pc}
	uncached := Config{}
	queries := []string{
		`MATCH (a:Hub {uid: $id}) RETURN a.uid`,
		`MATCH (a:Hub {uid: $id})-[:D]->(b) RETURN b.uid`,
		`MATCH (a:Hub)-[:D]->(b:Hub) WHERE b.uid < $id RETURN count(b)`,
	}
	for round := 0; round < 4; round++ {
		for qi, q := range queries {
			p := intParam("id", int64(round*10+qi))
			got := runSortedP(t, g, q, p, cached)
			want := runSortedP(t, g, q, p, uncached)
			if strings.Join(got, "\n") != strings.Join(want, "\n") {
				t.Errorf("round=%d divergence on %s", round, q)
			}
		}
	}
	c := pc.Counters()
	if c.Evictions == 0 {
		t.Errorf("counters %v: 3 shapes through capacity 2 must evict", c)
	}
	if pc.Len() > 2 {
		t.Errorf("cache over capacity: %d", pc.Len())
	}
	// SetCapacity(0) empties and disables; queries still work, uncached.
	pc.SetCapacity(0)
	if pc.Len() != 0 {
		t.Errorf("SetCapacity(0) left %d entries", pc.Len())
	}
	runSortedP(t, g, queries[0], intParam("id", 1), cached)
	if pc.Len() != 0 {
		t.Errorf("disabled cache admitted an entry")
	}
}

// TestPlanCacheWriteQueries routes parameterized writes through the cache:
// every execution must instantiate fresh operator state, so repeated CREATEs with
// re-bound parameters each take effect exactly once.
func TestPlanCacheWriteQueries(t *testing.T) {
	g := graph.New("w")
	pc := NewPlanCache(DefaultPlanCacheSize)
	cached := Config{PlanCache: pc}
	for i := int64(0); i < 10; i++ {
		if _, err := Query(g, `CREATE (:N {uid: $id})`, intParam("id", i), cached); err != nil {
			t.Fatal(err)
		}
	}
	got := runSortedP(t, g, `MATCH (n:N) RETURN count(n), min(n.uid), max(n.uid)`, nil, cached)
	if got[1] != "10|0|9" {
		t.Errorf("after 10 cached CREATEs: %q, want 10|0|9", got[1])
	}
	// ROQuery must still refuse cached write plans.
	if _, err := ROQuery(g, `CREATE (:N {uid: 99})`, nil, cached); err == nil {
		t.Error("ROQuery accepted a write plan from the cache")
	}
}

// TestPlanCacheConcurrentSharedEntry hammers one cache entry from many
// goroutines with distinct parameter bindings (run under -race in CI): every
// execution must see exactly its own binding.
func TestPlanCacheConcurrentSharedEntry(t *testing.T) {
	g := adversarialGraph(t, 200)
	pc := NewPlanCache(DefaultPlanCacheSize)
	q := `MATCH (a:Hub {uid: $id}) RETURN a.uid`
	runSortedP(t, g, q, intParam("id", 0), Config{PlanCache: pc}) // prime

	var wg sync.WaitGroup
	errs := make(chan string, 64)
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			cfg := Config{PlanCache: pc}
			for i := 0; i < 30; i++ {
				id := int64((w*31 + i) % 200)
				rs, err := Query(g, q, intParam("id", id), cfg)
				if err != nil {
					errs <- err.Error()
					return
				}
				if len(rs.Rows) != 1 || rs.Rows[0][0].Int() != id {
					errs <- fmt.Sprintf("id=%d got %v", id, rs.Rows)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Error(e)
	}
}

// TestPlanCacheConcurrentReplan races replans against hits on one entry
// (run under -race in CI): goroutines re-bind a parameterised index seek
// while another drops and re-creates the index it seeks, so every toggle
// moves the schema version and the next lookup swaps in a freshly planned
// entry. Every answer must equal the uncached run's.
func TestPlanCacheConcurrentReplan(t *testing.T) {
	g := adversarialGraph(t, 200)
	hub, uid := mustLabel(t, g, "Hub"), mustAttr(t, g, "uid")
	q := `MATCH (a:Hub {uid: $id})-[:D]->(b) RETURN b.uid`
	const ids = 16
	want := make([]string, ids)
	for id := range want {
		want[id] = strings.Join(runSortedP(t, g, q, intParam("id", int64(id)), Config{}), "\n")
	}
	pc := NewPlanCache(DefaultPlanCacheSize)
	runSortedP(t, g, q, intParam("id", 0), Config{PlanCache: pc}) // prime

	stop := make(chan struct{})
	toggled := make(chan struct{})
	go func() {
		defer close(toggled)
		for {
			select {
			case <-stop:
				return
			default:
			}
			g.Lock()
			if !g.Schema.DropIndex(hub, uid) {
				g.CreateIndex("Hub", "uid")
			}
			g.Unlock()
		}
	}()

	var wg sync.WaitGroup
	errs := make(chan string, 64)
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			cfg := Config{PlanCache: pc}
			for i := 0; i < 40; i++ {
				id := (w*7 + i) % ids
				rs, err := Query(g, q, intParam("id", int64(id)), cfg)
				if err != nil {
					errs <- err.Error()
					return
				}
				rows := make([]string, len(rs.Rows))
				for r, row := range rs.Rows {
					rows[r] = row[0].String()
				}
				sortStrings(rows)
				if got := strings.Join(append([]string{"b.uid"}, rows...), "\n"); got != want[id] {
					errs <- fmt.Sprintf("id=%d:\ngot  %s\nwant %s", id, got, want[id])
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(stop)
	<-toggled
	close(errs)
	for e := range errs {
		t.Error(e)
	}
	if c := pc.Counters(); c.Invalidations == 0 {
		t.Errorf("counters %v: index toggles never forced a replan", c)
	}
}

// TestIndexSeekAfterIndexDrop runs a plan that seeks an index after the
// index was dropped, the window between a plan's validation and its
// execution lock: the seek must answer as a fresh plan does, not come back
// empty.
func TestIndexSeekAfterIndexDrop(t *testing.T) {
	g := adversarialGraph(t, 50)
	q := `MATCH (a:Hub {uid: $id})-[:D]->(b) RETURN b.uid`
	plan, _, err := planFor(g, q, Config{})
	if err != nil {
		t.Fatal(err)
	}
	var lines []string
	printPlan(plan.root, 0, &lines, planNode.args, nil)
	if !strings.Contains(strings.Join(lines, "\n"), "NodeByIndexScan") {
		t.Fatalf("setup: the plan should seek the index:\n%s", strings.Join(lines, "\n"))
	}
	g.Lock()
	if !g.Schema.DropIndex(mustLabel(t, g, "Hub"), mustAttr(t, g, "uid")) {
		t.Fatal("expected Hub.uid index to exist")
	}
	g.Unlock()
	rs, err := executeLocked(g, plan, intParam("id", 7), Config{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	got := []string{"b.uid"}
	for _, row := range rs.Rows {
		got = append(got, row[0].String())
	}
	sortStrings(got[1:])
	want := runSortedP(t, g, q, intParam("id", 7), Config{})
	if len(want) == 1 || strings.Join(got, "\n") != strings.Join(want, "\n") {
		t.Errorf("seek without its index:\ngot  %v\nwant %v", got, want)
	}
}

// TestPlanCacheSharedTemplateImmutable proves a cached template is really
// shared and really immutable: goroutines mix Query, Profile and Explain
// across batch sizes on the same cache entries, over read,
// traversal, aggregate, count-pushdown, var-length, join, top-N and
// write-then-read shapes (run under -race in CI). Every answer must equal
// the uncached run's, every entry must still hold the very *Plan it was
// primed with, and that plan must still print the same EXPLAIN text — a
// running op writing through to its node (the effective batch size, a memo,
// a done flag) changes the text, trips the race detector, or both.
func TestPlanCacheSharedTemplateImmutable(t *testing.T) {
	g := adversarialGraph(t, 120)
	g.Lock()
	g.CreateIndex("Hub", "uid")
	g.Unlock()
	shapes := []string{
		`MATCH (a:Hub {uid: $id}) RETURN a.uid`,
		`MATCH (a:Hub {uid: $id})-[:D]->(b:Hub)-[:D]->(c) RETURN b.uid, c.uid`,
		`MATCH (a:Hub)-[:D]->(b) WHERE a.uid < $id RETURN count(b)`,
		`MATCH (a:Hub {uid: $id})-[:D]->(b) RETURN count(b)`,
		`MATCH (a:Hub {uid: $id})-[:D*1..2]->(b) RETURN count(b)`,
		`MATCH (a:Hub)-[:D]->(b:Hub), (c:Rare)<-[:Sp]-(d:Hub) WHERE b.uid = d.uid AND a.uid < $id RETURN count(*)`,
		`MATCH (a:Hub)-[:D]->(b:Hub) WHERE a.uid < $id RETURN b.uid, count(a)`,
		`MATCH (a:Hub)-[:D]->(b) WHERE a.uid < $id RETURN b.uid ORDER BY b.uid LIMIT 5`,
		// Idempotent write-then-read: the scan above the SET must see it.
		`MATCH (a:Hub {uid: $id}) SET a.seen = $id WITH a MATCH (b:Hub) WHERE b.seen = $id RETURN count(b)`,
	}
	const ids = 12
	rows := func(rs *ResultSet) string {
		out := make([]string, len(rs.Rows))
		for i, row := range rs.Rows {
			out[i] = fmt.Sprint(row)
		}
		sortStrings(out)
		return strings.Join(out, "\n")
	}
	// Uncached reference answers; the write shape also interns `seen` here,
	// so the schema version holds still from now on.
	want := make([][ids]string, len(shapes))
	for s, q := range shapes {
		for id := 0; id < ids; id++ {
			rs, err := Query(g, q, intParam("id", int64(id)), Config{})
			if err != nil {
				t.Fatalf("%s: %v", q, err)
			}
			want[s][id] = rows(rs)
		}
	}

	pc := NewPlanCache(DefaultPlanCacheSize)
	type primed struct {
		tmpl *Plan
		text string
	}
	templateOf := func(q string) primed {
		ent, ok := pc.lookup(planKey{g: g, text: cypher.CanonicalQueryText(q), opts: Config{}.planOptions()})
		if !ok {
			t.Fatalf("no cache entry for %s", q)
		}
		var lines []string
		printPlan(ent.tmpl.root, 0, &lines, planNode.args, ent.tmpl.estAnnotation)
		return primed{ent.tmpl, strings.Join(lines, "\n")}
	}
	before := map[string]primed{}
	for _, q := range shapes {
		if _, err := Explain(g, q, Config{PlanCache: pc}); err != nil {
			t.Fatal(err)
		}
		before[q] = templateOf(q)
	}

	var wg sync.WaitGroup
	errs := make(chan string, 256)
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 6; i++ {
				for s, q := range shapes {
					cfg := Config{PlanCache: pc, batch: []int{0, 1, 7}[(w+i+s)%3]}
					id := (w*5 + i*3 + s) % ids
					switch (w + i + s) % 4 {
					case 0:
						lines, err := Explain(g, q, cfg)
						if err != nil {
							errs <- err.Error()
						} else if got := strings.Join(lines[1:], "\n"); got != before[q].text {
							errs <- fmt.Sprintf("EXPLAIN drifted mid-run %s:\n%s", q, got)
						}
					case 1:
						if _, err := Profile(g, q, intParam("id", int64(id)), cfg); err != nil {
							errs <- err.Error()
						}
					default:
						rs, err := Query(g, q, intParam("id", int64(id)), cfg)
						if err != nil {
							errs <- err.Error()
						} else if got := rows(rs); got != want[s][id] {
							errs <- fmt.Sprintf("cfg=%+v id=%d %s:\ngot  %s\nwant %s", cfg, id, q, got, want[s][id])
						}
					}
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Error(e)
	}
	for _, q := range shapes {
		was, now := before[q], templateOf(q)
		if now.tmpl != was.tmpl {
			t.Errorf("%s: the entry's template was replaced", q)
		}
		if now.text != was.text {
			t.Errorf("%s: template EXPLAIN changed:\nbefore:\n%s\nafter:\n%s", q, was.text, now.text)
		}
	}
	if c := pc.Counters(); c.Invalidations != 0 {
		t.Errorf("templates were replanned: %s", c)
	}
}

// TestExplainPlanCacheLine checks EXPLAIN's cache header: absent without a
// cache, "planned" on first sight, "cached" once the template is warm.
func TestExplainPlanCacheLine(t *testing.T) {
	g := adversarialGraph(t, 50)
	q := `MATCH (a:Hub {uid: $id}) RETURN a.uid`
	lines, err := Explain(g, q, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if strings.HasPrefix(lines[0], "plan:") {
		t.Errorf("uncached EXPLAIN leads with a cache line: %s", lines[0])
	}
	pc := NewPlanCache(DefaultPlanCacheSize)
	cfg := Config{PlanCache: pc}
	lines, err = Explain(g, q, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(lines[0], "plan: planned") {
		t.Errorf("first EXPLAIN = %q, want plan: planned", lines[0])
	}
	lines, err = Explain(g, q, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if want := "plan: cached | hits=1 misses=1 evictions=0 invalidations=0"; lines[0] != want {
		t.Errorf("second EXPLAIN = %q, want %q", lines[0], want)
	}
	lines, err = Profile(g, q, intParam("id", 3), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(lines[0], "plan: cached") {
		t.Errorf("PROFILE = %q, want plan: cached", lines[0])
	}
}

// TestPlanCacheWriteDifferential proves a cached write plan is equivalent to
// a freshly planned one: the same parameterized CREATE/SET/DELETE script run
// through one shared cache entry per shape and run with no cache leaves
// bit-identical graph state and reports identical mutation statistics — and
// the cached run really does serve repeats from the cache.
func TestPlanCacheWriteDifferential(t *testing.T) {
	type step struct {
		q  string
		id int64
	}
	var script []step
	for i := int64(0); i < 10; i++ {
		script = append(script, step{`CREATE (:W {uid: $id, v: $id})`, i})
	}
	for i := int64(0); i < 10; i++ {
		script = append(script, step{`MATCH (n:W {uid: $id}) SET n.v = n.v + 100, n.tag = "t"`, i})
	}
	for i := int64(0); i < 10; i += 2 {
		script = append(script, step{`MATCH (a:W {uid: $id}) CREATE (a)-[:R {w: $id}]->(a)`, i})
	}
	for i := int64(8); i < 10; i++ {
		script = append(script, step{`MATCH (n:W {uid: $id}) DETACH DELETE n`, i})
	}
	checks := []string{
		`MATCH (n:W) RETURN n.uid, n.v, n.tag`,
		`MATCH (a)-[e:R]->(b) RETURN a.uid, e.w, b.uid`,
		`MATCH (n:W) RETURN count(n)`,
	}

	run := func(cfg Config) ([][]string, []Statistics) {
		g := graph.New("wdiff")
		var stats []Statistics
		for _, s := range script {
			rs, err := Query(g, s.q, intParam("id", s.id), cfg)
			if err != nil {
				t.Fatalf("%s ($id=%d): %v", s.q, s.id, err)
			}
			st := rs.Stats
			st.ExecutionTime = 0 // wall time is the one legitimate difference
			stats = append(stats, st)
		}
		var rows [][]string
		for _, c := range checks {
			rows = append(rows, runSortedP(t, g, c, nil, cfg))
		}
		return rows, stats
	}

	pc := NewPlanCache(DefaultPlanCacheSize)
	cachedRows, cachedStats := run(Config{PlanCache: pc})
	uncachedRows, uncachedStats := run(Config{})

	if pc.Counters().Hits == 0 {
		t.Fatal("write shapes never hit the plan cache")
	}
	for i := range checks {
		if strings.Join(cachedRows[i], "\n") != strings.Join(uncachedRows[i], "\n") {
			t.Fatalf("state mismatch on %s:\ncached   %v\nuncached %v",
				checks[i], cachedRows[i], uncachedRows[i])
		}
	}
	for i := range script {
		if cachedStats[i] != uncachedStats[i] {
			t.Fatalf("stats mismatch on %s ($id=%d):\ncached   %+v\nuncached %+v",
				script[i].q, script[i].id, cachedStats[i], uncachedStats[i])
		}
	}
}

// BenchmarkPlanCacheHit measures the plan-cache hit path as a layer: query =
// lookup → instantiate → execute through Query; instantiate = lookup →
// instantiate only. point-lookup is the wire benchmark's hot shape (two
// nodes); traverse-agg is a six-node traverse + aggregate + sort.
// after-write is a point-lookup lookup → instantiate right after an edge
// write has moved the graph's epoch; each op also pays that write (one edge
// created and deleted, so the graph stays the same size).
func BenchmarkPlanCacheHit(b *testing.B) {
	g := adversarialGraph(b, 200)
	g.Lock()
	g.CreateIndex("Hub", "uid")
	g.Unlock()
	shapes := []struct{ name, query string }{
		{"point-lookup", `MATCH (s:Hub {uid: $seed}) RETURN s.uid`},
		{"traverse-agg", `MATCH (a:Hub {uid: $seed})-[:D]->(b:Hub)-[:D]->(c) RETURN b.uid, count(c) ORDER BY b.uid`},
	}
	for _, sh := range shapes {
		cfg := Config{PlanCache: NewPlanCache(DefaultPlanCacheSize)}
		params := intParam("seed", 7)
		if _, err := Query(g, sh.query, params, cfg); err != nil { // prime the entry
			b.Fatal(err)
		}
		b.Run(sh.name+"/query", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := Query(g, sh.query, params, cfg); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(sh.name+"/instantiate", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				p, cached, err := cfg.PlanCache.plan(g, sh.query, cfg)
				if err != nil || !cached {
					b.Fatal(cached, err)
				}
				instantiate(p.root, instOpts{})
			}
		})
	}
	cfg := Config{PlanCache: NewPlanCache(DefaultPlanCacheSize)}
	query := shapes[0].query
	if _, err := Query(g, query, intParam("seed", 7), cfg); err != nil { // prime the entry
		b.Fatal(err)
	}
	b.Run("after-write", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			g.Lock()
			e, err := g.CreateEdge("Sp", 0, 1, nil)
			if err != nil {
				b.Fatal(err)
			}
			g.DeleteEdge(e.ID)
			g.Unlock()
			p, cached, err := cfg.PlanCache.plan(g, query, cfg)
			if err != nil || !cached {
				b.Fatal(cached, err)
			}
			instantiate(p.root, instOpts{})
		}
	})
}
