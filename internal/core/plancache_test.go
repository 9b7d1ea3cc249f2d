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

// TestPlanCacheEpochRevalidation checks the middle validation band: small
// connectivity writes move the epoch but not the stats, so the cache
// revalidates instead of replanning — and the answers track the writes.
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
		got := runSortedP(t, g, read, intParam("id", 7), cached)
		want := runSortedP(t, g, read, intParam("id", 7), uncached)
		if strings.Join(got, "\n") != strings.Join(want, "\n") {
			t.Errorf("after write %d: cached read stale\ngot:\n%s\nwant:\n%s",
				i, strings.Join(got, "\n"), strings.Join(want, "\n"))
		}
	}
	c := pc.Counters()
	if c.Revalidations == 0 {
		t.Errorf("counters %v: small writes should revalidate, not replan", c)
	}
	if c.Invalidations != 0 {
		t.Errorf("counters %v: stats stayed close, no replan expected", c)
	}
}

// TestPlanCacheStatsInvalidation checks the outer band: a write burst that
// moves the stats materially forces a replan from the cached AST.
func TestPlanCacheStatsInvalidation(t *testing.T) {
	g := adversarialGraph(t, 200)
	pc := NewPlanCache(DefaultPlanCacheSize)
	cached := Config{PlanCache: pc}
	read := `MATCH (a:Hub)-[:D]->(b:Hub) RETURN count(b)`
	before := runSortedP(t, g, read, nil, cached)
	_ = before

	// Triple the :D edge count (well past the 2x statsClose band). The 200
	// hubs are the first nodes adversarialGraph creates, so their ids are
	// 0..199.
	g.Lock()
	hubs := make([]uint64, 200)
	for i := range hubs {
		hubs[i] = uint64(i)
	}
	for i, h := range hubs {
		for k := 0; k < 8; k++ {
			if _, err := g.CreateEdge("D", h, hubs[(i*3+k*17+5)%len(hubs)], nil); err != nil {
				t.Fatalf("edge: %v", err)
			}
		}
	}
	g.Sync()
	g.Unlock()

	got := runSortedP(t, g, read, nil, cached)
	want := runSortedP(t, g, read, nil, Config{})
	if strings.Join(got, "\n") != strings.Join(want, "\n") {
		t.Errorf("post-burst cached read stale\ngot:\n%s\nwant:\n%s",
			strings.Join(got, "\n"), strings.Join(want, "\n"))
	}
	if c := pc.Counters(); c.Invalidations == 0 {
		t.Errorf("counters %v: a 3x edge burst must replan", c)
	}
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
		tmpl, _, _, _ := pc.snapshot(ent)
		var lines []string
		printPlan(tmpl.root, 0, &lines, planNode.args, tmpl.estAnnotation)
		return primed{tmpl, strings.Join(lines, "\n")}
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
	if !strings.HasPrefix(lines[0], "plan: cached") || !strings.Contains(lines[0], "hits=1") {
		t.Errorf("second EXPLAIN = %q, want plan: cached with hits=1", lines[0])
	}
	lines, err = Profile(g, q, intParam("id", 3), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(lines[0], "plan: cached") {
		t.Errorf("PROFILE = %q, want plan: cached", lines[0])
	}
}

// TestCountsClose pins the revalidation tolerance band.
func TestCountsClose(t *testing.T) {
	cases := []struct {
		a, b int
		want bool
	}{
		{0, 0, true},
		{0, statsSlackFloor, true},      // under the floor: always close
		{3, 40, true},                   // tiny graphs never thrash
		{100, 199, true},                // within 2x
		{100, 201, false},               // past 2x
		{0, statsSlackFloor + 1, false}, // zero vs real cardinality
		{1000, 500, true},               // symmetric
		{1000, 499, false},
	}
	for _, c := range cases {
		if got := countsClose(c.a, c.b); got != c.want {
			t.Errorf("countsClose(%d, %d) = %v, want %v", c.a, c.b, got, c.want)
		}
	}
}

// TestPlanCacheBytes pins the memory accounting: resident templates report
// a nonzero estimated size in the counters and the EXPLAIN provenance
// header, every removal path (eviction, invalidation, capacity change)
// returns the figure to zero when the cache empties, and replans keep the
// sum consistent with the live entries.
func TestPlanCacheBytes(t *testing.T) {
	g := adversarialGraph(t, 100)
	pc := NewPlanCache(2)
	cached := Config{PlanCache: pc}
	runSortedP(t, g, `MATCH (a:Hub {uid: $id})-[:D]->(b) RETURN b.uid`, intParam("id", 1), cached)
	b1 := pc.Counters().Bytes
	if b1 <= 0 {
		t.Fatalf("one resident template, Bytes = %d", b1)
	}
	runSortedP(t, g, `MATCH (a:Hub) RETURN count(a)`, nil, cached)
	b2 := pc.Counters().Bytes
	if b2 <= b1 {
		t.Fatalf("second template must grow the estimate: %d -> %d", b1, b2)
	}
	// Evicting down to one entry sheds the evicted template's share.
	runSortedP(t, g, `MATCH (a:Rare) RETURN a.uid`, nil, cached)
	if b := pc.Counters().Bytes; b >= b2 {
		t.Errorf("eviction at capacity must not grow the sum monotonically: %d -> %d", b2, b)
	}
	// The figure surfaces in the EXPLAIN provenance header.
	lines, err := Explain(g, `MATCH (a:Rare) RETURN a.uid`, cached)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(lines[0], "plan_cache_bytes=") {
		t.Errorf("EXPLAIN header missing plan_cache_bytes: %q", lines[0])
	}
	pc.SetCapacity(0)
	if b := pc.Counters().Bytes; b != 0 {
		t.Errorf("empty cache reports %d bytes", b)
	}
	pc.SetCapacity(4)
	runSortedP(t, g, `MATCH (a:Rare) RETURN a.uid`, nil, cached)
	pc.InvalidateGraph(g)
	if b := pc.Counters().Bytes; b != 0 {
		t.Errorf("InvalidateGraph left %d bytes", b)
	}
}

// TestPlanCacheByteBudgetEviction pins the PLAN_CACHE_MAX_BYTES policy:
// under byte pressure the cache evicts LRU templates until the resident
// estimate fits, both when the budget shrinks (SetMaxBytes) and on every
// insert while the budget holds — while the most-recently-used template
// always survives, even when it alone exceeds the budget.
func TestPlanCacheByteBudgetEviction(t *testing.T) {
	g := adversarialGraph(t, 100)
	pc := NewPlanCache(32)
	cached := Config{PlanCache: pc}
	uncached := Config{}
	queries := []string{
		`MATCH (a:Hub {uid: $id}) RETURN a.uid`,
		`MATCH (a:Hub {uid: $id})-[:D]->(b) RETURN b.uid`,
		`MATCH (a:Hub)-[:D]->(b:Hub) WHERE b.uid < $id RETURN count(b)`,
		`MATCH (a:Rare) RETURN a.uid`,
	}
	for _, q := range queries {
		runSortedP(t, g, q, intParam("id", 1), cached)
	}
	full := pc.Counters().Bytes
	if full <= 0 || pc.Len() != len(queries) {
		t.Fatalf("setup: %d templates, %d bytes", pc.Len(), full)
	}
	// Shrink the budget to roughly half the resident estimate: LRU entries
	// must go until the sum fits, with evictions counted.
	evBefore := pc.Counters().Evictions
	pc.SetMaxBytes(full / 2)
	c := pc.Counters()
	if c.Bytes > full/2 {
		t.Errorf("SetMaxBytes(%d) left %d resident bytes", full/2, c.Bytes)
	}
	if pc.Len() >= len(queries) {
		t.Errorf("byte pressure evicted nothing: %d templates resident", pc.Len())
	}
	if c.Evictions == evBefore {
		t.Errorf("byte-pressure evictions not counted")
	}
	// Inserts under a one-template-sized budget keep evicting LRU entries;
	// results stay correct and the MRU template always survives.
	pc.SetMaxBytes(full / int64(len(queries)))
	for round := 0; round < 3; round++ {
		for qi, q := range queries {
			p := intParam("id", int64(round*10+qi))
			got := runSortedP(t, g, q, p, cached)
			want := runSortedP(t, g, q, p, uncached)
			if strings.Join(got, "\n") != strings.Join(want, "\n") {
				t.Errorf("round=%d divergence on %s", round, q)
			}
			if n := pc.Len(); n < 1 {
				t.Errorf("budgeted cache must retain the MRU template, holds %d", n)
			}
		}
	}
	if pc.MaxBytes() != full/int64(len(queries)) {
		t.Errorf("MaxBytes getter = %d", pc.MaxBytes())
	}
	// A budget below any single template still caches exactly one entry.
	pc.SetMaxBytes(1)
	runSortedP(t, g, queries[0], intParam("id", 99), cached)
	if n := pc.Len(); n != 1 {
		t.Errorf("one-byte budget holds %d templates, want 1 (MRU keepalive)", n)
	}
	// Lifting the budget restores entry-count-only bounding.
	pc.SetMaxBytes(0)
	for _, q := range queries {
		runSortedP(t, g, q, intParam("id", 7), cached)
	}
	if pc.Len() != len(queries) {
		t.Errorf("budget off: %d templates, want %d", pc.Len(), len(queries))
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
}
