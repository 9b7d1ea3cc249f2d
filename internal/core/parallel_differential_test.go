package core

import (
	"fmt"
	"runtime"
	"sort"
	"strings"
	"testing"

	"redisgraph/internal/graph"
	"redisgraph/internal/value"
)

// parallelConfigs is the differential grid: thread counts x batch sizes x
// kernel directions, under the fair scheduler and — at threads {1, 4} —
// without it (NoFairScheduler: no scheduling context, the full configured
// thread count). Every cell must return results identical to the first
// (threads 1, fair scheduler).
func parallelConfigs() []Config {
	var out []Config
	for _, sched := range []struct {
		unfair  bool
		threads []int
	}{
		{false, []int{1, 4, runtime.GOMAXPROCS(0)}},
		{true, []int{1, 4}},
	} {
		for _, th := range sched.threads {
			for _, batch := range []int{1, 64} {
				for _, kernel := range []string{"auto", "push", "pull"} {
					out = append(out, Config{OpThreads: th, TraverseBatch: batch,
						TraverseKernel: kernel, NoFairScheduler: sched.unfair})
				}
			}
		}
	}
	return out
}

// TestParallelDifferentialReads runs read pipelines whose plans exercise
// every parallel merge operator — gather, aggregation, sort, top-N,
// traverse-count and distinct — plus shapes the parallelizer must refuse
// (distinct aggregates), across the full config grid.
func TestParallelDifferentialReads(t *testing.T) {
	g := adversarialGraph(t, 200)
	queries := []string{
		// Barrier-free chain: parallel gather at the root.
		`MATCH (a:Hub)-[:D]->(b:Hub) RETURN a.uid, b.uid`,
		// Filter + projection below the gather.
		`MATCH (a:Hub)-[:D]->(b:Hub) WHERE b.uid > 50 RETURN a.uid, b.uid`,
		// Grouped hash aggregation: per-segment tables merged group-wise.
		`MATCH (a:Hub)-[:D]->(b:Hub) RETURN b.uid, count(a)`,
		// Keyless multi-aggregate merge (sum/avg/min/max state folding).
		`MATCH (a:Hub)-[:D]->(b:Hub) RETURN count(b), sum(b.uid), avg(b.uid), min(b.uid), max(b.uid)`,
		// Keyless aggregation over zero rows: every segment contributes its
		// identity group and the merge must still emit exactly one row.
		`MATCH (a:Rare)-[:D]->(b) RETURN count(b), sum(b.uid)`,
		// Count pushdown: parallel traverse-count summation.
		`MATCH (a:Hub)-[:D]->(b:Hub) RETURN count(b)`,
		// Label scan entry with a pushed second label.
		`MATCH (a:Rare:Tagged) RETURN a.uid`,
		// Reverse-direction hop below the merge (transpose operands).
		`MATCH (a:Hub)<-[:Back]-(b:Rare) RETURN a.uid, b.uid`,
		// Var-length expansion below a count barrier.
		`MATCH (a:Rare)-[:Back]->(h:Hub) RETURN count(h)`,
		`MATCH (a:Hub)-[:D*1..2]->(b) RETURN count(b)`,
		// Distinct aggregate: the parallelizer must refuse (per-segment
		// dedup sets cannot merge) and still answer correctly.
		`MATCH (a:Hub)-[:D]->(b:Hub) RETURN count(DISTINCT b.uid)`,
		// DISTINCT projection: per-segment dedup merged by the coordinator.
		`MATCH (a:Hub)-[:D]->(b:Hub) RETURN DISTINCT b.uid`,
		`MATCH (a:Hub)-[:D]->(b:Hub) RETURN DISTINCT a.uid, b.uid`,
		// Index-scan entry: the seed list is striped across segments.
		`MATCH (a:Hub {uid: 7})-[:D]->(b) RETURN b.uid`,
		`MATCH (a:Hub {uid: 7})-[:D]->(b:Hub) RETURN DISTINCT b.uid`,
		// Aggregation over an unwound list below the barrier.
		`MATCH (a:Rare) UNWIND [1, 2, 3] AS x RETURN sum(a.uid + x)`,
	}
	cfgs := parallelConfigs()
	for _, q := range queries {
		want := runSorted(t, g, q, cfgs[0])
		for _, cfg := range cfgs[1:] {
			got := runSorted(t, g, q, cfg)
			if strings.Join(got, "\n") != strings.Join(want, "\n") {
				t.Errorf("divergence cfg=%+v\nquery: %s\ngot:\n%s\nwant:\n%s",
					cfg, q, strings.Join(got, "\n"), strings.Join(want, "\n"))
			}
		}
	}
}

// runOrdered is runSorted without the sort: row order is part of the
// expected output (ORDER BY differentials).
func runOrdered(t testing.TB, g *graph.Graph, query string, cfg Config) []string {
	t.Helper()
	rs, err := Query(g, query, nil, cfg)
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
	return append([]string{strings.Join(rs.Columns, ",")}, rows...)
}

// TestParallelDifferentialOrdered pins the ordering guarantee: when the
// query demands an order, the parallel sort/top-N merges must reproduce the
// serial output byte for byte. Sort keys are unique (uid) so the guarantee
// is total — ties between distinct rows resolve in segment-major order,
// which the engine does not promise to match serial execution.
func TestParallelDifferentialOrdered(t *testing.T) {
	g := adversarialGraph(t, 200)
	queries := []string{
		// Full sort merge.
		`MATCH (a:Hub) RETURN a.uid ORDER BY a.uid`,
		`MATCH (a:Hub) RETURN a.uid ORDER BY a.uid DESC`,
		// Top-N merge (ORDER BY + LIMIT fusion).
		`MATCH (a:Hub) RETURN a.uid ORDER BY a.uid DESC LIMIT 10`,
		`MATCH (a:Hub) RETURN a.uid ORDER BY a.uid SKIP 5 LIMIT 7`,
		// Sort above a traversal; the key pair covers the whole visible row,
		// so equal-key rows are identical and the order is still total.
		`MATCH (a:Hub)-[:D]->(b:Hub) RETURN a.uid, b.uid ORDER BY a.uid, b.uid LIMIT 25`,
	}
	cfgs := parallelConfigs()
	for _, q := range queries {
		want := runOrdered(t, g, q, cfgs[0])
		for _, cfg := range cfgs[1:] {
			got := runOrdered(t, g, q, cfg)
			if strings.Join(got, "\n") != strings.Join(want, "\n") {
				t.Errorf("order divergence cfg=%+v\nquery: %s\ngot:\n%s\nwant:\n%s",
					cfg, q, strings.Join(got, "\n"), strings.Join(want, "\n"))
			}
		}
	}
}

// TestParallelCollect checks collect() under the aggregation merge as a
// multiset: element order inside the collected list is unspecified (it is
// segment-major under parallel execution), but the contents must match.
func TestParallelCollect(t *testing.T) {
	g := adversarialGraph(t, 100)
	canonical := func(cfg Config) []string {
		rs, err := Query(g, `MATCH (a:Hub)-[:Sp]->(b:Rare) RETURN collect(a.uid)`, nil, cfg)
		if err != nil {
			t.Fatalf("cfg=%+v: %v", cfg, err)
		}
		if len(rs.Rows) != 1 {
			t.Fatalf("cfg=%+v: %d rows", cfg, len(rs.Rows))
		}
		var items []string
		for _, v := range rs.Rows[0][0].Array() {
			items = append(items, v.String())
		}
		sort.Strings(items)
		return items
	}
	want := canonical(Config{OpThreads: 1})
	if len(want) == 0 {
		t.Fatal("fixture produced an empty collect")
	}
	for _, th := range []int{4, runtime.GOMAXPROCS(0)} {
		got := canonical(Config{OpThreads: th})
		if strings.Join(got, ",") != strings.Join(want, ",") {
			t.Errorf("threads=%d: collect multiset %v != %v", th, got, want)
		}
	}
}

// TestParallelDifferentialWrites runs the same write workload under every
// thread budget, with and without the fair scheduler: writes never
// parallelise (the rewrite refuses non-read-only plans), so the resulting
// graphs must be identical — checked through a read-back checksum under the
// same config.
func TestParallelDifferentialWrites(t *testing.T) {
	build := func(cfg Config) *graph.Graph {
		g := graph.New("w")
		mustQ := func(q string) {
			t.Helper()
			if _, err := Query(g, q, nil, cfg); err != nil {
				t.Fatalf("cfg=%+v %s: %v", cfg, q, err)
			}
		}
		for i := 0; i < 40; i++ {
			mustQ(fmt.Sprintf(`CREATE (:N {uid: %d, v: %d})`, i, i*3%7))
		}
		for i := 0; i < 40; i++ {
			mustQ(fmt.Sprintf(`MATCH (a:N {uid: %d}), (b:N {uid: %d}) CREATE (a)-[:R]->(b)`, i, (i*11+1)%40))
		}
		mustQ(`MATCH (a:N) WHERE a.uid < 10 SET a.v = a.v + 100`)
		mustQ(`MATCH (a:N {uid: 20})-[e:R]->() DELETE e`)
		mustQ(`MATCH (a:N {uid: 21}) DETACH DELETE a`)
		return g
	}
	checksums := []string{
		`MATCH (a:N) RETURN count(a), sum(a.v), min(a.uid), max(a.uid)`,
		`MATCH (a:N)-[:R]->(b:N) RETURN count(b), sum(b.uid)`,
		`MATCH (a:N)-[:R]->(b:N) RETURN a.uid, b.uid`,
	}
	baseCfg := Config{OpThreads: 1}
	baseG := build(baseCfg)
	var want []string
	for _, q := range checksums {
		want = append(want, runSorted(t, baseG, q, baseCfg)...)
	}
	for _, cfg := range []Config{
		{OpThreads: 4}, {OpThreads: runtime.GOMAXPROCS(0)},
		{OpThreads: 1, NoFairScheduler: true}, {OpThreads: 4, NoFairScheduler: true},
	} {
		g := build(cfg)
		var got []string
		for _, q := range checksums {
			got = append(got, runSorted(t, g, q, cfg)...)
		}
		if strings.Join(got, "\n") != strings.Join(want, "\n") {
			t.Errorf("cfg=%+v write divergence\ngot:\n%s\nwant:\n%s",
				cfg, strings.Join(got, "\n"), strings.Join(want, "\n"))
		}
	}
}

// TestExplainParallelAnnotations checks the planner surfaces the
// parallelism degree: merge operations print "workers: K", partitioned
// scans their residue class, and unsegmented plans the kernel thread count
// on traversal operations.
func TestExplainParallelAnnotations(t *testing.T) {
	g := adversarialGraph(t, 100)
	find := func(lines []string, sub string) bool {
		for _, l := range lines {
			if strings.Contains(l, sub) {
				return true
			}
		}
		return false
	}
	lines, err := Explain(g, `MATCH (a:Hub)-[:D]->(b:Hub) RETURN b.uid, count(a)`, Config{OpThreads: 4})
	if err != nil {
		t.Fatal(err)
	}
	if !find(lines, "ParallelAggregate") || !find(lines, "workers: 4") {
		t.Errorf("aggregation EXPLAIN missing parallel merge:\n%s", strings.Join(lines, "\n"))
	}
	if !find(lines, "segment 1/4") {
		t.Errorf("EXPLAIN missing scan partition annotation:\n%s", strings.Join(lines, "\n"))
	}
	// Index-scan entry points segment too: the seed list is striped across
	// segments by position.
	lines, err = Explain(g, `MATCH (a:Hub {uid: 7})-[:D]->(b) RETURN b.uid`, Config{OpThreads: 4})
	if err != nil {
		t.Fatal(err)
	}
	if !find(lines, "workers: 4") || !find(lines, "NodeByIndexScan") || !find(lines, "segment 1/4") {
		t.Errorf("index-entry plan missing segmentation annotations:\n%s", strings.Join(lines, "\n"))
	}
	// SKIP/LIMIT segments too: the quota stack merges as a global clamp.
	lines, err = Explain(g, `MATCH (a:Hub)-[:D]->(b) RETURN b.uid LIMIT 5`, Config{OpThreads: 4})
	if err != nil {
		t.Fatal(err)
	}
	if !find(lines, "ParallelSkipLimit") || !find(lines, "workers: 4") {
		t.Errorf("LIMIT plan missing quota merge:\n%s", strings.Join(lines, "\n"))
	}
	// A plan that refuses segmentation (distinct aggregates cannot merge)
	// reports the traversal's kernel-thread budget instead.
	lines, err = Explain(g, `MATCH (a:Hub)-[:D]->(b:Hub) RETURN count(DISTINCT b.uid)`, Config{OpThreads: 4})
	if err != nil {
		t.Fatal(err)
	}
	if find(lines, "workers:") {
		t.Errorf("distinct-aggregate plan must not segment:\n%s", strings.Join(lines, "\n"))
	}
	if !find(lines, "threads: 4") {
		t.Errorf("EXPLAIN missing kernel thread annotation:\n%s", strings.Join(lines, "\n"))
	}
	// Serial plans carry no parallel annotations at all.
	lines, err = Explain(g, `MATCH (a:Hub)-[:D]->(b:Hub) RETURN b.uid, count(a)`, Config{OpThreads: 1})
	if err != nil {
		t.Fatal(err)
	}
	if find(lines, "workers:") || find(lines, "threads:") || find(lines, "segment") {
		t.Errorf("serial EXPLAIN must stay unannotated:\n%s", strings.Join(lines, "\n"))
	}
}

// TestProfileParallelWorkerTime checks PROFILE's concurrency-aware
// accounting: after execution the merge operation reports the summed
// per-worker time next to the wall-clock Execution time, instead of
// double-counting overlapped wall time per segment.
func TestProfileParallelWorkerTime(t *testing.T) {
	g := adversarialGraph(t, 100)
	lines, err := Profile(g, `MATCH (a:Hub)-[:D]->(b:Hub) RETURN b.uid, count(a)`, nil, Config{OpThreads: 4})
	if err != nil {
		t.Fatal(err)
	}
	var mergeLine string
	for _, l := range lines {
		if strings.Contains(l, "ParallelAggregate") {
			mergeLine = l
		}
	}
	if mergeLine == "" {
		t.Fatalf("no parallel merge in PROFILE output:\n%s", strings.Join(lines, "\n"))
	}
	if !strings.Contains(mergeLine, "workers: 4") || !strings.Contains(mergeLine, "worker time:") {
		t.Errorf("merge PROFILE line missing worker accounting: %s", mergeLine)
	}
	if !strings.Contains(mergeLine, "Execution time:") {
		t.Errorf("merge PROFILE line missing wall time: %s", mergeLine)
	}
}

// TestParallelIndexSegmentDifferential partitions a fat index posting list —
// many nodes sharing one indexed value — across segments and checks every
// merge shape above an index-scan entry against the serial baseline.
func TestParallelIndexSegmentDifferential(t *testing.T) {
	g := graph.New("fatindex")
	g.Lock()
	ids := make([]uint64, 120)
	for i := range ids {
		ids[i] = g.CreateNode([]string{"Item"}, map[string]value.Value{
			"bucket": value.NewInt(int64(i % 3)),
			"ord":    value.NewInt(int64(i)),
		}).ID
	}
	for i, id := range ids {
		for k := 0; k < 3; k++ {
			if _, err := g.CreateEdge("L", id, ids[(i*5+k*7+1)%len(ids)], nil); err != nil {
				t.Fatalf("edge: %v", err)
			}
		}
	}
	g.CreateIndex("Item", "bucket")
	g.Sync()
	g.Unlock()

	queries := []string{
		// Gather above a striped seed list (40 seeds per bucket).
		`MATCH (a:Item {bucket: 1})-[:L]->(b) RETURN a.ord, b.ord`,
		// Aggregate, count-pushdown, sort, top-N and distinct merges.
		`MATCH (a:Item {bucket: 1})-[:L]->(b) RETURN b.ord, count(a)`,
		`MATCH (a:Item {bucket: 1})-[:L]->(b) RETURN count(b)`,
		`MATCH (a:Item {bucket: 2})-[:L]->(b) RETURN b.ord ORDER BY b.ord`,
		`MATCH (a:Item {bucket: 2})-[:L]->(b) RETURN b.ord ORDER BY b.ord DESC LIMIT 7`,
		`MATCH (a:Item {bucket: 0})-[:L]->(b) RETURN DISTINCT b.ord`,
	}
	serial := Config{OpThreads: 1}
	for _, q := range queries {
		want := runSorted(t, g, q, serial)
		for _, th := range []int{2, 4, runtime.GOMAXPROCS(0)} {
			got := runSorted(t, g, q, Config{OpThreads: th})
			if strings.Join(got, "\n") != strings.Join(want, "\n") {
				t.Errorf("threads=%d divergence\nquery: %s\ngot:\n%s\nwant:\n%s",
					th, q, strings.Join(got, "\n"), strings.Join(want, "\n"))
			}
		}
	}
	// The rewrite must actually segment the index entry, not refuse it.
	lines, err := Explain(g, `MATCH (a:Item {bucket: 1})-[:L]->(b) RETURN count(b)`, Config{OpThreads: 4})
	if err != nil {
		t.Fatal(err)
	}
	joined := strings.Join(lines, "\n")
	if !strings.Contains(joined, "segment 1/4") || !strings.Contains(joined, "NodeByIndexScan") {
		t.Errorf("index entry did not segment:\n%s", joined)
	}
}
