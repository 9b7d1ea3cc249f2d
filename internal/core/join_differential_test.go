package core

import (
	"regexp"
	"strconv"
	"strings"
	"testing"

	"redisgraph/internal/graph"
	"redisgraph/internal/value"
)

// bridgedGraph builds two pattern components connected only through shared
// property values — the shape the hash-join planner targets. Component one
// is (:Src)-[:R]->(:Mid); component two is (:Far)-[:S]->(:End). Mid.k and
// Far.k overlap on some values, disagree on others, and both sides carry
// null and missing keys plus an int/float split (k=2 vs k=2.0) so the join
// must reproduce compareValues semantics exactly.
func bridgedGraph(t testing.TB) *graph.Graph {
	t.Helper()
	g := graph.New("bridged")
	g.Lock()
	defer g.Unlock()
	mustEdge := func(typ string, src, dst uint64) {
		if _, err := g.CreateEdge(typ, src, dst, nil); err != nil {
			t.Fatalf("edge: %v", err)
		}
	}
	for i := 0; i < 12; i++ {
		s := g.CreateNode([]string{"Src"}, map[string]value.Value{"uid": value.NewInt(int64(i))})
		var props map[string]value.Value
		switch {
		case i%5 == 3:
			props = map[string]value.Value{"k": value.Null}
		case i%5 == 4:
			props = nil // missing key
		case i == 2:
			props = map[string]value.Value{"k": value.NewFloat(2.0)}
		default:
			props = map[string]value.Value{"k": value.NewInt(int64(i % 4))}
		}
		m := g.CreateNode([]string{"Mid"}, props)
		mustEdge("R", s.ID, m.ID)
	}
	for j := 0; j < 8; j++ {
		var props map[string]value.Value
		switch {
		case j == 5:
			props = map[string]value.Value{"k": value.Null}
		case j == 6:
			props = nil
		default:
			props = map[string]value.Value{"k": value.NewInt(int64(j % 3)), "tag": value.NewInt(int64(j))}
		}
		f := g.CreateNode([]string{"Far"}, props)
		e := g.CreateNode([]string{"End"}, map[string]value.Value{"uid": value.NewInt(int64(100 + j))})
		mustEdge("S", f.ID, e.ID)
	}
	g.Sync()
	return g
}

// TestHashJoinDifferential asserts WHERE-bridged queries return identical
// sorted rows as hash joins under the cost planner and as cartesian
// rescans in textual order (noCostPlanner), across batch sizes and kernel
// modes.
func TestHashJoinDifferential(t *testing.T) {
	g := bridgedGraph(t)
	queries := []string{
		// The tentpole shape: two traversal components bridged by equality.
		`MATCH (a:Src)-[:R]->(b:Mid), (c:Far)-[:S]->(d:End) WHERE b.k = c.k RETURN count(*)`,
		`MATCH (a:Src)-[:R]->(b:Mid), (c:Far)-[:S]->(d:End) WHERE b.k = c.k RETURN a.uid, d.uid`,
		// Reversed operand order and extra residual predicates.
		`MATCH (a:Src)-[:R]->(b:Mid), (c:Far)-[:S]->(d:End) WHERE c.k = b.k AND a.uid < 9 RETURN a.uid, d.uid`,
		`MATCH (a:Src)-[:R]->(b:Mid), (c:Far)-[:S]->(d:End) WHERE b.k = c.k AND c.tag > 1 RETURN a.uid, c.tag, d.uid`,
		// Isolated-node components (no relationships on either side).
		`MATCH (b:Mid), (c:Far) WHERE b.k = c.k RETURN b.k, c.tag`,
		// Bridge into a single isolated node from a traversal component.
		`MATCH (a:Src)-[:R]->(b:Mid), (c:Far) WHERE b.k = c.k RETURN a.uid, c.tag`,
		// Empty build side: no :Far has k = 99.
		`MATCH (a:Src)-[:R]->(b:Mid), (c:Far)-[:S]->(d:End) WHERE b.k = c.k AND c.k = 99 RETURN count(*)`,
		// Three components, two bridges.
		`MATCH (a:Src)-[:R]->(b:Mid), (c:Far), (d:End) WHERE b.k = c.k AND c.tag = d.uid - 100 RETURN a.uid, c.tag, d.uid`,
	}
	baseline := Config{noCostPlanner: true}
	for _, query := range queries {
		want := runSorted(t, g, query, baseline)
		for _, batch := range []int{1, 64} {
			for _, kernel := range kernelModes {
				cfg := Config{batch: batch, kernel: kernel}
				got := runSorted(t, g, query, cfg)
				if strings.Join(got, "\n") != strings.Join(want, "\n") {
					t.Errorf("join/rescan disagreement on %s (batch=%d kernel=%s)\njoin:\n%s\nrescan:\n%s",
						query, batch, kernel, strings.Join(got, "\n"), strings.Join(want, "\n"))
				}
			}
		}
	}
}

// TestHashJoinInExplain asserts the planner actually substitutes the hash
// join for the cartesian rescan on a bridged query — with build/probe
// annotations and row estimates — and that noCostPlanner keeps it out of
// the plan.
func TestHashJoinInExplain(t *testing.T) {
	g := bridgedGraph(t)
	const q = `MATCH (a:Src)-[:R]->(b:Mid), (c:Far)-[:S]->(d:End) WHERE b.k = c.k RETURN count(*)`
	lines, err := Explain(g, q, Config{})
	if err != nil {
		t.Fatal(err)
	}
	plan := strings.Join(lines, "\n")
	if !strings.Contains(plan, "HashJoin") {
		t.Fatalf("bridged query must plan a hash join:\n%s", plan)
	}
	if !strings.Contains(plan, "build: ") || !strings.Contains(plan, "probe: ") {
		t.Fatalf("hash join line must annotate build/probe sides:\n%s", plan)
	}
	joinLine := ""
	for _, l := range lines {
		if strings.Contains(l, "HashJoin") {
			joinLine = l
		}
	}
	if !regexp.MustCompile(`est: \S+ rows`).MatchString(joinLine) {
		t.Fatalf("hash join line must carry row estimates: %s", joinLine)
	}
	lines, err = Explain(g, q, Config{noCostPlanner: true})
	if err != nil {
		t.Fatal(err)
	}
	if plan := strings.Join(lines, "\n"); strings.Contains(plan, "HashJoin") || !strings.Contains(plan, "Filter") {
		t.Fatalf("noCostPlanner must keep the cartesian rescan and a residual Filter:\n%s", plan)
	}
}

// TestHashJoinPlanCache asserts plans containing hash joins (the one
// two-input node) run from a shared cached template and that the cost
// planner knob partitions the cache key.
func TestHashJoinPlanCache(t *testing.T) {
	g := bridgedGraph(t)
	pc := NewPlanCache(8)
	const q = `MATCH (a:Src)-[:R]->(b:Mid), (c:Far)-[:S]->(d:End) WHERE b.k = c.k RETURN count(*)`
	base := runSorted(t, g, q, Config{noCostPlanner: true})
	for i := 0; i < 3; i++ {
		got := runSorted(t, g, q, Config{PlanCache: pc})
		if strings.Join(got, "\n") != strings.Join(base, "\n") {
			t.Fatalf("cached join run %d disagrees:\n%s\nvs\n%s", i, strings.Join(got, "\n"), strings.Join(base, "\n"))
		}
	}
	c := pc.Counters()
	if c.Hits < 2 {
		t.Fatalf("joined plan must be cacheable: %+v", c)
	}
	// Toggling the cost planner must miss, not serve the joined template.
	lines, err := Explain(g, q, Config{PlanCache: pc, noCostPlanner: true})
	if err != nil {
		t.Fatal(err)
	}
	if plan := strings.Join(lines, "\n"); strings.Contains(plan, "HashJoin") {
		t.Fatalf("noCostPlanner must not reuse the joined template:\n%s", plan)
	}
}

// skewedCycleGraph reproduces the worst expand-into mis-estimate seen in
// miniature: a scale-free-ish :F relation whose degree skew made the
// uncorrected uniform estimate undercount 2-cycles by two orders of
// magnitude (graph500-14 expand-into-cycle: est 194 vs actual 30814 rows,
// factor 158.8 before conditioned statistics).
func skewedCycleGraph(t testing.TB, n int) *graph.Graph {
	t.Helper()
	g := graph.New("skewed-cycle")
	g.Lock()
	defer g.Unlock()
	ids := make([]uint64, n)
	for i := 0; i < n; i++ {
		ids[i] = g.CreateNode([]string{"Node"}, map[string]value.Value{"uid": value.NewInt(int64(i))}).ID
	}
	// Preferential-attachment-style targets: node i points at j < i with
	// probability ∝ rank, so low-indexed nodes become hubs and many edges
	// are reciprocated — the 2-cycle mass lives on the hubs.
	rnd := uint64(12345)
	next := func(mod int) int {
		rnd = rnd*6364136223846793005 + 1442695040888963407
		return int((rnd >> 33) % uint64(mod))
	}
	for i := 1; i < n; i++ {
		for k := 0; k < 4; k++ {
			j := next(i)
			j = next(j + 1) // bias toward low indices (hubs)
			if j == i {
				continue
			}
			g.CreateEdge("F", ids[i], ids[j], nil)
			if j%3 != 0 {
				g.CreateEdge("F", ids[j], ids[i], nil) // reciprocate → 2-cycles
			}
		}
	}
	g.Sync()
	return g
}

var profileLineRE = regexp.MustCompile(`est: (\S+) rows \| Records produced: ([0-9]+)`)

// TestExpandIntoEstimateRegression pins the conditioned-statistics fix for
// the expand-into misestimate: on a degree-skewed graph the 2-cycle count
// estimate must stay within a factor 10 of the actual rows the ExpandInto
// operation produces (the uncorrected uniform model was off by ~158x on
// the graph500-14 offender this fixture miniaturizes).
func TestExpandIntoEstimateRegression(t *testing.T) {
	g := skewedCycleGraph(t, 400)
	lines, err := Profile(g, `MATCH (a:Node)-[:F]->(b:Node)-[:F]->(a) RETURN count(*)`, nil, Config{})
	if err != nil {
		t.Fatal(err)
	}
	for _, line := range lines {
		if !strings.Contains(line, "ExpandInto") {
			continue
		}
		m := profileLineRE.FindStringSubmatch(line)
		if m == nil {
			t.Fatalf("unparseable ExpandInto profile line: %s", line)
		}
		est, err := strconv.ParseFloat(m[1], 64)
		if err != nil {
			t.Fatalf("estimate %q: %v", m[1], err)
		}
		actual, _ := strconv.ParseFloat(m[2], 64)
		if actual == 0 {
			t.Fatalf("fixture produced no 2-cycles: %s", line)
		}
		if ratio := actual / est; ratio > 10 || ratio < 0.1 {
			t.Fatalf("ExpandInto est %v vs actual %v (factor %.1f), want within 10x: %s",
				est, actual, ratio, line)
		}
		return
	}
	t.Fatalf("no ExpandInto in profile:\n%s", strings.Join(lines, "\n"))
}
