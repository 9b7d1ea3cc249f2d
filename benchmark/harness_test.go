package main

import (
	"math"
	"os"
	"reflect"
	"strings"
	"testing"
)

func TestPercentileNearestRank(t *testing.T) {
	s := []int64{10, 20, 30, 40, 50, 60, 70, 80, 90, 100}
	for _, c := range []struct {
		p    float64
		want int64
	}{{50, 50}, {95, 100}, {90, 90}, {10, 10}, {1, 10}, {100, 100}, {51, 60}} {
		if got := percentile(s, c.p); got != c.want {
			t.Errorf("percentile(%v) = %d, want %d", c.p, got, c.want)
		}
	}
	if got := percentile(nil, 50); got != 0 {
		t.Errorf("percentile of nothing = %d, want 0", got)
	}
	if got := percentile([]int64{7}, 95); got != 7 {
		t.Errorf("percentile of one sample = %d, want 7", got)
	}
}

func TestMedian(t *testing.T) {
	in := []float64{5, 1, 4}
	if got := median(in); got != 4 {
		t.Errorf("odd median = %v, want 4", got)
	}
	if !reflect.DeepEqual(in, []float64{5, 1, 4}) {
		t.Errorf("median reordered its input: %v", in)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("even median = %v, want 2.5", got)
	}
	if got := median(nil); got != 0 {
		t.Errorf("empty median = %v, want 0", got)
	}
}

// The reference values are statistics.quantiles(vs, n=4) from Python 3.
func TestQuartileSpreadMatchesPython(t *testing.T) {
	vs := []float64{12, 15, 11, 19, 13, 14, 30, 12.5, 13.5, 16} // quantiles: 12.375, 13.75, 16.75
	want := (16.75 - 12.375) / 13.75
	if got := quartileSpread(vs); math.Abs(got-want) > 1e-12 {
		t.Errorf("quartileSpread = %v, want %v", got, want)
	}
	two := []float64{1, 3} // quantiles: 0.5, 2.0, 3.5 (extrapolated, as Python does)
	if got, want := quartileSpread(two), 3.0/2.0; math.Abs(got-want) > 1e-12 {
		t.Errorf("quartileSpread of two = %v, want %v", got, want)
	}
}

func streamText(t *testing.T, name string, d *dataset, seed int64, n int) string {
	t.Helper()
	w, err := newWorkload(name, d, seed)
	if err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	for i := 0; i < n; i++ {
		o := w.next()
		b.WriteString(o.cmd + " " + o.query + "\n")
	}
	return b.String()
}

func TestOpStreamsAreSeedDeterministic(t *testing.T) {
	d1, d1again, d2 := newDataset(8, 1), newDataset(8, 1), newDataset(8, 2)
	for _, name := range workloadNames {
		a := streamText(t, name, d1, 1, 400)
		if b := streamText(t, name, d1again, 1, 400); a != b {
			t.Errorf("%s: the same seed gave two different command streams", name)
		}
		if c := streamText(t, name, d2, 2, 400); a == c {
			t.Errorf("%s: seeds 1 and 2 gave the same command stream", name)
		}
		if seg1 := streamText(t, name, d1, streamSeed(1, 1), 400); streamSeed(1, 0) != 1 || a == seg1 {
			t.Errorf("%s: segments 0 and 1 of seed 1 share a command stream", name)
		}
	}
	if _, err := newWorkload("no-such", d1, 1); err == nil {
		t.Error("unknown workload name accepted")
	}
}

func TestWriteMixShadow(t *testing.T) {
	d := newDataset(8, 3)
	w, _ := newWorkload("write-mix", d, 3)
	wm := w.(*writeMix)
	inGraph := map[uint64]bool{}
	for k := range d.pairs {
		inGraph[k] = true
	}
	outDeg := func(u int) int {
		n := 0
		for v := 0; v < d.n; v++ {
			if inGraph[pairKey(u, v)] {
				n++
			}
		}
		return n
	}
	// More than lagEdges cycles, so DELETEs reach edges the stream created.
	for i := 0; i < 8*(lagEdges+50); i++ {
		o := w.next()
		want := w.expected()
		switch i % 8 {
		case 1:
			k := pairKey(wm.created[0], wm.created[1])
			if inGraph[k] {
				t.Fatalf("op %d creates %v, already in the graph", i, wm.created)
			}
			inGraph[k] = true
			if o.cmd != cmdRW || want.stats.relsCreated != 1 {
				t.Fatalf("op %d: CREATE expectation %+v via %s", i, want.stats, o.cmd)
			}
		case 6:
			k := pairKey(wm.victim[0], wm.victim[1])
			if !inGraph[k] {
				t.Fatalf("op %d deletes %v, not in the graph", i, wm.victim)
			}
			delete(inGraph, k)
			if want.stats.relsDeleted != 1 {
				t.Fatalf("op %d: DELETE expectation %+v", i, want.stats)
			}
		case 3:
			if want.stats.propsSet != 1 {
				t.Fatalf("op %d: SET expectation %+v", i, want.stats)
			}
		case 4: // read-your-write
			if got := want.rows[0][1].i; got != int64(wm.setAge) {
				t.Fatalf("op %d: point read expects age %d right after SET %d", i, got, wm.setAge)
			}
		default: // 1-hop counts: brute force over the model graph
			if i%97 != 0 && i%8 != 2 && i%8 != 7 {
				continue // the uniform reads are sampled; the targeted ones all checked
			}
			if got, brute := want.rows[0][0].i, outDeg(o.node); got != int64(brute) {
				t.Fatalf("op %d: 1-hop count from %d expects %d, model graph has %d", i, o.node, got, brute)
			}
		}
	}
	if len(inGraph) != len(d.pairs) {
		t.Errorf("graph size drifted: %d pairs, started with %d", len(inGraph), len(d.pairs))
	}
}

func TestFilterAggAndPointOracles(t *testing.T) {
	d := newDataset(8, 5)
	w, _ := newWorkload("filter-agg", d, 5)
	fa := w.(*filterAgg)
	r := fa.answer(0)
	under90 := 0
	for v := 0; v < d.n; v++ {
		if d.age[v] < 90 {
			under90++
		}
	}
	if r.rows[0][0].i != int64(under90) {
		t.Errorf("filter-agg t=0 counts %d, want %d", r.rows[0][0].i, under90)
	}
	if r := fa.answer(101); r.rows[0][0].i != 0 || r.rows[0][1].kind != cellNil {
		t.Errorf("empty selection should be count 0 with null aggregates, got %s", r.String())
	}
	p, _ := newWorkload("point-lookup", d, 5)
	o := p.next()
	want := p.expected()
	if want.rows[0][0].i != int64(o.node) || want.rows[0][2].s != cityName(d.city[o.node]) {
		t.Errorf("point-lookup oracle %s does not describe node %d", want.String(), o.node)
	}
}

func TestDecodeReply(t *testing.T) {
	node := []any{
		[]any{"id", int64(7)},
		[]any{"labels", []any{"Node"}},
		[]any{"properties", []any{[]any{"uid", int64(7)}, []any{"city", "city-03"}}},
	}
	edge := []any{
		[]any{"id", int64(11)},
		[]any{"type", "F"},
		[]any{"src_node", int64(7)},
		[]any{"dest_node", int64(9)},
		[]any{"properties", []any{}},
	}
	raw := []any{
		[]any{"s", "e", "n", "x"},
		[]any{[]any{node, edge, int64(3), nil}, []any{node, edge, "1.5", []any{int64(1), "a"}}},
		[]any{"Nodes created: 2", "Relationships created: 1", "Properties set: 4",
			"Query internal execution time: 0.271000 milliseconds"},
	}
	r, err := decodeReply(raw)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(r.header, []string{"s", "e", "n", "x"}) || len(r.rows) != 2 {
		t.Fatalf("header/rows: %v / %d rows", r.header, len(r.rows))
	}
	n, e := r.rows[0][0], r.rows[0][1]
	if n.kind != cellNode || n.i != 7 || !reflect.DeepEqual(n.labels, []string{"Node"}) ||
		len(n.props) != 2 || n.props[1].key != "city" || n.props[1].val.s != "city-03" {
		t.Errorf("node(3) decoded as %+v", n)
	}
	if e.kind != cellEdge || e.i != 11 || e.s != "F" || e.src != 7 || e.dst != 9 || len(e.props) != 0 {
		t.Errorf("edge(5) decoded as %+v", e)
	}
	if r.rows[0][2].kind != cellInt || r.rows[0][3].kind != cellNil ||
		r.rows[1][2].kind != cellString || r.rows[1][3].kind != cellArray || len(r.rows[1][3].arr) != 2 {
		t.Errorf("scalar cells decoded as %+v / %+v", r.rows[0], r.rows[1])
	}
	want := queryStats{nodesCreated: 2, relsCreated: 1, propsSet: 4, execMs: 0.271}
	if r.stats != want {
		t.Errorf("statistics = %+v, want %+v", r.stats, want)
	}

	// Digests see rows and counters, not the execution time.
	raw2 := []any{raw[0], raw[1], []any{"Nodes created: 2", "Relationships created: 1", "Properties set: 4",
		"Query internal execution time: 9.000000 milliseconds"}}
	r2, _ := decodeReply(raw2)
	if r.digest() != r2.digest() {
		t.Error("digest depends on the execution time")
	}
	raw3 := []any{raw[0], raw[1], []any{"Nodes created: 3"}}
	r3, _ := decodeReply(raw3)
	if r.digest() == r3.digest() {
		t.Error("digest ignores the statistics counters")
	}
	c1, c2 := countReply(12), countReply(13)
	if c1.digest() == c2.digest() {
		t.Error("digest ignores cell values")
	}

	// A write-only reply: empty header and rows; the real module sends
	// statistics alone.
	for _, w := range []any{
		[]any{[]any{}, []any{}, []any{"Relationships deleted: 1"}},
		[]any{[]any{"Relationships deleted: 1"}},
	} {
		r, err := decodeReply(w)
		want := reply{stats: queryStats{relsDeleted: 1}}
		if err != nil || r.digest() != want.digest() {
			t.Errorf("write-only reply %v decoded as %s (%v)", w, r.String(), err)
		}
	}
	for _, bad := range []any{"OK", []any{1, 2}, []any{[]any{}, []any{}, []any{"Mystery counter: 1"}},
		[]any{[]any{}, []any{"row"}, []any{}}} {
		if _, err := decodeReply(bad); err == nil {
			t.Errorf("decodeReply(%v) accepted a malformed reply", bad)
		}
	}
}

func TestParseProfile(t *testing.T) {
	lines := []string{
		"plan: cached | hits=2 misses=2 evictions=0 invalidations=0 revalidations=0 plan_cache_bytes=1502",
		"scheduler: effective-threads: 1/1 | active-queries: 1 | stolen-morsels: 0 | worker-time: 0.000000 ms",
		"Aggregate | 1 columns | est: 1 rows | Records produced: 1, Execution time: 0.500000 ms",
		"    VarLenTraverse | F [1..3] | kernel: push | est: 2 rows | Records produced: 30, Execution time: 0.400000 ms",
		"        NodeByIndexScan | s:Node(uid) | est: 1 rows | Records produced: 1, Execution time: 0.100000 ms",
	}
	ops, err := parseProfile(lines)
	if err != nil {
		t.Fatal(err)
	}
	want := []profOp{{0, "Aggregate", 1, 0.5}, {1, "VarLenTraverse", 30, 0.4}, {2, "NodeByIndexScan", 1, 0.1}}
	if !reflect.DeepEqual(ops, want) {
		t.Fatalf("parseProfile = %+v, want %+v", ops, want)
	}
	var p profileTotals
	p.add(ops)
	p.add([]profOp{{0, "Create", 1, 0.3}, {1, "NodeByIndexScan", 1, 0.2}, {2, "NodeByIndexScan", 1, 0.05}})
	near := func(a, b float64) bool { return math.Abs(a-b) < 1e-9 }
	if !near(p.aggregate, 0.1) || !near(p.traverse, 0.3) || !near(p.scan, 0.1+0.15+0.05) ||
		!near(p.write, 0.1) || p.results != 0 || p.records != 35 {
		t.Errorf("self-times by kind = %+v", p)
	}
	if _, err := parseProfile([]string{"Project | Records produced: x, Execution time: 1 ms"}); err == nil {
		t.Error("parseProfile accepted a non-numeric record count")
	}
}

func TestSelfTimesAndCoverage(t *testing.T) {
	spans := []span{
		{"server.roundtrip", 0, -1, 0, 100},
		{"server.ping", 0, -1, 100, 130},
		{"core.query_hot", 0, 0, 130, 170},
		{"cypher.canonical", 0, 2, 170, 175},
		{"resp.read_reply", 0, 0, 175, 185},
	}
	self := selfTimes(spans)
	if self["server.roundtrip"] != 50 || self["core.query_hot"] != 35 ||
		self["cypher.canonical"] != 5 || self["resp.read_reply"] != 10 {
		t.Errorf("self times = %v", self)
	}
	// ping 30 + direct children 40 + 10; the grandchild is inside its parent.
	if got := coverage(spans); math.Abs(got-0.8) > 1e-12 {
		t.Errorf("coverage = %v, want 0.8", got)
	}
	if got := coverage(spans[:4]); math.Abs(got-0.7) > 1e-12 {
		t.Errorf("coverage without the resp.read_reply span = %v, want 0.7: a missing span must show", got)
	}
}

func TestProcParsing(t *testing.T) {
	stat := "4242 (redis graph) srv) S 1 4242 4242 0 -1 4194560 1093 0 0 0 731 52 0 0 20 0 9 0 8861 1268 288 1 1 1 1 1 1 0 0 0 0 0 0 0 17 1 0 0 0 0 0"
	if ticks, err := parseStatTicks(stat); err != nil || ticks != 783 {
		t.Errorf("parseStatTicks = %d, %v; want 783", ticks, err)
	}
	if _, err := parseStatTicks("4242 (x) S 1 2"); err == nil {
		t.Error("parseStatTicks accepted a truncated line")
	}
	status := "Name:\tsrv\nVmPeak:\t  900 kB\nVmHWM:\t  2048 kB\nVmRSS:\t 1024 kB\n"
	if hwm, err := parseVmHWM(status); err != nil || hwm != 2048<<10 {
		t.Errorf("parseVmHWM = %d, %v; want %d", hwm, err, 2048<<10)
	}
	if _, err := parseVmHWM("Name:\tsrv\n"); err == nil {
		t.Error("parseVmHWM accepted a status without VmHWM")
	}
}

// BENCHMARK.json and the harness must name the same metrics and workloads.
func TestSpecMatchesHarness(t *testing.T) {
	spec, err := loadSpec("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var e2e []string
	for _, m := range spec.EndToEnd {
		e2e = append(e2e, m.Name+" "+m.Unit)
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
	}
	var want []string
	sample := &wireResult{segs: []segment{{latencies: []int64{1}, elapsed: 1, ops: 1}}}
	for _, m := range sample.endToEnd() {
		want = append(want, m.name+" "+m.unit)
	}
	if !reflect.DeepEqual(e2e, want) {
		t.Errorf("end_to_end in BENCHMARK.json:\n %v\nharness:\n %v", e2e, want)
	}
	var layers, wantLayers []string
	for _, m := range spec.PerLayer {
		layers = append(layers, m.Name+" "+m.Unit)
	}
	for _, m := range layerMetrics {
		wantLayers = append(wantLayers, m.name+" "+m.unit)
	}
	if !reflect.DeepEqual(layers, wantLayers) {
		t.Errorf("per_layer in BENCHMARK.json:\n %v\nharness:\n %v", layers, wantLayers)
	}
	raw, _ := os.ReadFile("../BENCHMARK.json")
	for _, name := range workloadNames {
		if !strings.Contains(string(raw), `"name": "`+name+`"`) {
			t.Errorf("BENCHMARK.json does not list workload %s", name)
		}
	}
}
