package core

import (
	"fmt"
	"math"
	"strings"
	"sync"
	"testing"
	"time"

	"redisgraph/internal/graph"
	"redisgraph/internal/value"
)

// scanAggGraph builds :P nodes (every third also :Q, every eleventh
// unlabelled) whose columns cover what the scan-aggregate kernel must fold
// exactly like Aggregate: absent cells, negative ints, non-dyadic floats (so
// a different fold order changes a float sum), strings, NaN in the first
// :P row (nan0) and in the middle (nanmid), int64 values whose sum overflows
// (big), and a kind-changed column (k: ints with string, float and bool
// overflow rows), a string column with int overflow rows (s) and ints around
// 2⁵³ that float64 cannot all hold (e). After
// a fold it buffers more nodes, null SETs, kind-changing
// SETs and DETACH deletes without folding, so label matrices carry pending
// delta-plus and delta-minus rows. :P(g) is indexed.
func scanAggGraph(t testing.TB) *graph.Graph {
	t.Helper()
	const n = scanAggNodes
	g := graph.New("scanagg")
	if _, err := Query(g, `CREATE INDEX ON :P(g)`, nil, Config{}); err != nil {
		t.Fatal(err)
	}
	g.Lock()
	defer g.Unlock()
	node := func(v int) uint64 {
		var labels []string
		if v%11 != 0 {
			labels = append(labels, "P")
		}
		if v%3 == 0 {
			labels = append(labels, "Q")
		}
		props := map[string]value.Value{
			"g":      value.NewInt(int64(v % 4)),
			"nanmid": value.NewFloat(float64(v*5%17) - 3),
			"big":    value.NewInt(1<<61 + int64(v)),
			"k":      value.NewInt(int64(v * 3 % 20)),
			"e":      value.NewInt(1<<53 + int64(v%3) - 1),
		}
		if v%5 != 0 {
			props["i"] = value.NewInt(int64(v*7%50 - 10))
		}
		if v%7 != 0 {
			props["f"] = value.NewFloat(float64(v)/3 - 20)
		}
		switch {
		case v%6 != 0:
			props["s"] = value.NewString(fmt.Sprintf("s%02d", v*13%40))
		case v > 0 && v%12 == 0:
			props["s"] = value.NewInt(int64(v % 5))
		}
		switch {
		case v == 1:
			props["nan0"] = value.NewFloat(math.NaN())
		case v > 1:
			props["nan0"] = value.NewFloat(float64(v % 9))
		}
		if v == 120 {
			props["nanmid"] = value.NewFloat(math.NaN())
		}
		switch {
		case v > 0 && v%8 == 0:
			props["k"] = value.NewString(fmt.Sprintf("k%d", v))
		case v > 0 && v%9 == 0:
			props["k"] = value.NewFloat(0.5 + float64(v))
		case v > 0 && v%10 == 0:
			props["k"] = value.NewBool(v%20 == 0)
		}
		return g.CreateNode(labels, props).ID
	}
	var ids []uint64
	for v := 0; v < n; v++ {
		ids = append(ids, node(v))
	}
	for k := 0; k+7 < len(ids); k += 5 {
		if _, err := g.CreateEdge("R", ids[k], ids[k+7], nil); err != nil {
			t.Fatal(err)
		}
	}
	g.Sync()
	for v := n; v < n+n/8; v++ {
		ids = append(ids, node(v))
	}
	for k := 0; k < len(ids); k += 13 {
		if err := g.SetNodeProperty(ids[k], "i", value.Null); err != nil {
			t.Fatal(err)
		}
	}
	for k := 4; k < len(ids); k += 17 {
		if err := g.SetNodeProperty(ids[k], "f", value.NewInt(int64(k))); err != nil {
			t.Fatal(err)
		}
	}
	for _, k := range []int{2, 50, 51, 200, n + 3} {
		if _, ok := g.DeleteNode(ids[k]); !ok {
			t.Fatalf("delete node %d", ids[k])
		}
	}
	if g.PendingDeltas() == 0 {
		t.Fatal("fixture has no pending deltas")
	}
	return g
}

// scanAggNodes is the differential fixture's folded node count.
const scanAggNodes = 1200

// aggCell renders a result cell with its kind, floats by their bits, so two
// answers match only when they are the same value bit for bit.
func aggCell(v value.Value) string {
	if v.Kind == value.KindFloat {
		return fmt.Sprintf("float:%016x", math.Float64bits(v.Float()))
	}
	return fmt.Sprintf("%s:%s", v.Kind, v.String())
}

func aggRows(t testing.TB, g *graph.Graph, query string, cfg Config) string {
	t.Helper()
	return aggRowsParams(t, g, query, nil, cfg)
}

func aggRowsParams(t testing.TB, g *graph.Graph, query string, params map[string]value.Value, cfg Config) string {
	t.Helper()
	rs, err := Query(g, query, params, cfg)
	if err != nil {
		t.Fatalf("cfg %+v %s: %v", cfg, query, err)
	}
	return renderAgg(rs)
}

func renderAgg(rs *ResultSet) string {
	var rows []string
	for _, row := range rs.Rows {
		cells := make([]string, len(row))
		for j, v := range row {
			cells[j] = aggCell(v)
		}
		rows = append(rows, strings.Join(cells, "|"))
	}
	return strings.Join(rows, "; ")
}

func planText(t testing.TB, g *graph.Graph, query string, cfg Config) string {
	t.Helper()
	lines, err := Explain(g, query, cfg)
	if err != nil {
		t.Fatalf("explain %s: %v", query, err)
	}
	return strings.Join(lines, "\n")
}

// TestScanAggregateDifferential checks every ScanAggregate answer against
// Aggregate over the same scan (noPushdown), cell for cell and float bits
// included, across batch × kernel × plan cache. The whole list runs twice:
// over the fixture's pending label diagonals (the delta-aware member walk)
// and again after a fold (the members read off the clean diagonal's column
// indices).
func TestScanAggregateDifferential(t *testing.T) {
	g := scanAggGraph(t)
	queries := scanAggQueries()
	all := append(scanAggQueries(), scanAggPredQueries()...)
	for _, q := range all {
		if plan := planText(t, g, q, Config{}); !strings.Contains(plan, "ScanAggregate") {
			t.Fatalf("%s must plan ScanAggregate:\n%s", q, plan)
		}
		if plan := planText(t, g, q, Config{noPushdown: true}); strings.Contains(plan, "ScanAggregate") {
			t.Fatalf("%s under noPushdown must keep Aggregate:\n%s", q, plan)
		}
	}
	params := scanAggPredParams()
	for _, state := range []string{"pending", "synced"} {
		if state == "synced" {
			g.Lock()
			g.Sync()
			g.Unlock()
		}
		if pending := g.PendingDeltas() > 0; pending != (state == "pending") {
			t.Fatalf("%s fixture: pending deltas %d", state, g.PendingDeltas())
		}
		for _, batch := range []int{1, 64} {
			for _, kernel := range kernelModes {
				for _, cached := range []bool{false, true} {
					cfg := Config{batch: batch, kernel: kernel}
					ref := Config{batch: batch, kernel: kernel, noPushdown: true}
					if cached {
						cfg.PlanCache = NewPlanCache(DefaultPlanCacheSize)
						ref.PlanCache = NewPlanCache(DefaultPlanCacheSize)
					}
					list := queries
					if batch == 64 && kernel == kernelAuto {
						// The predicates neither traverse nor build
						// records, so one batch size and kernel cover them.
						list = all
					}
					for _, q := range list {
						got, want := aggRowsParams(t, g, q, params, cfg), aggRowsParams(t, g, q, params, ref)
						if got != want {
							t.Fatalf("%s cfg %+v %s:\nScanAggregate %s\nAggregate     %s", state, cfg, q, got, want)
						}
					}
				}
			}
		}
		// Spot checks that the fixture exercises what it claims.
		if got := aggRows(t, g, `MATCH (p:P) RETURN min(p.nan0), sum(p.big)`, Config{}); !strings.HasPrefix(got, "float:7ff8") ||
			strings.Contains(got, "integer") {
			t.Errorf("%s: min over a NaN-first column must be NaN and the overflowing sum a float: %s", state, got)
		}
		live := scanAggNodes + scanAggNodes/8 - 5
		if got, want := aggRows(t, g, `MATCH (p) RETURN count(*)`, Config{}), fmt.Sprintf("integer:%d", live); got != want {
			t.Errorf("%s: all-node count = %s, want %s", state, got, want)
		}
		// ScanAggregate and its reference read label members the same way,
		// so the member count is checked against the node store itself.
		members := 0
		g.ForEachNode(func(n *graph.Node) bool {
			if nodeHasLabel(g, n, "P") {
				members++
			}
			return true
		})
		if got, want := aggRows(t, g, `MATCH (p:P) RETURN count(p)`, Config{}), fmt.Sprintf("integer:%d", members); got != want {
			t.Errorf("%s: :P count = %s, want %s", state, got, want)
		}
		if got := aggRowsParams(t, g, `MATCH (p:P) WHERE p.e = $big RETURN count(p)`, params, Config{}); got == "integer:0" {
			t.Errorf("%s: no row holds 2⁵³+1 exactly", state)
		}
	}
}

// scanAggQueries lists the aggregates and scans of the differential test.
func scanAggQueries() []string {
	return []string{
		// All-node scans: the [0, Dim) sweep, and a pushed predicate's
		// candidate list.
		`MATCH (p) RETURN count(*), count(p), sum(p.i), avg(p.f), min(p.s), max(p.k)`,
		`MATCH (p) WHERE p.i > 5 RETURN count(p), sum(p.f), avg(p.i), min(p.nanmid)`,
		// Label scans over int, float and string columns.
		`MATCH (p:P) RETURN count(p.i), sum(p.i), avg(p.i), min(p.i), max(p.i)`,
		`MATCH (p:P) RETURN count(p.f), sum(p.f), avg(p.f), min(p.f), max(p.f)`,
		`MATCH (p:P) RETURN count(p.s), sum(p.s), avg(p.s), min(p.s), max(p.s)`,
		// NaN first and in the middle: min and max keep the first-seen rule.
		`MATCH (p:P) RETURN min(p.nan0), max(p.nan0), sum(p.nan0), min(p.nanmid), max(p.nanmid), avg(p.nanmid)`,
		// int64 overflow switches sum to float; the kind-changed column mixes
		// typed ints with string, float and bool overflow rows.
		`MATCH (p:P) RETURN sum(p.big), avg(p.big), min(p.big), max(p.big)`,
		`MATCH (p:P) RETURN count(p.k), sum(p.k), avg(p.k), min(p.k), max(p.k)`,
		// Unknown attribute and label.
		`MATCH (p:P) RETURN count(p.nope), sum(p.nope), avg(p.nope), min(p.nope), max(p.nope)`,
		`MATCH (p:Nope) RETURN count(*), count(p), sum(p.i), min(p.f)`,
		`MATCH (p:P) WHERE p.nope < 3 RETURN count(*), sum(p.i)`,
		// Pushed labels and property predicates, ORDER BY and LIMIT above.
		`MATCH (p:P:Q) WHERE p.i >= 3 AND p.s <> 's05' RETURN count(p), max(p.f), sum(p.i)`,
		`MATCH (p:Q) WHERE p.f < 40.5 RETURN count(*) AS c, min(p.i) ORDER BY c LIMIT 1`,
		// Index scans, with and without a pushed predicate.
		`MATCH (p:P {g: 1}) WHERE p.i > 10 RETURN count(p), sum(p.i), max(p.s)`,
		`MATCH (p:P {g: 2}) RETURN count(p), sum(p.f), min(p.nan0)`,
		// A scan with an input runs one pass per input record.
		`UNWIND [1, 2, 3] AS x MATCH (p:Q) RETURN count(*), sum(p.i), avg(p.f)`,
		`MATCH (a:P)-[:R]->(b) WITH count(b) AS c MATCH (p:Q) RETURN count(p), sum(p.f)`,
	}
}

// scanAggPredQueries pushes every comparison operator over an int column
// (i, and e around 2⁵³), a float column holding int overflow rows (f), a
// float column holding NaN (nanmid), an int column holding string, float and
// bool overflow rows (k) and a string column holding int overflow rows (s),
// against each target of scanAggPredParams and two string literals (one
// interned, one not): every compiled predicate mode and its overflow
// fallback.
func scanAggPredQueries() []string {
	var out []string
	for _, col := range []string{"i", "e", "f", "nanmid", "k", "s"} {
		for _, op := range cmpOpText {
			for _, target := range []string{"$nan", "$negz", "$big", "$half", "$int", "'s05'", "'zz'"} {
				out = append(out, fmt.Sprintf("MATCH (p:P) WHERE p.%s %s %s RETURN count(p), sum(p.i), min(p.f), max(p.k)", col, op, target))
			}
		}
	}
	return out
}

// scanAggPredParams are the predicate targets: NaN, −0.0 (equal to 0 and
// to 0.0), 2⁵³+1 (an int float64 cannot hold), 2.5 (a float no int equals)
// and a plain int.
func scanAggPredParams() map[string]value.Value {
	return map[string]value.Value{
		"nan":  value.NewFloat(math.NaN()),
		"negz": value.NewFloat(math.Copysign(0, -1)),
		"big":  value.NewInt(1<<53 + 1),
		"half": value.NewFloat(2.5),
		"int":  value.NewInt(3),
	}
}

// TestScanAggregateConcurrent runs scan aggregates from several goroutines
// at once over one graph and one plan cache: pooled candidate buffers must
// not leak rows between queries.
func TestScanAggregateConcurrent(t *testing.T) {
	g := scanAggGraph(t)
	queries := []string{
		`MATCH (p) RETURN count(*), sum(p.i), avg(p.f)`,
		`MATCH (p:P) WHERE p.i > 5 AND p.f < 100.5 RETURN count(p), min(p.s), max(p.k)`,
		`MATCH (p:P {g: 3}) RETURN count(p), sum(p.big)`,
	}
	want := make([]string, len(queries))
	for i, q := range queries {
		want[i] = aggRows(t, g, q, Config{noPushdown: true})
	}
	cfg := Config{PlanCache: NewPlanCache(DefaultPlanCacheSize)}
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for k := 0; k < 25; k++ {
				i := (w + k) % len(queries)
				rs, err := ROQuery(g, queries[i], nil, cfg)
				if err != nil {
					t.Errorf("%s: %v", queries[i], err)
					return
				}
				if got := renderAgg(rs); got != want[i] {
					t.Errorf("%s: %s, want %s", queries[i], got, want[i])
					return
				}
			}
		}(w)
	}
	wg.Wait()
}

// TestScanAggregateBelowWrite checks the kernel over a scan whose input is a
// write: the label, the attribute and a kind change are all made by the same
// query, and must be seen, pushed or not.
func TestScanAggregateBelowWrite(t *testing.T) {
	queries := []struct{ query, first, second string }{
		{`CREATE (:X {v: 1}), (:X {v: 2.5}), (:X {v: 'a'}) WITH 1 AS one MATCH (p:X) RETURN count(p), sum(p.v)`,
			"integer:3|float:400c000000000000", "integer:6|float:401c000000000000"},
		{`CREATE (:X {v: 1}) WITH 1 AS one MATCH (p:X) WHERE p.v > 0 RETURN count(p), sum(p.v)`,
			"integer:1|integer:1", "integer:2|integer:2"},
	}
	for _, c := range queries {
		if plan := planText(t, graph.New("e"), c.query, Config{}); !strings.Contains(plan, "ScanAggregate") {
			t.Fatalf("%s must plan ScanAggregate:\n%s", c.query, plan)
		}
		for _, batch := range []int{1, 64} {
			for _, noPushdown := range []bool{false, true} {
				cfg := Config{batch: batch, noPushdown: noPushdown}
				g := graph.New("w")
				if got := aggRows(t, g, c.query, cfg); got != c.first {
					t.Errorf("cfg %+v %s: first run %s, want %s", cfg, c.query, got, c.first)
				}
				if got := aggRows(t, g, c.query, cfg); got != c.second {
					t.Errorf("cfg %+v %s: second run %s, want %s", cfg, c.query, got, c.second)
				}
			}
		}
	}
}

// TestScanAggregateTimeout checks the kernel polls the deadline itself: a
// query past its deadline fails inside the fold, not after it.
func TestScanAggregateTimeout(t *testing.T) {
	g := scanAggGraph(t)
	_, err := Query(g, `MATCH (p:P) RETURN count(p), sum(p.i)`, nil, Config{Timeout: time.Nanosecond})
	if err == nil || !strings.Contains(err.Error(), "during scan aggregation") {
		t.Fatalf("err = %v, want a timeout from the scan aggregation", err)
	}
}

// TestScanAggregateNotPushed lists the aggregations over a scan that keep
// records and Aggregate.
func TestScanAggregateNotPushed(t *testing.T) {
	g := scanAggGraph(t)
	for _, c := range []struct {
		query string
		cfg   Config
	}{
		{`MATCH (p:P) RETURN count(DISTINCT p.i)`, Config{}},
		{`MATCH (p:P) RETURN collect(p.i)`, Config{}},
		{`MATCH (p:P) RETURN p.g, count(p)`, Config{}},
		{`MATCH (p:P) RETURN sum(p.i * 2)`, Config{}},
		{`MATCH (p:P) RETURN min(p)`, Config{}},
		{`MATCH (p:P) WHERE p.i + 1 > 3 RETURN count(p)`, Config{}},
		{`MATCH (p:P)-[:R]->(q) RETURN sum(q.i)`, Config{}},
		{`MATCH (p:P) RETURN count(p), sum(p.i)`, Config{noPushdown: true}},
	} {
		plan := planText(t, g, c.query, c.cfg)
		if strings.Contains(plan, "ScanAggregate") || !strings.Contains(plan, "Aggregate |") {
			t.Errorf("%s (cfg %+v) must keep Aggregate:\n%s", c.query, c.cfg, plan)
		}
	}
}

// TestSumExact pins sum over integers to exact int64 arithmetic: it switches
// to float64 on the first float input or on overflow, never earlier. The
// same rows are summed from literals, through a property column (pushed into
// ScanAggregate, and as records through Aggregate), and through a parallel
// Aggregate whose segments merge their partial sums.
func TestSumExact(t *testing.T) {
	const maxInt = "9223372036854775807"
	odd := int64(9007199254740993) // the first int float64 cannot hold
	cases := []struct {
		vals []string
		want string
	}{
		{[]string{"9007199254740992", "1"}, "integer:9007199254740993"},
		{[]string{maxInt, "-1"}, "integer:9223372036854775806"},
		{[]string{"-" + maxInt, "-1", "3"}, "integer:-9223372036854775805"},
		{[]string{maxInt, "1"}, fmt.Sprintf("float:%016x", math.Float64bits(math.MaxInt64))},
		{[]string{"9007199254740993", "0.5"}, fmt.Sprintf("float:%016x", math.Float64bits(float64(odd)+0.5))},
		{nil, "integer:0"},
	}
	for _, c := range cases {
		list := "[" + strings.Join(c.vals, ", ") + "]"
		if got := aggRows(t, graph.New("u"), `UNWIND `+list+` AS x RETURN sum(x)`, Config{}); got != c.want {
			t.Errorf("sum over %s = %s, want %s", list, got, c.want)
		}
		g := graph.New("col")
		if len(c.vals) > 0 {
			q(t, g, `UNWIND `+list+` AS x CREATE (:S {v: x})`)
		}
		for _, cfg := range []Config{{}, {noPushdown: true}} {
			if got := aggRows(t, g, `MATCH (p:S) RETURN sum(p.v)`, cfg); got != c.want {
				t.Errorf("cfg %+v: sum(p.v) over %s = %s, want %s", cfg, list, got, c.want)
			}
		}
	}
}
