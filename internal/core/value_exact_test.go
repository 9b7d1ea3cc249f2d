package core

import (
	"sort"
	"strings"
	"testing"

	"redisgraph/internal/graph"
)

// sortedRows renders a result's rows (aggCell per cell) in sorted order, for
// queries whose row order is not pinned.
func sortedRows(t *testing.T, g *graph.Graph, query string, cfg Config) string {
	t.Helper()
	rs, err := Query(g, query, nil, cfg)
	if err != nil {
		t.Fatalf("cfg %+v %s: %v", cfg, query, err)
	}
	rows := strings.Split(renderAgg(rs), "; ")
	sort.Strings(rows)
	return strings.Join(rows, "; ")
}

// TestBigIntsCompareExactly pins integer comparison past 2⁵³, where two ints
// share a float64 reading: equality, ordering, pushed column predicates (int
// and float columns against int and float targets), index lookups, DISTINCT,
// grouping, min/max and ORDER BY all tell 2⁵³ and 2⁵³+1 apart, on the
// pushed-down and the interpreted plans alike.
func TestBigIntsCompareExactly(t *testing.T) {
	const lo, hi = "integer:9007199254740992", "integer:9007199254740993"
	fixture := `CREATE (:N {uid: 9007199254740992}), (:N {uid: 9007199254740993}), (:F {x: 9007199254740992.0})`
	plain := graph.New("big")
	q(t, plain, fixture)
	indexed := graph.New("bigidx")
	q(t, indexed, `CREATE INDEX ON :N(uid)`)
	q(t, indexed, fixture)
	cases := []struct{ query, want string }{
		{`RETURN 9007199254740993 = 9007199254740992, 9007199254740993 > 9007199254740992`, "boolean:false|boolean:true"},
		{`RETURN 9007199254740993 > 9007199254740992.0, 9007199254740992.0 < 9007199254740993`, "boolean:true|boolean:true"},
		{`MATCH (n:N) WHERE n.uid = 9007199254740993 RETURN count(n)`, "integer:1"},
		{`MATCH (n:N) WHERE n.uid > 9007199254740992 RETURN count(n)`, "integer:1"},
		{`MATCH (n:N) WHERE n.uid > 9007199254740992.0 RETURN count(n)`, "integer:1"},
		{`MATCH (f:F) WHERE f.x < 9007199254740993 RETURN count(f)`, "integer:1"},
		{`MATCH (n:N {uid: 9007199254740993}) RETURN n.uid`, hi},
		{`MATCH (n:N) RETURN count(DISTINCT n.uid)`, "integer:2"},
		{`MATCH (n:N) RETURN n.uid, count(n) ORDER BY n.uid`, lo + "|integer:1; " + hi + "|integer:1"},
		{`MATCH (n:N) RETURN min(n.uid), max(n.uid)`, lo + "|" + hi},
		{`MATCH (n:N) RETURN n.uid ORDER BY n.uid`, lo + "; " + hi},
		{`MATCH (n:N) RETURN n.uid ORDER BY n.uid DESC`, hi + "; " + lo},
	}
	for _, base := range kernelConfigs() {
		for _, noPushdown := range []bool{false, true} {
			cfg := base
			cfg.noPushdown = noPushdown
			for _, g := range []*graph.Graph{plain, indexed} {
				for _, c := range cases {
					if got := aggRows(t, g, c.query, cfg); got != c.want {
						t.Errorf("%s, cfg %+v: %s = %s, want %s", g.Name, cfg, c.query, got, c.want)
					}
				}
			}
		}
	}
}

// TestHashKeyStringsDelimited pins DISTINCT and grouping over lists whose
// strings contain the separators a grouping key is built from: the lists
// differ, so they are two values and two groups.
func TestHashKeyStringsDelimited(t *testing.T) {
	g := graph.New("keys")
	cases := []struct{ query, want string }{
		{`UNWIND [['a','b'], ['a,s:b']] AS x RETURN count(DISTINCT x)`, "integer:2"},
		{`UNWIND [['x|s:y','z'], ['x','y|s:z']] AS p RETURN DISTINCT p[0], p[1]`, "string:x|s:y|string:z; string:x|string:y|s:z"},
		{`UNWIND [['x|s:y','z'], ['x','y|s:z']] AS p RETURN p[0], p[1], count(*)`, "string:x|s:y|string:z|integer:1; string:x|string:y|s:z|integer:1"},
	}
	for _, c := range cases {
		if got := sortedRows(t, g, c.query, Config{}); got != c.want {
			t.Errorf("%s = %s, want %s", c.query, got, c.want)
		}
	}
}
