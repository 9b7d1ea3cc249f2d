package core

import "testing"

// BenchmarkJoinOrder times the join planner's order-sensitive shapes over
// adversarialGraph(200) through ROQuery with a warm plan cache, so only
// execution is timed. hub-filter must keep the a.uid predicate on the
// entry scan and fold the hop into TraverseCount; two-hop is a grouped
// count over a two-hop :D chain; two-component joins two disconnected
// components by a cartesian product; bridged/hash-join and bridged/rescan
// are two components bridged by a WHERE equality, planned as a hash join by
// the cost planner and as a cartesian rescan plus Filter under
// noCostPlanner.
//
//	go test -run '^$' -bench JoinOrder ./internal/core
func BenchmarkJoinOrder(b *testing.B) {
	g := adversarialGraph(b, 200)
	const bridged = `MATCH (a:Hub)-[:D]->(b:Hub), (c:Rare)<-[:Sp]-(d:Hub) WHERE b.uid = d.uid AND a.uid < 100 RETURN count(*)`
	for _, shape := range []struct {
		name, query string
		cfg         Config
	}{
		{"hub-filter", `MATCH (a:Hub)-[:D]->(b) WHERE a.uid < 150 RETURN count(b)`, Config{}},
		{"two-hop", `MATCH (a:Hub)-[:D]->(b:Hub)-[:D]->(c) RETURN a.uid, count(c)`, Config{}},
		{"two-component", `MATCH (a:Hub)-[:Sp]->(b:Rare), (c:Rare)-[:Back]->(d:Hub) RETURN count(*)`, Config{}},
		{"bridged/hash-join", bridged, Config{}},
		{"bridged/rescan", bridged, Config{noCostPlanner: true}},
	} {
		b.Run(shape.name, func(b *testing.B) {
			cfg := shape.cfg
			cfg.PlanCache = NewPlanCache(DefaultPlanCacheSize)
			if _, err := ROQuery(g, shape.query, nil, cfg); err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := ROQuery(g, shape.query, nil, cfg); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
