package core

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"testing"

	"redisgraph/internal/graph"
	"redisgraph/internal/value"
)

// rwOp is one step of the interleaved mixed-workload stream: either a
// mutation or a read whose result multiset is recorded for comparison.
type rwOp struct {
	query string
	read  bool
}

// mixedStream generates a deterministic interleaved CREATE/DELETE/SET +
// MATCH stream over a small universe of :N nodes identified by uid.
func mixedStream(seed int64, n, ops int) []rwOp {
	rng := rand.New(rand.NewSource(seed))
	var out []rwOp
	for i := 0; i < n; i++ {
		out = append(out, rwOp{query: fmt.Sprintf(`CREATE (:N {uid: %d})`, i)})
	}
	reads := []string{
		`MATCH (a:N)-[:R]->(b:N) RETURN a.uid, b.uid`,
		`MATCH (a:N)-[:S]->(b:N) RETURN a.uid, b.uid`,
		`MATCH (a:N)-[:R|S]->(b:N) RETURN a.uid, b.uid`,
		`MATCH (a:N)-[e]->(b) RETURN count(e)`,
		`MATCH (a:N)-[:R*1..3]->(b:N) RETURN a.uid, b.uid`,
		`MATCH (a:N) RETURN a.uid, a.w`,
		`MATCH (a:N)<-[:R]-(b:N) RETURN a.uid, b.uid`,
	}
	for k := 0; k < ops; k++ {
		x, y := rng.Intn(n), rng.Intn(n)
		rel := "R"
		if rng.Intn(3) == 0 {
			rel = "S"
		}
		switch rng.Intn(6) {
		case 0, 1:
			out = append(out, rwOp{query: fmt.Sprintf(
				`MATCH (a:N {uid: %d}), (b:N {uid: %d}) CREATE (a)-[:%s]->(b)`, x, y, rel)})
		case 2:
			out = append(out, rwOp{query: fmt.Sprintf(
				`MATCH (a:N {uid: %d})-[e:%s]->(b:N) WHERE b.uid = %d DELETE e`, x, rel, y)})
		case 3:
			out = append(out, rwOp{query: fmt.Sprintf(
				`MATCH (a:N {uid: %d}) SET a.w = %d`, x, rng.Intn(100))})
		default:
			out = append(out, rwOp{query: reads[rng.Intn(len(reads))], read: true})
		}
	}
	// Always end on every read so final states are compared too.
	for _, r := range reads {
		out = append(out, rwOp{query: r, read: true})
	}
	return out
}

// coarseQuery is the oracle lock discipline — the pre-delta behaviour: the
// exclusive lock held for the whole query and a full matrix fold before
// release.
func coarseQuery(g *graph.Graph, query string, params map[string]value.Value, cfg Config) (*ResultSet, error) {
	plan, _, err := planFor(g, query, cfg)
	if err != nil {
		return nil, err
	}
	g.Lock()
	defer func() { g.Sync(); g.Unlock() }()
	return execute(g, plan, params, cfg, false, nil)
}

// runStream executes the stream sequentially against a fresh graph through
// run (Query or coarseQuery) under the given configuration, returning each
// read's sorted result multiset.
func runStream(t *testing.T, stream []rwOp,
	run func(*graph.Graph, string, map[string]value.Value, Config) (*ResultSet, error),
	cfg Config, syncThreshold int) []string {
	t.Helper()
	g := graph.New("diff")
	g.SetSyncThreshold(syncThreshold)
	var results []string
	for _, op := range stream {
		rs, err := run(g, op.query, nil, cfg)
		if err != nil {
			t.Fatalf("%s: %v", op.query, err)
		}
		if op.read {
			results = append(results, multiset(rs))
		}
	}
	return results
}

// multiset renders a result set as a sorted row multiset, order-insensitive.
func multiset(rs *ResultSet) string {
	rows := make([]string, len(rs.Rows))
	for i, row := range rs.Rows {
		cells := make([]string, len(row))
		for j, v := range row {
			cells[j] = v.String()
		}
		rows[i] = strings.Join(cells, "|")
	}
	sort.Strings(rows)
	return strings.Join(rows, "\n")
}

// TestMixedWorkloadDifferential proves result equivalence between the old
// coarse-lock execution (whole-query exclusive lock, full fold per write)
// and delta-matrix concurrent execution across sync thresholds: the same
// interleaved CREATE/DELETE/SET + MATCH stream must produce identical
// result multisets no matter how lazily deltas fold.
func TestMixedWorkloadDifferential(t *testing.T) {
	for _, seed := range []int64{1, 2, 3} {
		stream := mixedStream(seed, 24, 300)
		baseline := runStream(t, stream, coarseQuery, Config{}, 0)
		for _, threshold := range []int{0, 16, 4096} {
			got := runStream(t, stream, Query, Config{}, threshold)
			if len(got) != len(baseline) {
				t.Fatalf("seed %d threshold %d: %d reads vs %d", seed, threshold, len(got), len(baseline))
			}
			for i := range got {
				if got[i] != baseline[i] {
					t.Fatalf("seed %d threshold %d: read %d diverged\ncoarse:\n%s\ndelta:\n%s",
						seed, threshold, i, baseline[i], got[i])
				}
			}
		}
	}
}

// TestMixedWorkloadBatchSizes runs the same differential with batch 1
// (one-row frontiers) against the batched default, under
// delta concurrency — the traversal tentpole and the delta tentpole must
// compose.
func TestMixedWorkloadBatchSizes(t *testing.T) {
	stream := mixedStream(7, 16, 200)
	baseline := runStream(t, stream, coarseQuery, Config{batch: 1}, 0)
	got := runStream(t, stream, Query, Config{}, 16)
	for i := range got {
		if got[i] != baseline[i] {
			t.Fatalf("read %d diverged\nbatch-1 coarse:\n%s\nbatched delta:\n%s", i, baseline[i], got[i])
		}
	}
}

// TestDeltaVisibility checks read-your-writes across fold boundaries: a
// write query's effects are visible to subsequent reads while the deltas
// are still pending, and survive a fold unchanged.
func TestDeltaVisibility(t *testing.T) {
	g := graph.New("vis")
	g.SetSyncThreshold(1 << 30) // never fold on threshold
	mustQ := func(query string) *ResultSet {
		t.Helper()
		rs, err := Query(g, query, nil, Config{})
		if err != nil {
			t.Fatalf("%s: %v", query, err)
		}
		return rs
	}
	mustQ(`CREATE (:N {uid: 0})`)
	mustQ(`CREATE (:N {uid: 1})`)
	mustQ(`MATCH (a:N {uid: 0}), (b:N {uid: 1}) CREATE (a)-[:R]->(b)`)
	if g.PendingDeltas() == 0 {
		t.Fatal("expected pending deltas with a huge threshold")
	}
	if got := singleInt(t, mustQ(`MATCH (:N)-[:R]->(b) RETURN count(b)`)); got != 1 {
		t.Fatalf("pending edge invisible: count = %d", got)
	}
	mustQ(`MATCH (a:N {uid: 0})-[e:R]->(b) DELETE e`)
	if got := singleInt(t, mustQ(`MATCH (:N)-[:R]->(b) RETURN count(b)`)); got != 0 {
		t.Fatalf("pending delete invisible: count = %d", got)
	}
	mustQ(`MATCH (a:N {uid: 1}), (b:N {uid: 0}) CREATE (a)-[:R]->(b)`)
	g.Lock()
	g.Sync()
	g.Unlock()
	if g.PendingDeltas() != 0 {
		t.Fatal("sync left deltas pending")
	}
	rs := mustQ(`MATCH (a:N)-[:R]->(b:N) RETURN a.uid, b.uid`)
	if len(rs.Rows) != 1 || rs.Rows[0][0].Int() != 1 || rs.Rows[0][1].Int() != 0 {
		t.Fatalf("post-sync state wrong: %v", rs.Rows)
	}
}
