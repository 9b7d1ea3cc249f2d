package server

import (
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"redisgraph/internal/client"
	"redisgraph/internal/core"
	"redisgraph/internal/resp"
)

func startServer(t *testing.T) (*Server, *client.Client) {
	t.Helper()
	s := New(Options{Addr: "127.0.0.1:0", ThreadCount: 4})
	if err := s.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)
	c, err := client.Dial(s.Addr())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return s, c
}

func TestPingEchoSetGet(t *testing.T) {
	_, c := startServer(t)
	if v, err := c.Do("PING"); err != nil || v.(resp.SimpleString) != "PONG" {
		t.Fatalf("%v %v", v, err)
	}
	if v, err := c.Do("ECHO", "hello"); err != nil || v.(string) != "hello" {
		t.Fatalf("%v %v", v, err)
	}
	if v, err := c.Do("SET", "k", "v"); err != nil || v.(resp.SimpleString) != "OK" {
		t.Fatalf("%v %v", v, err)
	}
	if v, err := c.Do("GET", "k"); err != nil || v.(string) != "v" {
		t.Fatalf("%v %v", v, err)
	}
	if v, err := c.Do("GET", "missing"); err != nil || v != nil {
		t.Fatalf("%v %v", v, err)
	}
	if v, err := c.Do("EXISTS", "k", "missing"); err != nil || v.(int64) != 1 {
		t.Fatalf("%v %v", v, err)
	}
	if v, err := c.Do("DEL", "k"); err != nil || v.(int64) != 1 {
		t.Fatalf("%v %v", v, err)
	}
}

func TestUnknownCommand(t *testing.T) {
	_, c := startServer(t)
	if _, err := c.Do("NOPE"); err == nil || !strings.Contains(err.Error(), "unknown command") {
		t.Fatalf("err = %v", err)
	}
}

func TestGraphQueryLifecycle(t *testing.T) {
	_, c := startServer(t)
	if _, err := c.Query("g", `CREATE (:Person {name: 'alice'})-[:KNOWS]->(:Person {name: 'bob'})`); err != nil {
		t.Fatal(err)
	}
	rep, err := c.Query("g", `MATCH (a:Person)-[:KNOWS]->(b) RETURN a.name, b.name`)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep) != 3 {
		t.Fatalf("reply sections: %d", len(rep))
	}
	header := rep[0].([]any)
	if len(header) != 2 || header[0].(string) != "a.name" {
		t.Fatalf("header: %v", header)
	}
	rows := rep[1].([]any)
	if len(rows) != 1 {
		t.Fatalf("rows: %v", rows)
	}
	row := rows[0].([]any)
	if row[0].(string) != "alice" || row[1].(string) != "bob" {
		t.Fatalf("row: %v", row)
	}
	stats := rep[2].([]any)
	if len(stats) == 0 || !strings.Contains(stats[len(stats)-1].(string), "execution time") {
		t.Fatalf("stats: %v", stats)
	}

	// KEYS and GRAPH.LIST see the graph.
	if v, _ := c.Do("GRAPH.LIST"); len(v.([]any)) != 1 {
		t.Fatalf("graph.list: %v", v)
	}
	if v, _ := c.Do("DBSIZE"); v.(int64) != 1 {
		t.Fatalf("dbsize: %v", v)
	}

	// EXPLAIN returns plan lines.
	v, err := c.Do("GRAPH.EXPLAIN", "g", `MATCH (n:Person) RETURN count(n)`)
	if err != nil {
		t.Fatal(err)
	}
	joined := fmt.Sprint(v)
	if !strings.Contains(joined, "ScanAggregate | n:Person | count(n)") {
		t.Fatalf("explain: %v", v)
	}

	// PROFILE includes record counts.
	v, err = c.Do("GRAPH.PROFILE", "g", `MATCH (n:Person) RETURN count(n)`)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(fmt.Sprint(v), "Records produced") {
		t.Fatalf("profile: %v", v)
	}

	// RO_QUERY rejects writes.
	if _, err := c.Do("GRAPH.RO_QUERY", "g", `CREATE (:X)`); err == nil {
		t.Fatal("want RO error")
	}

	// DELETE removes the graph.
	if v, err := c.Do("GRAPH.DELETE", "g"); err != nil || v.(resp.SimpleString) != "OK" {
		t.Fatalf("%v %v", v, err)
	}
	if _, err := c.Do("GRAPH.DELETE", "g"); err == nil {
		t.Fatal("want missing-graph error")
	}
}

func TestCypherParameterPrefix(t *testing.T) {
	_, c := startServer(t)
	if _, err := c.Query("g", `CREATE (:N {uid: 7, name: 'x'})`); err != nil {
		t.Fatal(err)
	}
	rep, err := c.Query("g", `CYPHER id=7 who='x' MATCH (n:N {uid: $id}) WHERE n.name = $who RETURN count(n)`)
	if err != nil {
		t.Fatal(err)
	}
	rows := rep[1].([]any)
	if rows[0].([]any)[0].(int64) != 1 {
		t.Fatalf("rows: %v", rows)
	}
}

func TestQueryErrorsAreRESPErrors(t *testing.T) {
	_, c := startServer(t)
	_, err := c.Do("GRAPH.QUERY", "g", "THIS IS NOT CYPHER")
	if err == nil {
		t.Fatal("want error")
	}
	var er resp.ErrorReply
	if !strings.Contains(err.Error(), "ERR") {
		t.Fatalf("err = %v (%T, %v)", err, err, er)
	}
}

func TestConcurrentClientsOrderedReplies(t *testing.T) {
	s, seedClient := startServer(t)
	if _, err := seedClient.Query("g", `CREATE (:N {uid: 1})`); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c, err := client.Dial(s.Addr())
			if err != nil {
				t.Error(err)
				return
			}
			defer c.Close()
			for q := 0; q < 25; q++ {
				// Interleave keyspace and graph commands; replies must stay
				// in order per connection.
				if v, err := c.Do("ECHO", fmt.Sprint(q)); err != nil || v.(string) != fmt.Sprint(q) {
					t.Errorf("echo order broken: %v %v", v, err)
					return
				}
				rep, err := c.Query("g", `MATCH (n:N) RETURN count(n)`)
				if err != nil {
					t.Error(err)
					return
				}
				if rep[1].([]any)[0].([]any)[0].(int64) != 1 {
					t.Error("bad count")
					return
				}
			}
		}()
	}
	wg.Wait()
}

func TestGraphConfig(t *testing.T) {
	_, c := startServer(t)
	v, err := c.Do("GRAPH.CONFIG", "GET", "THREAD_COUNT")
	if err != nil {
		t.Fatal(err)
	}
	pair := v.([]any)
	if pair[0].(string) != "THREAD_COUNT" || pair[1].(int64) != 4 {
		t.Fatalf("config: %v", v)
	}
	if _, err := c.Do("GRAPH.CONFIG", "SET", "TIMEOUT", "5"); err == nil {
		t.Fatal("SET of a start-up parameter must fail")
	}

	// A query runs on its connection goroutine, never split, and only
	// deployment settings are parameters: the knobs of intra-query
	// parallelism, the join planner and the differential baselines (batch
	// size, cost planner, kernel direction) are unknown parameters, and the
	// plan cache has one bound, PLAN_CACHE_SIZE.
	for _, name := range []string{"MAX_QUERY_THREADS", "GLOBAL_THREAD_BUDGET", "FAIR_SCHEDULER", "JOIN_PLANNER",
		"TRAVERSE_BATCH", "COST_PLANNER", "TRAVERSE_KERNEL", "PLAN_CACHE_MAX_BYTES"} {
		for _, args := range [][]string{{"GRAPH.CONFIG", "GET", name}, {"GRAPH.CONFIG", "SET", name, "1"}} {
			_, err := c.Do(args...)
			if err == nil || !strings.Contains(err.Error(), "unknown configuration parameter") {
				t.Fatalf("GRAPH.CONFIG %v: err = %v, want unknown parameter", args, err)
			}
		}
	}
	v, err = c.Do("GRAPH.CONFIG", "GET", "*")
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, p := range v.([]any) {
		names = append(names, p.([]any)[0].(string))
	}
	want := "THREAD_COUNT TIMEOUT PLAN_CACHE_SIZE ADMISSION_TIMEOUT"
	if got := strings.Join(names, " "); got != want {
		t.Fatalf("GET * names:\n got %s\nwant %s", got, want)
	}
	_, err = c.Do("GRAPH.CONFIG", "SET")
	if err == nil || !strings.Contains(err.Error(), "SET PLAN_CACHE_SIZE|ADMISSION_TIMEOUT <value>") {
		t.Fatalf("usage error = %v, want the two settable parameters", err)
	}

	if _, err := c.Query("g", `CREATE (:N {x: 1})-[:L]->(:N {x: 2})`); err != nil {
		t.Fatal(err)
	}
	v, err = c.Do("GRAPH.PROFILE", "g", `MATCH (a:N)-[:L]->(b) RETURN count(b)`)
	if err != nil {
		t.Fatal(err)
	}
	for _, line := range v.([]any) {
		if strings.HasPrefix(line.(string), "scheduler:") {
			t.Fatalf("PROFILE prints a scheduler line: %v", v)
		}
	}

	v, err = c.Do("INFO")
	if err != nil {
		t.Fatal(err)
	}
	info := v.(string)
	for _, key := range []string{"threadpool_size:4", "admission_limit:", "admission_inflight:",
		"admission_queued:", "admission_admitted:", "admission_rejected:"} {
		if !strings.Contains(info, key) {
			t.Fatalf("INFO lacks %q:\n%s", key, info)
		}
	}
	for _, key := range []string{"global_thread_budget:", "active_queries:", "busy_workers:",
		"stolen_morsels:", "caller_morsels:", "worker_time_ms:"} {
		if strings.Contains(info, key) {
			t.Fatalf("INFO still reports %q:\n%s", key, info)
		}
	}
}

func TestGraphConfigGetAll(t *testing.T) {
	_, c := startServer(t)
	v, err := c.Do("GRAPH.CONFIG", "GET", "*")
	if err != nil {
		t.Fatal(err)
	}
	pairs := v.([]any)
	got := map[string]any{}
	for _, p := range pairs {
		pair := p.([]any)
		got[pair[0].(string)] = pair[1]
	}
	want := map[string]any{
		"THREAD_COUNT":      int64(4),
		"TIMEOUT":           int64(0),
		"PLAN_CACHE_SIZE":   int64(core.DefaultPlanCacheSize),
		"ADMISSION_TIMEOUT": int64(1000),
	}
	if len(got) != len(want) {
		t.Fatalf("GET * pairs: %v", got)
	}
	for k, w := range want {
		if got[k] != w {
			t.Fatalf("GET * %s = %v, want %v (all: %v)", k, got[k], w, got)
		}
	}
}

func TestFlushAllAndInfo(t *testing.T) {
	_, c := startServer(t)
	c.Do("SET", "a", "1")
	c.Query("g", `CREATE (:N)`)
	if v, _ := c.Do("FLUSHALL"); v.(resp.SimpleString) != "OK" {
		t.Fatal("flushall")
	}
	if v, _ := c.Do("DBSIZE"); v.(int64) != 0 {
		t.Fatalf("dbsize after flush: %v", v)
	}
	v, err := c.Do("INFO")
	if err != nil || !strings.Contains(v.(string), "threadpool_size:4") {
		t.Fatalf("info: %v %v", v, err)
	}
}

func TestQueryTimeout(t *testing.T) {
	s := New(Options{Addr: "127.0.0.1:0", ThreadCount: 2, QueryTimeout: time.Nanosecond})
	if err := s.Start(); err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	c, err := client.Dial(s.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	// Build enough data that the query cannot finish in a nanosecond.
	g := s.Graph("g")
	g.Lock()
	for i := 0; i < 2000; i++ {
		g.CreateNode([]string{"N"}, nil)
	}
	g.Sync()
	g.Unlock()
	if _, err := c.Do("GRAPH.QUERY", "g", "MATCH (n:N) RETURN count(n)"); err == nil ||
		!strings.Contains(err.Error(), "timed out") {
		t.Fatalf("err = %v", err)
	}
}
