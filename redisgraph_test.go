package redisgraph

import (
	"strings"
	"sync"
	"testing"
	"time"
)

func TestEmbeddedQuickstart(t *testing.T) {
	db := Open("t")
	rs := db.MustQuery(`CREATE (:Person {name: 'a'})-[:KNOWS]->(:Person {name: 'b'})`, nil)
	if rs.Stats.NodesCreated != 2 || rs.Stats.RelationshipsCreated != 1 {
		t.Fatalf("stats: %+v", rs.Stats)
	}
	if db.NodeCount() != 2 || db.EdgeCount() != 1 {
		t.Fatalf("counts: %d %d", db.NodeCount(), db.EdgeCount())
	}
	rs, err := db.Query(`MATCH (a:Person)-[:KNOWS]->(b) RETURN a.name, b.name`, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(rs.Rows) != 1 || rs.Rows[0][0].Str() != "a" {
		t.Fatalf("rows: %v", rs.Rows)
	}
	if !strings.Contains(rs.String(), "a.name") {
		t.Fatalf("render: %s", rs)
	}
}

func TestParamsHelper(t *testing.T) {
	p, err := Params("i", 1, "f", 2.5, "s", "x", "b", true, "l", []any{1, "a"}, "n", nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(p) != 6 || p["i"].Int() != 1 || p["f"].Float() != 2.5 || !p["b"].Bool() {
		t.Fatalf("params: %v", p)
	}
	if _, err := Params("odd"); err == nil {
		t.Fatal("want odd-arity error")
	}
	if _, err := Params(1, 2); err == nil {
		t.Fatal("want non-string-key error")
	}
	if _, err := Params("k", struct{}{}); err == nil {
		t.Fatal("want unsupported-type error")
	}
}

func TestROQueryAndExplainProfile(t *testing.T) {
	db := Open("t")
	db.MustQuery(`CREATE (:N {x: 1})`, nil)
	if _, err := db.ROQuery(`CREATE (:N)`, nil); err == nil {
		t.Fatal("RO must reject writes")
	}
	rs, err := db.ROQuery(`MATCH (n:N) RETURN count(n)`, nil)
	if err != nil || rs.Rows[0][0].Int() != 1 {
		t.Fatalf("%v %v", rs, err)
	}
	plan, err := db.Explain(`MATCH (n:N) RETURN n`)
	if err != nil || len(plan) == 0 {
		t.Fatalf("%v %v", plan, err)
	}
	prof, err := db.Profile(`MATCH (n:N) RETURN n`, nil)
	if err != nil || !strings.Contains(strings.Join(prof, "\n"), "Records produced") {
		t.Fatalf("%v %v", prof, err)
	}
}

func TestConcurrentReadersWhileWriting(t *testing.T) {
	db := Open("t")
	db.MustQuery(`CREATE (:N {uid: 0})`, nil)
	var wg sync.WaitGroup
	stop := time.Now().Add(100 * time.Millisecond)
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			i := 1
			for time.Now().Before(stop) {
				if w == 0 {
					p, _ := Params("u", i)
					db.MustQuery(`CREATE (:N {uid: $u})`, p)
					i++
				} else {
					rs, err := db.ROQuery(`MATCH (n:N) RETURN count(n)`, nil)
					if err != nil || rs.Rows[0][0].Int() < 1 {
						t.Errorf("read: %v %v", rs, err)
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
}

func TestWithTimeoutOption(t *testing.T) {
	db := Open("t", WithTimeout(time.Nanosecond))
	for i := 0; i < 2000; i++ {
		// Direct graph writes to avoid the timeout during setup.
		db.Graph().CreateNode([]string{"N"}, nil)
	}
	if _, err := db.Query(`MATCH (n:N) RETURN count(n)`, nil); err == nil {
		t.Fatal("want timeout")
	}
}
