package server

import (
	"fmt"
	"regexp"
	"sync"
	"testing"

	"redisgraph/internal/client"
)

// TestResultEntitiesEscapeTheLock is the -race regression for entities in
// replies: the reply is encoded after the query's read lock is released, so
// a node or edge cell must be a detached copy, never a view of storage a
// concurrent SET is rewriting. One writer rewrites two properties of every
// node and edge per query (alternating the first between int and string so
// typed cells and the overflow map are both written); the readers return
// whole entities, bare and inside collect(). Every rendered entity must
// parse and must show a pair the writer produced in one burst.
func TestResultEntitiesEscapeTheLock(t *testing.T) {
	s, seed := startServer(t)
	const nodes, rounds = 8, 150
	for i := 0; i < nodes; i++ {
		if _, err := seed.Query("g", fmt.Sprintf(`CREATE (:P {k: %d, x: 0, y: "v0"})`, i)); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < nodes; i++ {
		q := fmt.Sprintf(`MATCH (a:P {k: %d}), (b:P {k: %d}) CREATE (a)-[:R {w: 0, tag: "v0"}]->(b)`, i, (i+1)%nodes)
		if _, err := seed.Query("g", q); err != nil {
			t.Fatal(err)
		}
	}

	// `(3:P {k:3, x:s41, y:v41})`, `[2:R 2->3 {w:40, tag:v40}]`; the order of
	// the properties follows attribute IDs, which the first CREATE assigns
	// in map-iteration order, so each is picked out on its own.
	nodeRe := regexp.MustCompile(`^\(\d+:P \{[a-z0-9:, ]+\}\)$`)
	edgeRe := regexp.MustCompile(`^\[\d+:R \d+->\d+ \{[a-z0-9:, ]+\}\]$`)
	listRe := regexp.MustCompile(`\(\d+:P \{[^}]*\}\)`)
	// entityCheck returns a validator for one entity kind: well-formed, and
	// its two rewritten properties carry the same round number.
	entityCheck := func(shape *regexp.Regexp, first, second string) func(string) error {
		firstRe := regexp.MustCompile(`[{ ]` + first + `:s?(\d+)[,}]`)
		secondRe := regexp.MustCompile(`[{ ]` + second + `:v(\d+)[,}]`)
		return func(cell string) error {
			a, b := firstRe.FindStringSubmatch(cell), secondRe.FindStringSubmatch(cell)
			if !shape.MatchString(cell) || a == nil || b == nil {
				return fmt.Errorf("unparseable entity %q", cell)
			}
			if a[1] != b[1] {
				return fmt.Errorf("entity %q mixes two writes", cell)
			}
			return nil
		}
	}
	checkNode, checkEdge := entityCheck(nodeRe, "x", "y"), entityCheck(edgeRe, "w", "tag")

	done := make(chan struct{})
	var wg sync.WaitGroup
	reader := func(query string, check func(cell string) error) {
		defer wg.Done()
		c, err := client.Dial(s.Addr())
		if err != nil {
			t.Error(err)
			return
		}
		defer c.Close()
		for {
			select {
			case <-done:
				return
			default:
			}
			rep, err := c.Query("g", query)
			if err != nil {
				t.Errorf("%s: %v", query, err)
				return
			}
			rows := rep[1].([]any)
			if len(rows) == 0 {
				t.Errorf("%s: no rows", query)
				return
			}
			for _, row := range rows {
				if err := check(row.([]any)[0].(string)); err != nil {
					t.Errorf("%s: %v", query, err)
					return
				}
			}
		}
	}
	wg.Add(3)
	go reader(`MATCH (n:P) RETURN n`, checkNode)
	go reader(`MATCH ()-[e:R]->() RETURN e`, checkEdge)
	go reader(`MATCH (n:P) RETURN collect(n)`, func(cell string) error {
		got := listRe.FindAllString(cell, -1)
		if len(got) != nodes {
			return fmt.Errorf("collect(n) rendered %d nodes in %q", len(got), cell)
		}
		for _, n := range got {
			if err := checkNode(n); err != nil {
				return err
			}
		}
		return nil
	})

	for i := 1; i <= rounds; i++ {
		first := fmt.Sprint(i)
		if i%2 == 1 {
			first = fmt.Sprintf(`"s%d"`, i)
		}
		for _, q := range []string{
			fmt.Sprintf(`MATCH (n:P) SET n.x = %s, n.y = "v%d"`, first, i),
			fmt.Sprintf(`MATCH ()-[e:R]->() SET e.w = %s, e.tag = "v%d"`, first, i),
		} {
			if _, err := seed.Query("g", q); err != nil {
				close(done)
				wg.Wait()
				t.Fatal(err)
			}
		}
	}
	close(done)
	wg.Wait()
}
