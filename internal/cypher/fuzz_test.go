package cypher

import (
	"strings"
	"testing"
)

// FuzzCanonicalQueryText checks the plan-cache key transform on arbitrary
// byte strings: it must never panic, must be idempotent (canonical text is
// its own canonical form — re-keying a cached key cannot drift), must never
// grow the input, and must be whitespace-insensitive outside quotes (the
// whole point of the transform).
func FuzzCanonicalQueryText(f *testing.F) {
	seeds := []string{
		"",
		"MATCH (n) RETURN n",
		"  MATCH\t(n:Hub)\n  WHERE n.uid > 5\r\n  RETURN n.uid  ",
		`MATCH (n {name: "two  spaces"}) RETURN n`,
		`MATCH (n {name: 'escaped \' quote  and  spaces'}) RETURN n`,
		`RETURN "unterminated  string`,
		`RETURN 'trailing backslash \`,
		"CYPHER id=7 MATCH (n) RETURN n",
		"MATCH (n) RETURN \"a\\\"b\"  ,  'c\\'d'",
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, q string) {
		c := CanonicalQueryText(q)
		if len(c) > len(q) {
			t.Fatalf("canonical form grew: %d > %d (%q -> %q)", len(c), len(q), q, c)
		}
		if again := CanonicalQueryText(c); again != c {
			t.Fatalf("not idempotent: %q -> %q -> %q", q, c, again)
		}
		// Doubling whitespace must not change the key. Only safe when the
		// query has no string literals at all: inside quotes, whitespace is
		// data and the naive doubling below would corrupt it.
		if !strings.ContainsAny(q, `"'\`) {
			doubled := strings.NewReplacer(" ", "  ", "\t", "\t\t").Replace(q)
			if CanonicalQueryText(doubled) != c {
				t.Fatalf("whitespace-sensitive: %q vs %q", q, doubled)
			}
		}
	})
}

// FuzzParseParams checks the CYPHER-prefix scanner on arbitrary inputs: no
// panics, deterministic results, errors always return the input text
// untouched, and a prefix-free query always passes through verbatim with
// nil bindings.
func FuzzParseParams(f *testing.F) {
	seeds := []string{
		"",
		"MATCH (n) RETURN n",
		"CYPHER id=7 MATCH (n) RETURN n",
		"CYPHER a=1 b=2.5 c=true d=null e=alice MATCH (n) RETURN n",
		`CYPHER s="quoted value" MATCH (n) RETURN n`,
		`CYPHER s='esc\'aped' q=" \n\t\r\\ " RETURN 1`,
		"CYPHER n=-3.2e5 m=+7 RETURN 1",
		"CYPHER bad=7abc RETURN 1",
		`CYPHER s='a'b RETURN 1`,
		`CYPHER s='unterminated`,
		"cypher lower=1 RETURN 1",
		"CYPHER = RETURN 1",
		"CYPHER x= RETURN 1",
		"  \t\nCYPHER id=1 RETURN 1",
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, q string) {
		params, rest, err := ParseParams(q)
		if err != nil {
			if rest != q {
				t.Fatalf("error must return the input untouched: %q -> %q", q, rest)
			}
			return
		}
		trimmed := strings.TrimLeft(q, " \t\r\n")
		hasPrefix := len(trimmed) >= 7 && strings.EqualFold(trimmed[:6], "CYPHER") && isParamSpace(trimmed[6])
		if !hasPrefix {
			if params != nil || rest != q {
				t.Fatalf("prefix-free query must pass through: %q -> (%v, %q)", q, params, rest)
			}
			return
		}
		// The remainder must be a suffix of the trimmed input: the scanner
		// only ever consumes from the front.
		if !strings.HasSuffix(trimmed, rest) {
			t.Fatalf("remainder %q is not a suffix of %q", rest, trimmed)
		}
		// Determinism: a second pass binds the same values.
		params2, rest2, err2 := ParseParams(q)
		if err2 != nil || rest2 != rest || len(params2) != len(params) {
			t.Fatalf("non-deterministic parse of %q", q)
		}
		for k, v := range params {
			if v2, ok := params2[k]; !ok || v2.String() != v.String() {
				t.Fatalf("non-deterministic binding %s on %q", k, q)
			}
		}
	})
}

// FuzzParse feeds arbitrary text to the parser, which sees every query a
// client sends: it may reject the input, but must never panic, and an
// accepted query always has at least one clause.
func FuzzParse(f *testing.F) {
	// The queries of parser_test.go, valid and invalid.
	seeds := []string{
		`MATCH (n:Person) RETURN n`,
		`MATCH (a)-[:R]->(b) RETURN a`,
		`MATCH (a)<-[:R]-(b) RETURN a`,
		`MATCH (a)-[:R]-(b) RETURN a`,
		`MATCH (a)-->(b) RETURN a`,
		`MATCH (a)<--(b) RETURN a`,
		`MATCH (a)--(b) RETURN a`,
		`MATCH (a)-[:R*]->(b) RETURN a`,
		`MATCH (a)-[:R*3]->(b) RETURN a`,
		`MATCH (a)-[:R*1..6]->(b) RETURN a`,
		`MATCH (a)-[:R*2..]->(b) RETURN a`,
		`MATCH (a)-[r:KNOWS|WORKS_AT]->(b) RETURN r`,
		`MATCH (n:Person {name: $who, age: 30}) RETURN n`,
		`MATCH (n) WHERE n.a = 1 OR n.b < 2 AND NOT n.c >= 3 RETURN n`,
		`RETURN 1 + 2 * 3`,
		`MATCH (n) RETURN DISTINCT n.name AS name ORDER BY name DESC, n.age SKIP 2 LIMIT 10`,
		`CREATE (a:X {v: 1})-[:R]->(b:Y)`,
		`MATCH (n) DETACH DELETE n`,
		`MATCH (n) SET n.x = 5, n.y = 'a'`,
		`UNWIND [1,2] AS x WITH x WHERE x > 1 RETURN x`,
		`CREATE INDEX ON :Person(name)`,
		`DROP INDEX ON :Person(name)`,
		`MATCH (n) RETURN count(*)`,
		`MATCH (n) RETURN count(DISTINCT n)`,
		`RETURN 'it\'s', "a\nb"`,
		`RETURN true, false, null, 3.25, 1e3, [1, 'a']`,
		"MATCH (n) // line comment\n /* block */ RETURN n",
		``,
		`MATCH (n`,
		`MATCH (a)-[:R->(b) RETURN a`,
		`MATCH (a)<-[:R]->(b) RETURN a`,
		`RETURN 'unterminated`,
		`FOO (n)`,
		`MATCH (n) RETURN`,
		`CREATE INDEX ON Person(name)`,
		`RETURN $`,
		`match (n:Person) where n.age > 1 return n order by n.age`,
		`MATCH (n) WHERE n.x IS NOT NULL RETURN n`,
		`MERGE (n:Person {name: 'x'}) RETURN n`,
		`RETURN -5`,
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, q string) {
		ast, err := Parse(q)
		if err == nil && (ast == nil || len(ast.Clauses) == 0) {
			t.Fatalf("accepted %q without a clause", q)
		}
	})
}
