package core

import (
	"strings"
	"testing"

	"redisgraph/internal/value"
)

func explainLines(t *testing.T, q string, cfg Config) []string {
	t.Helper()
	g := adversarialGraph(t, 200)
	lines, err := Explain(g, q, cfg)
	if err != nil {
		t.Fatalf("%s: %v", q, err)
	}
	return lines
}

// TestWhereDrivenIndexSeed checks the entry-point chooser turns an indexed
// `WHERE a.uid = v` equality into an index seed — not a label scan plus a
// filter — and that the consumed conjunct is not re-applied.
func TestWhereDrivenIndexSeed(t *testing.T) {
	q := `MATCH (a:Hub)-[:D]->(b) WHERE a.uid = 3 RETURN b.uid`
	lines := explainLines(t, q, Config{})
	plan := strings.Join(lines, "\n")
	if !strings.Contains(plan, "NodeByIndexScan | a:Hub(uid)") {
		t.Fatalf("expected a WHERE-driven index seed:\n%s", plan)
	}
	if strings.Contains(plan, "Filter | a.uid = 3") {
		t.Fatalf("consumed WHERE conjunct re-applied as a filter:\n%s", plan)
	}

	// The textual baseline must stay on its label scan, and both planners
	// must agree on results.
	baseline := strings.Join(explainLines(t, q, Config{noCostPlanner: true}), "\n")
	if strings.Contains(baseline, "NodeByIndexScan") {
		t.Fatalf("textual baseline unexpectedly index-seeded:\n%s", baseline)
	}
	g := adversarialGraph(t, 200)
	want := runSorted(t, g, q, Config{noCostPlanner: true})
	got := runSorted(t, g, q, Config{})
	if strings.Join(want, "\n") != strings.Join(got, "\n") {
		t.Fatalf("planner differential mismatch:\nwant %v\ngot  %v", want, got)
	}
}

// TestWhereDrivenIndexSeedConjuncts checks only the eligible conjunct seeds;
// the rest of the WHERE still applies.
func TestWhereDrivenIndexSeedConjuncts(t *testing.T) {
	q := `MATCH (a:Hub)-[:D]->(b:Hub) WHERE a.uid = 3 AND b.uid > 1 RETURN b.uid`
	lines := explainLines(t, q, Config{})
	plan := strings.Join(lines, "\n")
	if !strings.Contains(plan, "NodeByIndexScan | a:Hub(uid)") {
		t.Fatalf("expected a WHERE-driven index seed:\n%s", plan)
	}
	if !strings.Contains(plan, "b.uid > 1") {
		t.Fatalf("inequality conjunct lost:\n%s", plan)
	}
	g := adversarialGraph(t, 200)
	want := runSorted(t, g, q, Config{noCostPlanner: true})
	got := runSorted(t, g, q, Config{})
	if strings.Join(want, "\n") != strings.Join(got, "\n") {
		t.Fatalf("planner differential mismatch:\nwant %v\ngot  %v", want, got)
	}
}

// TestWhereSeedRequiresIndex checks a non-indexed attribute does not seed.
func TestWhereSeedRequiresIndex(t *testing.T) {
	q := `MATCH (a:Hub)-[:D]->(b) WHERE a.nope = 3 RETURN b.uid`
	plan := strings.Join(explainLines(t, q, Config{}), "\n")
	if strings.Contains(plan, "NodeByIndexScan") {
		t.Fatalf("non-indexed attribute must not seed:\n%s", plan)
	}
}

// TestWhereSeedParameter checks a parameterised equality seeds too (the
// value is record-free even though it is only known at execution).
func TestWhereSeedParameter(t *testing.T) {
	q := `MATCH (a:Hub)-[:D]->(b) WHERE a.uid = $id RETURN b.uid`
	plan := strings.Join(explainLines(t, q, Config{}), "\n")
	if !strings.Contains(plan, "NodeByIndexScan | a:Hub(uid)") {
		t.Fatalf("parameterised WHERE equality should seed:\n%s", plan)
	}
	g := adversarialGraph(t, 200)
	params := map[string]value.Value{"id": value.NewInt(3)}
	for _, cfg := range []Config{{}, {noCostPlanner: true}} {
		rs, err := Query(g, q, params, cfg)
		if err != nil {
			t.Fatalf("cfg=%+v: %v", cfg, err)
		}
		if len(rs.Rows) == 0 {
			t.Fatalf("cfg=%+v: no rows", cfg)
		}
	}
}
