package main

import (
	"fmt"
	"math/rand"
	"strconv"

	"redisgraph/internal/baseline"
)

// Workload names are fixed: later issues refer to them.
var workloadNames = []string{"point-lookup", "khop-traverse", "filter-agg", "write-mix"}

const (
	cmdRO = "GRAPH.RO_QUERY"
	cmdRW = "GRAPH.QUERY"

	qPoint  = "MATCH (s:Node {uid: $seed}) RETURN s.uid, s.age, s.city"
	qKHop   = "MATCH (s:Node {uid: $seed})-[:F*1..3]->(n) RETURN count(n)"
	qFilter = "MATCH (p:Node) WHERE p.score >= $t AND p.age < 90 RETURN count(p), min(p.score), max(p.age)"
	qOneHop = "MATCH (s:Node {uid: $seed})-[:F]->(n) RETURN count(n)"
	qCreate = "MATCH (a:Node {uid: $a}), (b:Node {uid: $b}) CREATE (a)-[:F]->(b)"
	qSet    = "MATCH (p:Node {uid: $seed}) SET p.age = $t"
	qDelete = "MATCH (a:Node {uid: $a})-[e:F]->(b:Node {uid: $b}) DELETE e"
)

// op is one command of a workload's stream. The server sees cmd, the graph
// name and query, nothing else; node is the op's principal vertex, which the
// traced run uses as a kernel frontier.
type op struct {
	cmd   string
	query string
	node  int
}

// workload is a seed-deterministic command stream with its oracle. next
// alone drives the measured run; verification replays the stream from a
// fresh instance and calls expected after every next, which is where any
// shadow state advances — so the oracle costs nothing while the clock runs.
type workload interface {
	next() op
	expected() reply
}

func newWorkload(name string, d *dataset, seed int64) (workload, error) {
	// Op streams get their own generator: the dataset's draws must not
	// shift when a workload changes how many numbers it consumes.
	rng := rand.New(rand.NewSource(seed ^ 0x0b5e_55ed))
	switch name {
	case "point-lookup":
		return &pointLookup{d: d, rng: rng}, nil
	case "khop-traverse":
		return &khopTraverse{d: d, rng: rng}, nil
	case "filter-agg":
		return &filterAgg{d: d, rng: rng}, nil
	case "write-mix":
		w := &writeMix{d: d, rng: rng, pairs: newPairSource(d, d.pairSeed),
			ring: append([][2]int(nil), d.lag...)}
		return w, nil
	}
	return nil, fmt.Errorf("unknown workload %q (have %v)", name, workloadNames)
}

func params1(k string, v int, query string) string {
	return "CYPHER " + k + "=" + strconv.Itoa(v) + " " + query
}

func params2(k1 string, v1 int, k2 string, v2 int, query string) string {
	return "CYPHER " + k1 + "=" + strconv.Itoa(v1) + " " + k2 + "=" + strconv.Itoa(v2) + " " + query
}

func intCell(n int) cell { return cell{kind: cellInt, i: int64(n)} }

func countReply(n int) reply {
	return reply{header: []string{"count(n)"}, rows: [][]cell{{intCell(n)}}}
}

func pointReply(d *dataset, u, age int) reply {
	return reply{
		header: []string{"s.uid", "s.age", "s.city"},
		rows:   [][]cell{{intCell(u), intCell(age), {kind: cellString, s: cityName(d.city[u])}}},
	}
}

// pointLookup: one hot parameterised shape, one index probe, one row.
type pointLookup struct {
	d   *dataset
	rng *rand.Rand
	u   int
}

func (w *pointLookup) next() op {
	w.u = w.rng.Intn(w.d.n)
	return op{cmdRO, params1("seed", w.u, qPoint), w.u}
}

func (w *pointLookup) expected() reply { return pointReply(w.d, w.u, w.d.age[w.u]) }

// khopTraverse: the paper's k-hop neighbourhood count, seeds with an
// out-edge (an isolated seed would answer instantly).
type khopTraverse struct {
	d   *dataset
	rng *rand.Rand
	u   int
	adj *baseline.AdjList
}

func (w *khopTraverse) next() op {
	w.u = w.d.withOut[w.rng.Intn(len(w.d.withOut))]
	return op{cmdRO, params1("seed", w.u, qKHop), w.u}
}

func (w *khopTraverse) expected() reply {
	if w.adj == nil {
		src, dst := w.d.allEdges()
		w.adj = baseline.NewAdjList(w.d.n, src, dst)
	}
	return countReply(w.adj.KHopCount(w.u, 3))
}

// filterAgg: a full-label columnar scan with two pushed predicates and
// three aggregates; the threshold is the only thing that varies.
type filterAgg struct {
	d     *dataset
	rng   *rand.Rand
	t     int
	table []reply
}

func (w *filterAgg) next() op {
	w.t = w.rng.Intn(100)
	return op{cmdRO, params1("t", w.t, qFilter), w.t % w.d.n}
}

func (w *filterAgg) expected() reply {
	if w.table == nil {
		w.table = make([]reply, 100)
		for t := range w.table {
			w.table[t] = w.answer(t)
		}
	}
	return w.table[w.t]
}

func (w *filterAgg) answer(t int) reply {
	count, minScore, maxAge := 0, 0.0, 0
	for v := 0; v < w.d.n; v++ {
		if w.d.score[v] < float64(t) || w.d.age[v] >= 90 {
			continue
		}
		if count == 0 || w.d.score[v] < minScore {
			minScore = w.d.score[v]
		}
		if count == 0 || w.d.age[v] > maxAge {
			maxAge = w.d.age[v]
		}
		count++
	}
	row := []cell{intCell(count), {kind: cellNil}, {kind: cellNil}}
	if count > 0 {
		row[1] = cell{kind: cellString, s: strconv.FormatFloat(minScore, 'g', -1, 64)}
		row[2] = intCell(maxAge)
	}
	return reply{header: []string{"count(p)", "min(p.score)", "max(p.age)"}, rows: [][]cell{row}}
}

// writeMix is a repeating 8-op cycle on the one connection:
//
//	0 read   1-hop count from a uniform seed
//	1 CREATE an edge absent from the graph
//	2 read   1-hop count from that edge's source (sees the delta-plus entry)
//	3 SET    age on a uniform node
//	4 read   that node back (read-your-write)
//	5 read   1-hop count from a uniform seed
//	6 DELETE the edge created lagEdges cycles ago (folded by now: delta-minus)
//	7 read   1-hop count from the deleted edge's source
//
// One CREATE and one DELETE per cycle keep the graph's size stationary.
type writeMix struct {
	d     *dataset
	rng   *rand.Rand
	pairs *pairSource
	ring  [][2]int // the last lagEdges created pairs; starts as the dataset's lag edges
	pos   int      // ops issued so far

	created, victim [2]int
	setNode, setAge int
	last            op
	lastKind        int

	// shadow state, advanced only by expected()
	extra map[int]int // change in distinct out-degree since load
	age   map[int]int // ages SET since load
}

func (w *writeMix) next() op {
	kind := w.pos % 8
	cycle := w.pos / 8
	w.pos++
	var o op
	switch kind {
	case 0, 5:
		u := w.rng.Intn(w.d.n)
		o = op{cmdRO, params1("seed", u, qOneHop), u}
	case 1:
		slot := cycle % lagEdges
		w.victim = w.ring[slot]
		w.created = w.pairs.next()
		w.ring[slot] = w.created
		o = op{cmdRW, params2("a", w.created[0], "b", w.created[1], qCreate), w.created[0]}
	case 2:
		o = op{cmdRO, params1("seed", w.created[0], qOneHop), w.created[0]}
	case 3:
		w.setNode, w.setAge = w.rng.Intn(w.d.n), w.rng.Intn(100)
		o = op{cmdRW, params2("seed", w.setNode, "t", w.setAge, qSet), w.setNode}
	case 4:
		o = op{cmdRO, params1("seed", w.setNode, qPoint), w.setNode}
	case 6:
		o = op{cmdRW, params2("a", w.victim[0], "b", w.victim[1], qDelete), w.victim[0]}
	case 7:
		o = op{cmdRO, params1("seed", w.victim[0], qOneHop), w.victim[0]}
	}
	w.last, w.lastKind = o, kind
	return o
}

func (w *writeMix) expected() reply {
	if w.extra == nil {
		w.extra, w.age = map[int]int{}, map[int]int{}
	}
	switch w.lastKind {
	case 1:
		w.extra[w.created[0]]++
		return reply{stats: queryStats{relsCreated: 1}}
	case 3:
		w.age[w.setNode] = w.setAge
		return reply{stats: queryStats{propsSet: 1}}
	case 4:
		return pointReply(w.d, w.setNode, w.age[w.setNode])
	case 6:
		w.extra[w.victim[0]]--
		return reply{stats: queryStats{relsDeleted: 1}}
	}
	u := w.last.node
	return countReply(w.d.outDeg[u] + w.extra[u])
}
