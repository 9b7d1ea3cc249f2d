package graph

import (
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"redisgraph/internal/grb"
	"redisgraph/internal/value"
)

// storeOracle is the storage-level reference for the property stores and
// the edge index: a plain map per entity, kept by the test, that every
// column read, candidate list, detached view, index posting, EdgesBetween
// answer and matrix entry must agree with.
type storeOracle struct {
	nodes map[uint64]map[int]value.Value
	edges map[uint64]map[int]value.Value
	ends  map[uint64]oracleEdge
	pairs map[edgeKey]bool // every pair an edge ever joined
}

type oracleEdge struct {
	edgeKey
	typ int
}

var oracleTypes = []string{"R", "S"}

var oracleAttrs = []string{"a0", "a1", "a2", "a3"}

// oracleValue draws from a small domain so overwrites, kind changes and
// index collisions all happen often: ints, floats, strings, bools, arrays.
func oracleValue(rng *rand.Rand) value.Value {
	switch rng.Intn(5) {
	case 0:
		return value.NewInt(int64(rng.Intn(6)))
	case 1:
		return value.NewFloat(float64(rng.Intn(6)) + 0.5)
	case 2:
		return value.NewString(fmt.Sprintf("s%d", rng.Intn(4)))
	case 3:
		return value.NewBool(rng.Intn(2) == 0)
	}
	return value.NewArray([]value.Value{value.NewInt(int64(rng.Intn(3)))})
}

func oracleProps(rng *rand.Rand) map[string]value.Value {
	p := map[string]value.Value{}
	for _, a := range oracleAttrs {
		if rng.Intn(2) == 0 {
			p[a] = oracleValue(rng)
		}
	}
	return p
}

func sameValue(a, b value.Value) bool { return a.Kind == b.Kind && a.String() == b.String() }

func pick(rng *rand.Rand, m map[uint64]map[int]value.Value) (uint64, bool) {
	if len(m) == 0 {
		return 0, false
	}
	ids := make([]uint64, 0, len(m))
	for id := range m {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids[rng.Intn(len(ids))], true
}

// pickEnd draws an edge endpoint from the three lowest live node IDs, so
// parallel edges, pairs joined by both types and self-loops are frequent.
func pickEnd(rng *rand.Rand, m map[uint64]map[int]value.Value) uint64 {
	ids := make([]uint64, 0, len(m))
	for id := range m {
		ids = append(ids, id)
	}
	slices.Sort(ids)
	return ids[rng.Intn(min(3, len(ids)))]
}

// TestPropStoreOracle drives 10k random writes — set, null-set,
// kind-changing set, entity delete, ID recycling, parallel and cross-type
// edges, folds at random steps — through the node store, the edge store
// and the edge index, and checks all three against the map oracle
// throughout, under several sync thresholds.
func TestPropStoreOracle(t *testing.T) {
	for _, threshold := range []int{0, 16, 4096} {
		t.Run(fmt.Sprintf("threshold=%d", threshold), func(t *testing.T) {
			propStoreOracle(t, threshold)
		})
	}
}

func propStoreOracle(t *testing.T, threshold int) {
	rng := rand.New(rand.NewSource(15))
	g := New("oracle")
	g.SetSyncThreshold(threshold)
	g.CreateIndex("P", "a0") // interns a0 first: attribute ID 0
	for _, a := range oracleAttrs {
		g.Schema.AddAttr(a)
	}
	for _, r := range oracleTypes {
		g.Schema.AddRelType(r) // type IDs are oracleTypes indexes
	}
	or := storeOracle{
		nodes: map[uint64]map[int]value.Value{},
		edges: map[uint64]map[int]value.Value{},
		ends:  map[uint64]oracleEdge{},
		pairs: map[edgeKey]bool{},
	}
	shadowOf := func(props map[string]value.Value) map[int]value.Value {
		m := map[int]value.Value{}
		for k, v := range props {
			aid, _ := g.Schema.AttrID(k)
			m[aid] = v
		}
		return m
	}
	recycled, parallel, crossType, zeroReused := 0, 0, 0, 0
	for step := 0; step < 10000; step++ {
		switch op := rng.Intn(10); {
		case op == 0 || len(or.nodes) < 4: // create node (recycles freed IDs)
			props := oracleProps(rng)
			high := g.nodes.HighWater()
			n := g.CreateNode([]string{"P"}, props)
			if n.ID < high {
				recycled++
			}
			or.nodes[n.ID] = shadowOf(props)
		case op == 1: // create edge
			k := edgeKey{pickEnd(rng, or.nodes), pickEnd(rng, or.nodes)}
			typ := rng.Intn(len(oracleTypes))
			for _, en := range or.ends {
				if en.edgeKey == k && en.typ == typ {
					parallel++
				} else if en.edgeKey == k {
					crossType++
				}
			}
			props := oracleProps(rng)
			e, err := g.CreateEdge(oracleTypes[typ], k.src, k.dst, props)
			if err != nil {
				t.Fatal(err)
			}
			if e.ID == 0 && step > 0 {
				zeroReused++
			}
			or.edges[e.ID] = shadowOf(props)
			or.ends[e.ID] = oracleEdge{k, e.Type}
			or.pairs[k] = true
		case op == 2: // delete node, cascading to its edges
			id, _ := pick(rng, or.nodes)
			g.DeleteNode(id)
			delete(or.nodes, id)
			for eid, en := range or.ends {
				if en.src == id || en.dst == id {
					delete(or.edges, eid)
					delete(or.ends, eid)
				}
			}
		case op == 3: // delete edge
			if id, ok := pick(rng, or.edges); ok {
				g.DeleteEdge(id)
				delete(or.edges, id)
				delete(or.ends, id)
			}
		default: // set / null-set / kind-changing set, on a node or an edge
			attr := oracleAttrs[rng.Intn(len(oracleAttrs))]
			aid, _ := g.Schema.AttrID(attr)
			v := oracleValue(rng)
			if rng.Intn(5) == 0 {
				v = value.Null
			}
			shadow, set := or.nodes, g.SetNodeProperty
			if rng.Intn(3) == 0 && len(or.edges) > 0 {
				shadow, set = or.edges, g.SetEdgeProperty
			}
			id, _ := pick(rng, shadow)
			if err := set(id, attr, v); err != nil {
				t.Fatal(err)
			}
			if v.IsNull() {
				delete(shadow[id], aid)
			} else {
				shadow[id][aid] = v
			}
		}
		g.MaybeSync()
		if rng.Intn(100) == 0 {
			g.Sync()
		}
		if step%250 == 0 || step == 9999 {
			checkStore(t, step, "node", g.nodeProps, or.nodes, g.nodes.HighWater())
			checkStore(t, step, "edge", g.edgeProps, or.edges, g.edges.HighWater())
			checkDetached(t, step, g, &or)
			checkIndex(t, step, g, or.nodes)
			checkEdgeIndex(t, step, g, &or)
		}
	}
	if recycled == 0 || parallel == 0 || crossType == 0 || zeroReused == 0 {
		t.Fatalf("op stream too tame: %d node IDs recycled, %d parallel edges, %d cross-type pair edges, edge ID 0 reused %d times",
			recycled, parallel, crossType, zeroReused)
	}
}

// checkEdgeIndex compares the edge index of every pair an edge ever joined
// with the oracle: EdgesBetween per type and across types, the presence of
// R, R', adj and tadj entries, R's value, and extra, which must hold
// exactly the pairs two or more edges of a type join.
func checkEdgeIndex(t *testing.T, step int, g *Graph, or *storeOracle) {
	t.Helper()
	want := make([]map[edgeKey][]uint64, len(g.relations))
	for tid := range want {
		want[tid] = map[edgeKey][]uint64{}
	}
	for id, en := range or.ends {
		want[en.typ][en.edgeKey] = append(want[en.typ][en.edgeKey], id)
	}
	sorted := func(ids []uint64) string {
		ids = slices.Clone(ids)
		slices.Sort(ids)
		return fmt.Sprint(ids)
	}
	has := func(m *grb.DeltaMatrix, i, j uint64) bool {
		_, err := m.ExtractElement(int(i), int(j))
		return err == nil
	}
	for k := range or.pairs {
		var union []uint64
		for tid, rs := range g.relations {
			w := want[tid][k]
			union = append(union, w...)
			if got := g.EdgesBetween(tid, k.src, k.dst); sorted(got) != sorted(w) {
				t.Fatalf("step %d: EdgesBetween(%d, %d, %d) = %v, oracle %v", step, tid, k.src, k.dst, got, w)
			}
			if has(rs.m, k.src, k.dst) != (len(w) > 0) || has(rs.tm, k.dst, k.src) != (len(w) > 0) {
				t.Fatalf("step %d: relation %d pair %v: R/R' entry disagrees with oracle %v", step, tid, k, w)
			}
			if v, err := rs.m.ExtractElement(int(k.src), int(k.dst)); err == nil && !slices.Contains(w, uint64(v)) {
				t.Fatalf("step %d: relation %d pair %v: R holds %v, oracle %v", step, tid, k, v, w)
			}
		}
		if got := g.EdgesBetween(-1, k.src, k.dst); sorted(got) != sorted(union) {
			t.Fatalf("step %d: EdgesBetween(-1, %d, %d) = %v, oracle %v", step, k.src, k.dst, got, union)
		}
		if has(g.adj, k.src, k.dst) != (len(union) > 0) || has(g.tadj, k.dst, k.src) != (len(union) > 0) {
			t.Fatalf("step %d: pair %v: adj/tadj entry disagrees with oracle %v", step, k, union)
		}
	}
	for tid, rs := range g.relations {
		for k, ids := range rs.extra {
			if len(ids) == 0 || len(ids) != len(want[tid][k])-1 {
				t.Fatalf("step %d: relation %d pair %v: extra %v, oracle %v", step, tid, k, ids, want[tid][k])
			}
		}
		for k, ids := range want[tid] {
			if _, ok := rs.extra[k]; ok != (len(ids) >= 2) {
				t.Fatalf("step %d: relation %d pair %v: extra key present %v with %d edges", step, tid, k, ok, len(ids))
			}
		}
	}
}

// checkStore compares every cell of every column, and every column's
// candidate list, against the oracle.
func checkStore(t *testing.T, step int, which string, ps *PropStore, shadow map[uint64]map[int]value.Value, high uint64) {
	t.Helper()
	for aid := range oracleAttrs {
		col := ps.Column(aid)
		var wantIDs []uint64
		for id := uint64(0); id < high; id++ {
			want, wantOK := shadow[id][aid]
			got, gotOK := value.Null, false
			if col != nil {
				got, gotOK = col.Value(id)
			}
			if wantOK != gotOK || (wantOK && !sameValue(want, got)) {
				t.Fatalf("step %d: %s %d attr %d: column holds %v (%v), oracle %v (%v)", step, which, id, aid, got, gotOK, want, wantOK)
			}
			if wantOK {
				wantIDs = append(wantIDs, id)
			}
		}
		var gotIDs []uint64
		if col != nil {
			gotIDs = col.AppendIDs(nil)
		}
		if fmt.Sprint(gotIDs) != fmt.Sprint(wantIDs) {
			t.Fatalf("step %d: %s attr %d: AppendIDs %v, oracle %v", step, which, aid, gotIDs, wantIDs)
		}
	}
}

// checkDetached compares the detached view of every live entity — and of a
// dead ID — against the oracle: ascending attribute order, exact values.
func checkDetached(t *testing.T, step int, g *Graph, or *storeOracle) {
	t.Helper()
	same := func(props []Prop, want map[int]value.Value) bool {
		if len(props) != len(want) {
			return false
		}
		for i, p := range props {
			if w, ok := want[p.Attr]; !ok || !sameValue(w, p.Value) || (i > 0 && props[i-1].Attr >= p.Attr) {
				return false
			}
		}
		return true
	}
	for id, want := range or.nodes {
		if d := g.DetachNode(id); d.ID != id || !same(d.Props, want) {
			t.Fatalf("step %d: detached node %d = %v, oracle %v", step, id, d, want)
		}
	}
	for id, want := range or.edges {
		d := g.DetachEdge(id)
		if d.ID != id || d.Src != or.ends[id].src || d.Dst != or.ends[id].dst || !same(d.Props, want) {
			t.Fatalf("step %d: detached edge %d = %v, oracle %v", step, id, d, want)
		}
	}
	if d := g.DetachNode(g.nodes.HighWater()); len(d.Props) != 0 || len(d.Labels) != 0 {
		t.Fatalf("step %d: detached dead node carries %v", step, d)
	}
}

// checkIndex looks every value of the domain up in the (P, a0) index and
// compares the posting with the oracle's holders of an equal-keyed value.
func checkIndex(t *testing.T, step int, g *Graph, shadow map[uint64]map[int]value.Value) {
	t.Helper()
	lid, _ := g.Schema.LabelID("P")
	ix, ok := g.Schema.Index(lid, 0)
	if !ok {
		t.Fatal("index (P, a0) missing")
	}
	probes := []value.Value{value.NewBool(true), value.NewBool(false)}
	for i := 0; i < 6; i++ {
		probes = append(probes, value.NewInt(int64(i)), value.NewFloat(float64(i)+0.5),
			value.NewString(fmt.Sprintf("s%d", i)), value.NewArray([]value.Value{value.NewInt(int64(i))}))
	}
	for _, probe := range probes {
		var want []uint64
		for id, props := range shadow {
			if v, ok := props[0]; ok && v.HashKey() == probe.HashKey() {
				want = append(want, id)
			}
		}
		got := append([]uint64(nil), ix.Lookup(probe)...)
		sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })
		sort.Slice(got, func(i, j int) bool { return got[i] < got[j] })
		if fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("step %d: index lookup %v = %v, oracle %v", step, probe, got, want)
		}
	}
}
