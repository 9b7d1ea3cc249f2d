// Package graph implements the RedisGraph property-graph store: entities in
// DataBlocks, connectivity as GraphBLAS matrices — one matrix per
// relationship type whose entry at (src, dst) is the ID of an edge joining
// the pair (plus its transpose), a combined boolean adjacency matrix, and
// one boolean diagonal matrix per node label.
//
// Every matrix is a delta matrix (grb.DeltaMatrix): an immutable main CSR
// plus buffered insert/delete deltas, folded only when a sync threshold is
// crossed. Read accessors are fold-free, so any number of read-only queries
// can share the read lock while a write query buffers deltas under short
// exclusive-lock bursts.
package graph

import (
	"fmt"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"redisgraph/internal/datablock"
	"redisgraph/internal/grb"
	"redisgraph/internal/value"
)

// growthChunk is the matrix-dimension growth quantum; RedisGraph grows its
// matrices in chunks so node creation rarely resizes.
const growthChunk = 16384

type edgeKey struct{ src, dst uint64 }

// relationStore keeps one relationship type: its matrix R, whose entry at
// (src, dst) is the ID of one edge joining the pair (exact in a float64
// below 2^53), the boolean transpose R' for inbound traversals, and extra,
// the pair's other edge IDs, kept only for pairs two or more edges join.
// R's entry is tested by ExtractElement's error, never by value: edge 0 is 0.
type relationStore struct {
	m     *grb.DeltaMatrix
	tm    *grb.DeltaMatrix
	extra map[edgeKey][]uint64
}

// Graph is a single named property graph.
//
// Locking: read-only queries hold RLock for their whole execution. Write
// queries serialise against each other on the writer mutex (BeginWrite) and
// run their read phases under RLock too; each mutation burst upgrades to
// the exclusive lock (BeginMutation/EndMutation), so readers are blocked
// only for the short mutation+epoch-bump window, not for the whole write
// query. Every mutating method below assumes the caller holds the exclusive
// lock.
type Graph struct {
	sync.RWMutex

	// writerMu serialises write queries; the holder may upgrade from the
	// shared to the exclusive lock without deadlocking another upgrader.
	writerMu sync.Mutex

	Name   string
	Schema *Schema

	nodes *datablock.DataBlock[Node]
	edges *datablock.DataBlock[Edge]

	// nodeProps and edgeProps are the property stores (propstore.go): typed
	// columns indexed by node ID and by edge ID. They are the only property
	// storage; the entities in the datablocks above carry none.
	nodeProps *PropStore
	edgeProps *PropStore

	dim       int
	adj       *grb.DeltaMatrix
	tadj      *grb.DeltaMatrix
	labels    []*grb.DeltaMatrix
	relations []*relationStore

	// epoch counts connectivity writes (edge create/delete, resize). Caches
	// derived from the matrices — the union cache below — are keyed by it
	// instead of being invalidated ad hoc.
	epoch atomic.Uint64

	// syncThreshold is applied to every matrix (grb.DeltaMatrix.SetThreshold).
	syncThreshold int

	// unionCache memoises the boolean folds traversal planning needs for
	// multi-type relations ([:A|B]) and undirected hops (fwd ∪ rev), keyed
	// by shape and validated against the write epoch. Guarded by its own
	// mutex because read-locked queries populate it concurrently.
	unionMu    sync.Mutex
	unionCache map[string]unionEntry

	// condOut/condIn hold the conditioned degree statistics (condstats.go):
	// per-(relation × label × direction) connectivity cells, mutated only
	// under the exclusive lock by the distinct-pair transitions in
	// CreateEdge/DeleteEdge. condSnap is the epoch-cached read snapshot,
	// guarded by condMu because read-locked planners populate it
	// concurrently.
	condOut  [][]CondCell
	condIn   [][]CondCell
	condMu   sync.Mutex
	condSnap *CondStats
}

type unionEntry struct {
	epoch uint64
	m     *grb.DeltaMatrix
}

// New returns an empty graph with the given name.
func New(name string) *Graph {
	return &Graph{
		Name:          name,
		Schema:        NewSchema(),
		nodes:         datablock.New[Node](),
		edges:         datablock.New[Edge](),
		nodeProps:     newPropStore(),
		edgeProps:     newPropStore(),
		dim:           growthChunk,
		adj:           grb.NewDeltaMatrix(growthChunk, growthChunk),
		tadj:          grb.NewDeltaMatrix(growthChunk, growthChunk),
		syncThreshold: grb.DefaultDeltaThreshold,
	}
}

// BeginWrite enters a write query: it serialises against other writers and
// takes the shared lock, so read-only queries keep running concurrently.
func (g *Graph) BeginWrite() {
	g.writerMu.Lock()
	g.RLock()
}

// EndWrite leaves a write query.
func (g *Graph) EndWrite() {
	g.RUnlock()
	g.writerMu.Unlock()
}

// BeginMutation upgrades the write query from the shared to the exclusive
// lock for a mutation burst. Only the writer-mutex holder may call it, which
// makes the upgrade deadlock-free.
func (g *Graph) BeginMutation() {
	g.RUnlock()
	g.Lock()
}

// EndMutation downgrades back to the shared lock after a mutation burst.
func (g *Graph) EndMutation() {
	g.Unlock()
	g.RLock()
}

// Epoch returns the current connectivity-write epoch.
func (g *Graph) Epoch() uint64 { return g.epoch.Load() }

func (g *Graph) bumpEpoch() { g.epoch.Add(1) }

// SetSyncThreshold sets the pending-delta count at which MaybeSync folds a
// matrix, applying it to every existing and future matrix. 0 folds after
// every write query.
func (g *Graph) SetSyncThreshold(n int) {
	g.syncThreshold = n
	g.forEachMatrix(func(m *grb.DeltaMatrix) { m.SetThreshold(n) })
}

func (g *Graph) forEachMatrix(fn func(m *grb.DeltaMatrix)) {
	fn(g.adj)
	fn(g.tadj)
	for _, l := range g.labels {
		fn(l)
	}
	for _, r := range g.relations {
		fn(r.m)
		fn(r.tm)
	}
}

// Dim returns the current matrix dimension (≥ the number of nodes).
func (g *Graph) Dim() int { return g.dim }

// NodeCount returns the number of live nodes.
func (g *Graph) NodeCount() int { return g.nodes.Len() }

// EdgeCount returns the number of live edges.
func (g *Graph) EdgeCount() int { return g.edges.Len() }

// Adjacency returns THE adjacency matrix over all relationship types.
func (g *Graph) Adjacency() *grb.DeltaMatrix { return g.adj }

// TAdjacency returns the transposed adjacency matrix.
func (g *Graph) TAdjacency() *grb.DeltaMatrix { return g.tadj }

// RelationMatrix returns the adjacency matrix for a relationship type, or
// nil if the type is unknown.
func (g *Graph) RelationMatrix(typeID int) *grb.DeltaMatrix {
	if typeID < 0 || typeID >= len(g.relations) {
		return nil
	}
	return g.relations[typeID].m
}

// TRelationMatrix returns the transposed matrix for a relationship type.
func (g *Graph) TRelationMatrix(typeID int) *grb.DeltaMatrix {
	if typeID < 0 || typeID >= len(g.relations) {
		return nil
	}
	return g.relations[typeID].tm
}

// TraversalMatrix resolves the matrix a traversal hop multiplies by:
// the combined adjacency (anyType), a single relation matrix, or — for
// multi-type relations and undirected (both) hops — the LOr union of the
// constituent matrices. Callers read its structure only: a relation
// matrix's values are edge IDs. Unions are cached per write epoch; callers
// under the read lock share one materialisation. Returns nil when a single
// requested relation type has no matrix.
func (g *Graph) TraversalMatrix(typeIDs []int, anyType, transposed, both bool) *grb.DeltaMatrix {
	if !both {
		if anyType {
			if transposed {
				return g.tadj
			}
			return g.adj
		}
		if len(typeIDs) == 1 {
			if transposed {
				return g.TRelationMatrix(typeIDs[0])
			}
			return g.RelationMatrix(typeIDs[0])
		}
	}
	key := unionKey(typeIDs, anyType, transposed, both)
	epoch := g.Epoch()
	g.unionMu.Lock()
	defer g.unionMu.Unlock()
	if e, ok := g.unionCache[key]; ok && e.epoch == epoch {
		return e.m
	}
	var parts []*grb.Matrix
	collect := func(rev bool) {
		if anyType {
			if rev {
				parts = append(parts, g.tadj.Export())
			} else {
				parts = append(parts, g.adj.Export())
			}
			return
		}
		for _, t := range typeIDs {
			m := g.RelationMatrix(t)
			if rev {
				m = g.TRelationMatrix(t)
			}
			if m != nil {
				parts = append(parts, m.Export())
			}
		}
	}
	if both {
		collect(false)
		collect(true)
	} else {
		collect(transposed)
	}
	acc := grb.NewMatrix(g.dim, g.dim)
	if err := grb.EWiseAddMatrix(acc, parts...); err != nil {
		panic(fmt.Sprintf("graph: union build: %v", err)) // dimensions are controlled internally
	}
	if g.unionCache == nil {
		g.unionCache = map[string]unionEntry{}
	}
	u := grb.DeltaFrom(acc)
	g.unionCache[key] = unionEntry{epoch: epoch, m: u}
	return u
}

// unionKey canonicalises a union-cache key (type order must not matter).
func unionKey(typeIDs []int, anyType, transposed, both bool) string {
	ids := append([]int(nil), typeIDs...)
	sort.Ints(ids)
	var b strings.Builder
	if anyType {
		b.WriteString("adj")
	}
	for _, id := range ids {
		fmt.Fprintf(&b, "%d,", id)
	}
	if transposed {
		b.WriteByte('T')
	}
	if both {
		b.WriteByte('B')
	}
	return b.String()
}

// LabelMatrix returns the diagonal matrix for a label, or nil if unknown.
func (g *Graph) LabelMatrix(labelID int) *grb.DeltaMatrix {
	if labelID < 0 || labelID >= len(g.labels) {
		return nil
	}
	return g.labels[labelID]
}

func (g *Graph) grow(needed uint64) {
	if int(needed) < g.dim {
		return
	}
	newDim := g.dim
	for int(needed) >= newDim {
		newDim += growthChunk
	}
	g.forEachMatrix(func(m *grb.DeltaMatrix) { m.Resize(newDim, newDim) })
	g.dim = newDim
	g.bumpEpoch() // cached unions were built at the old dimension
}

func (g *Graph) newDelta() *grb.DeltaMatrix {
	m := grb.NewDeltaMatrix(g.dim, g.dim)
	m.SetThreshold(g.syncThreshold)
	return m
}

func (g *Graph) labelMatrixFor(id int) *grb.DeltaMatrix {
	for id >= len(g.labels) {
		g.labels = append(g.labels, g.newDelta())
	}
	return g.labels[id]
}

func (g *Graph) relationFor(id int) *relationStore {
	for id >= len(g.relations) {
		g.relations = append(g.relations, &relationStore{
			m:     g.newDelta(),
			tm:    g.newDelta(),
			extra: map[edgeKey][]uint64{},
		})
	}
	return g.relations[id]
}

// CreateNode allocates a node with the given labels and properties.
func (g *Graph) CreateNode(labels []string, props map[string]value.Value) *Node {
	id, n := g.nodes.Allocate()
	g.grow(id)
	n.ID = id
	n.schema = g.Schema
	for _, lbl := range labels {
		lid := g.Schema.AddLabel(lbl)
		n.Labels = append(n.Labels, lid)
		lm := g.labelMatrixFor(lid)
		if err := lm.SetElement(int(id), int(id), 1); err != nil {
			panic(fmt.Sprintf("graph: label matrix set: %v", err))
		}
	}
	for k, v := range props {
		g.setPropLocked(n, g.Schema.AddAttr(k), v)
	}
	return n
}

// GetNode returns the node with the given ID.
func (g *Graph) GetNode(id uint64) (*Node, bool) { return g.nodes.Get(id) }

// GetEdge returns the edge with the given ID.
func (g *Graph) GetEdge(id uint64) (*Edge, bool) { return g.edges.Get(id) }

// CreateEdge connects src→dst with the given relationship type.
func (g *Graph) CreateEdge(typ string, src, dst uint64, props map[string]value.Value) (*Edge, error) {
	srcN, ok := g.nodes.Get(src)
	if !ok {
		return nil, fmt.Errorf("graph: source node %d does not exist", src)
	}
	dstN, ok := g.nodes.Get(dst)
	if !ok {
		return nil, fmt.Errorf("graph: destination node %d does not exist", dst)
	}
	tid := g.Schema.AddRelType(typ)
	rs := g.relationFor(tid)
	id, e := g.edges.Allocate()
	e.ID, e.Type, e.Src, e.Dst = id, tid, src, dst
	e.schema = g.Schema
	for k, v := range props {
		g.edgeProps.set(id, g.Schema.AddAttr(k), v)
	}
	si, di := int(src), int(dst)
	if stored, err := rs.m.SetElementIfAbsent(si, di, float64(id)); err != nil {
		return nil, err
	} else if !stored {
		// The pair is already joined: no matrix or statistic changes.
		k := edgeKey{src, dst}
		rs.extra[k] = append(rs.extra[k], id)
		g.bumpEpoch()
		return e, nil
	}
	if err := rs.tm.SetElement(di, si, 1); err != nil {
		return nil, err
	}
	if err := g.adj.SetElement(si, di, 1); err != nil {
		return nil, err
	}
	if err := g.tadj.SetElement(di, si, 1); err != nil {
		return nil, err
	}
	g.condEdgeAdded(tid, srcN, dstN)
	g.bumpEpoch()
	return e, nil
}

// EdgesBetween returns the IDs of edges of the given type from src to dst:
// R's entry, then the pair's extra IDs. A negative typeID scans every
// relationship type.
func (g *Graph) EdgesBetween(typeID int, src, dst uint64) []uint64 {
	rels := g.relations
	if typeID >= len(rels) {
		return nil
	} else if typeID >= 0 {
		rels = rels[typeID : typeID+1]
	}
	var out []uint64
	for _, rs := range rels {
		if v, err := rs.m.ExtractElement(int(src), int(dst)); err == nil {
			out = append(append(out, uint64(v)), rs.extra[edgeKey{src, dst}]...)
		}
	}
	return out
}

// DeleteEdge removes an edge, fixing up the relation, adjacency and
// transpose matrices.
func (g *Graph) DeleteEdge(id uint64) bool {
	e, ok := g.edges.Get(id)
	if !ok {
		return false
	}
	rs := g.relations[e.Type]
	k := edgeKey{e.Src, e.Dst}
	si, di := int(e.Src), int(e.Dst)
	extra := rs.extra[k]
	if i := slices.Index(extra, id); i >= 0 {
		extra = slices.Delete(extra, i, i+1)
	} else if n := len(extra); n > 0 {
		// id is R's entry: promote the last extra ID (in bounds: cannot fail).
		_ = rs.m.SetElement(si, di, float64(extra[n-1]))
		extra = extra[:n-1]
	} else {
		_ = rs.m.RemoveElement(si, di)
		_ = rs.tm.RemoveElement(di, si)
		g.condEdgeRemoved(e.Type, e.Src, e.Dst)
		// The combined adjacency keeps its entry while any other relation
		// still connects the pair.
		if len(g.EdgesBetween(-1, e.Src, e.Dst)) == 0 {
			_ = g.adj.RemoveElement(si, di)
			_ = g.tadj.RemoveElement(di, si)
		}
	}
	if len(extra) == 0 {
		delete(rs.extra, k)
	} else {
		rs.extra[k] = extra
	}
	g.edgeProps.clear(id)
	g.edges.Delete(id)
	g.bumpEpoch()
	return true
}

// DeleteNode removes a node and every incident edge, returning the number of
// edges deleted.
func (g *Graph) DeleteNode(id uint64) (int, bool) {
	n, ok := g.nodes.Get(id)
	if !ok {
		return 0, false
	}
	// Collect incident edges from the combined adjacency row (out) and
	// transposed row (in); the delta-aware row accessors never fold.
	var victims []uint64
	for _, j := range g.adj.RowIterate(int(id)) {
		victims = append(victims, g.EdgesBetween(-1, id, uint64(j))...)
	}
	for _, j := range g.tadj.RowIterate(int(id)) {
		if uint64(j) != id { // self-loops already collected
			victims = append(victims, g.EdgesBetween(-1, uint64(j), id)...)
		}
	}
	for _, eid := range victims {
		g.DeleteEdge(eid)
	}
	// Unindex properties and clear label diagonals.
	for _, lid := range n.Labels {
		for attr, ix := range g.Schema.indexes[lid] {
			if v, ok := g.nodeProps.value(id, attr); ok {
				ix.remove(id, v)
			}
		}
		_ = g.labels[lid].RemoveElement(int(id), int(id))
	}
	g.nodeProps.clear(id)
	g.nodes.Delete(id)
	return len(victims), true
}

// SetNodeProperty sets (or, with a null value, removes) a node property,
// maintaining any indexes.
func (g *Graph) SetNodeProperty(id uint64, attr string, v value.Value) error {
	n, ok := g.nodes.Get(id)
	if !ok {
		return fmt.Errorf("graph: node %d does not exist", id)
	}
	g.setPropLocked(n, g.Schema.AddAttr(attr), v)
	return nil
}

func (g *Graph) setPropLocked(n *Node, aid int, v value.Value) {
	for _, lid := range n.Labels {
		if ix, ok := g.Schema.Index(lid, aid); ok {
			if old, ok := g.nodeProps.value(n.ID, aid); ok {
				ix.remove(n.ID, old)
			}
			if !v.IsNull() {
				ix.add(n.ID, v)
			}
		}
	}
	g.nodeProps.set(n.ID, aid, v)
}

// SetEdgeProperty sets (or removes, with null) an edge property.
func (g *Graph) SetEdgeProperty(id uint64, attr string, v value.Value) error {
	if _, ok := g.edges.Get(id); !ok {
		return fmt.Errorf("graph: edge %d does not exist", id)
	}
	g.edgeProps.set(id, g.Schema.AddAttr(attr), v)
	return nil
}

// PropColumn returns the node-property column for an attribute ID, or nil
// when no node ever stored a value under it. Callers must hold at least the
// read lock.
func (g *Graph) PropColumn(aid int) *Column { return g.nodeProps.Column(aid) }

// PropVersion counts node-property writes (set, null-set, node delete).
// State compiled from the node columns — predicate kernels, index-seeded
// masks — is valid only for the version it was resolved at.
func (g *Graph) PropVersion() uint64 { return g.nodeProps.version }

// NodePropertyColumnar reads a node property, boxed: one attribute-name
// lookup plus a column probe. Null when the node holds no such property.
// (The name predates columns being the only store.)
func (g *Graph) NodePropertyColumnar(id uint64, attr string) value.Value {
	return g.nodeProps.byName(g.Schema, id, attr)
}

// EdgeProperty reads an edge property by attribute name, like
// NodePropertyColumnar.
func (g *Graph) EdgeProperty(id uint64, attr string) value.Value {
	return g.edgeProps.byName(g.Schema, id, attr)
}

// DetachNode copies node id and its properties out of the store (see
// DetachedNode). A dead ID yields the zero node, which is what the emptied
// datablock slot holds.
func (g *Graph) DetachNode(id uint64) *DetachedNode {
	n, ok := g.nodes.Get(id)
	if !ok {
		return &DetachedNode{}
	}
	return &DetachedNode{Node: *n, Props: g.nodeProps.appendProps(nil, id)}
}

// DetachEdge copies edge id and its properties out of the store.
func (g *Graph) DetachEdge(id uint64) *DetachedEdge {
	e, ok := g.edges.Get(id)
	if !ok {
		return &DetachedEdge{}
	}
	return &DetachedEdge{Edge: *e, Props: g.edgeProps.appendProps(nil, id)}
}

// AppendNodeProps appends node id's properties in ascending attribute-ID
// order; AppendEdgeProps does the same for an edge. Snapshots stream them.
func (g *Graph) AppendNodeProps(dst []Prop, id uint64) []Prop {
	return g.nodeProps.appendProps(dst, id)
}

func (g *Graph) AppendEdgeProps(dst []Prop, id uint64) []Prop {
	return g.edgeProps.appendProps(dst, id)
}

// CreateIndex builds an exact-match index over (label, attr), backfilling
// existing nodes. It reports whether a new index was created.
func (g *Graph) CreateIndex(label, attr string) bool {
	lid := g.Schema.AddLabel(label)
	g.labelMatrixFor(lid)
	aid := g.Schema.AddAttr(attr)
	if _, exists := g.Schema.Index(lid, aid); exists {
		return false
	}
	ix := g.Schema.CreateIndex(lid, aid)
	g.nodes.ForEach(func(id uint64, n *Node) bool {
		if !slices.Contains(n.Labels, lid) {
			return true
		}
		if v, ok := g.nodeProps.value(id, aid); ok {
			ix.add(id, v)
		}
		return true
	})
	return true
}

// ForEachNode visits all live nodes in ID order.
func (g *Graph) ForEachNode(fn func(n *Node) bool) {
	g.nodes.ForEach(func(_ uint64, n *Node) bool { return fn(n) })
}

// ForEachEdge visits all live edges in ID order.
func (g *Graph) ForEachEdge(fn func(e *Edge) bool) {
	g.edges.ForEach(func(_ uint64, e *Edge) bool { return fn(e) })
}

// Sync force-folds every matrix's buffered deltas into its main CSR.
// Persistence snapshots call it so the serialised state is fully
// materialised; the caller must hold the exclusive lock.
func (g *Graph) Sync() {
	g.forEachMatrix(func(m *grb.DeltaMatrix) { m.ForceSync() })
}

// MaybeSync folds exactly the matrices whose pending-delta count has
// reached the sync threshold. Write queries call it inside their final
// mutation burst; with a threshold of 0 it folds after every write query,
// reproducing the pre-delta behaviour.
func (g *Graph) MaybeSync() {
	g.forEachMatrix(func(m *grb.DeltaMatrix) { m.Sync(false) })
}

// NeedsSync reports whether any matrix has reached the sync threshold. It
// is a fold-free read, so write queries can check it under the shared lock
// before paying for an exclusive burst.
func (g *Graph) NeedsSync() bool {
	needs := false
	g.forEachMatrix(func(m *grb.DeltaMatrix) {
		if m.Pending() > 0 && m.Pending() >= m.Threshold() {
			needs = true
		}
	})
	return needs
}

// PendingDeltas returns the total buffered delta count across all matrices.
func (g *Graph) PendingDeltas() int {
	total := 0
	g.forEachMatrix(func(m *grb.DeltaMatrix) { total += m.Pending() })
	return total
}
