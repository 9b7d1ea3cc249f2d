package graph

// Conditioned degree statistics: per-(relationship type × source/destination
// label × direction) connectivity summaries, maintained incrementally from
// the delta matrices' fold-free row degrees. Where Stats answers "how many
// edges does relation T have overall", a CondCell answers "how do T's edges
// distribute over the nodes that actually carry label L" — the difference
// between estimating a hop's fan-out from the global mean degree and from
// the degree distribution of the exact (label, relation, direction) the hop
// traverses. On skewed graphs the two disagree by orders of magnitude, and
// the cost planner's hop ordering and expand-into probability inherit the
// error.
//
// Maintenance is O(endpoint labels) per distinct-pair connectivity change:
// CreateEdge and DeleteEdge already know when a (src, dst) pair becomes
// connected or disconnected for a relation (R gains or loses its entry; a
// pair's further edges only touch its extra IDs), and the delta matrices'
// RowDegree is O(1) and fold-free, so the bookkeeping never folds a matrix
// and never scans a row. This is a deliberate departure
// from Stats' zero-write-path-cost design: the cells cannot be derived in
// O(labels + rels) from matrix NVals, and recomputing them per epoch would
// cost O(dim × labels) — fatal to write-heavy workloads — so the write path
// pays a few array increments instead.

// CondCell summarises one (relation, label, direction) combination: the
// degree distribution of label-L nodes over relation T's out- (or in-) edges.
// Degrees count distinct neighbours, matching what one MxM step visits.
type CondCell struct {
	// Pairs is the number of distinct (src, dst) pairs whose labelled
	// endpoint is a label-L node — the restriction of Stats.RelPairs to L.
	Pairs int
	// SumDegSq is Σ degree² over connected label-L nodes. Because
	// disconnected nodes contribute zero, this equals the second moment of
	// the degree distribution over ALL label-L nodes, which is what the
	// configuration-model skew correction needs.
	SumDegSq float64
}

// add records a node's degree transition old → old+1 (a newly connected
// distinct neighbour).
func (c *CondCell) add(newDeg int) {
	old := newDeg - 1
	c.Pairs++
	c.SumDegSq += float64(newDeg*newDeg - old*old)
}

// remove records a node's degree transition newDeg+1 → newDeg (a distinct
// neighbour disconnected).
func (c *CondCell) remove(newDeg int) {
	old := newDeg + 1
	c.Pairs--
	c.SumDegSq += float64(newDeg*newDeg - old*old)
}

// FanoutOver is the mean degree over a population of `nodes` candidates,
// zeros included: the expected result-row count of one hop per source row.
func (c CondCell) FanoutOver(nodes int) float64 {
	if nodes <= 0 {
		return 0
	}
	return float64(c.Pairs) / float64(nodes)
}

// DegreeSkew is the configuration-model correction factor
// κ = N·ΣD² / E² for a population of `nodes` candidates: the ratio between
// the degree-biased mean degree (what a traversal that ARRIVES somewhere
// samples) and the uniform mean. κ = 1 on regular graphs and grows with
// degree variance — a graph whose E edges concentrate on h hubs has
// κ ≈ N/h. Never reported below 1.
func (c CondCell) DegreeSkew(nodes int) float64 {
	if c.Pairs == 0 || nodes <= 0 {
		return 1
	}
	k := float64(nodes) * c.SumDegSq / (float64(c.Pairs) * float64(c.Pairs))
	if k < 1 {
		return 1
	}
	return k
}

// CondStats is a point-in-time snapshot of every conditioned cell, indexed
// [relation type][label row] where row 0 is the any-label aggregate and row
// lid+1 conditions on label lid. Out conditions on the SOURCE endpoint's
// labels (out-degrees), In on the DESTINATION's (in-degrees). Snapshots are
// cached per write epoch, so planning a hot query shape costs one mutex
// probe, not a copy.
type CondStats struct {
	Epoch uint64
	Out   [][]CondCell
	In    [][]CondCell
}

func condCellAt(rows [][]CondCell, tid, lid int) CondCell {
	if tid < 0 || tid >= len(rows) {
		return CondCell{}
	}
	row := rows[tid]
	i := 0
	if lid >= 0 {
		i = lid + 1
	}
	if i >= len(row) {
		return CondCell{}
	}
	return row[i]
}

// OutCell returns the out-degree cell for (relation tid, source label lid);
// lid < 0 selects the any-label aggregate. Unknown combinations are empty.
func (cs *CondStats) OutCell(tid, lid int) CondCell { return condCellAt(cs.Out, tid, lid) }

// InCell returns the in-degree cell for (relation tid, destination label
// lid); lid < 0 selects the any-label aggregate.
func (cs *CondStats) InCell(tid, lid int) CondCell { return condCellAt(cs.In, tid, lid) }

// condRows grows a [tid][label row] table so that relation tid has a row
// for each of nLabels labels.
func condRows(table [][]CondCell, tid, nLabels int) [][]CondCell {
	for tid >= len(table) {
		table = append(table, nil)
	}
	if need := nLabels + 1; len(table[tid]) < need { // row 0 = any-label, then lid+1
		row := make([]CondCell, need)
		copy(row, table[tid])
		table[tid] = row
	}
	return table
}

// condEdgeAdded records that (src, dst) became a NEWLY CONNECTED distinct
// pair for relation tid, given the endpoints' nodes. The relation matrices
// must already contain the entry (RowDegree reads the post-insert degrees).
// Caller holds the exclusive lock.
func (g *Graph) condEdgeAdded(tid int, src, dst *Node) {
	rs := g.relations[tid]
	nLabels := g.Schema.LabelCount()
	deg := rs.m.RowDegree(int(src.ID))
	g.condOut = condRows(g.condOut, tid, nLabels)
	row := g.condOut[tid]
	row[0].add(deg)
	for _, lid := range src.Labels {
		row[lid+1].add(deg)
	}
	deg = rs.tm.RowDegree(int(dst.ID))
	g.condIn = condRows(g.condIn, tid, nLabels)
	row = g.condIn[tid]
	row[0].add(deg)
	for _, lid := range dst.Labels {
		row[lid+1].add(deg)
	}
}

// condEdgeRemoved records that (src, dst) stopped being a connected pair for
// relation tid. The relation matrices must already have dropped the entry.
// Caller holds the exclusive lock; DeleteNode removes incident edges before
// the node itself, so both endpoints are still resolvable here.
func (g *Graph) condEdgeRemoved(tid int, src, dst uint64) {
	rs := g.relations[tid]
	if srcN, ok := g.nodes.Get(src); ok {
		deg := rs.m.RowDegree(int(src))
		g.condOut = condRows(g.condOut, tid, g.Schema.LabelCount())
		row := g.condOut[tid]
		row[0].remove(deg)
		for _, lid := range srcN.Labels {
			row[lid+1].remove(deg)
		}
	}
	if dstN, ok := g.nodes.Get(dst); ok {
		deg := rs.tm.RowDegree(int(dst))
		g.condIn = condRows(g.condIn, tid, g.Schema.LabelCount())
		row := g.condIn[tid]
		row[0].remove(deg)
		for _, lid := range dstN.Labels {
			row[lid+1].remove(deg)
		}
	}
}

// CondStats snapshots the conditioned degree statistics, cached per write
// epoch (concurrent read-locked planners share one copy). The caller must
// hold at least the read lock.
func (g *Graph) CondStats() *CondStats {
	epoch := g.Epoch()
	g.condMu.Lock()
	defer g.condMu.Unlock()
	if g.condSnap != nil && g.condSnap.Epoch == epoch {
		return g.condSnap
	}
	cs := &CondStats{Epoch: epoch, Out: copyCondTable(g.condOut), In: copyCondTable(g.condIn)}
	g.condSnap = cs
	return cs
}

func copyCondTable(table [][]CondCell) [][]CondCell {
	out := make([][]CondCell, len(table))
	for i, row := range table {
		out[i] = append([]CondCell(nil), row...)
	}
	return out
}
