package graph

// Stats is a point-in-time summary of the graph's cardinalities: the raw
// material of the cost-based query planner. Every figure is derived from
// state the store already maintains — DeltaMatrix.NVals() is O(1) and
// delta-aware, the node/edge counts come from the DataBlocks — so producing
// a Stats costs O(labels + relation types) reads and adds no bookkeeping to
// the write path.
//
// The caller must hold at least the graph's read lock.
type Stats struct {
	// Nodes is the live node count.
	Nodes int
	// Edges is the sum of RelPairs: the distinct connected (src, dst) pairs
	// of each relationship type, so parallel edges of one type count once
	// and a pair joined by two types counts twice — what an untyped hop's
	// kernels visit, one relation matrix after another.
	Edges int
	// LabelNodes[lid] is the number of nodes carrying label lid (the label
	// diagonal's NVals).
	LabelNodes []int
	// RelPairs[tid] is the number of distinct (src, dst) pairs connected by
	// relationship type tid (the relation matrix's NVals).
	RelPairs []int
}

// Stats snapshots the graph's cardinalities. The caller must hold at least
// the read lock.
func (g *Graph) Stats() *Stats {
	s := &Stats{Nodes: g.nodes.Len()}
	s.LabelNodes = make([]int, len(g.labels))
	for i, lm := range g.labels {
		s.LabelNodes[i] = lm.NVals()
	}
	s.RelPairs = make([]int, len(g.relations))
	for i, rs := range g.relations {
		s.RelPairs[i] = rs.m.NVals()
		s.Edges += s.RelPairs[i]
	}
	return s
}

// LabelCount returns the node count for a label ID (0 when unknown).
func (s *Stats) LabelCount(lid int) int {
	if lid < 0 || lid >= len(s.LabelNodes) {
		return 0
	}
	return s.LabelNodes[lid]
}

// RelCount returns the connected-pair count for a relationship type ID
// (0 when unknown).
func (s *Stats) RelCount(tid int) int {
	if tid < 0 || tid >= len(s.RelPairs) {
		return 0
	}
	return s.RelPairs[tid]
}

// MeanOutDegree is the mean number of distinct successors per node across
// relationship type tid — the planner's per-hop fan-out estimate. Because
// the relation matrix and its transpose hold the same entry count, this is
// also the mean in-degree, so one figure serves both traversal directions.
func (s *Stats) MeanOutDegree(tid int) float64 {
	if s.Nodes == 0 {
		return 0
	}
	return float64(s.RelCount(tid)) / float64(s.Nodes)
}

// MeanDegreeAll is the mean fan-out of an untyped hop: Edges per node, the
// relation matrices' entries summed over every type.
func (s *Stats) MeanDegreeAll() float64 {
	if s.Nodes == 0 {
		return 0
	}
	return float64(s.Edges) / float64(s.Nodes)
}

// LabelSelectivity is the fraction of nodes carrying label lid, in (0, 1].
// Unknown or empty labels report 0.
func (s *Stats) LabelSelectivity(lid int) float64 {
	if s.Nodes == 0 {
		return 0
	}
	return float64(s.LabelCount(lid)) / float64(s.Nodes)
}
