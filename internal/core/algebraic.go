package core

import (
	"fmt"
	"sort"
	"strings"

	"redisgraph/internal/graph"
	"redisgraph/internal/grb"
)

// algebraicOperand is one matrix factor in a traversal expression: a
// relationship hop or a diagonal label matrix. A hop's matrix is the union
// of a short list of relation matrices — untyped: every type's R; [:A|B]:
// R_A and R_B; inbound: the transposes Rᵀ; undirected: R and Rᵀ — which the
// kernels OR in place (RedisGraph's ADD node, never materialised). The
// operand holds names rather than matrix pointers or IDs: they resolve at
// evaluation time (parts), under the lock the query already holds, so the
// operand always matches the graph's current schema, dimension and write
// epoch (plans can outlive a concurrent write). A name that does not exist
// contributes no matrix, and an empty list has no entries.
type algebraicOperand struct {
	names   []string // relationship types (none: every type), or the diagonal's one label
	label   string   // display name for EXPLAIN
	diag    bool     // a label diagonal: a filter, not a hop; direction is moot
	reverse bool     // inbound: the hop reads the transposes
	both    bool     // undirected: the hop reads R and Rᵀ
}

// parts appends to dst the matrices whose union is the operand — with
// transpose set, the operand's transpose, which a var-length BFS pull hop
// reads — and returns the extended list. A diagonal is its own transpose,
// and so is an undirected hop.
func (op *algebraicOperand) parts(g *graph.Graph, transpose bool, dst []*grb.DeltaMatrix) []*grb.DeltaMatrix {
	if op.diag {
		if m := labelMatrix(g, op.names[0]); m != nil {
			dst = append(dst, m)
		}
		return dst
	}
	rev := op.reverse != transpose
	add := func(dst []*grb.DeltaMatrix, tid int) []*grb.DeltaMatrix {
		if m := g.RelationMatrix(tid); m != nil && (op.both || !rev) {
			dst = append(dst, m)
		}
		if m := g.TRelationMatrix(tid); m != nil && (op.both || rev) {
			dst = append(dst, m)
		}
		return dst
	}
	if len(op.names) == 0 {
		for tid := 0; tid < g.Schema.RelTypeCount(); tid++ {
			dst = add(dst, tid)
		}
		return dst
	}
	for _, name := range op.names {
		if tid, ok := g.Schema.RelTypeID(name); ok {
			dst = add(dst, tid)
		}
	}
	return dst
}

// algebraicExpr is the product RedisGraph builds for each traversal:
// frontier · (SrcLabel?) · Rel · (DstLabel?). Evaluation is a chain of
// frontier-matrix products over the boolean ANY_PAIR semiring, against delta
// matrices consulted fold-free. Variable-length hops do not use it: they run
// one relation operand's list through grb.BFS.
type algebraicExpr struct {
	operands []algebraicOperand
}

func (ae *algebraicExpr) String() string {
	parts := make([]string, len(ae.operands))
	for i, o := range ae.operands {
		parts[i] = o.label
	}
	return strings.Join(parts, " * ")
}

// dim is the frontier dimension for this evaluation; it must be read under
// the query's lock (matrices only resize inside exclusive mutation bursts).
func (ae *algebraicExpr) dim(ctx *execCtx) int { return ctx.g.Dim() }

// ---- direction-optimizing kernel selection ----

// kernelMode selects the traversal kernel direction for a query: chosen per
// hop (auto), or forced to one direction for differential baselines
// (GRAPH.CONFIG SET TRAVERSE_KERNEL push|pull). It reaches the two places a
// pull kernel exists, the var-length BFS hop and the expand-into point
// probe; fixed-length hops always push.
type kernelMode int

const (
	kernelAuto kernelMode = iota
	kernelPush
	kernelPull
)

// parseKernelMode maps Config.TraverseKernel to a kernelMode.
func parseKernelMode(s string) (kernelMode, error) {
	switch strings.ToLower(s) {
	case "", "auto":
		return kernelAuto, nil
	case "push":
		return kernelPush, nil
	case "pull":
		return kernelPull, nil
	}
	return kernelAuto, fmt.Errorf("core: invalid traverse kernel %q (want auto, push or pull)", s)
}

// kernelStats counts a traversal operation's per-hop kernel decisions, so
// PROFILE shows which direction each hop actually ran (one evaluation of a
// relation operand = one decision; label diagonals are not counted).
type kernelStats struct{ push, pull int }

func (k *kernelStats) note(pull bool) {
	if pull {
		k.pull++
	} else {
		k.push++
	}
}

// describe renders the recorded decisions for PROFILE ("" before execution,
// so EXPLAIN output is unchanged).
func (k *kernelStats) describe() string {
	switch {
	case k.push == 0 && k.pull == 0:
		return ""
	case k.pull == 0:
		return " | kernel: push"
	case k.push == 0:
		return " | kernel: pull"
	}
	return fmt.Sprintf(" | kernel: mixed(push=%d, pull=%d)", k.push, k.pull)
}

// The var-length chooser's constants price a grb.BFS pull hop in push-hop
// scatters: per in-edge of an unreached vertex (m_u) and per unreached
// candidate. They come from BenchmarkBFSHop (internal/grb) on the clean RMAT
// scale-13 operand, Xeon, 2 vCPUs: a push hop costs 1.2–1.8 ns per m_f entry,
// and a first-hop pull, which scans every candidate's whole in-row, ≈1.4 ns
// per m_u entry plus 3–5 ns per candidate. Later pulls stop at the first
// frontier member they meet, so the candidate charge sits below that scan
// cost. Over every hop of 64 searches per graph (BenchmarkBFSHop's hop
// states, each hop timed both ways), the hops these two pick sum to within
// 3 % of always taking the cheaper direction at scales 13–14 (clean or
// dirty), 6–8 % at scale 12 and 2–19 % at scale 10, where the gap is under
// 1 µs a search. The earlier rule, pull when m_f exceeds 1.2 × candidates,
// took 10–77 % more on the same kernels.
const (
	bfsPullEdgeCost      = 1.1
	bfsPullCandidateCost = 1.4
)

// bfsFrontier is what the var-length chooser reads of a BFS frontier;
// *grb.BFSHop implements it.
type bfsFrontier interface {
	FrontierDegree(budget float64) float64
}

// choosePullHop is the chooser for one var-length BFS hop: direction-
// optimizing BFS's m_f against m_u. Push pays for the frontier's out-edges,
// the sum of its out-degrees (m_f, an O(frontier) pass of row-pointer
// arithmetic). Pull pays at most for the unreached vertices' in-edges (m_u,
// which grb.BFS keeps exact as vertices are reached) and a fixed cost per
// unreached candidate. Both sides count edges, not vertices, because a BFS
// frontier's mean degree drifts far from the global mean: mid-BFS frontiers
// hold the graph's high-degree core. The degree sum early-exits once it
// clears the pull budget, so the chooser's overhead stays bounded by the
// cheaper kernel's cost. A forced mode overrides the comparison, and a
// label diagonal always pushes.
func (ctx *execCtx) choosePullHop(op *algebraicOperand, f bfsFrontier, unreached, unreachedIn int) bool {
	if op.diag {
		return false
	}
	switch ctx.kernel {
	case kernelPush:
		return false
	case kernelPull:
		return true
	}
	budget := bfsPullEdgeCost*float64(unreachedIn) + bfsPullCandidateCost*float64(unreached)
	return f.FrontierDegree(budget) > budget
}

// evalMatrix propagates a whole batch of frontiers — one per row of f — in
// one MxMParts per operand. This is the paper's central claim realised:
// many traversals fused into a single sparse matrix–matrix multiplication
// over the ANY_PAIR semiring, instead of one kernel call per record. Every
// product runs the push (Gustavson) kernel: the frontier holds one source per
// record, so it never grows dense enough for a pull to repay probing every
// candidate column.
//
// keep carries the pushed destination predicates as a column mask, applied
// as one SelectCols pass over the result.
func (ae *algebraicExpr) evalMatrix(ctx *execCtx, f *grb.Matrix, ks *kernelStats, keep grb.ColMask) (*grb.Matrix, error) {
	dim := ae.dim(ctx)
	w := f
	for i := range ae.operands {
		op := &ae.operands[i]
		parts := ctx.operand(op, false)
		if len(parts) == 0 {
			return grb.NewMatrix(f.NRows(), dim), nil // absent names: every row is empty
		}
		out := grb.NewMatrix(f.NRows(), dim)
		if err := grb.MxMParts(out, w, parts, ctx.desc); err != nil {
			return nil, err
		}
		if ks != nil && !op.diag {
			ks.note(false)
		}
		w = out
	}
	if keep != nil {
		grb.SelectCols(w, keep, ctx.desc)
	}
	return w, nil
}

// orderLabelsBySelectivity returns the labels ordered smallest-cardinality
// first. When several label diagonals fold into one algebraic expression,
// multiplying the most selective diagonal first shrinks every later
// intermediate product — the operand-ordering half of the cost-based
// planner. Unknown labels sort first (they empty the chain anyway). The
// sort is stable, so equal-cardinality labels keep their written order.
func (b *planBuilder) orderLabelsBySelectivity(labels []string) []string {
	if len(labels) < 2 {
		return labels
	}
	out := append([]string(nil), labels...)
	count := func(l string) int {
		lid, ok := b.g.Schema.LabelID(l)
		if !ok {
			return -1
		}
		return b.gs.LabelCount(lid)
	}
	sort.SliceStable(out, func(i, j int) bool { return count(out[i]) < count(out[j]) })
	return out
}

// relationOperand is the operand for a relationship hop over the named types
// (none = every type). reverse selects the transposed matrices (inbound),
// both reads each type's matrix and its transpose. The names resolve at
// evaluation time, so a type a write creates earlier in the same query is
// traversed.
func relationOperand(types []string, reverse, both bool) algebraicOperand {
	name := "ADJ"
	if len(types) > 0 {
		name = strings.Join(types, "|")
	}
	switch {
	case both:
		name = name + "±"
	case reverse:
		name = name + "ᵀ"
	}
	return algebraicOperand{names: types, label: name, reverse: reverse && !both, both: both}
}

// labelMatrix looks a label name up in the live schema and returns its
// diagonal matrix; nil while the label does not exist (no entries).
func labelMatrix(g *graph.Graph, label string) *grb.DeltaMatrix {
	lid, ok := g.Schema.LabelID(label)
	if !ok {
		return nil
	}
	return g.LabelMatrix(lid)
}
