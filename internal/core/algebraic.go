package core

import (
	"fmt"
	"sort"
	"strings"

	"redisgraph/internal/graph"
	"redisgraph/internal/grb"
)

// algebraicOperand is one matrix factor in a traversal expression: a
// relation matrix (optionally transposed for inbound traversal) or a
// diagonal label matrix. The operand holds a resolver over names rather than
// a matrix pointer or an ID: resolution happens at evaluation time, under
// the lock the query already holds, so the operand always matches the
// graph's current schema, dimension and write epoch (plans can outlive a
// concurrent write). A name that does not exist resolves to nil: no entries.
//
// resolveT resolves the operand's TRANSPOSE — the graph maintains R' beside
// every R — which is what a var-length BFS pull hop reads. Label diagonals
// have none.
type algebraicOperand struct {
	resolve  func(g *graph.Graph) *grb.DeltaMatrix
	resolveT func(g *graph.Graph) *grb.DeltaMatrix
	label    string // display name for EXPLAIN
	diag     bool   // label diagonals: a filter, not a hop; direction is moot
}

// algebraicExpr is the product RedisGraph builds for each traversal:
// frontier · (SrcLabel?) · Rel · (DstLabel?). Evaluation is a chain of
// frontier-matrix products over the boolean ANY_PAIR semiring, against delta
// matrices consulted fold-free. Variable-length hops do not use it: they run
// one relation operand through grb.BFS.
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
// cheaper kernel's cost. A forced mode overrides the comparison, and an
// operand without a transpose always pushes.
func (ctx *execCtx) choosePullHop(op *algebraicOperand, f bfsFrontier, unreached, unreachedIn int) bool {
	if op.diag || op.resolveT == nil {
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
// one MxMDelta per operand. This is the paper's central claim realised:
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
		m := ctx.resolveOperand(op)
		if m == nil {
			return grb.NewMatrix(f.NRows(), dim), nil // an absent name: every row is empty
		}
		out := grb.NewMatrix(f.NRows(), dim)
		if err := grb.MxMDelta(out, nil, nil, grb.AnyPair, w, m, ctx.desc); err != nil {
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
// (none = any relation, THE adjacency matrix). reverse selects the
// transposed matrices (inbound), both unions the two directions. The names
// resolve at evaluation time, so a type a write creates earlier in the same
// query is traversed, and a multi-type or both-direction union comes from
// the graph's epoch-keyed cache instead of being folded anew for every
// query. The transpose resolver flips the direction flag (an undirected
// union is its own transpose), feeding BFS pull hops the same fold-free
// delta matrices the push hops get.
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
	reverseT := reverse
	if !both {
		reverseT = !reverse
	}
	return algebraicOperand{
		resolve:  func(g *graph.Graph) *grb.DeltaMatrix { return traversalMatrix(g, types, reverse, both) },
		resolveT: func(g *graph.Graph) *grb.DeltaMatrix { return traversalMatrix(g, types, reverseT, both) },
		label:    name,
	}
}

// traversalMatrix looks the type names up in the live schema and returns the
// matrix a hop multiplies by; nil when none of them exists (no entries).
func traversalMatrix(g *graph.Graph, types []string, transposed, both bool) *grb.DeltaMatrix {
	if len(types) == 0 {
		return g.TraversalMatrix(nil, true, transposed, both)
	}
	var buf [4]int // the IDs stay on the stack: the lookup allocates nothing
	ids := buf[:0]
	for _, t := range types {
		if tid, ok := g.Schema.RelTypeID(t); ok {
			ids = append(ids, tid)
		}
	}
	if len(ids) == 0 {
		return nil
	}
	return g.TraversalMatrix(ids, false, transposed, both)
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
