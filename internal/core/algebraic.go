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
// every R — which is what the pull (dot-product) kernels multiply by. A nil
// resolveT pins the operand to the push kernel.
type algebraicOperand struct {
	resolve  func(g *graph.Graph) *grb.DeltaMatrix
	resolveT func(g *graph.Graph) *grb.DeltaMatrix
	label    string // display name for EXPLAIN
	diag     bool   // label diagonals: a filter, not a hop; direction is moot
	// meanDeg, when positive, is the planner's conditioned mean degree for
	// this operand's frontier rows — the (source label × relation ×
	// direction) cell's fan-out. The batched push/pull chooser prefers it
	// over the global NVals/dim figure, which both ignores the frontier's
	// label and dilutes the mean with the matrix's padded dimension.
	meanDeg float64
	// connCand, when positive, is the planner's conditioned connected-
	// candidate count: how many output columns carry at least one entry in
	// this operand's effective matrix (the relation's in-direction Conn
	// cells, summed over the traversed types). A pull probe over an
	// unconnected column terminates on a row-pointer check without scanning
	// anything, so the chooser charges only the connected columns the full
	// probe cost — on graphs where edges concentrate on a few columns this
	// collapses the pull estimate by orders of magnitude. Zero means
	// unknown: every candidate is assumed connected, the pre-hint formula.
	connCand int
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

// kernelMode selects the traversal kernel direction for a query:
// density-adaptive per hop (auto), or forced to one direction for
// differential baselines (GRAPH.CONFIG SET TRAVERSE_KERNEL push|pull).
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

// The chooser's cost constants, calibrated on power-law graphs (graph500
// and twitter-like, scale 14): one unit ≈ the cost of scattering one
// adjacency entry in the push kernel.
const (
	// pullProbeCost is the per-candidate cost of one pull probe relative to
	// one push scatter. Measured near 1.15 on the power-law benches — most
	// candidates have short in-lists and dense-frontier hits exit on the
	// first couple of entries — so 1.2 biases the tie slightly toward push.
	pullProbeCost = 1.2
	// emptyProbeCost is the per-candidate cost of a pull probe that finds an
	// empty in-list: two row-pointer loads and a compare, no entry scanned
	// and no frontier lookup. Charged to the candidates beyond the operand's
	// conditioned connected count (connCand), when the planner supplied one.
	emptyProbeCost = 0.1
	// expandProbeCost compares an expand-into point probe (a binary search,
	// ~log degree) against building the record's whole ~mean-degree result
	// row in the push path.
	expandProbeCost = 4.0
)

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

// pullEligible applies the checks shared by both choosers: forced modes,
// operands without a transpose, and label diagonals (a filter either way).
// decided reports whether the mode alone settles the direction.
func (ctx *execCtx) pullEligible(op *algebraicOperand) (bt *grb.DeltaMatrix, pull, decided bool) {
	if op.diag || op.resolveT == nil {
		return nil, false, true
	}
	switch ctx.kernel {
	case kernelPush:
		return nil, false, true
	case kernelPull:
		bt := ctx.resolveOperandT(op)
		return bt, bt != nil, true
	}
	return nil, false, false
}

// choosePull decides the kernel direction for one batched (matrix-frontier)
// hop and resolves the transpose operand when pull wins.
//
// The cost model: push scatters the adjacency row of every frontier entry —
// ~ fnnz · meanDegree entries touched, where the mean degree is the
// planner's conditioned (label × relation × direction) hint when available
// and the global NVals(B)/dim otherwise — while pull
// probes each candidate output position's in-neighbour list with early
// exit, ~ candidates · pullProbeCost. The frontier NVals, the candidate-set
// size and the operand's O(1) delta-matrix NVals are all the chooser needs;
// below the bitmap density (dim/denseThreshold) push always wins and the
// comparison is skipped.
func (ctx *execCtx) choosePull(op *algebraicOperand, fnnz, candidates int) (*grb.DeltaMatrix, bool) {
	if bt, pull, decided := ctx.pullEligible(op); decided {
		return bt, pull
	}
	dim := ctx.g.Dim()
	if dim == 0 || fnnz*grb.DenseThreshold < dim {
		return nil, false
	}
	b := ctx.resolveOperand(op)
	if b == nil {
		return nil, false
	}
	meanDeg := float64(b.NVals()) / float64(dim)
	if op.meanDeg > 0 {
		meanDeg = op.meanDeg
	}
	pushCost := float64(fnnz) * meanDeg
	// Both kernels now split their work across the shared morsel pool
	// (row-partitioned push, column-partitioned pull), so the thread budget
	// cancels out of the comparison.
	pullCost := pullCostEst(op, candidates)
	if pushCost <= pullCost {
		return nil, false
	}
	bt := ctx.resolveOperandT(op)
	return bt, bt != nil
}

// pullCostEst prices a pull evaluation over `candidates` output positions.
// With a conditioned connected-candidate hint, only connCand columns pay a
// full early-exit probe; the rest are empty in-lists dismissed by a
// row-pointer check. The hint is an upper bound summed over the traversed
// types (shared columns counted once per type), so a hint at or above the
// candidate count degenerates to the unconditioned all-connected formula.
func pullCostEst(op *algebraicOperand, candidates int) float64 {
	if op.connCand > 0 && op.connCand < candidates {
		return float64(op.connCand)*pullProbeCost +
			float64(candidates-op.connCand)*emptyProbeCost
	}
	return float64(candidates) * pullProbeCost
}

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
// cheaper kernel's cost.
func (ctx *execCtx) choosePullHop(op *algebraicOperand, f bfsFrontier, unreached, unreachedIn int) bool {
	if _, pull, decided := ctx.pullEligible(op); decided {
		return pull
	}
	budget := bfsPullEdgeCost*float64(unreachedIn) + bfsPullCandidateCost*float64(unreached)
	return f.FrontierDegree(budget) > budget
}

// evalMatrix propagates a whole batch of frontiers — one per row of f — in
// one masked MxM per operand. This is the paper's central claim realised:
// many traversals fused into a single sparse matrix–matrix multiplication
// over the ANY_PAIR semiring, instead of one kernel call per record. Each
// operand multiplication independently picks the push (Gustavson) or pull
// (transpose dot-product) kernel from the fused frontier's density.
//
// keep carries the pushed destination predicates as a column mask, applied
// at the relation operand when it pulls (candidate pruning inside MxMPull)
// and as one post-evaluation SelectCols pass otherwise. Applying it at the
// first operand is sound because label diagonals after it only filter.
func (ae *algebraicExpr) evalMatrix(ctx *execCtx, f *grb.Matrix, ks *kernelStats, keep grb.ColMask) (*grb.Matrix, error) {
	dim := ae.dim(ctx)
	w := f
	kernelKept := false
	for i := range ae.operands {
		op := &ae.operands[i]
		m := ctx.resolveOperand(op)
		if m == nil {
			return grb.NewMatrix(f.NRows(), dim), nil // an absent name: every row is empty
		}
		out := grb.NewMatrix(f.NRows(), dim)
		bt, pull := ctx.choosePull(op, w.NVals(), dim)
		if pull {
			var kk grb.ColMask
			if i == 0 && keep != nil {
				kk, kernelKept = keep, true
			}
			if err := grb.MxMPull(out, grb.AnyPair, w, bt, kk, ctx.desc); err != nil {
				return nil, err
			}
		} else if err := grb.MxMDelta(out, nil, nil, grb.AnyPair, w, m, ctx.desc); err != nil {
			return nil, err
		}
		if ks != nil && !op.diag {
			ks.note(pull)
		}
		w = out
	}
	if keep != nil && !kernelKept {
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
// union is its own transpose), feeding the pull kernels the same fold-free
// delta matrices the push kernels get.
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
