// Join planning: the greedy pattern-graph ordering loop and hash joins for
// WHERE-bridged components.
//
// orderPatternGraph emits a MATCH group's scans and hops in greedy cost
// order: the cheapest hop out of the bound set first, cycle-closing hops as
// soon as both endpoints are bound, and the cheapest entry scan whenever no
// edge touches the bound set. It is reached only from the cost planner
// (noCostPlanner plans in textual order and never gets here).
//
// When the ordering is stuck — no remaining edge touches the bound set — and
// a WHERE equality `a.k = b.k` bridges the bound prefix to an unbound
// component, the component is planned standalone and combined through a
// hash join (op_join.go) instead of a cartesian rescan. The chained-scan
// rescan re-executes the inner component once per outer row; the join
// builds it exactly once.
//
// There is no join-order search. The paper's RedisGraph evaluates a
// pattern's algebraic expressions in order; an exhaustive DP over bind
// orders here found plans only a few percent cheaper under the cost model,
// and some of them ran several times slower (they gave up the scan-pushed
// predicate and the TraverseCount pushdown), so greedy order is the only
// order.
package core

import (
	"fmt"
	"math"
	"sort"

	"redisgraph/internal/cypher"
)

// edgeInScope restricts ordering to a vertex subset (nil = whole graph);
// hash-join side planning passes the bridged component.
func edgeInScope(e *patternEdge, only map[int]bool) bool {
	return only == nil || (only[e.src] && only[e.dst])
}

// orderPatternGraph emits scans and hops for the pattern graph restricted
// to `only` (nil = all vertices), in greedy cost order with hash joins for
// WHERE-bridged components. WHERE predicates and deferred cross-variable
// property predicates are the caller's business.
func (b *planBuilder) orderPatternGraph(pg *patternGraph, clauses []*cypher.MatchClause, only map[int]bool) error {
	isBound := func(i int) bool { return b.bound[pg.nodes[i].name] }
	for {
		// Cheapest hop out of the bound set. Cycle-closing hops (both
		// endpoints bound) only shrink the frontier, so any of them wins
		// outright; otherwise the hop with the lowest estimated output
		// cardinality is taken, ties broken in textual order.
		var best *patternEdge
		bestFromSrc := true
		bestOut := math.Inf(1)
		bestClose := false
		unused := 0
		for _, e := range pg.edges {
			if e.used || !edgeInScope(e, only) {
				continue
			}
			unused++
			sb, db := isBound(e.src), isBound(e.dst)
			switch {
			case sb && db:
				if !bestClose || e.idx < best.idx {
					best, bestFromSrc, bestClose = e, true, true
				}
			case bestClose:
				// A cycle-closing hop is already selected.
			case sb || db:
				fromSrc := sb
				from, other := pg.nodes[e.src], pg.nodes[e.dst]
				if !fromSrc {
					from, other = other, from
				}
				out := capEst(b.rowEst * b.condFanout(e.rel, from.merged.Labels, !fromSrc) * b.nodeSelectivity(other.merged))
				if out < bestOut {
					best, bestFromSrc, bestOut = e, fromSrc, out
				}
			}
		}
		if best != nil {
			if !bestClose {
				// Variable-length guard: never bind the far endpoint of a
				// pending var-length hop through another edge.
				bindTarget := best.dst
				if !bestFromSrc {
					bindTarget = best.src
				}
				if vl := b.varLenInto(pg, bindTarget, only); vl != nil && vl != best {
					if err := b.emitPatternHop(pg, vl, isBound(vl.src)); err != nil {
						return err
					}
					continue
				}
			}
			if err := b.emitPatternHop(pg, best, bestFromSrc); err != nil {
				return err
			}
			continue
		}
		if unused == 0 {
			break
		}
		// No edge touches the bound set. A WHERE equality bridging into an
		// unbound component turns the cartesian product into a hash join;
		// failing that, open the cheapest remaining component with a scan.
		if only == nil {
			joined, err := b.tryHashJoin(pg, clauses)
			if err != nil {
				return err
			}
			if joined {
				continue
			}
		}
		var entry *entryScan
		for _, e := range pg.edges {
			if e.used || !edgeInScope(e, only) {
				continue
			}
			for _, ni := range []int{e.src, e.dst} {
				if isBound(ni) {
					continue
				}
				es := b.bestEntry(pg.nodes[ni])
				if entry == nil || es.base < entry.base {
					es := es
					entry = &es
				}
			}
		}
		if entry == nil {
			return fmt.Errorf("core: pattern graph ordering stuck (unreachable)")
		}
		if err := b.emitNodeScan(*entry); err != nil {
			return err
		}
	}

	// Isolated pattern nodes (no relationships), cheapest first. WHERE
	// bridges can join these too (`MATCH (a), (b) WHERE a.k = b.k`), so a
	// join is attempted before each scan would cartesian-chain.
	var isolated []*entryScan
	for _, n := range pg.nodes {
		if b.bound[n.name] {
			continue
		}
		if only != nil {
			if !only[n.idx] {
				continue
			}
		} else if len(n.edges) != 0 {
			continue
		}
		es := b.bestEntry(n)
		isolated = append(isolated, &es)
	}
	sort.SliceStable(isolated, func(i, j int) bool { return isolated[i].base < isolated[j].base })
	for _, es := range isolated {
		if only == nil && b.cur != nil {
			for {
				joined, err := b.tryHashJoin(pg, clauses)
				if err != nil {
					return err
				}
				if !joined {
					break
				}
			}
		}
		if b.bound[es.node.name] {
			continue
		}
		if err := b.emitNodeScan(*es); err != nil {
			return err
		}
	}
	return nil
}

// emitPatternHop emits one pattern edge as a traversal (or expand-into when
// both endpoints are bound) and marks it consumed.
func (b *planBuilder) emitPatternHop(pg *patternGraph, e *patternEdge, fromSrc bool) error {
	e.used = true
	srcN, dstN := pg.nodes[e.src], pg.nodes[e.dst]
	if !fromSrc {
		srcN, dstN = dstN, srcN
	}
	newlyBound := !b.bound[dstN.name]
	if err := b.buildHop(srcN.name, dstN.merged, dstN.name, e.rel, !fromSrc, false); err != nil {
		return err
	}
	if newlyBound {
		return b.applyExtraProps(dstN)
	}
	return nil
}

// varLenInto reports an unused variable-length edge with exactly its other
// endpoint at node i already bound: binding i through another edge first
// would leave the var-length hop with two bound endpoints, which the
// physical layer cannot execute. The guard emits the var-length hop first
// instead. Deliberate asymmetry: the guard also lets the cost planner
// execute shapes the textual order cannot (a single-hop and a var-length
// pattern sharing both endpoints), so on those queries the baseline errors
// while the cost planner succeeds.
func (b *planBuilder) varLenInto(pg *patternGraph, i int, only map[int]bool) *patternEdge {
	bound := func(j int) bool { return b.bound[pg.nodes[j].name] }
	if bound(i) {
		return nil
	}
	for _, ei := range pg.nodes[i].edges {
		e := pg.edges[ei]
		if e.used || !e.rel.VarLength || !edgeInScope(e, only) {
			continue
		}
		if (e.src == i && bound(e.dst)) || (e.dst == i && bound(e.src)) {
			return e
		}
	}
	return nil
}

// ---- hash joins for WHERE-bridged components ----

// propOfIdent decomposes `var.attr` — the only key shape the bridge
// detector accepts on each side of the equality.
func propOfIdent(e cypher.Expr) (varName, attr string, ok bool) {
	pa, isProp := e.(*cypher.PropAccess)
	if !isProp {
		return "", "", false
	}
	id, isIdent := pa.E.(*cypher.Ident)
	if !isIdent {
		return "", "", false
	}
	return id.Name, pa.Key, true
}

// tryHashJoin scans the group's WHERE conjuncts in textual order for an
// equality bridging a bound variable to an unbound pattern component, and
// emits the first eligible bridge as a hash join. Returns whether a join
// was emitted.
func (b *planBuilder) tryHashJoin(pg *patternGraph, clauses []*cypher.MatchClause) (bool, error) {
	if b.cur == nil {
		return false, nil
	}
	for _, c := range clauses {
		if c.Where == nil {
			continue
		}
		for _, cj := range splitConjuncts(c.Where) {
			if b.consumedWhere[cj] {
				continue
			}
			be, isBin := cj.(*cypher.BinaryExpr)
			if !isBin || be.Op != "=" {
				continue
			}
			lv, _, lok := propOfIdent(be.L)
			rv, _, rok := propOfIdent(be.R)
			if !lok || !rok {
				continue
			}
			var boundVar, freeVar string
			var boundEx, freeEx cypher.Expr
			switch {
			case b.bound[lv] && !b.bound[rv]:
				boundVar, freeVar, boundEx, freeEx = lv, rv, be.L, be.R
			case b.bound[rv] && !b.bound[lv]:
				boundVar, freeVar, boundEx, freeEx = rv, lv, be.R, be.L
			default:
				continue
			}
			ni, inPattern := pg.byVar[freeVar]
			if !inPattern {
				continue
			}
			comp := b.unboundComponentAt(pg, ni)
			if comp == nil || !b.joinSideSafe(pg, comp) {
				continue
			}
			return b.emitHashJoin(pg, clauses, cj, boundVar, freeVar, boundEx, freeEx, comp)
		}
	}
	return false, nil
}

// unboundComponentAt returns the connected component of unbound vertices
// reachable from start over unused edges, or nil when start is bound or the
// component touches a bound vertex (then it is reachable by traversal and
// not a join candidate).
func (b *planBuilder) unboundComponentAt(pg *patternGraph, start int) map[int]bool {
	if b.bound[pg.nodes[start].name] {
		return nil
	}
	comp := map[int]bool{start: true}
	queue := []int{start}
	for len(queue) > 0 {
		v := queue[0]
		queue = queue[1:]
		for _, ei := range pg.nodes[v].edges {
			e := pg.edges[ei]
			if e.used {
				continue
			}
			for _, o := range []int{e.src, e.dst} {
				if comp[o] {
					continue
				}
				if b.bound[pg.nodes[o].name] {
					return nil
				}
				comp[o] = true
				queue = append(queue, o)
			}
		}
	}
	return comp
}

// joinSideSafe reports whether the component can be planned as a standalone
// build pipeline: every inline property, residual and relationship property
// inside it must reference only component-internal variables, because build
// records never see the outer record's slots.
func (b *planBuilder) joinSideSafe(pg *patternGraph, comp map[int]bool) bool {
	names := map[string]bool{}
	for ni := range comp {
		names[pg.nodes[ni].name] = true
	}
	for ni := range comp {
		n := pg.nodes[ni]
		for _, ex := range n.merged.Props {
			if !exprSafeAt(ex, names) {
				return false
			}
		}
		for _, ep := range n.extras {
			if !exprSafeAt(ep.ex, names) {
				return false
			}
		}
		for _, ei := range n.edges {
			e := pg.edges[ei]
			if e.used || !comp[e.src] || !comp[e.dst] || len(e.rel.Props) == 0 {
				continue
			}
			relNames := names
			if e.rel.Var != "" {
				relNames = map[string]bool{e.rel.Var: true}
				for k := range names {
					relNames[k] = true
				}
			}
			for _, ex := range e.rel.Props {
				if !exprSafeAt(ex, relNames) {
					return false
				}
			}
		}
	}
	return true
}

// emitHashJoin plans the bridged component as a standalone pipeline and
// combines it with the current pipeline through a hash join keyed on the
// bridge equality. The smaller estimated side builds the table; the larger
// probes. The consumed conjunct is excluded from applyWhere.
func (b *planBuilder) emitHashJoin(pg *patternGraph, clauses []*cypher.MatchClause, cj cypher.Expr,
	boundVar, freeVar string, boundEx, freeEx cypher.Expr, comp map[int]bool) (bool, error) {
	outerRoot, outerRows := b.cur, b.rowEst
	outerBound, outerBinders := b.bound, b.binders
	// Snapshot the outer pipeline's populated names now: b.bound is merged
	// with the side's names below, and the symbol table pre-registers every
	// pattern variable, so neither identifies outer slots after the fact.
	outerNames := map[string]bool{}
	for v := range b.bound {
		outerNames[v] = true
	}
	// Plan the component as if it were a fresh query: estimates, the symbol
	// table and WHERE bookkeeping stay shared, the pipeline state resets.
	b.cur, b.rowEst = nil, 1
	b.bound, b.binders = map[string]bool{}, map[string]*binderInfo{}
	sideErr := b.orderPatternGraph(pg, clauses, comp)
	sideRoot, sideRows := b.cur, b.rowEst
	sideBound, sideBinders := b.bound, b.binders
	b.cur, b.rowEst = outerRoot, outerRows
	b.bound, b.binders = outerBound, outerBinders
	if sideErr != nil {
		return false, sideErr
	}
	if sideRoot == nil {
		return false, nil
	}
	// Merge the side's bindings so later predicates resolve and pushdown
	// still reaches the build-side scans (pre-join filtering is equivalent
	// to post-join filtering for an inner join).
	for v := range sideBound {
		b.bound[v] = true
	}
	for v, bi := range sideBinders {
		b.binders[v] = bi
	}
	boundFn, err := compileExpr(boundEx, b.st)
	if err != nil {
		return false, err
	}
	freeFn, err := compileExpr(freeEx, b.st)
	if err != nil {
		return false, err
	}
	probeRoot, probeKey, probeRows, probeName := outerRoot, boundFn, outerRows, boundVar
	buildRoot, buildKey, buildRows, buildName := sideRoot, freeFn, sideRows, freeVar
	buildSlots := slotsForNames(b.st, sideBound)
	if outerRows < sideRows {
		probeRoot, probeKey, probeRows, probeName = sideRoot, freeFn, sideRows, freeVar
		buildRoot, buildKey, buildRows, buildName = outerRoot, boundFn, outerRows, boundVar
		buildSlots = slotsForNames(b.st, outerNames)
	}
	if b.consumedWhere == nil {
		b.consumedWhere = map[cypher.Expr]bool{}
	}
	b.consumedWhere[cj] = true
	desc := fmt.Sprintf("%s | build: %s (est: %s rows) | probe: %s (est: %s rows)",
		exprString(cj), buildName, fmtEst(capEst(buildRows)), probeName, fmtEst(capEst(probeRows)))
	join := &joinNode{probe: probeRoot, build: buildRoot, probeKey: probeKey, buildKey: buildKey,
		buildSlots: buildSlots, width: b.st.size(), desc: desc}
	b.setCur(join, capEst(outerRows*sideRows*propEqSelectivity))
	return true, nil
}

func slotsForNames(st *symtab, names map[string]bool) []int {
	var slots []int
	for name := range names {
		if s, ok := st.lookup(name); ok {
			slots = append(slots, s)
		}
	}
	sort.Ints(slots)
	return slots
}
