// Join planning (planner v2): the pattern-graph ordering loop, hash joins
// for WHERE-bridged components, and the DPccp-style join-order search.
//
// orderPatternGraph owns the greedy hop ordering that buildMatchGroup used
// to inline. Two extensions hang off it, both disabled by NoJoinPlanner
// (and by NoCostPlanner, which implies it):
//
//   - When the ordering is stuck — no remaining edge touches the bound set —
//     and a WHERE equality `a.k = b.k` bridges the bound prefix to an
//     unbound component, the component is planned standalone and combined
//     through a hash join (op_join.go) instead of a cartesian rescan. The
//     chained-scan rescan re-executes the inner component once per outer
//     row; the join builds it exactly once.
//
//   - Before each greedy expansion, a connected-subgraph dynamic program
//     over the reachable unbound region (≤ dpMaxPatternVars vertices)
//     searches all feasible bind orders under the same cost model. The DP
//     order is adopted only when its simulated total cost (Σ intermediate
//     rows) is strictly below a faithful simulation of the greedy order —
//     ties and losses keep greedy, so existing plans only change when the
//     search finds a genuine modeled improvement.
//
// Feasibility in the DP mirrors the physical layer: a variable-length hop
// with both endpoints bound cannot execute, so any bind order that closes a
// var-length edge is pruned (this subsumes the greedy loop's varLenInto
// guard). Cycle-closing hops are deterministic per vertex set — an edge is
// consumed exactly when its second endpoint binds — so DP states need no
// per-state edge bookkeeping.
package core

import (
	"fmt"
	"math"
	"sort"

	"redisgraph/internal/cypher"
)

// dpMaxPatternVars bounds the DP region: 2^n states with n ≤ 8 keeps the
// search negligible next to parsing, matching the classic DP-size cutoffs.
const dpMaxPatternVars = 8

// edgeInScope restricts ordering to a vertex subset (nil = whole graph);
// hash-join side planning passes the bridged component.
func edgeInScope(e *patternEdge, only map[int]bool) bool {
	return only == nil || (only[e.src] && only[e.dst])
}

// orderPatternGraph emits scans and hops for the pattern graph restricted
// to `only` (nil = all vertices), in greedy cost order with the DP and
// hash-join extensions above. WHERE predicates and deferred cross-variable
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
				if !b.noJoinPlanner {
					handled, err := b.dpExtend(pg, only)
					if err != nil {
						return err
					}
					if handled {
						continue
					}
				}
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
		// failing that, the DP may pick a better entry + order for one
		// component; failing that, open the cheapest remaining component
		// with a scan, exactly as before.
		if !b.noJoinPlanner {
			if only == nil {
				joined, err := b.tryHashJoin(pg, clauses)
				if err != nil {
					return err
				}
				if joined {
					continue
				}
			}
			handled, err := b.dpOpen(pg, only)
			if err != nil {
				return err
			}
			if handled {
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
		if only == nil && !b.noJoinPlanner && b.cur != nil {
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
	return b.varLenIntoAt(pg, i, func(j int) bool { return b.bound[pg.nodes[j].name] }, nil, only)
}

// varLenIntoAt is varLenInto against a virtual bound set and consumed-edge
// overlay, shared with the greedy cost simulation.
func (b *planBuilder) varLenIntoAt(pg *patternGraph, i int, bound func(int) bool, used map[int]bool, only map[int]bool) *patternEdge {
	for _, ei := range pg.nodes[i].edges {
		e := pg.edges[ei]
		if e.used || used[e.idx] || !e.rel.VarLength || !edgeInScope(e, only) {
			continue
		}
		if e.src == i && bound(e.dst) && !bound(i) {
			return e
		}
		if e.dst == i && bound(e.src) && !bound(i) {
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

// ---- DP join-order search ----

// dpStep is one emitted hop in a DP-chosen order; cycle closers ride along
// with the expansion that bound their second endpoint.
type dpStep struct {
	e       *patternEdge
	fromSrc bool
}

// dpState is the best known way to bind one vertex subset: its estimated
// output rows, the total cost (Σ intermediate rows) to get there, and the
// steps taken since the parent subset.
type dpState struct {
	ok     bool
	rows   float64
	cost   float64
	parent int
	steps  []dpStep
	entry  *entryScan // set on initial states (dpOpen component seeds)
}

// dpClosers folds in every unused cycle-closing edge incident to the newly
// bound vertex v (under the virtual bound set). A var-length closer makes
// the state infeasible — the physical layer cannot expand-into a var-length
// hop. Closers not incident to v were consumed at an earlier subset.
func (b *planBuilder) dpClosers(pg *patternGraph, only map[int]bool, bound func(int) bool, v int,
	binding *patternEdge, rows, cost float64) ([]dpStep, float64, float64, bool) {
	var steps []dpStep
	for _, c := range pg.edges {
		if c.used || c == binding || !edgeInScope(c, only) {
			continue
		}
		if c.src != v && c.dst != v {
			continue
		}
		if !bound(c.src) || !bound(c.dst) {
			continue
		}
		if c.rel.VarLength {
			return nil, 0, 0, false
		}
		rows = capEst(rows * b.pairProbability(c.rel))
		cost += rows
		steps = append(steps, dpStep{e: c, fromSrc: true})
	}
	return steps, rows, cost, true
}

// dpSearch runs the subset DP over verts, extending seeded states one
// vertex at a time through in-scope pattern edges, and reconstructs the
// cheapest full-subset order. states must be pre-seeded (mask 0 for
// extension from the bound set; singleton masks for component openings).
func (b *planBuilder) dpSearch(pg *patternGraph, only map[int]bool, verts []int, states []dpState) ([]dpStep, *entryScan, bool) {
	pos := map[int]int{}
	for i, v := range verts {
		pos[v] = i
	}
	full := len(states) - 1
	for m := 0; m < full; m++ {
		if !states[m].ok {
			continue
		}
		st := states[m]
		bound := func(i int) bool {
			if p, ok := pos[i]; ok {
				return m&(1<<p) != 0
			}
			return b.bound[pg.nodes[i].name]
		}
		for _, e := range pg.edges {
			if e.used || !edgeInScope(e, only) {
				continue
			}
			sb, db := bound(e.src), bound(e.dst)
			if sb == db {
				continue
			}
			v, from, fromSrc := e.dst, e.src, true
			if db {
				v, from, fromSrc = e.src, e.dst, false
			}
			p, inRegion := pos[v]
			if !inRegion {
				continue
			}
			nrows := capEst(st.rows * b.condFanout(e.rel, pg.nodes[from].merged.Labels, !fromSrc) * b.nodeSelectivity(pg.nodes[v].merged))
			ncost := st.cost + nrows
			boundV := func(i int) bool { return i == v || bound(i) }
			cSteps, r2, c2, feasible := b.dpClosers(pg, only, boundV, v, e, nrows, ncost)
			if !feasible {
				continue
			}
			nm := m | (1 << p)
			if !states[nm].ok || c2 < states[nm].cost {
				steps := append([]dpStep{{e: e, fromSrc: fromSrc}}, cSteps...)
				states[nm] = dpState{ok: true, rows: r2, cost: c2, parent: m, steps: steps}
			}
		}
	}
	if !states[full].ok {
		return nil, nil, false
	}
	var chains [][]dpStep
	var entry *entryScan
	for m := full; ; {
		st := states[m]
		chains = append(chains, st.steps)
		if st.parent < 0 {
			entry = st.entry
			break
		}
		m = st.parent
	}
	var steps []dpStep
	for i := len(chains) - 1; i >= 0; i-- {
		steps = append(steps, chains[i]...)
	}
	return steps, entry, true
}

// dpRegion collects the unbound vertices reachable from the bound set over
// unused in-scope edges — the subset dpExtend searches.
func (b *planBuilder) dpRegion(pg *patternGraph, only map[int]bool) []int {
	seen := map[int]bool{}
	var queue []int
	for _, e := range pg.edges {
		if e.used || !edgeInScope(e, only) {
			continue
		}
		sb := b.bound[pg.nodes[e.src].name]
		db := b.bound[pg.nodes[e.dst].name]
		if sb == db {
			continue
		}
		v := e.dst
		if db {
			v = e.src
		}
		if !seen[v] {
			seen[v] = true
			queue = append(queue, v)
		}
	}
	var region []int
	for len(queue) > 0 {
		v := queue[0]
		queue = queue[1:]
		region = append(region, v)
		for _, ei := range pg.nodes[v].edges {
			e := pg.edges[ei]
			if e.used || !edgeInScope(e, only) {
				continue
			}
			for _, o := range []int{e.src, e.dst} {
				if !seen[o] && !b.bound[pg.nodes[o].name] {
					seen[o] = true
					queue = append(queue, o)
				}
			}
		}
	}
	sort.Ints(region)
	return region
}

// dpExtend searches all feasible orders for the reachable unbound region
// and replays the winner when it strictly beats the simulated greedy order.
// Returns whether it consumed the region.
func (b *planBuilder) dpExtend(pg *patternGraph, only map[int]bool) (bool, error) {
	region := b.dpRegion(pg, only)
	if len(region) == 0 || len(region) > dpMaxPatternVars {
		return false, nil
	}
	states := make([]dpState, 1<<len(region))
	states[0] = dpState{ok: true, rows: b.rowEst, parent: -1}
	steps, _, ok := b.dpSearch(pg, only, region, states)
	if !ok {
		return false, nil
	}
	gCost, gok := b.greedyRegionCost(pg, only, func(i int) bool { return b.bound[pg.nodes[i].name] }, b.rowEst)
	if gok && states[len(states)-1].cost >= gCost {
		return false, nil
	}
	for _, s := range steps {
		if err := b.emitPatternHop(pg, s.e, s.fromSrc); err != nil {
			return true, err
		}
	}
	return true, nil
}

// dpOpen searches entry scan + order for each unbound component (≤
// dpMaxPatternVars vertices) and replays the globally cheapest when it
// strictly beats greedy's entry choice. Returns whether it consumed a
// component.
func (b *planBuilder) dpOpen(pg *patternGraph, only map[int]bool) (bool, error) {
	var bestSteps []dpStep
	var bestES *entryScan
	bestCost := math.Inf(1)
	for _, verts := range b.unboundComponents(pg, only) {
		if len(verts) > dpMaxPatternVars {
			continue
		}
		states := make([]dpState, 1<<len(verts))
		for i, v := range verts {
			n := pg.nodes[v]
			es := b.bestEntry(n)
			scanRows := capEst(b.rowEst * es.base)
			rows := capEst(scanRows * b.entryResidualSel(n, es))
			boundV := func(j int) bool { return j == v || b.bound[pg.nodes[j].name] }
			cSteps, r2, c2, feasible := b.dpClosers(pg, only, boundV, v, nil, rows, scanRows)
			if !feasible {
				continue
			}
			esc := es
			states[1<<i] = dpState{ok: true, rows: r2, cost: c2, parent: -1, steps: cSteps, entry: &esc}
		}
		steps, entry, ok := b.dpSearch(pg, only, verts, states)
		if !ok || entry == nil {
			continue
		}
		if c := states[len(states)-1].cost; c < bestCost {
			bestCost, bestSteps, bestES = c, steps, entry
		}
	}
	if bestES == nil {
		return false, nil
	}
	if gCost, gok := b.greedyOpenCost(pg, only); gok && bestCost >= gCost {
		return false, nil
	}
	if err := b.emitNodeScan(*bestES); err != nil {
		return true, err
	}
	for _, s := range bestSteps {
		if err := b.emitPatternHop(pg, s.e, s.fromSrc); err != nil {
			return true, err
		}
	}
	return true, nil
}

// unboundComponents groups the unbound endpoints of unused in-scope edges
// into connected components, each sorted by vertex index.
func (b *planBuilder) unboundComponents(pg *patternGraph, only map[int]bool) [][]int {
	seen := map[int]bool{}
	var comps [][]int
	for _, e := range pg.edges {
		if e.used || !edgeInScope(e, only) {
			continue
		}
		for _, s := range []int{e.src, e.dst} {
			if seen[s] || b.bound[pg.nodes[s].name] {
				continue
			}
			comp := []int{s}
			seen[s] = true
			for qi := 0; qi < len(comp); qi++ {
				for _, ei := range pg.nodes[comp[qi]].edges {
					e2 := pg.edges[ei]
					if e2.used || !edgeInScope(e2, only) {
						continue
					}
					for _, o := range []int{e2.src, e2.dst} {
						if !seen[o] && !b.bound[pg.nodes[o].name] {
							seen[o] = true
							comp = append(comp, o)
						}
					}
				}
			}
			sort.Ints(comp)
			comps = append(comps, comp)
		}
	}
	return comps
}

// entryResidualSel estimates the selectivity of the predicates an entry
// scan leaves as residuals — labels beyond the scanned one, properties
// beyond the index seed, and duplicate-attribute extras. Mirrors what
// addNodeResiduals will charge so DP and greedy cost the same plan alike.
func (b *planBuilder) entryResidualSel(n *patternNode, es entryScan) float64 {
	sel := 1.0
	skippedLabel := false
	for _, l := range n.merged.Labels {
		if !skippedLabel && l == es.scanLabel {
			skippedLabel = true
			continue
		}
		sel *= b.labelSel(l)
	}
	for attr := range n.merged.Props {
		if attr == es.indexAttr {
			continue
		}
		sel *= propEqSelectivity
	}
	for range n.extras {
		sel *= propEqSelectivity
	}
	return sel
}

// greedyRegionCost simulates the greedy loop's own choices from a virtual
// bound set — identical selection rules, estimate formulas, var-length
// guard and closer handling — and returns the total cost (Σ intermediate
// rows) of the hops it would emit until no edge touches the bound set.
// ok=false means greedy would hit an inexecutable var-length closer.
func (b *planBuilder) greedyRegionCost(pg *patternGraph, only map[int]bool, bound0 func(int) bool, rows float64) (float64, bool) {
	vbound := map[int]bool{}
	bound := func(i int) bool { return vbound[i] || bound0(i) }
	used := map[int]bool{}
	cost := 0.0
	for {
		var best *patternEdge
		bestFromSrc := true
		bestOut := math.Inf(1)
		bestClose := false
		for _, e := range pg.edges {
			if e.used || used[e.idx] || !edgeInScope(e, only) {
				continue
			}
			sb, db := bound(e.src), bound(e.dst)
			switch {
			case sb && db:
				if !bestClose || e.idx < best.idx {
					best, bestFromSrc, bestClose = e, true, true
				}
			case bestClose:
			case sb || db:
				fromSrc := sb
				from, other := pg.nodes[e.src], pg.nodes[e.dst]
				if !fromSrc {
					from, other = other, from
				}
				out := capEst(rows * b.condFanout(e.rel, from.merged.Labels, !fromSrc) * b.nodeSelectivity(other.merged))
				if out < bestOut {
					best, bestFromSrc, bestOut = e, fromSrc, out
				}
			}
		}
		if best == nil {
			return cost, true
		}
		if bestClose {
			if best.rel.VarLength {
				return 0, false
			}
			used[best.idx] = true
			rows = capEst(rows * b.pairProbability(best.rel))
			cost += rows
			continue
		}
		bindTarget := best.dst
		if !bestFromSrc {
			bindTarget = best.src
		}
		if vl := b.varLenIntoAt(pg, bindTarget, bound, used, only); vl != nil && vl != best {
			best, bestFromSrc = vl, bound(vl.src)
		}
		from, to := best.src, best.dst
		if !bestFromSrc {
			from, to = to, from
		}
		used[best.idx] = true
		rows = capEst(rows * b.condFanout(best.rel, pg.nodes[from].merged.Labels, !bestFromSrc) * b.nodeSelectivity(pg.nodes[to].merged))
		cost += rows
		vbound[to] = true
	}
}

// greedyOpenCost simulates greedy's component opening: the cheapest entry
// scan by base cardinality, then the greedy extension from it.
func (b *planBuilder) greedyOpenCost(pg *patternGraph, only map[int]bool) (float64, bool) {
	var entry *entryScan
	entryIdx := -1
	for _, e := range pg.edges {
		if e.used || !edgeInScope(e, only) {
			continue
		}
		for _, ni := range []int{e.src, e.dst} {
			if b.bound[pg.nodes[ni].name] {
				continue
			}
			es := b.bestEntry(pg.nodes[ni])
			if entry == nil || es.base < entry.base {
				es := es
				entry = &es
				entryIdx = ni
			}
		}
	}
	if entry == nil {
		return 0, false
	}
	scanRows := capEst(b.rowEst * entry.base)
	rows := capEst(scanRows * b.entryResidualSel(entry.node, *entry))
	ext, ok := b.greedyRegionCost(pg, only, func(i int) bool {
		return i == entryIdx || b.bound[pg.nodes[i].name]
	}, rows)
	if !ok {
		return 0, false
	}
	return scanRows + ext, true
}
