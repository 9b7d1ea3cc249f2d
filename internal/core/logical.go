package core

import (
	"fmt"
	"math"
	"slices"
	"sort"

	"redisgraph/internal/cypher"
	"redisgraph/internal/graph"
)

// The planner runs in two phases. The logical phase (this file) turns a run
// of consecutive MATCH clauses into a pattern graph — one vertex per
// distinct query variable, one edge per relationship pattern — and orders
// it with a greedy cost model fed by graph.Stats: cheapest entry point
// first (index seed < smallest label scan < all-node scan), then always the
// frontier-shrinking hop with the lowest estimated output cardinality,
// closing cycles as soon as both endpoints are bound. The physical phase
// (plan.go) emits scan/traversal operations in the chosen order through the
// same machinery the textual planner uses, so pushdown, masks and batching
// apply unchanged. Config.noCostPlanner keeps the textual order — the
// differential baseline.

const (
	// propEqSelectivity is the assumed fraction of candidates surviving one
	// property equality when no index quantifies it.
	propEqSelectivity = 0.1
	// defaultFilterSelectivity is the assumed survival rate of a residual
	// predicate the estimator cannot classify.
	defaultFilterSelectivity = 0.5
	// estCap bounds runaway cardinality products (deep variable-length
	// expansions) so estimates stay finite and printable.
	estCap = 1e15
	// varLenHopCap bounds how many expansion levels the estimator sums for
	// unbounded variable-length patterns.
	varLenHopCap = 4
)

func capEst(x float64) float64 {
	if x > estCap {
		return estCap
	}
	if x < 0 || math.IsNaN(x) {
		return 0
	}
	return x
}

// patternNode is one distinct variable of the pattern graph, with the union
// of every textual occurrence's predicates.
type patternNode struct {
	idx  int
	name string
	// merged holds all labels (deduped, textual order) and the first
	// expression seen per property attribute across occurrences.
	merged *cypher.NodePattern
	// extras are property predicates beyond merged.Props: a later
	// occurrence constraining an attribute already constrained by an
	// earlier one. Each must still hold, as a residual filter.
	extras []extraProp
	edges  []int
}

type extraProp struct {
	attr string
	ex   cypher.Expr
}

// patternEdge is one relationship pattern, oriented as written (src → dst
// before considering rel.Direction).
type patternEdge struct {
	idx      int
	src, dst int
	rel      *cypher.RelPattern
	used     bool
}

type patternGraph struct {
	nodes []*patternNode
	byVar map[string]int
	edges []*patternEdge
}

// exprIdents collects every variable name an expression references.
func exprIdents(e cypher.Expr, out map[string]bool) {
	switch e := e.(type) {
	case *cypher.Ident:
		out[e.Name] = true
	case *cypher.PropAccess:
		exprIdents(e.E, out)
	case *cypher.BinaryExpr:
		exprIdents(e.L, out)
		exprIdents(e.R, out)
	case *cypher.UnaryExpr:
		exprIdents(e.E, out)
	case *cypher.IsNullExpr:
		exprIdents(e.E, out)
	case *cypher.FuncCall:
		for _, a := range e.Args {
			exprIdents(a, out)
		}
	case *cypher.ListExpr:
		for _, it := range e.Items {
			exprIdents(it, out)
		}
	case *cypher.IndexExpr:
		exprIdents(e.E, out)
		exprIdents(e.Idx, out)
	}
}

// exprSafeAt reports whether every variable an expression references is in
// the given set (expressions with no variables — literals, parameters —
// are always safe).
func exprSafeAt(e cypher.Expr, avail map[string]bool) bool {
	ids := map[string]bool{}
	exprIdents(e, ids)
	for id := range ids {
		if !avail[id] {
			return false
		}
	}
	return true
}

func sortedPropKeys(m map[string]cypher.Expr) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

func sortedSeedKeys(m map[string]*whereSeed) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// seedableEquality decomposes a WHERE conjunct of the form
// `var.attr = <record-free>` (either operand order) — the shape the
// entry-point chooser can turn into an index seed.
func seedableEquality(e cypher.Expr) (varName, attr string, val cypher.Expr, ok bool) {
	be, isBin := e.(*cypher.BinaryExpr)
	if !isBin || be.Op != "=" {
		return "", "", nil, false
	}
	pa, v := be.L, be.R
	if _, isProp := pa.(*cypher.PropAccess); !isProp {
		pa, v = be.R, be.L
	}
	access, isProp := pa.(*cypher.PropAccess)
	if !isProp || !isRecordFreeExpr(v) {
		return "", "", nil, false
	}
	ident, isIdent := access.E.(*cypher.Ident)
	if !isIdent {
		return "", "", nil, false
	}
	return ident.Name, access.Key, v, true
}

// buildPatternGraph interns the group's patterns into a pattern graph and
// pre-registers every variable's record slot in textual order, so the
// projection scope (RETURN *) does not depend on the join order the
// optimizer picks: columns always appear in the order the pattern wrote
// them. (The textual planner instead registers its chosen start node
// first, so the two planners can disagree on RETURN * column order when
// the textual start is mid-pattern — written order is the stabler
// contract.)
func (b *planBuilder) buildPatternGraph(clauses []*cypher.MatchClause) (*patternGraph, error) {
	pg := &patternGraph{byVar: map[string]int{}}
	addNode := func(np *cypher.NodePattern) *patternNode {
		name := np.Var
		if name == "" {
			name = b.anonVar()
		}
		i, ok := pg.byVar[name]
		if !ok {
			i = len(pg.nodes)
			pg.byVar[name] = i
			pg.nodes = append(pg.nodes, &patternNode{idx: i, name: name,
				merged: &cypher.NodePattern{Var: name}})
		}
		n := pg.nodes[i]
		for _, l := range np.Labels {
			if !slices.Contains(n.merged.Labels, l) {
				n.merged.Labels = append(n.merged.Labels, l)
			}
		}
		for _, attr := range sortedPropKeys(np.Props) {
			ex := np.Props[attr]
			if cur, ok := n.merged.Props[attr]; ok {
				if cur != ex {
					n.extras = append(n.extras, extraProp{attr: attr, ex: ex})
				}
				continue
			}
			if n.merged.Props == nil {
				n.merged.Props = map[string]cypher.Expr{}
			}
			n.merged.Props[attr] = ex
		}
		return n
	}
	for _, c := range clauses {
		for _, pat := range c.Patterns {
			if pat.Var != "" {
				return nil, fmt.Errorf("core: named path variables are not supported")
			}
			idxs := make([]int, len(pat.Nodes))
			for i, np := range pat.Nodes {
				n := addNode(np)
				idxs[i] = n.idx
				if i > 0 {
					e := &patternEdge{idx: len(pg.edges), src: idxs[i-1], dst: idxs[i], rel: pat.Rels[i-1]}
					pg.edges = append(pg.edges, e)
					pg.nodes[e.src].edges = append(pg.nodes[e.src].edges, e.idx)
					if e.dst != e.src {
						pg.nodes[e.dst].edges = append(pg.nodes[e.dst].edges, e.idx)
					}
				}
			}
			// Slot order mirrors the textual planner's common case:
			// node, edge var, node, ...
			for i := range pat.Nodes {
				b.st.add(pg.nodes[idxs[i]].name)
				if i < len(pat.Rels) {
					if v := pat.Rels[i].Var; v != "" && !pat.Rels[i].VarLength {
						b.st.add(v)
					}
				}
			}
		}
	}
	return pg, nil
}

// ---- cost model ----

// labelCount is a label's node count for the estimates — the only plan-time
// reader of label names; plan nodes resolve them when they run. A label the
// schema lacks counts 0, though a write below the scan may create it.
func (b *planBuilder) labelCount(label string) int {
	lid, ok := b.g.Schema.LabelID(label)
	if !ok {
		return 0
	}
	return b.gs.LabelCount(lid)
}

// labelSel is a label's selectivity for the estimates (0 when the schema
// lacks it, like labelCount).
func (b *planBuilder) labelSel(label string) float64 {
	lid, ok := b.g.Schema.LabelID(label)
	if !ok {
		return 0
	}
	return b.gs.LabelSelectivity(lid)
}

// relFanout estimates the mean output frontier size per input row of one
// hop across rel: the mean degree of the relation matrices involved
// (summed for multi-type, doubled for undirected, geometric for
// variable-length). The relation matrix and its transpose hold the same
// entry count, so the figure covers both traversal directions.
func (b *planBuilder) relFanout(rel *cypher.RelPattern) float64 {
	var f float64
	if len(rel.Types) == 0 {
		f = b.gs.MeanDegreeAll()
	} else {
		for _, t := range rel.Types {
			if tid, ok := b.g.Schema.RelTypeID(t); ok {
				f += b.gs.MeanOutDegree(tid)
			}
		}
	}
	if rel.Direction == cypher.DirBoth {
		f *= 2
	}
	if !rel.VarLength {
		return f
	}
	// Variable-length: sum the per-depth frontiers minHops..maxHops, capped
	// so unbounded patterns do not overflow; a single source can never
	// reach more than every node.
	lo := rel.MinHops
	hi := rel.MaxHops
	if hi < 0 || hi > lo+varLenHopCap {
		hi = lo + varLenHopCap
	}
	total := 0.0
	level := 1.0
	for h := 1; h <= hi; h++ {
		level = capEst(level * f)
		if h >= lo {
			total += level
		}
	}
	if lo == 0 {
		total++
	}
	if n := float64(b.gs.Nodes); total > n {
		total = n
	}
	return total
}

// condHopDegree estimates the mean per-row result count of one hop across
// rel leaving a node that carries srcLabels, conditioned on the
// per-(label × relation × direction) degree cells. dir is the EFFECTIVE
// traversal direction (after any pattern-orientation flip). Returns -1 when
// the estimate cannot be conditioned — variable-length or any-type hops,
// whose global estimates already dedup across relations — so callers fall
// back to relFanout. For typed hops without source labels the any-label
// cell reproduces Stats.MeanOutDegree exactly, so conditioning never makes
// an estimate coarser.
func (b *planBuilder) condHopDegree(rel *cypher.RelPattern, srcLabels []string, dir cypher.Direction) float64 {
	if b.cond == nil || rel.VarLength || len(rel.Types) == 0 {
		return -1
	}
	cellFanout := func(cell func(tid, lid int) graph.CondCell, tid int) float64 {
		best := math.Inf(1)
		for _, l := range srcLabels {
			lid, ok := b.g.Schema.LabelID(l)
			if !ok {
				return 0 // unknown label: the frontier is empty
			}
			if f := cell(tid, lid).FanoutOver(b.gs.LabelCount(lid)); f < best {
				best = f
			}
		}
		if math.IsInf(best, 1) {
			return cell(tid, -1).FanoutOver(b.gs.Nodes)
		}
		return best
	}
	total := 0.0
	for _, t := range rel.Types {
		tid, ok := b.g.Schema.RelTypeID(t)
		if !ok {
			continue
		}
		if dir != cypher.DirIn {
			total += cellFanout(b.cond.OutCell, tid)
		}
		if dir != cypher.DirOut {
			total += cellFanout(b.cond.InCell, tid)
		}
	}
	return total
}

// condFanout is relFanout conditioned on the source node's labels where the
// cells allow it; reversed flips the pattern orientation exactly as
// buildHop does.
func (b *planBuilder) condFanout(rel *cypher.RelPattern, srcLabels []string, reversed bool) float64 {
	dir := rel.Direction
	if reversed && dir != cypher.DirBoth {
		if dir == cypher.DirOut {
			dir = cypher.DirIn
		} else {
			dir = cypher.DirOut
		}
	}
	if f := b.condHopDegree(rel, srcLabels, dir); f >= 0 {
		return f
	}
	return b.relFanout(rel)
}

// nodeSelectivity estimates the fraction of an incoming frontier surviving
// a pattern node's label and inline-property predicates.
func (b *planBuilder) nodeSelectivity(n *cypher.NodePattern) float64 {
	if n == nil {
		return 1
	}
	sel := 1.0
	for _, l := range n.Labels {
		sel *= b.labelSel(l)
	}
	for range n.Props {
		sel *= propEqSelectivity
	}
	return sel
}

// pairProbability estimates the chance a specific (src, dst) pair is
// connected across rel — the expand-into survival rate. The uniform figure
// E/N² is corrected by the configuration-model degree skew of both
// endpoints: expand-into pairs are reached BY traversals, so both ends are
// degree-biased samples, and on skewed graphs the connection probability of
// such a pair is κ_out·κ_in times the uniform one (κ = N·ΣD²/E², 1 on
// regular graphs). This is what closed the expand-into mis-estimates that
// under-counted cycle closures by two orders of magnitude.
func (b *planBuilder) pairProbability(rel *cypher.RelPattern) float64 {
	if b.gs.Nodes == 0 {
		return 1
	}
	p := b.relFanout(rel) / float64(b.gs.Nodes)
	if b.cond != nil && !rel.VarLength && len(rel.Types) == 1 {
		if tid, ok := b.g.Schema.RelTypeID(rel.Types[0]); ok {
			n := b.gs.Nodes
			p *= b.cond.OutCell(tid, -1).DegreeSkew(n) * b.cond.InCell(tid, -1).DegreeSkew(n)
		}
	}
	if p > 1 {
		p = 1
	}
	return p
}

// filterSelectivity estimates the survival rate of a residual predicate.
func filterSelectivity(e cypher.Expr) float64 {
	switch e := e.(type) {
	case *cypher.BinaryExpr:
		switch e.Op {
		case "=":
			return propEqSelectivity
		case "<>":
			return 1 - propEqSelectivity
		case "AND":
			return filterSelectivity(e.L) * filterSelectivity(e.R)
		case "OR":
			s := filterSelectivity(e.L) + filterSelectivity(e.R)
			if s > 1 {
				s = 1
			}
			return s
		}
	case *cypher.UnaryExpr:
		if e.Op == "NOT" {
			return 1 - filterSelectivity(e.E)
		}
	case *cypher.IsNullExpr:
		return propEqSelectivity
	}
	return defaultFilterSelectivity
}

// entryScan is the cheapest way to bind one unbound pattern node.
type entryScan struct {
	node *patternNode
	// base is the number of candidate rows the scan itself touches (per
	// input record): 1 for an index seed, the label cardinality for a label
	// scan, the node count for an all-node scan. The node's remaining
	// predicates are not folded in here — addNodeResiduals counts their
	// selectivity exactly once, when they are pushed or planned.
	base float64
	// indexAttr selects an index-seed scan when non-empty.
	indexAttr string
	// scanLabel is the label the scan iterates ("" = all-node scan).
	scanLabel string
}

// bestEntry scores how node n would be bound if chosen as a traversal entry
// point: index seed < smallest label scan < all-node scan.
func (b *planBuilder) bestEntry(n *patternNode) entryScan {
	es := entryScan{node: n, base: float64(b.gs.Nodes)}
	m := n.merged
	minCount := math.Inf(1)
	for _, l := range m.Labels {
		c := float64(b.labelCount(l))
		if es.scanLabel == "" || c < minCount {
			es.scanLabel, minCount = l, c
		}
	}
	if es.scanLabel != "" {
		es.base = minCount
	}
	// An index seed beats any scan. Mirror the textual planner's
	// eligibility: an inline property on an indexed (label, attr) pair.
	for _, l := range m.Labels {
		lid, ok := b.g.Schema.LabelID(l)
		if !ok {
			continue
		}
		for _, attr := range sortedPropKeys(m.Props) {
			aid, ok := b.g.Schema.AttrID(attr)
			if !ok {
				continue
			}
			if _, ok := b.g.Schema.Index(lid, aid); ok {
				es.scanLabel, es.indexAttr, es.base = l, attr, 1
				break
			}
		}
		if es.indexAttr != "" {
			break
		}
	}
	// A WHERE equality on an indexed (label, attr) seeds too — the ROADMAP's
	// WHERE-driven index seeding. Inline pattern props take precedence so
	// existing plans are unchanged; the consumed conjunct is recorded at
	// emission so applyWhere does not re-filter it.
	if es.indexAttr == "" {
		if seeds := b.whereSeeds[n.name]; len(seeds) > 0 {
			for _, l := range m.Labels {
				lid, ok := b.g.Schema.LabelID(l)
				if !ok {
					continue
				}
				for _, attr := range sortedSeedKeys(seeds) {
					aid, ok := b.g.Schema.AttrID(attr)
					if !ok {
						continue
					}
					if _, ok := b.g.Schema.Index(lid, aid); ok {
						es.scanLabel, es.indexAttr, es.base = l, attr, 1
						break
					}
				}
				if es.indexAttr != "" {
					break
				}
			}
		}
	}
	return es
}

// ---- greedy ordering ----

// buildMatchGroup plans a run of consecutive non-optional MATCH clauses as
// one join graph, ordered by the cost model, then applies the clauses'
// WHERE predicates (pushdown first, residual filters otherwise).
func (b *planBuilder) buildMatchGroup(clauses []*cypher.MatchClause) error {
	pg, err := b.buildPatternGraph(clauses)
	if err != nil {
		return err
	}
	preBound := map[string]bool{}
	for v := range b.bound {
		preBound[v] = true
	}
	// Reject the forward references the textual planner rejects: each
	// clause's WHERE and inline property expressions may only name
	// variables bound by previous clauses or the clause's own patterns.
	// (Pre-registered slots would otherwise let them compile and evaluate
	// against empty slots.)
	if err := validateGroupRefs(clauses, preBound); err != nil {
		return err
	}
	// Relationship property expressions referencing pattern variables
	// beyond the hop's own endpoints interact with reordering (the
	// referenced variable may bind after the hop); plan such groups in
	// textual order, where binding follows the written sequence.
	for _, e := range pg.edges {
		hopVars := map[string]bool{
			pg.nodes[e.src].name: true,
			pg.nodes[e.dst].name: true,
		}
		if e.rel.Var != "" {
			hopVars[e.rel.Var] = true
		}
		for v := range preBound {
			hopVars[v] = true
		}
		for _, ex := range e.rel.Props {
			if !exprSafeAt(ex, hopVars) {
				for _, c := range clauses {
					if err := b.buildMatch(c); err != nil {
						return err
					}
				}
				return nil
			}
		}
	}
	// Node property predicates that depend on other pattern variables
	// ((b {uid: a.uid})) cannot run when their node binds — the referenced
	// variable may bind later in the chosen order. Strip them from the
	// pattern nodes and apply them once the whole group is bound.
	type deferredPred struct {
		name string
		attr string
		ex   cypher.Expr
	}
	var deferred []deferredPred
	for _, n := range pg.nodes {
		var safeProps map[string]cypher.Expr
		for _, attr := range sortedPropKeys(n.merged.Props) {
			ex := n.merged.Props[attr]
			if exprSafeAt(ex, preBound) {
				if safeProps == nil {
					safeProps = map[string]cypher.Expr{}
				}
				safeProps[attr] = ex
			} else {
				deferred = append(deferred, deferredPred{name: n.name, attr: attr, ex: ex})
			}
		}
		n.merged.Props = safeProps
		safeExtras := n.extras[:0]
		for _, ep := range n.extras {
			if exprSafeAt(ep.ex, preBound) {
				safeExtras = append(safeExtras, ep)
			} else {
				deferred = append(deferred, deferredPred{name: n.name, attr: ep.attr, ex: ep.ex})
			}
		}
		n.extras = safeExtras
	}
	// Collect index-seedable WHERE equalities: an unbound pattern variable
	// constrained by `v.attr = <record-free>` in any of the group's WHERE
	// clauses becomes an entry-point candidate for bestEntry, on par with an
	// inline pattern property.
	b.whereSeeds = map[string]map[string]*whereSeed{}
	defer func() { b.whereSeeds = nil }()
	for _, c := range clauses {
		if c.Where == nil {
			continue
		}
		for _, cj := range splitConjuncts(c.Where) {
			v, attr, val, ok := seedableEquality(cj)
			if !ok || b.bound[v] {
				continue
			}
			if _, inPattern := pg.byVar[v]; !inPattern {
				continue
			}
			seeds := b.whereSeeds[v]
			if seeds == nil {
				seeds = map[string]*whereSeed{}
				b.whereSeeds[v] = seeds
			}
			if _, dup := seeds[attr]; !dup {
				seeds[attr] = &whereSeed{val: val, conjunct: cj}
			}
		}
	}

	// Predicates of nodes bound by earlier clauses apply immediately.
	for _, n := range pg.nodes {
		if !b.bound[n.name] {
			continue
		}
		if len(n.merged.Labels) > 0 || len(n.merged.Props) > 0 {
			if err := b.addNodeResiduals(n.name, n.merged, "", 0); err != nil {
				return err
			}
		}
		if err := b.applyExtraProps(n); err != nil {
			return err
		}
	}

	// Order and emit the pattern graph: the greedy loop and the hash joins
	// for WHERE-bridged components live in joinorder.go.
	if err := b.orderPatternGraph(pg, clauses, nil); err != nil {
		return err
	}

	// Deferred cross-variable property predicates: every group variable is
	// bound now, so they compile and evaluate like the textual planner's
	// in-pattern residuals.
	for _, dp := range deferred {
		if err := b.addNodeResiduals(dp.name,
			&cypher.NodePattern{Var: dp.name, Props: map[string]cypher.Expr{dp.attr: dp.ex}}, "", 0); err != nil {
			return err
		}
	}

	// WHERE predicates, per clause in textual order.
	for _, c := range clauses {
		if c.Where == nil {
			continue
		}
		if err := b.applyWhere(c.Where); err != nil {
			return err
		}
	}
	return nil
}

// validateGroupRefs replicates the textual planner's forward-reference
// errors at clause granularity: expressions in clause i may reference only
// variables available after clause i.
func validateGroupRefs(clauses []*cypher.MatchClause, preBound map[string]bool) error {
	avail := map[string]bool{}
	for v := range preBound {
		avail[v] = true
	}
	check := func(e cypher.Expr) error {
		ids := map[string]bool{}
		exprIdents(e, ids)
		missing := make([]string, 0, 1)
		for id := range ids {
			if !avail[id] {
				missing = append(missing, id)
			}
		}
		if len(missing) == 0 {
			return nil
		}
		sort.Strings(missing)
		return fmt.Errorf("undefined variable %q", missing[0])
	}
	for _, c := range clauses {
		for _, pat := range c.Patterns {
			for _, np := range pat.Nodes {
				if np.Var != "" {
					avail[np.Var] = true
				}
			}
			for _, r := range pat.Rels {
				if r.Var != "" && !r.VarLength {
					avail[r.Var] = true
				}
			}
		}
		for _, pat := range c.Patterns {
			for _, np := range pat.Nodes {
				for _, ex := range np.Props {
					if err := check(ex); err != nil {
						return err
					}
				}
			}
			for _, r := range pat.Rels {
				for _, ex := range r.Props {
					if err := check(ex); err != nil {
						return err
					}
				}
			}
		}
		if c.Where != nil {
			if err := check(c.Where); err != nil {
				return err
			}
		}
	}
	return nil
}

// applyExtraProps adds residual filters for duplicate-attribute occurrences
// of a pattern node.
func (b *planBuilder) applyExtraProps(n *patternNode) error {
	for _, ep := range n.extras {
		if err := b.addNodeResiduals(n.name,
			&cypher.NodePattern{Var: n.name, Props: map[string]cypher.Expr{ep.attr: ep.ex}}, "", 0); err != nil {
			return err
		}
	}
	return nil
}

// emitNodeScan binds one pattern node through the scan bestEntry chose,
// then applies its remaining predicates (pushed where eligible).
func (b *planBuilder) emitNodeScan(es entryScan) error {
	n := es.node
	m := n.merged
	name := n.name
	if b.bound[name] {
		return nil
	}
	slot := b.st.add(name)
	scan := scanNode{unary: unary{b.cur}, slot: slot, alias: name, width: b.st.size()}
	skipAttr := ""
	scanEst := capEst(b.rowEst * es.base)
	switch {
	case es.indexAttr != "":
		ex := m.Props[es.indexAttr]
		if ex == nil {
			// A WHERE-driven seed: consume the conjunct so applyWhere does
			// not re-apply it above the scan.
			seed := b.whereSeeds[name][es.indexAttr]
			ex = seed.val
			if b.consumedWhere == nil {
				b.consumedWhere = map[cypher.Expr]bool{}
			}
			b.consumedWhere[seed.conjunct] = true
		}
		fn, err := compileExpr(ex, b.st)
		if err != nil {
			return err
		}
		b.setCur(&indexScanNode{scanNode: scan, label: es.scanLabel, attr: es.indexAttr, val: fn}, scanEst)
		skipAttr = es.indexAttr
	case es.scanLabel != "":
		b.setCur(&labelScanNode{scanNode: scan, label: es.scanLabel}, scanEst)
	default:
		b.setCur(&allNodeScanNode{scan}, scanEst)
	}
	b.binders[name] = &binderInfo{op: b.cur, labels: m.Labels}
	b.bound[name] = true
	// Residual labels/properties. The scan's own label (index seeds prove
	// theirs too) moves to the front so the skip count lines up.
	labels := m.Labels
	skipLabels := 0
	if es.scanLabel != "" {
		labels = append([]string{es.scanLabel}, removeStr(m.Labels, es.scanLabel)...)
		skipLabels = 1
	}
	if err := b.addNodeResiduals(name, &cypher.NodePattern{Var: name, Labels: labels, Props: m.Props}, skipAttr, skipLabels); err != nil {
		return err
	}
	return b.applyExtraProps(n)
}

func removeStr(xs []string, s string) []string {
	out := make([]string, 0, len(xs))
	for _, x := range xs {
		if x != s {
			out = append(out, x)
		}
	}
	return out
}
