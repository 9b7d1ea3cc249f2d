package core

import (
	"fmt"
	"math"
	"slices"
	"strings"

	"redisgraph/internal/cypher"
	"redisgraph/internal/graph"
	"redisgraph/internal/value"
)

// Plan is a compiled query plan: an immutable tree of plan nodes. The plan
// cache hands the same *Plan to every execution; instantiate builds the
// running ops of one execution from it.
type Plan struct {
	root     planNode
	columns  []string
	visible  int
	ReadOnly bool
	// est maps every node to its estimated output cardinality, the cost
	// model's figures surfaced by EXPLAIN and PROFILE.
	est map[planNode]float64
}

type planBuilder struct {
	g        *graph.Graph
	st       *symtab
	cur      planNode
	bound    map[string]bool
	readonly bool
	anon     int
	// noPushdown disables algebraic predicate pushdown; every predicate
	// becomes a residual filterOp (the differential tests' baseline).
	noPushdown bool
	// noCostPlanner keeps the textual planning order: scans and hops are
	// emitted exactly as written instead of being reordered by the cost
	// model (the planner differential tests' baseline).
	noCostPlanner bool
	// gs is the stats snapshot feeding the cost model (see logical.go).
	gs *graph.Stats
	// cond is the conditioned degree-statistics snapshot: per-(label ×
	// relation × direction) fan-outs and skew corrections sharpening gs's
	// global means (see graph/condstats.go).
	cond *graph.CondStats
	// binders records which scan or traversal operation bound each variable
	// in the current projection scope — the pushdown targets.
	binders map[string]*binderInfo
	// whereSeeds maps a pattern variable to its index-seedable WHERE
	// equalities (attr → seed), collected per MATCH group so the entry-point
	// chooser treats an indexed `WHERE n.k = v` exactly like an inline
	// `(n:L {k: v})` property — an index seed, not just a pushed filter.
	whereSeeds map[string]map[string]*whereSeed
	// consumedWhere marks WHERE conjuncts consumed as index seeds, so
	// applyWhere does not re-apply them as filters.
	consumedWhere map[cypher.Expr]bool
	// est records every emitted node's estimated output cardinality;
	// rowEst is the running estimate at the current pipeline head.
	est    map[planNode]float64
	rowEst float64

	terminated bool
	columns    []string
	visible    int
}

// setCur installs op as the pipeline head and records its estimated output
// cardinality for EXPLAIN/PROFILE.
func (b *planBuilder) setCur(op planNode, rows float64) {
	rows = capEst(rows)
	b.cur = op
	b.rowEst = rows
	b.est[op] = rows
}

// note records an estimate for an operation that is not the pipeline head
// (argument leaves, merge sub-plans).
func (b *planBuilder) note(op planNode, rows float64) {
	b.est[op] = capEst(rows)
}

// binderInfo describes the operation that introduced a variable.
type binderInfo struct {
	op     planNode
	labels []string // pattern-node labels (candidate index labels for masks)
}

// planOptions tunes plan construction.
type planOptions struct {
	// noPushdown keeps every predicate as an interpreted per-record filter
	// instead of compiling it into scan filters and GraphBLAS masks.
	noPushdown bool
	// noCostPlanner keeps the textual planning order instead of reordering
	// scans and traversals by estimated cardinality.
	noCostPlanner bool
}

// buildPlanOpts compiles the single-pipeline plan. What it returns is final:
// nothing assigns a plan-node field afterwards.
func buildPlanOpts(g *graph.Graph, q *cypher.Query, opts planOptions) (*Plan, error) {
	b := &planBuilder{g: g, st: newSymtab(), bound: map[string]bool{}, readonly: true,
		noPushdown: opts.noPushdown, noCostPlanner: opts.noCostPlanner, gs: g.Stats(), cond: g.CondStats(),
		binders: map[string]*binderInfo{}, est: map[planNode]float64{}, rowEst: 1}
	for i := 0; i < len(q.Clauses); i++ {
		if b.terminated {
			return nil, fmt.Errorf("core: RETURN must be the final clause")
		}
		var err error
		switch c := q.Clauses[i].(type) {
		case *cypher.MatchClause:
			if b.noCostPlanner || c.Optional {
				err = b.buildMatch(c)
				break
			}
			// The cost planner joins a run of consecutive non-optional
			// MATCH clauses as one pattern graph (logical.go).
			group := []*cypher.MatchClause{c}
			for i+1 < len(q.Clauses) {
				mc, ok := q.Clauses[i+1].(*cypher.MatchClause)
				if !ok || mc.Optional {
					break
				}
				group = append(group, mc)
				i++
			}
			err = b.buildMatchGroup(group)
		case *cypher.CreateClause:
			err = b.buildCreate(c)
		case *cypher.MergeClause:
			err = b.buildMerge(c)
		case *cypher.DeleteClause:
			err = b.buildDelete(c)
		case *cypher.SetClause:
			err = b.buildSet(c)
		case *cypher.UnwindClause:
			err = b.buildUnwind(c)
		case *cypher.WithClause:
			err = b.buildProjection(c.Items, c.Distinct, c.OrderBy, c.Skip, c.Limit, c.Where, false)
		case *cypher.ReturnClause:
			err = b.buildProjection(c.Items, c.Distinct, c.OrderBy, c.Skip, c.Limit, nil, true)
		case *cypher.CreateIndexClause:
			b.readonly = false
			b.setCur(&indexNode{create: true, label: c.Label, attr: c.Attr}, 0)
		case *cypher.DropIndexClause:
			b.readonly = false
			b.setCur(&indexNode{create: false, label: c.Label, attr: c.Attr}, 0)
		default:
			err = fmt.Errorf("core: unsupported clause %T", c)
		}
		if err != nil {
			return nil, err
		}
	}
	if b.cur == nil {
		return nil, fmt.Errorf("core: empty plan")
	}
	return &Plan{root: b.cur, columns: b.columns, visible: b.visible, ReadOnly: b.readonly, est: b.est}, nil
}

func (b *planBuilder) anonVar() string {
	b.anon++
	return fmt.Sprintf("@anon_%d", b.anon)
}

// ---- MATCH ----

func (b *planBuilder) buildMatch(c *cypher.MatchClause) error {
	for _, pat := range c.Patterns {
		if err := b.buildPattern(pat, c.Optional); err != nil {
			return err
		}
	}
	if c.Where != nil {
		if err := b.applyWhere(c.Where); err != nil {
			return err
		}
	}
	return nil
}

// whereSeed is one index-seedable WHERE equality: the record-free value
// expression and the conjunct it came from (marked consumed when the
// entry-point chooser turns it into an index scan).
type whereSeed struct {
	val      cypher.Expr
	conjunct cypher.Expr
}

// applyWhere splits a WHERE into AND-conjuncts and pushes each eligible one
// below record materialisation: property equalities land in scan filters,
// index seeds or traversal destination masks. What cannot be pushed stays
// as a residual interpreted filter.
func (b *planBuilder) applyWhere(where cypher.Expr) error {
	for _, cj := range splitConjuncts(where) {
		if b.consumedWhere[cj] {
			continue // became an index-seed scan; already fully applied
		}
		if b.tryPushConjunct(cj) {
			continue
		}
		pred, err := compileExpr(cj, b.st)
		if err != nil {
			return err
		}
		b.setCur(&filterNode{unary: unary{b.cur}, pred: pred, desc: exprString(cj)},
			b.rowEst*filterSelectivity(cj))
	}
	return nil
}

// splitConjuncts flattens a predicate's top-level AND tree.
func splitConjuncts(e cypher.Expr) []cypher.Expr {
	if be, ok := e.(*cypher.BinaryExpr); ok && be.Op == "AND" {
		return append(splitConjuncts(be.L), splitConjuncts(be.R)...)
	}
	return []cypher.Expr{e}
}

// isRecordFreeExpr reports whether an expression can be evaluated without a
// record — the eligibility bar for pushdown, since pushed predicates run
// before any record exists. Conservative: literals and parameters.
func isRecordFreeExpr(e cypher.Expr) bool {
	switch e := e.(type) {
	case *cypher.Literal, *cypher.Param:
		return true
	case *cypher.UnaryExpr:
		return isRecordFreeExpr(e.E)
	default:
		return false
	}
}

// flipCmp mirrors a comparison operator across its operands (5 > n.x means
// n.x < 5).
func flipCmp(op string) string {
	switch op {
	case "<":
		return ">"
	case "<=":
		return ">="
	case ">":
		return "<"
	case ">=":
		return "<="
	default: // = and <> are symmetric
		return op
	}
}

// tryPushConjunct pushes a `var.attr <cmp> <record-free>` comparison into
// the operation that binds var, reporting whether it was consumed.
func (b *planBuilder) tryPushConjunct(e cypher.Expr) bool {
	if b.noPushdown {
		return false
	}
	be, ok := e.(*cypher.BinaryExpr)
	if !ok {
		return false
	}
	switch be.Op {
	case "=", "<>", "<", "<=", ">", ">=":
	default:
		return false
	}
	op := be.Op
	pa, val := be.L, be.R
	if _, ok := pa.(*cypher.PropAccess); !ok {
		pa, val = be.R, be.L
		op = flipCmp(op)
	}
	access, ok := pa.(*cypher.PropAccess)
	if !ok || !isRecordFreeExpr(val) {
		return false
	}
	ident, ok := access.E.(*cypher.Ident)
	if !ok {
		return false
	}
	fn, err := compileExpr(val, b.st)
	if err != nil {
		return false
	}
	desc := fmt.Sprintf("%s.%s %s %s", ident.Name, access.Key, op, exprString(val))
	return b.pushPropCmp(ident.Name, access.Key, op, fn, desc)
}

// pushPropCmp routes one record-free property comparison to its variable's
// binding operation: scans check it before materialising a record, and
// non-optional traversals apply it as a GraphBLAS column mask on the result
// frontier. Returns false when no eligible binder exists.
func (b *planBuilder) pushPropCmp(varName, attr, op string, fn evalFn, desc string) bool {
	if b.noPushdown {
		return false
	}
	bi := b.binders[varName]
	if bi == nil {
		return false
	}
	sel := defaultFilterSelectivity
	if op == "" || op == "=" {
		sel = propEqSelectivity
	}
	if pushScan(bi.op, "", &scanPropEq{attr: attr, op: op, val: fn, desc: desc}) {
		b.pushedInto(bi.op, sel)
		return true
	}
	if ct, ok := bi.op.(*condTraverseNode); ok && !ct.optional {
		if slot, ok := b.st.lookup(varName); ok && slot == ct.dstSlot {
			ct.masks = append(ct.masks, dstMask{labels: bi.labels, attr: attr, op: op, val: fn, desc: desc})
			b.pushedInto(bi.op, sel)
			return true
		}
	}
	return false
}

// pushedInto scales the estimates after a predicate lands inside a binder
// operation: the binder now emits fewer rows, and so does everything above
// it up to the pipeline head.
func (b *planBuilder) pushedInto(op planNode, sel float64) {
	if e, ok := b.est[op]; ok {
		b.est[op] = capEst(e * sel)
	}
	b.rowEst = capEst(b.rowEst * sel)
}

// clearBinders forbids pushdown into operations planned before this point.
// Every write clause calls it: a predicate from a later MATCH must not be
// hoisted above a SET/DELETE/CREATE/MERGE, where it would observe
// pre-mutation state (scans and traversals evaluate below the write op).
func (b *planBuilder) clearBinders() {
	b.binders = map[string]*binderInfo{}
}

// pushLabel routes a residual label predicate to a scan's pushed filter
// (checked through a fold-free diagonal mask over the label matrix).
func (b *planBuilder) pushLabel(varName, label string) bool {
	if b.noPushdown {
		return false
	}
	bi := b.binders[varName]
	if bi == nil {
		return false
	}
	if !pushScan(bi.op, label, nil) {
		return false
	}
	b.pushedInto(bi.op, b.labelSel(label))
	return true
}

func (b *planBuilder) buildPattern(pat *cypher.PathPattern, optional bool) error {
	if pat.Var != "" {
		return fmt.Errorf("core: named path variables are not supported")
	}
	// Name anonymous nodes so they have record slots.
	names := make([]string, len(pat.Nodes))
	for i, n := range pat.Nodes {
		if n.Var == "" {
			names[i] = b.anonVar()
		} else {
			names[i] = n.Var
		}
	}
	// Pick the traversal start.
	start := -1
	for i := range pat.Nodes {
		if b.bound[names[i]] {
			start = i
			break
		}
	}
	usedIndexAttr := ""
	if start < 0 {
		// Prefer an index-backed equality, then a labelled node.
		for i, n := range pat.Nodes {
			if len(n.Labels) == 0 || len(n.Props) == 0 {
				continue
			}
			lid, ok := b.g.Schema.LabelID(n.Labels[0])
			if !ok {
				continue
			}
			for attr := range n.Props {
				aid, ok := b.g.Schema.AttrID(attr)
				if !ok {
					continue
				}
				if _, ok := b.g.Schema.Index(lid, aid); ok {
					start, usedIndexAttr = i, attr
					break
				}
			}
			if start >= 0 {
				break
			}
		}
	}
	if start < 0 {
		for i, n := range pat.Nodes {
			if len(n.Labels) > 0 {
				start = i
				break
			}
		}
	}
	if start < 0 {
		start = 0
	}

	if optional && !b.bound[names[start]] {
		return fmt.Errorf("core: OPTIONAL MATCH requires a previously bound start node")
	}

	// Scan for the start node unless it is already bound.
	startNode := pat.Nodes[start]
	if !b.bound[names[start]] {
		slot := b.st.add(names[start])
		scan := scanNode{unary: unary{b.cur}, slot: slot, alias: names[start], width: b.st.size()}
		switch {
		case usedIndexAttr != "":
			fn, err := compileExpr(startNode.Props[usedIndexAttr], b.st)
			if err != nil {
				return err
			}
			b.setCur(&indexScanNode{scanNode: scan, label: startNode.Labels[0], attr: usedIndexAttr, val: fn}, b.rowEst)
		case len(startNode.Labels) > 0:
			label := startNode.Labels[0]
			b.setCur(&labelScanNode{scanNode: scan, label: label}, b.rowEst*float64(b.labelCount(label)))
		default:
			b.setCur(&allNodeScanNode{scan}, b.rowEst*float64(b.gs.Nodes))
		}
		b.binders[names[start]] = &binderInfo{op: b.cur, labels: startNode.Labels}
		b.bound[names[start]] = true
		// Residual label / property predicates on the start node.
		if err := b.addNodeResiduals(names[start], startNode, usedIndexAttr, 1); err != nil {
			return err
		}
	} else if len(startNode.Labels) > 0 || len(startNode.Props) > 0 {
		if err := b.addNodeResiduals(names[start], startNode, "", 0); err != nil {
			return err
		}
	}

	// Expand right, then left.
	for i := start; i < len(pat.Rels); i++ {
		if err := b.buildHop(names[i], pat.Nodes[i+1], names[i+1], pat.Rels[i], false, optional); err != nil {
			return err
		}
	}
	for i := start - 1; i >= 0; i-- {
		if err := b.buildHop(names[i+1], pat.Nodes[i], names[i], pat.Rels[i], true, optional); err != nil {
			return err
		}
	}
	return nil
}

// addNodeResiduals handles labels (beyond skipLabels) and properties (except
// skipAttr) of a pattern node: each predicate is pushed into the variable's
// binding operation when eligible (scan filters, traversal destination
// masks), and falls back to an interpreted per-record filter otherwise.
func (b *planBuilder) addNodeResiduals(varName string, n *cypher.NodePattern, skipAttr string, skipLabels int) error {
	slot, _ := b.st.lookup(varName)
	for _, lbl := range n.Labels[min(skipLabels, len(n.Labels)):] {
		if b.pushLabel(varName, lbl) {
			continue
		}
		b.setCur(&filterNode{unary: unary{b.cur}, desc: fmt.Sprintf("%s:%s", varName, lbl),
			pred: func(ctx *execCtx, r record) (value.Value, error) {
				v := r[slot]
				if v.Kind != value.KindNode {
					return value.NewBool(false), nil
				}
				return value.NewBool(nodeHasLabel(ctx.g, v.Entity().(*graph.Node), lbl)), nil
			}}, b.rowEst*b.labelSel(lbl))
	}
	for attr, ex := range n.Props {
		if attr == skipAttr {
			continue
		}
		fn, err := compileExpr(ex, b.st)
		if err != nil {
			return err
		}
		key := attr
		desc := fmt.Sprintf("%s.%s = %s", varName, key, exprString(ex))
		if isRecordFreeExpr(ex) && b.pushPropCmp(varName, key, "=", fn, desc) {
			continue
		}
		b.setCur(&filterNode{unary: unary{b.cur}, desc: desc,
			pred: func(ctx *execCtx, r record) (value.Value, error) {
				v := r[slot]
				var have value.Value
				switch v.Kind {
				case value.KindNode:
					have = ctx.g.NodePropertyColumnar(v.ID(), key)
				case value.KindEdge:
					have = ctx.g.EdgeProperty(v.ID(), key)
				default:
					return value.NewBool(false), nil
				}
				want, err := fn(ctx, r)
				if err != nil {
					return value.Null, err
				}
				return value.NewBool(have.Equals(want)), nil
			}}, b.rowEst*propEqSelectivity)
	}
	return nil
}

// uniqueTypes returns a copy of rel listing each relationship type once
// ([:R|R] is [:R]), so a hop never unions, enumerates or estimates a type
// twice.
func uniqueTypes(rel *cypher.RelPattern) *cypher.RelPattern {
	r := *rel
	r.Types = nil
	for _, t := range rel.Types {
		if !slices.Contains(r.Types, t) {
			r.Types = append(r.Types, t)
		}
	}
	return &r
}

// buildHop adds one traversal operation from srcVar to dstNode across rel.
// reversed flips the pattern orientation (expanding leftwards).
func (b *planBuilder) buildHop(srcVar string, dstNode *cypher.NodePattern, dstVar string, rel *cypher.RelPattern, reversed, optional bool) error {
	srcSlot, ok := b.st.lookup(srcVar)
	if !ok {
		return fmt.Errorf("core: unbound traversal source %q", srcVar)
	}
	rel = uniqueTypes(rel)
	// Effective direction after orientation.
	dir := rel.Direction
	if reversed && dir != cypher.DirBoth {
		if dir == cypher.DirOut {
			dir = cypher.DirIn
		} else {
			dir = cypher.DirOut
		}
	}

	// Every type and label name in the hop binds when the plan runs: one the
	// schema lacks now may be created by a write below this hop.
	rop := relationOperand(rel.Types, dir == cypher.DirIn, dir == cypher.DirBoth)
	// Conditioned fan-out: when the source variable's binder recorded
	// pattern labels, the hop estimate conditions on the matching
	// (label × relation × direction) cells instead of the global mean.
	var srcLabels []string
	if bi := b.binders[srcVar]; bi != nil {
		srcLabels = bi.labels
	}
	hopDeg := b.condHopDegree(rel, srcLabels, dir)
	ae := &algebraicExpr{operands: []algebraicOperand{rop}}

	dstBound := b.bound[dstVar]
	labelsInAE := 0
	labelSel := 1.0
	if !dstBound && len(dstNode.Labels) > 0 && !rel.VarLength {
		// Fold destination labels into the algebraic expression as diagonal
		// operands, so the label predicates run inside the MxM/VxM chain.
		// Optional traversals fold only the first (their null-row semantics
		// treat further labels as residual predicates, as before); plain
		// traversals fold every label unless pushdown is disabled. Under
		// the cost planner the diagonals multiply smallest-label-first, so
		// the chain's intermediate products shrink as early as possible.
		labels := dstNode.Labels
		fold := len(labels)
		if optional || b.noPushdown {
			fold = 1
		} else if !b.noCostPlanner {
			labels = b.orderLabelsBySelectivity(labels)
		}
		for _, lbl := range labels[:fold] {
			labelSel *= b.labelSel(lbl)
			ae.operands = append(ae.operands, labelDiagOperand(lbl))
			labelsInAE++
		}
	}

	if rel.VarLength {
		if rel.Var != "" {
			return fmt.Errorf("core: variable-length relationships cannot bind a variable")
		}
		if dstBound {
			return fmt.Errorf("core: variable-length expansion into a bound node is not supported")
		}
		if optional {
			return fmt.Errorf("core: OPTIONAL MATCH with variable-length relationships is not supported")
		}
		dstSlot := b.st.add(dstVar)
		b.bound[dstVar] = true
		var dstLabels []algebraicOperand
		residLabels := dstNode.Labels
		if len(dstNode.Labels) > 0 && !b.noPushdown {
			// Fold every destination label into a diagonal mask applied to
			// each emitted level inside the expansion loop — the
			// intermediate hops stay unfiltered, only emission is. Under
			// noPushdown the labels stay residual filters.
			labels := dstNode.Labels
			if !b.noCostPlanner {
				labels = b.orderLabelsBySelectivity(labels)
			}
			for _, lbl := range labels {
				labelSel *= b.labelSel(lbl)
				dstLabels = append(dstLabels, labelDiagOperand(lbl))
			}
			residLabels = nil
		}
		b.setCur(&varLenTraverseNode{unary: unary{b.cur}, srcSlot: srcSlot, dstSlot: dstSlot,
			width: b.st.size(), rel: rop, minHops: rel.MinHops, maxHops: rel.MaxHops,
			dstLabels: dstLabels},
			b.rowEst*b.relFanout(rel)*labelSel)
		if err := b.addNodeResiduals(dstVar, &cypher.NodePattern{Var: dstVar, Labels: residLabels, Props: dstNode.Props}, "", 0); err != nil {
			return err
		}
		return nil
	}

	edgeSlot := -1
	if rel.Var != "" {
		edgeSlot = b.st.add(rel.Var)
		b.bound[rel.Var] = true
	} else if len(rel.Props) > 0 {
		edgeSlot = b.st.add(b.anonVar())
	}

	if dstBound {
		dstSlot, _ := b.st.lookup(dstVar)
		b.setCur(&expandIntoNode{unary: unary{b.cur}, srcSlot: srcSlot, dstSlot: dstSlot, edgeSlot: edgeSlot,
			width: b.st.size(), ae: ae, types: rel.Types, direction: dir},
			b.rowEst*b.pairProbability(rel))
	} else {
		dstSlot := b.st.add(dstVar)
		b.bound[dstVar] = true
		fan := b.relFanout(rel)
		if hopDeg >= 0 {
			fan = hopDeg
		}
		est := b.rowEst * fan * labelSel
		if optional && est < b.rowEst {
			est = b.rowEst // optional traversals emit at least a null row per input
		}
		b.setCur(&condTraverseNode{unary: unary{b.cur}, srcSlot: srcSlot, dstSlot: dstSlot, edgeSlot: edgeSlot,
			width: b.st.size(), ae: ae, types: rel.Types, direction: dir,
			optional: optional},
			est)
		b.binders[dstVar] = &binderInfo{op: b.cur, labels: dstNode.Labels}
	}

	// Residual dst-node predicates (skip the labels folded into the AE).
	if !dstBound {
		if err := b.addNodeResiduals(dstVar, &cypher.NodePattern{Var: dstVar, Labels: dstNode.Labels[min(labelsInAE, len(dstNode.Labels)):], Props: dstNode.Props}, "", 0); err != nil {
			return err
		}
	}
	// Relationship property predicates.
	if len(rel.Props) > 0 {
		edgeVar := rel.Var
		if edgeVar == "" {
			edgeVar = fmt.Sprintf("@anon_%d", b.anon)
		}
		if err := b.addNodeResiduals(edgeVar, &cypher.NodePattern{Var: edgeVar, Props: rel.Props}, "", 0); err != nil {
			return err
		}
	}
	return nil
}

// ---- writes ----

func (b *planBuilder) compileCreatePattern(pat *cypher.PathPattern) (createPatternSpec, error) {
	var spec createPatternSpec
	for _, n := range pat.Nodes {
		name := n.Var
		if name == "" {
			name = b.anonVar()
		}
		slot := b.st.add(name)
		cn := createNodeSpec{slot: slot, labels: n.Labels}
		for k, ex := range n.Props {
			fn, err := compileExpr(ex, b.st)
			if err != nil {
				return spec, err
			}
			cn.props = append(cn.props, propSetter{key: k, fn: fn})
		}
		b.bound[name] = true
		spec.nodes = append(spec.nodes, cn)
	}
	for i, r := range pat.Rels {
		if r.VarLength {
			return spec, fmt.Errorf("core: cannot CREATE variable-length relationships")
		}
		if len(r.Types) != 1 {
			return spec, fmt.Errorf("core: CREATE requires exactly one relationship type")
		}
		src, dst := i, i+1
		switch r.Direction {
		case cypher.DirIn:
			src, dst = dst, src
		case cypher.DirBoth:
			return spec, fmt.Errorf("core: CREATE requires a directed relationship")
		}
		ce := createEdgeSpec{slot: -1, typ: r.Types[0], srcIdx: src, dstIdx: dst}
		if r.Var != "" {
			ce.slot = b.st.add(r.Var)
			b.bound[r.Var] = true
		}
		for k, ex := range r.Props {
			fn, err := compileExpr(ex, b.st)
			if err != nil {
				return spec, err
			}
			ce.props = append(ce.props, propSetter{key: k, fn: fn})
		}
		spec.edges = append(spec.edges, ce)
	}
	return spec, nil
}

func (b *planBuilder) buildCreate(c *cypher.CreateClause) error {
	b.readonly = false
	b.clearBinders()
	var specs []createPatternSpec
	for _, pat := range c.Patterns {
		spec, err := b.compileCreatePattern(pat)
		if err != nil {
			return err
		}
		specs = append(specs, spec)
	}
	child := b.cur
	if child == nil {
		child = &argumentNode{width: 0}
		b.note(child, 1)
		b.rowEst = 1
	}
	b.setCur(&createNode{unary: unary{child}, patterns: specs, width: b.st.size()}, math.Max(b.rowEst, 1))
	return nil
}

func (b *planBuilder) buildMerge(c *cypher.MergeClause) error {
	b.readonly = false
	b.clearBinders()
	if b.cur != nil {
		return fmt.Errorf("core: MERGE is only supported as the first clause")
	}
	// Build the match side against a fresh argument. The sub-builder shares
	// the estimate map so the sub-plan's operations annotate too.
	mb := &planBuilder{g: b.g, st: b.st, bound: map[string]bool{}, anon: b.anon,
		noPushdown: b.noPushdown, noCostPlanner: b.noCostPlanner,
		gs: b.gs, cond: b.cond,
		binders: map[string]*binderInfo{}, est: b.est, rowEst: 1}
	if err := mb.buildPattern(c.Pattern, false); err != nil {
		return err
	}
	b.anon = mb.anon
	// Compile the create side with the same slots.
	cb := &planBuilder{g: b.g, st: b.st, bound: map[string]bool{}, anon: b.anon,
		noPushdown: b.noPushdown, noCostPlanner: b.noCostPlanner,
		gs: b.gs, cond: b.cond,
		binders: map[string]*binderInfo{}, est: b.est, rowEst: 1}
	spec, err := cb.compileCreatePattern(c.Pattern)
	if err != nil {
		return err
	}
	b.anon = cb.anon
	for v := range mb.bound {
		b.bound[v] = true
	}
	for v := range cb.bound {
		b.bound[v] = true
	}
	b.setCur(&mergeNode{unary: unary{mb.cur}, pattern: spec, width: b.st.size()},
		math.Max(mb.rowEst, 1))
	return nil
}

func (b *planBuilder) buildDelete(c *cypher.DeleteClause) error {
	b.readonly = false
	b.clearBinders()
	var fns []evalFn
	for _, e := range c.Exprs {
		fn, err := compileExpr(e, b.st)
		if err != nil {
			return err
		}
		fns = append(fns, fn)
	}
	if b.cur == nil {
		return fmt.Errorf("core: DELETE requires a preceding MATCH")
	}
	b.setCur(&deleteNode{unary: unary{b.cur}, exprs: fns, detach: c.Detach}, b.rowEst)
	return nil
}

func (b *planBuilder) buildSet(c *cypher.SetClause) error {
	b.readonly = false
	b.clearBinders()
	if b.cur == nil {
		return fmt.Errorf("core: SET requires a preceding MATCH")
	}
	var items []setItemSpec
	for _, it := range c.Items {
		slot, ok := b.st.lookup(it.Target)
		if !ok {
			return fmt.Errorf("core: undefined variable %q in SET", it.Target)
		}
		fn, err := compileExpr(it.Value, b.st)
		if err != nil {
			return err
		}
		items = append(items, setItemSpec{slot: slot, key: it.Key, fn: fn})
	}
	b.setCur(&setNode{unary: unary{b.cur}, items: items}, b.rowEst)
	return nil
}

func (b *planBuilder) buildUnwind(c *cypher.UnwindClause) error {
	fn, err := compileExpr(c.Expr, b.st)
	if err != nil {
		return err
	}
	child := b.cur
	if child == nil {
		child = &argumentNode{width: 0}
		b.note(child, 1)
		b.rowEst = 1
	}
	slot := b.st.add(c.Alias)
	b.bound[c.Alias] = true
	// Literal lists unwind to a known length; anything else assumes a
	// handful of elements.
	perRow := 8.0
	if le, ok := c.Expr.(*cypher.ListExpr); ok {
		perRow = float64(len(le.Items))
	}
	b.setCur(&unwindNode{unary: unary{child}, list: fn, slot: slot, width: b.st.size()}, b.rowEst*perRow)
	return nil
}

// ---- projections ----

func (b *planBuilder) buildProjection(items []*cypher.ReturnItem, distinct bool,
	orderBy []*cypher.SortItem, skip, limit cypher.Expr, where cypher.Expr, terminal bool) error {

	child := b.cur
	if child == nil {
		child = &argumentNode{width: 0}
		b.note(child, 1)
		b.rowEst = 1
	}
	// Expand RETURN *.
	var expanded []*cypher.ReturnItem
	for _, it := range items {
		if id, ok := it.Expr.(*cypher.Ident); ok && id.Name == "*" {
			for _, name := range b.st.names {
				if !strings.HasPrefix(name, "@anon_") {
					expanded = append(expanded, &cypher.ReturnItem{Expr: &cypher.Ident{Name: name}})
				}
			}
			continue
		}
		expanded = append(expanded, it)
	}
	if len(expanded) == 0 {
		return fmt.Errorf("core: nothing to project")
	}

	names := make([]string, len(expanded))
	for i, it := range expanded {
		if it.Alias != "" {
			names[i] = it.Alias
		} else {
			names[i] = exprString(it.Expr)
		}
	}

	hasAgg := false
	for _, it := range expanded {
		if exprHasAggregate(it.Expr) {
			hasAgg = true
			break
		}
	}

	outST := newSymtab()
	for _, n := range names {
		outST.add(n)
	}
	visible := len(names)

	// Resolve ORDER BY keys. A key expression may reference either a
	// returned column (by alias or text) or, for plain projections, the
	// pre-projection scope (ORDER BY n.age after RETURN n.name).
	findColumn := func(e cypher.Expr) int {
		text := exprString(e)
		for i, n := range names {
			if n == text {
				return i
			}
		}
		return -1
	}

	if hasAgg {
		if pd := b.tryCountPushdown(expanded, child, distinct, orderBy); pd != nil {
			b.setCur(pd, 1)
		} else if err := b.buildAggregate(expanded, child, orderBy, visible, outST, findColumn); err != nil {
			return err
		}
	} else {
		var fns []evalFn
		for _, it := range expanded {
			fn, err := compileExpr(it.Expr, b.st)
			if err != nil {
				return err
			}
			fns = append(fns, fn)
		}
		var sortFns []evalFn
		for _, si := range orderBy {
			if col := findColumn(si.Expr); col >= 0 {
				sortFns = append(sortFns, fns[col])
				continue
			}
			fn, err := compileExpr(si.Expr, b.st)
			if err != nil {
				return fmt.Errorf("core: cannot resolve ORDER BY expression: %w", err)
			}
			sortFns = append(sortFns, fn)
		}
		b.setCur(&projectNode{unary: unary{child}, items: fns, sortKeys: sortFns, visible: visible}, b.rowEst)
	}

	// The projection defines a fresh scope.
	b.st = outST
	b.bound = map[string]bool{}
	b.binders = map[string]*binderInfo{}
	for _, n := range names {
		b.bound[n] = true
	}

	if distinct {
		b.setCur(&distinctNode{unary: unary{b.cur}, visible: visible}, b.rowEst)
	}
	if where != nil {
		pred, err := compileExpr(where, b.st)
		if err != nil {
			return err
		}
		b.setCur(&filterNode{unary: unary{b.cur}, pred: pred, desc: exprString(where)},
			b.rowEst*filterSelectivity(where))
	}
	if len(orderBy) > 0 {
		descs := make([]bool, len(orderBy))
		for i, si := range orderBy {
			descs[i] = si.Desc
		}
		if limit != nil {
			// ORDER BY directly followed by LIMIT fuses into a bounded
			// top-N heap: only skip+limit records stay live instead of the
			// whole sorted input. The skipOp/limitOp above still trim the
			// emitted prefix.
			limFn, err := compileExpr(limit, b.st)
			if err != nil {
				return err
			}
			var skipFn evalFn
			bound := exprString(limit)
			if skip != nil {
				if skipFn, err = compileExpr(skip, b.st); err != nil {
					return err
				}
				bound = exprString(skip) + "+" + bound
			}
			b.setCur(&topNSortNode{unary: unary{b.cur}, visible: visible, descs: descs,
				skip: skipFn, limit: limFn, desc: bound},
				boundedEst(b.rowEst, limit, skip))
		} else {
			b.setCur(&sortNode{unary: unary{b.cur}, visible: visible, descs: descs}, b.rowEst)
		}
	}
	if skip != nil {
		fn, err := compileExpr(skip, b.st)
		if err != nil {
			return err
		}
		est := b.rowEst
		if n, ok := literalInt(skip); ok {
			est = math.Max(0, est-float64(n))
		}
		b.setCur(&skipNode{unary: unary{b.cur}, n: fn}, est)
	}
	if limit != nil {
		fn, err := compileExpr(limit, b.st)
		if err != nil {
			return err
		}
		est := b.rowEst
		if n, ok := literalInt(limit); ok {
			est = math.Min(est, float64(n))
		}
		b.setCur(&limitNode{unary: unary{b.cur}, n: fn}, est)
	}
	if terminal {
		b.terminated = true
		b.columns = names
		b.visible = visible
	}
	return nil
}

// tryCountPushdown recognises `RETURN count(dst)` immediately above a plain
// or variable-length traversal binding dst: the count is the total
// cardinality of the result frontiers, so the traversal never needs to
// materialise output records. count(*) qualifies too (traversal outputs are
// never null). Edge variables (one record per edge), OPTIONAL MATCH (null
// rows) and residual destination filters (a Filter is the child) are
// excluded; noPushdown keeps the records and Aggregate as the baseline.
func (b *planBuilder) tryCountPushdown(items []*cypher.ReturnItem, child planNode,
	distinct bool, orderBy []*cypher.SortItem) planNode {

	if len(items) != 1 || distinct || len(orderBy) != 0 || b.noPushdown {
		return nil
	}
	fc, ok := items[0].Expr.(*cypher.FuncCall)
	if !ok || fc.Name != "count" || fc.Distinct {
		return nil
	}
	var t planNode
	var dstSlot int
	switch c := child.(type) {
	case *condTraverseNode:
		if c.edgeSlot >= 0 || c.optional {
			return nil
		}
		t, dstSlot = c, c.dstSlot
	case *varLenTraverseNode:
		t, dstSlot = c, c.dstSlot
	default:
		return nil
	}
	if !fc.Star {
		if len(fc.Args) != 1 {
			return nil
		}
		id, ok := fc.Args[0].(*cypher.Ident)
		if !ok {
			return nil
		}
		slot, ok := b.st.lookup(id.Name)
		if !ok || slot != dstSlot {
			return nil
		}
	}
	return &traverseCountNode{t: t}
}

// scanAggregate recognises a keyless aggregation directly over a scan that
// the record-free scanAggregateNode folds: every item a non-DISTINCT count,
// sum, avg, min or max of `*`, the scan's variable (count only: a node has no
// number to add or order) or one of its properties. Anything else — a group
// key, collect, an expression argument, a residual Filter between scan and
// aggregate — keeps Aggregate, and so does noPushdown, the differential
// baseline.
func (b *planBuilder) scanAggregate(items []*cypher.ReturnItem, child planNode) *scanAggregateNode {
	scan, ok := child.(aggregatedScan)
	if !ok || b.noPushdown {
		return nil
	}
	isScanVar := func(e cypher.Expr) bool {
		id, ok := e.(*cypher.Ident)
		if !ok {
			return false
		}
		slot, ok := b.st.lookup(id.Name)
		return ok && slot == scan.scan().slot
	}
	n := &scanAggregateNode{scan: scan}
	for _, it := range items {
		fc, ok := it.Expr.(*cypher.FuncCall)
		if !ok || fc.Distinct {
			return nil
		}
		kind, ok := aggKinds[fc.Name]
		if !ok || kind == aggCollect {
			return nil
		}
		item := scanAggItem{spec: aggSpec{kind: kind}, desc: exprString(fc)}
		switch {
		case fc.Star && kind == aggCount:
		case fc.Star || len(fc.Args) != 1:
			return nil
		case kind == aggCount && isScanVar(fc.Args[0]):
		default:
			pa, ok := fc.Args[0].(*cypher.PropAccess)
			if !ok || !isScanVar(pa.E) {
				return nil
			}
			item.attr = pa.Key
		}
		n.items = append(n.items, item)
	}
	return n
}

// buildAggregate compiles the hash-aggregation projection.
func (b *planBuilder) buildAggregate(expanded []*cypher.ReturnItem, child planNode,
	orderBy []*cypher.SortItem, visible int, outST *symtab, findColumn func(cypher.Expr) int) error {

	var aggItems []aggItem
	for _, it := range expanded {
		if fc, ok := it.Expr.(*cypher.FuncCall); ok && isAggregateFunc(fc.Name) {
			spec := &aggSpec{kind: aggKinds[fc.Name], distinct: fc.Distinct}
			if !fc.Star {
				if len(fc.Args) != 1 {
					return fmt.Errorf("core: %s() expects one argument", fc.Name)
				}
				fn, err := compileExpr(fc.Args[0], b.st)
				if err != nil {
					return err
				}
				spec.arg = fn
			} else if fc.Name != "count" {
				return fmt.Errorf("core: * is only valid in count(*)")
			}
			aggItems = append(aggItems, aggItem{agg: spec})
		} else if exprHasAggregate(it.Expr) {
			return fmt.Errorf("core: aggregates must be top-level projection items")
		} else {
			fn, err := compileExpr(it.Expr, b.st)
			if err != nil {
				return err
			}
			f := fn
			aggItems = append(aggItems, aggItem{key: &f})
		}
	}
	// Keyless aggregates collapse to one row; grouped ones assume group
	// counts grow with the square root of the input.
	aggEst := 1.0
	for _, it := range aggItems {
		if it.key != nil {
			aggEst = math.Max(1, math.Sqrt(b.rowEst))
			break
		}
	}
	if sa := b.scanAggregate(expanded, child); sa != nil {
		b.setCur(sa, aggEst)
	} else {
		b.setCur(&aggregateNode{unary: unary{child}, items: aggItems, visible: visible}, aggEst)
	}
	if len(orderBy) > 0 {
		// Post-aggregation ordering can only reference output columns.
		keys := make([]evalFn, len(orderBy))
		for i, si := range orderBy {
			col := findColumn(si.Expr)
			if col < 0 {
				fn, err := compileExpr(si.Expr, outST)
				if err != nil {
					return fmt.Errorf("core: ORDER BY after aggregation must reference returned columns: %w", err)
				}
				keys[i] = fn
				continue
			}
			c := col
			keys[i] = func(_ *execCtx, r record) (value.Value, error) { return r[c], nil }
		}
		b.setCur(&appendKeysNode{unary: unary{b.cur}, keys: keys, visible: visible}, b.rowEst)
	}
	return nil
}

// literalInt extracts an integer literal's value (SKIP/LIMIT estimates).
func literalInt(e cypher.Expr) (int64, bool) {
	if l, ok := e.(*cypher.Literal); ok && l.V.Kind == value.KindInt {
		return l.V.Int(), true
	}
	return 0, false
}

// boundedEst caps a fused top-N sort's estimate at its literal skip+limit
// bound.
func boundedEst(rows float64, limit, skip cypher.Expr) float64 {
	n, ok := literalInt(limit)
	if !ok {
		return rows
	}
	total := float64(n)
	if skip != nil {
		if s, ok := literalInt(skip); ok && s > 0 {
			total += float64(s)
		}
	}
	return math.Min(rows, total)
}

// appendKeysNode appends hidden ORDER BY key slots evaluated in the output
// scope.
type appendKeysNode struct {
	unary
	keys    []evalFn
	visible int
}

func (n *appendKeysNode) name() string { return "SortKeys" }
func (n *appendKeysNode) args() string { return "" }

type appendKeysOp struct {
	*appendKeysNode
	child operation
}

func (o *appendKeysOp) nextBatch(ctx *execCtx) (recordBatch, error) {
	b, err := o.child.nextBatch(ctx)
	if err != nil || b == nil {
		return nil, err
	}
	for k, r := range b {
		out := r.extended(o.visible + len(o.keys))
		for i, fn := range o.keys {
			v, err := fn(ctx, r)
			if err != nil {
				return nil, err
			}
			out[o.visible+i] = v
		}
		b[k] = out
	}
	return b, nil
}

// indexNode creates or drops an index; it emits no records: one DDL burst,
// then depletion.
type indexNode struct {
	leaf
	create bool
	label  string
	attr   string
}

type indexOp struct {
	*indexNode
	done bool
}

func (o *indexOp) nextBatch(ctx *execCtx) (recordBatch, error) {
	if o.done {
		return nil, nil
	}
	o.done = true
	ctx.mut.begin()
	defer ctx.mut.end()
	if o.create {
		if ctx.g.CreateIndex(o.label, o.attr) {
			ctx.stats.IndicesCreated++
		}
	} else {
		lid, okL := ctx.g.Schema.LabelID(o.label)
		aid, okA := ctx.g.Schema.AttrID(o.attr)
		if okL && okA && ctx.g.Schema.DropIndex(lid, aid) {
			ctx.stats.IndicesDeleted++
		}
	}
	return nil, nil
}

func (n *indexNode) name() string { return "Index" }
func (n *indexNode) args() string {
	verb := "drop"
	if n.create {
		verb = "create"
	}
	return fmt.Sprintf("%s :%s(%s)", verb, n.label, n.attr)
}

// exprString renders an AST expression as a column name / EXPLAIN text.
func exprString(e cypher.Expr) string {
	switch e := e.(type) {
	case *cypher.Literal:
		if e.V.Kind == value.KindString {
			return "'" + e.V.Str() + "'"
		}
		return e.V.String()
	case *cypher.Ident:
		return e.Name
	case *cypher.Param:
		return "$" + e.Name
	case *cypher.PropAccess:
		return exprString(e.E) + "." + e.Key
	case *cypher.BinaryExpr:
		op := e.Op
		switch op {
		case "STARTSWITH":
			op = "STARTS WITH"
		case "ENDSWITH":
			op = "ENDS WITH"
		}
		return exprString(e.L) + " " + op + " " + exprString(e.R)
	case *cypher.UnaryExpr:
		if e.Op == "NOT" {
			return "NOT " + exprString(e.E)
		}
		return e.Op + exprString(e.E)
	case *cypher.IsNullExpr:
		if e.Negate {
			return exprString(e.E) + " IS NOT NULL"
		}
		return exprString(e.E) + " IS NULL"
	case *cypher.FuncCall:
		var args []string
		if e.Star {
			args = []string{"*"}
		}
		for _, a := range e.Args {
			args = append(args, exprString(a))
		}
		prefix := ""
		if e.Distinct {
			prefix = "DISTINCT "
		}
		return e.Name + "(" + prefix + strings.Join(args, ", ") + ")"
	case *cypher.ListExpr:
		var items []string
		for _, it := range e.Items {
			items = append(items, exprString(it))
		}
		return "[" + strings.Join(items, ", ") + "]"
	case *cypher.IndexExpr:
		return exprString(e.E) + "[" + exprString(e.Idx) + "]"
	}
	return "?"
}
