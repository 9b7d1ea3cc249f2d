package core

import (
	"fmt"
	"strings"

	"redisgraph/internal/cypher"
	"redisgraph/internal/graph"
	"redisgraph/internal/grb"
	"redisgraph/internal/value"
)

// defaultTraverseBatch is the number of records fused into one frontier
// matrix by the batched traversal operations — and, since the batch-at-a-
// time refactor, the pipeline-wide batch size every operation aims for.
// Config.batch overrides it per query.
const defaultTraverseBatch = 64

// dstMask is a pushed-down destination predicate: a property comparison
// whose value is record-free, compiled into a GraphBLAS column mask and
// applied to the result frontier right after the MxM/VxM evaluation — before
// a single output record exists. An equality backed by an attribute index on
// (label, attr) becomes the index seed set; every other comparison probes
// the property store per destination column.
type dstMask struct {
	labels []string // candidate index labels of the destination node
	attr   string
	op     string // = <> < <= > >= (empty means =)
	val    evalFn // record-free (literal or parameter)
	desc   string
}

// compile resolves the mask against the live graph under the query's lock.
func (m *dstMask) compile(ctx *execCtx) (grb.ColMask, error) {
	want, err := m.val(ctx, nil)
	if err != nil {
		return nil, err
	}
	if m.op == "" || m.op == "=" {
		if aid, ok := ctx.g.Schema.AttrID(m.attr); ok {
			for _, label := range m.labels {
				lid, ok := ctx.g.Schema.LabelID(label)
				if !ok {
					continue
				}
				if ix, ok := ctx.g.Schema.Index(lid, aid); ok {
					ids := ix.Lookup(want)
					cols := make([]grb.Index, len(ids))
					for i, id := range ids {
						cols[i] = grb.Index(id)
					}
					return grb.IndexSetMask(cols), nil
				}
			}
		}
	}
	// Compare against the column cell directly: no node lookup, no box.
	// compileColPred mirrors compareValues bit for bit.
	pred := compileColPred(ctx, m.attr, m.op, want)
	return func(j grb.Index) bool {
		return pred.probe(uint64(j))
	}, nil
}

// compileDstMasks combines every pushed destination mask conjunctively.
func compileDstMasks(ctx *execCtx, masks []dstMask) (grb.ColMask, error) {
	if len(masks) == 0 {
		return nil, nil
	}
	out := make([]grb.ColMask, len(masks))
	for i := range masks {
		m, err := masks[i].compile(ctx)
		if err != nil {
			return nil, err
		}
		out[i] = m
	}
	return grb.AndMasks(out), nil
}

// dstMaskFn returns the operation's combined destination mask, memoised per
// store version: the masks are record-free, so one compilation (one index
// lookup) covers every batch until a mutation burst changes the graph.
func (o *condTraverseOp) dstMaskFn(ctx *execCtx) (grb.ColMask, error) {
	if len(o.masks) == 0 {
		return nil, nil
	}
	at := ctx.storeVersion()
	if o.maskOK && o.maskAt == at {
		return o.maskFn, nil
	}
	m, err := compileDstMasks(ctx, o.masks)
	if err != nil {
		return nil, err
	}
	o.maskFn, o.maskAt, o.maskOK = m, at, true
	return m, nil
}

func describeMasks(masks []dstMask) string {
	if len(masks) == 0 {
		return ""
	}
	parts := make([]string, len(masks))
	for i := range masks {
		parts[i] = masks[i].desc
	}
	return " | mask: " + strings.Join(parts, ", ")
}

// condTraverseNode expands records one hop along an algebraic expression.
// It is batch-oriented: up to ctx.batchSize() input records are pulled from
// the child, fused into an n×dim frontier matrix F (row r = one-hot source of
// record r), the whole algebraic chain is evaluated with a single masked
// MxM per operand, pushed-down destination predicates are applied to the
// result frontier as column masks, and the rows are scattered into output
// records — emitted downstream as one whole batch, never as single-record
// pulls. This is the frontier-fusion design from the paper: one sparse
// matrix–matrix multiply instead of one kernel call per record.
type condTraverseNode struct {
	unary
	srcSlot  int
	dstSlot  int
	edgeSlot int // -1 when no edge variable
	width    int

	ae        *algebraicExpr
	masks     []dstMask
	types     []string // for edge lookup; none = any type
	direction cypher.Direction
	optional  bool
}

type condTraverseOp struct {
	*condTraverseNode
	child operation

	in       batchPuller
	queue    []record
	done     bool
	arena    recordArena
	batchBuf []record
	srcBuf   []grb.Index
	effBatch int // the batch size fill resolved, for PROFILE

	// Destination-mask memo, keyed on the store version like a scan's
	// compiled filter.
	maskFn grb.ColMask
	maskAt storeVersion
	maskOK bool

	ks kernelStats
}

func (o *condTraverseOp) nextBatch(ctx *execCtx) (recordBatch, error) {
	for {
		if len(o.queue) > 0 {
			out := recordBatch(o.queue)
			o.queue = nil
			return out, nil
		}
		if o.done {
			return nil, nil
		}
		if err := o.fill(ctx); err != nil {
			return nil, err
		}
	}
}

// gather pulls up to bs input records, recording each record's frontier
// column (-1 marks a null OPTIONAL MATCH source, which keeps an empty row).
func (o *condTraverseOp) gather(ctx *execCtx, bs int) ([]record, []grb.Index, error) {
	batch := o.batchBuf[:0]
	srcs := o.srcBuf[:0]
	for len(batch) < bs {
		in, err := o.in.pull(ctx, o.child)
		if err != nil {
			return nil, nil, err
		}
		if in == nil {
			o.done = true
			break
		}
		src := in[o.srcSlot]
		if src.Kind != value.KindNode {
			if src.IsNull() && o.optional {
				batch = append(batch, in)
				srcs = append(srcs, -1)
				continue
			}
			return nil, nil, fmt.Errorf("traverse: %s is not a node", src.Kind)
		}
		batch = append(batch, in)
		srcs = append(srcs, grb.Index(src.ID()))
	}
	o.batchBuf, o.srcBuf = batch, srcs
	return batch, srcs, nil
}

// evalBatch pulls one batch of input records (batch size 1 is a one-row
// frontier, not a separate path) and evaluates their fused frontier under
// the pushed destination masks: row r of the result holds record r's
// destinations. An exhausted input returns no records and a nil result.
func (o *condTraverseOp) evalBatch(ctx *execCtx) ([]record, []grb.Index, *grb.Matrix, error) {
	o.effBatch = ctx.batchSize()
	batch, srcs, err := o.gather(ctx, o.effBatch)
	if err != nil || len(batch) == 0 {
		return nil, nil, nil, err
	}
	frontier := grb.NewMatrix(len(batch), ctx.g.Dim())
	if err := frontier.BuildFromRows(srcs); err != nil {
		return nil, nil, nil, err
	}
	mask, err := o.dstMaskFn(ctx)
	if err != nil {
		return nil, nil, nil, err
	}
	result, err := o.ae.evalMatrix(ctx, frontier, &o.ks, mask)
	return batch, srcs, result, err
}

// fill evaluates one batch and queues every resulting output record in
// child order.
func (o *condTraverseOp) fill(ctx *execCtx) error {
	batch, srcs, result, err := o.evalBatch(ctx)
	if err != nil {
		return err
	}
	for r, in := range batch {
		emitted := o.scatterRow(ctx, in, srcs[r], result.RowIterate(r))
		if !emitted && o.optional {
			o.queue = append(o.queue, o.arena.extended(in, o.width))
		}
	}
	return nil
}

// scatterRow turns one result-matrix row back into output records,
// reporting whether anything was queued.
func (o *condTraverseOp) scatterRow(ctx *execCtx, in record, src grb.Index, dsts []grb.Index) bool {
	emitted := false
	for _, j := range dsts {
		dst, ok := ctx.g.GetNode(uint64(j))
		if !ok {
			continue
		}
		if o.edgeSlot < 0 {
			out := o.arena.extended(in, o.width)
			out[o.dstSlot] = value.NewNode(uint64(j), dst)
			o.queue = append(o.queue, out)
			emitted = true
			continue
		}
		// One record per connecting edge.
		for _, eid := range o.connectingEdges(ctx, uint64(src), uint64(j)) {
			e, ok := ctx.g.GetEdge(eid)
			if !ok {
				continue
			}
			out := o.arena.extended(in, o.width)
			out[o.dstSlot] = value.NewNode(uint64(j), dst)
			out[o.edgeSlot] = value.NewEdge(eid, e)
			o.queue = append(o.queue, out)
			emitted = true
		}
	}
	return emitted
}

func (o *condTraverseNode) connectingEdges(ctx *execCtx, src, dst uint64) []uint64 {
	var out []uint64
	collect := func(a, b uint64) {
		if len(o.types) == 0 {
			out = append(out, ctx.g.EdgesBetween(-1, a, b)...)
			return
		}
		for _, t := range o.types {
			if tid, ok := ctx.g.Schema.RelTypeID(t); ok {
				out = append(out, ctx.g.EdgesBetween(tid, a, b)...)
			}
		}
	}
	switch o.direction {
	case cypher.DirOut:
		collect(src, dst)
	case cypher.DirIn:
		collect(dst, src)
	default:
		collect(src, dst)
		if src != dst {
			collect(dst, src)
		}
	}
	return out
}

func (n *condTraverseNode) name() string {
	if n.optional {
		return "OptionalTraverse"
	}
	return "ConditionalTraverse"
}

// describe renders the node with a given batch size and kernel mix: the
// default batch for EXPLAIN, the resolved batch and kernels for PROFILE.
func (n *condTraverseNode) describe(batch int, ks kernelStats) string {
	return fmt.Sprintf("%s | batched(%d)%s%s", n.ae.String(), batch, describeMasks(n.masks), ks.describe())
}
func (n *condTraverseNode) args() string      { return n.describe(defaultTraverseBatch, kernelStats{}) }
func (o *condTraverseOp) profileArgs() string { return o.describe(o.effBatch, o.ks) }

// expandIntoNode closes a cycle: both endpoints are bound and the operation
// checks connectivity (emitting per edge when an edge variable is bound).
// Like condTraverseOp it batches records into a frontier matrix, then probes
// entry (r, dst_r) of the result for each record r.
type expandIntoNode struct {
	unary
	srcSlot  int
	dstSlot  int
	edgeSlot int
	width    int

	ae        *algebraicExpr
	types     []string
	direction cypher.Direction
}

type expandIntoOp struct {
	*expandIntoNode
	child operation

	in       batchPuller
	queue    []record
	done     bool
	arena    recordArena
	batchBuf []record
	srcBuf   []grb.Index
	effBatch int // the batch size fill resolved, for PROFILE

	ks kernelStats
}

func (o *expandIntoOp) nextBatch(ctx *execCtx) (recordBatch, error) {
	for {
		if len(o.queue) > 0 {
			out := recordBatch(o.queue)
			o.queue = nil
			return out, nil
		}
		if o.done {
			return nil, nil
		}
		if err := o.fill(ctx); err != nil {
			return nil, err
		}
	}
}

func (o *expandIntoOp) fill(ctx *execCtx) error {
	bs := ctx.batchSize()
	o.effBatch = bs
	batch := o.batchBuf[:0]
	srcs := o.srcBuf[:0]
	for len(batch) < bs {
		in, err := o.in.pull(ctx, o.child)
		if err != nil {
			return err
		}
		if in == nil {
			o.done = true
			break
		}
		if in[o.srcSlot].Kind != value.KindNode || in[o.dstSlot].Kind != value.KindNode {
			continue
		}
		batch = append(batch, in)
		srcs = append(srcs, grb.Index(in[o.srcSlot].ID()))
	}
	o.batchBuf, o.srcBuf = batch, srcs
	if len(batch) == 0 {
		return nil
	}
	if parts, ok := o.pullProbe(ctx); ok {
		// Pull: point probes of the relation matrices per record — the
		// canonical pull case, a tiny candidate set (each record's bound
		// destination) against whole frontier rows the push path would build.
		o.ks.note(true)
		for _, in := range batch {
			src, dst := int(in[o.srcSlot].ID()), int(in[o.dstSlot].ID())
			for _, m := range parts {
				if _, err := m.ExtractElement(src, dst); err == nil {
					o.emitConnected(ctx, in)
					break
				}
			}
		}
		return nil
	}
	frontier := grb.NewMatrix(len(batch), ctx.g.Dim())
	if err := frontier.BuildFromRows(srcs); err != nil {
		return err
	}
	result, err := o.ae.evalMatrix(ctx, frontier, &o.ks, nil)
	if err != nil {
		return err
	}
	for r, in := range batch {
		if _, err := result.ExtractElement(r, int(in[o.dstSlot].ID())); err != nil {
			continue // not connected
		}
		o.emitConnected(ctx, in)
	}
	return nil
}

// expandProbeCost compares an expand-into point probe (a binary search,
// ~log degree) against building the record's whole ~mean-degree result row
// in the push path.
const expandProbeCost = 4.0

// pullProbe reports whether this expand-into should bypass frontier
// evaluation and point-probe the relation matrices per record, and returns
// them. Eligible when the algebraic expression is a single relation operand
// (expand-into never folds label diagonals: both endpoints are already
// bound). A probe is an O(log degree) binary search per matrix; the push
// path builds each record's whole ~mean-degree result row first, so auto
// mode probes whenever the mean degree summed over the matrices exceeds the
// probe cost.
func (o *expandIntoOp) pullProbe(ctx *execCtx) ([]*grb.DeltaMatrix, bool) {
	if len(o.ae.operands) != 1 || o.ae.operands[0].diag {
		return nil, false
	}
	if ctx.kernel == kernelPush {
		return nil, false
	}
	parts := ctx.operand(&o.ae.operands[0], false)
	if len(parts) == 0 {
		return nil, false
	}
	if ctx.kernel == kernelPull {
		return parts, true
	}
	nvals := 0
	for _, m := range parts {
		nvals += m.NVals()
	}
	dim := ctx.g.Dim()
	if dim == 0 || float64(nvals)/float64(dim) <= expandProbeCost {
		return nil, false
	}
	return parts, true
}

// emitConnected queues the output records for one connected (src, dst) pair.
func (o *expandIntoOp) emitConnected(ctx *execCtx, in record) {
	if o.edgeSlot < 0 {
		o.queue = append(o.queue, o.arena.extended(in, o.width))
		return
	}
	ct := condTraverseNode{types: o.types, direction: o.direction}
	for _, eid := range ct.connectingEdges(ctx, in[o.srcSlot].ID(), in[o.dstSlot].ID()) {
		e, ok := ctx.g.GetEdge(eid)
		if !ok {
			continue
		}
		out := o.arena.extended(in, o.width)
		out[o.edgeSlot] = value.NewEdge(eid, e)
		o.queue = append(o.queue, out)
	}
}

func (n *expandIntoNode) name() string { return "ExpandInto" }
func (n *expandIntoNode) describe(batch int, ks kernelStats) string {
	return fmt.Sprintf("%s | batched(%d)%s", n.ae.String(), batch, ks.describe())
}
func (n *expandIntoNode) args() string      { return n.describe(defaultTraverseBatch, kernelStats{}) }
func (o *expandIntoOp) profileArgs() string { return o.describe(o.effBatch, o.ks) }

// traverseCountNode is aggregate pushdown for `RETURN count(dst)` directly
// above a traversal that binds dst and no edge variable: a non-optional
// condTraverseNode or a varLenTraverseNode. The count is a reduction over the
// traversal's result frontiers — the paper's own k-hop counting strategy —
// so no output record is ever materialised. Pushed destination masks and
// destination labels still apply: they filter the frontiers before the
// reduction. t is the traversal node it stands over.
type traverseCountNode struct{ t planNode }

func (n *traverseCountNode) name() string {
	if _, ok := n.t.(*varLenTraverseNode); ok {
		return "VarLenTraverseCount"
	}
	return "TraverseCount"
}
func (n *traverseCountNode) args() string         { return n.t.args() }
func (n *traverseCountNode) children() []planNode { return n.t.children() }

// counter is the running op of a counted traversal: it counts the nodes its
// whole input reaches without building a record.
type counter interface {
	profileDescriber
	count(ctx *execCtx) (int64, error)
}

type traverseCountOp struct {
	t    counter
	done bool
}

func (o *traverseCountOp) profileArgs() string { return o.t.profileArgs() }

func (o *traverseCountOp) nextBatch(ctx *execCtx) (recordBatch, error) {
	if o.done {
		return nil, nil
	}
	o.done = true
	total, err := o.t.count(ctx)
	if err != nil {
		return nil, err
	}
	out := newRecord(1)
	out[0] = value.NewInt(total)
	return recordBatch{out}, nil
}

// count sums the cardinality of every result-frontier row, skipping columns
// whose node no longer exists.
func (o *condTraverseOp) count(ctx *execCtx) (int64, error) {
	var total int64
	for !o.done {
		if ctx.expired() {
			return 0, fmt.Errorf("query timed out during traversal count")
		}
		batch, _, result, err := o.evalBatch(ctx)
		if err != nil {
			return 0, err
		}
		for r := range batch {
			for _, j := range result.RowIterate(r) {
				if _, ok := ctx.g.GetNode(uint64(j)); ok {
					total++
				}
			}
		}
	}
	return total, nil
}

// varLenTraverseNode performs a BFS between minHops and maxHops over one
// relation operand, emitting each newly reached node whose depth lies in
// range — the k-hop neighbourhood expansion at the heart of the paper's
// benchmark. The search is grb.BFS (pooled bitset frontiers, push or pull
// chosen per hop by choosePullHop). Each input record's whole reachable set
// is queued and emitted as native batches.
//
// Destination-label predicates ((a)-[*1..3]->(b:Rare)) are one conjunction
// of label-diagonal masks applied to each emitted level, instead of a
// per-node label probe above the traversal. The BFS itself keeps expanding
// the unfiltered levels, since intermediate path nodes need not carry the
// destination label. Under noPushdown dstLabels is empty and the labels are
// residual filters above the node.
type varLenTraverseNode struct {
	unary
	srcSlot int
	dstSlot int
	width   int

	rel       algebraicOperand
	minHops   int
	maxHops   int                // -1 = unbounded
	dstLabels []algebraicOperand // label diagonals masking emitted levels
}

type varLenTraverseOp struct {
	*varLenTraverseNode
	child operation

	in    batchPuller
	queue []record
	done  bool

	ks kernelStats
}

func (o *varLenTraverseOp) nextBatch(ctx *execCtx) (recordBatch, error) {
	for {
		if len(o.queue) > 0 {
			out := recordBatch(o.queue)
			o.queue = nil
			return out, nil
		}
		if o.done {
			return nil, nil
		}
		in, src, err := o.pullSource(ctx)
		if err != nil {
			return nil, err
		}
		if in == nil {
			o.done = true
			return nil, nil
		}
		err = o.search(ctx, src, func(j grb.Index, n *graph.Node) {
			out := in.extended(o.width)
			out[o.dstSlot] = value.NewNode(uint64(j), n)
			o.queue = append(o.queue, out)
		})
		if err != nil {
			return nil, err
		}
	}
}

// count is the pushed-down `count(dst)`: the summed sizes of every input's
// in-range levels under the destination-label mask.
func (o *varLenTraverseOp) count(ctx *execCtx) (int64, error) {
	var total int64
	tally := func(grb.Index, *graph.Node) { total++ }
	for {
		in, src, err := o.pullSource(ctx)
		if err != nil {
			return 0, err
		}
		if in == nil {
			return total, nil
		}
		if err := o.search(ctx, src, tally); err != nil {
			return 0, err
		}
	}
}

// pullSource pulls the next input record and its source node's ID; a nil
// record means the input is exhausted.
func (o *varLenTraverseOp) pullSource(ctx *execCtx) (record, uint64, error) {
	in, err := o.in.pull(ctx, o.child)
	if err != nil || in == nil {
		return nil, 0, err
	}
	src := in[o.srcSlot]
	if src.Kind != value.KindNode {
		return nil, 0, fmt.Errorf("traverse: %s is not a node", src.Kind)
	}
	return in, src.ID(), nil
}

// search runs one source's BFS and hands emit every existing node of an
// in-range level that passes the destination-label mask, level by level in
// ascending ID order.
func (o *varLenTraverseOp) search(ctx *execCtx, src uint64, emit func(j grb.Index, n *graph.Node)) error {
	keep := o.dstMask(ctx)
	visit := func(hop int, level []grb.Index) error {
		if hop < o.minHops {
			return nil
		}
		for _, j := range level {
			if keep != nil && !keep(j) {
				continue
			}
			if n, ok := ctx.g.GetNode(uint64(j)); ok {
				emit(j, n)
			}
		}
		return nil
	}
	a := ctx.operand(&o.rel, false)
	if len(a) == 0 {
		// No such relation type (yet): the search reaches the source alone.
		return visit(0, []grb.Index{grb.Index(src)})
	}
	var at []*grb.DeltaMatrix
	if ctx.kernel != kernelPush {
		at = ctx.operand(&o.rel, true)
	}
	step := func(h *grb.BFSHop) (bool, error) {
		if ctx.expired() {
			return false, fmt.Errorf("query timed out during variable-length traversal")
		}
		pull := len(at) > 0 && ctx.choosePullHop(&o.rel, h, h.Unreached, h.UnreachedIn)
		o.ks.note(pull)
		return pull, nil
	}
	return grb.BFS(a, at, grb.Index(src), o.maxHops, step, visit)
}

// dstMask returns the conjunction of the destination-label diagonals (nil
// without labels); a label the graph does not have keeps nothing.
func (o *varLenTraverseOp) dstMask(ctx *execCtx) grb.ColMask {
	if len(o.dstLabels) == 0 {
		return nil
	}
	masks := make([]grb.ColMask, len(o.dstLabels))
	for i := range o.dstLabels {
		m := labelMatrix(ctx.g, o.dstLabels[i].names[0])
		if m == nil {
			return func(grb.Index) bool { return false }
		}
		masks[i] = grb.DiagMask(m)
	}
	return grb.AndMasks(masks)
}

func (n *varLenTraverseNode) name() string { return "VarLenTraverse" }
func (n *varLenTraverseNode) args() string {
	hi := "∞"
	if n.maxHops >= 0 {
		hi = fmt.Sprint(n.maxHops)
	}
	s := fmt.Sprintf("%s [%d..%s]", n.rel.label, n.minHops, hi)
	if len(n.dstLabels) > 0 {
		s += " | dst mask: " + (&algebraicExpr{operands: n.dstLabels}).String()
	}
	return s
}
func (o *varLenTraverseOp) profileArgs() string { return o.args() + o.ks.describe() }

// labelDiagOperand is the diagonal label matrix operand for filtering
// traversal destinations, resolved by name at evaluation time.
func labelDiagOperand(label string) algebraicOperand {
	return algebraicOperand{names: []string{label}, label: ":" + label, diag: true}
}
