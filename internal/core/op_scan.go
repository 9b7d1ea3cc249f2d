package core

import (
	"fmt"
	"strings"
	"sync"

	"redisgraph/internal/graph"
	"redisgraph/internal/grb"
	"redisgraph/internal/value"
)

// leaf is the base of nodes without inputs.
type leaf struct{}

func (leaf) children() []planNode { return nil }

// argumentNode emits a single empty record: the leaf of CREATE-only queries
// and projections with no reading clause (RETURN 1+1).
type argumentNode struct {
	leaf
	width int
}

func (n *argumentNode) name() string { return "Argument" }
func (n *argumentNode) args() string { return "" }

type argumentOp struct {
	*argumentNode
	done bool
}

func (o *argumentOp) nextBatch(*execCtx) (recordBatch, error) {
	if o.done {
		return nil, nil
	}
	o.done = true
	return recordBatch{newRecord(o.width)}, nil
}

// scanPropEq is one property comparison pushed into a scan: the value
// expression is record-free (literal or parameter), so it is evaluated once
// per scan pass and compared against each candidate directly, without a
// record ever being materialised for non-matching nodes. op is one of
// = <> < <= > >= (empty means =).
type scanPropEq struct {
	attr string
	op   string
	val  evalFn
	desc string
}

// cmpKeep reports whether `have op want` keeps a record under the engine's
// filter semantics (compareValues): undefined comparisons evaluate to Cypher
// null, which is not true and drops the record.
func cmpKeep(op string, have, want value.Value) bool {
	if op == "" {
		op = "="
	}
	return compareValues(op, have, want).IsTrue()
}

// scanFilter is the set of predicates pushed below record materialisation in
// a scan: extra label memberships (checked through grb.DiagMask over the
// label matrices — fold-free diagonal probes) and record-free property
// equalities.
type scanFilter struct {
	labels []string // required labels beyond the scan's own, resolved per compile
	props  []scanPropEq
}

func (f *scanFilter) none() bool {
	return f == nil || (len(f.labels) == 0 && len(f.props) == 0)
}

// describe renders the pushed predicates for EXPLAIN.
func (f *scanFilter) describe() string {
	if f.none() {
		return ""
	}
	parts := make([]string, 0, len(f.labels)+len(f.props))
	for _, l := range f.labels {
		parts = append(parts, ":"+l)
	}
	for _, p := range f.props {
		parts = append(parts, p.desc)
	}
	return " | pushed: " + strings.Join(parts, ", ")
}

// compiledScanFilter is the filter resolved against the live graph: a
// combined label mask and one column predicate per pushed comparison.
// Property targets are record-free, so one evaluation covers the whole pass.
type compiledScanFilter struct {
	mask  grb.ColMask
	preds []colPred
}

// admitMask applies the pushed label masks.
func (c *compiledScanFilter) admitMask(id uint64) bool {
	return c.mask == nil || c.mask(grb.Index(id))
}

// filterProps compacts a pass's candidate list in place to the rows passing
// every pushed property comparison, before any record exists, preserving
// ascending order: each comparison in turn filters the survivors of the one
// before. The caller must own ids (never an index posting or another shared
// backing array).
func (c *compiledScanFilter) filterProps(ids []uint64) []uint64 {
	for i := range c.preds {
		ids = c.preds[i].filter(ids)
	}
	return ids
}

// scanNode is the planned state the three scans share. With a child the scan
// re-runs one pass per child record (cartesian product).
type scanNode struct {
	unary
	slot   int
	alias  string
	width  int
	pushed *scanFilter
}

func (n *scanNode) scan() *scanNode { return n }

// passLoader is the part of a scan that differs between the three: building
// one pass's candidates from the filter compiled for it.
type passLoader interface {
	loadPass(ctx *execCtx, cf compiledScanFilter) error
}

// idBufPool recycles scan candidate buffers across executions, so a scan of
// a large label allocates its candidate list once per process instead of
// once per query.
var idBufPool = sync.Pool{New: func() any { return new([]uint64) }}

// scanPass is the running state the three scans share: the input record of
// the open pass, its candidates, and the compiled-filter memo.
type scanPass struct {
	child operation

	in     batchPuller
	cur    record
	arena  recordArena
	primed bool
	done   bool

	// A pass either walks ids from pos or, when sweep is set (an all-node
	// scan with nothing to narrow by), sweeps [0, Dim) from nextID under
	// sweepMask. ids is always private to the pass (loaders copy, never
	// alias, shared lists such as index postings); buf is the pooled slice
	// header it came from, returned when the scan is exhausted.
	ids       []uint64
	buf       *[]uint64
	pos       int
	sweep     bool
	sweepMask grb.ColMask
	nextID    uint64

	// Compile memo: the filter is record-free, so one compilation covers
	// every pass until a mutation burst moves the store version.
	cached   compiledScanFilter
	cachedAt storeVersion
	cachedOK bool
}

// prime opens the next pass, reporting false once the input is exhausted. It
// pulls the record the pass extends first and compiles the pushed filter
// second, and it is the only place a scan compiles: when the child is a write
// operation that pull is what runs the mutation burst, and the pass has to
// be filtered by what the burst left behind (a column it created, a string
// it interned, a kind it changed).
func (s *scanPass) prime(ctx *execCtx, n *scanNode) (compiledScanFilter, bool, error) {
	switch {
	case s.child != nil:
		r, err := s.in.pull(ctx, s.child)
		if err != nil || r == nil {
			s.finish(err == nil)
			return compiledScanFilter{}, false, err
		}
		s.cur = r
	case s.cur != nil: // a childless scan runs exactly one pass
		s.finish(true)
		return compiledScanFilter{}, false, nil
	default:
		s.cur = newRecord(n.width)
	}
	if s.buf == nil {
		s.buf = idBufPool.Get().(*[]uint64)
		s.ids = (*s.buf)[:0]
	}
	cf, err := s.compile(ctx, n.pushed)
	s.primed = err == nil
	s.pos, s.nextID, s.sweep = 0, 0, false
	return cf, s.primed, err
}

// finish ends the scan (done: exhausted rather than failed) and returns the
// candidate buffer to the pool.
func (s *scanPass) finish(done bool) {
	s.done = done
	if s.buf != nil {
		*s.buf = s.ids[:0]
		idBufPool.Put(s.buf)
		s.buf, s.ids = nil, nil
	}
}

// compile resolves the pushed filter against the live graph, memoised per
// store version.
func (s *scanPass) compile(ctx *execCtx, f *scanFilter) (compiledScanFilter, error) {
	var out compiledScanFilter
	if f.none() {
		return out, nil
	}
	at := ctx.storeVersion()
	if s.cachedOK && s.cachedAt == at {
		return s.cached, nil
	}
	if len(f.labels) > 0 {
		masks := make([]grb.ColMask, 0, len(f.labels))
		for _, label := range f.labels {
			lm := labelMatrix(ctx.g, label)
			if lm == nil {
				out.mask = func(grb.Index) bool { return false }
				masks = nil
				break
			}
			masks = append(masks, grb.DiagMask(lm))
		}
		if masks != nil {
			out.mask = grb.AndMasks(masks)
		}
	}
	for _, p := range f.props {
		want, err := p.val(ctx, nil)
		if err != nil {
			return out, err
		}
		out.preds = append(out.preds, compileColPred(ctx, p.attr, p.op, want))
	}
	s.cached, s.cachedAt, s.cachedOK = out, at, true
	return out, nil
}

// narrow compacts the pass's loaded candidates in place to the pushed label
// mask, then runs them through the pushed property comparisons.
func (s *scanPass) narrow(cf compiledScanFilter) {
	if cf.mask != nil {
		kept := s.ids[:0]
		for _, id := range s.ids {
			if cf.admitMask(id) {
				kept = append(kept, id)
			}
		}
		s.ids = kept
	}
	s.ids = cf.filterProps(s.ids)
}

// sweepNext returns a sweeping pass's next admitted node ID, or false once
// [0, Dim) is exhausted.
func (s *scanPass) sweepNext(ctx *execCtx) (uint64, bool) {
	for high := uint64(ctx.g.Dim()); s.nextID < high; {
		id := s.nextID
		s.nextID++
		if s.sweepMask == nil || s.sweepMask(grb.Index(id)) {
			return id, true
		}
	}
	return 0, false
}

// nextBatch is the batch loop of all three scans: open a pass (prime, then
// the scan's own loader), bind each live candidate to a copy of the pass's
// input record, and move to the next pass when the candidates run out.
func (s *scanPass) nextBatch(ctx *execCtx, n *scanNode, src passLoader) (recordBatch, error) {
	if s.done {
		return nil, nil
	}
	bs := ctx.batchSize()
	var out recordBatch
	for len(out) < bs {
		if !s.primed {
			cf, ok, err := s.prime(ctx, n)
			if err != nil {
				return nil, err
			}
			if !ok {
				break
			}
			if err := src.loadPass(ctx, cf); err != nil {
				return nil, err
			}
		}
		for len(out) < bs {
			var id uint64
			ok := false
			if s.sweep {
				id, ok = s.sweepNext(ctx)
			} else if s.pos < len(s.ids) {
				id, ok = s.ids[s.pos], true
				s.pos++
			}
			if !ok {
				s.primed = false
				break
			}
			if nd, ok := ctx.g.GetNode(id); ok {
				r := s.arena.extended(s.cur, n.width)
				r[n.slot] = value.NewNode(id, nd)
				out = append(out, r)
			}
		}
	}
	if len(out) == 0 {
		return nil, nil
	}
	return out, nil
}

// allNodeScanNode scans every live node in batches.
type allNodeScanNode struct{ scanNode }

func (n *allNodeScanNode) name() string { return "AllNodeScan" }
func (n *allNodeScanNode) args() string { return n.alias + n.pushed.describe() }

type allNodeScanOp struct {
	*allNodeScanNode
	scanPass
}

func (o *allNodeScanOp) nextBatch(ctx *execCtx) (recordBatch, error) {
	return o.scanPass.nextBatch(ctx, &o.scanNode, o)
}

// loadPass: with pushed property comparisons the pass walks the first
// comparison's candidate list (rows without the attribute can never pass, so
// they are skipped wholesale), masked and run through every comparison.
// Without any there is nothing to narrow by, and the pass sweeps [0, Dim).
func (o *allNodeScanOp) loadPass(ctx *execCtx, cf compiledScanFilter) error {
	if len(cf.preds) == 0 {
		o.sweep, o.sweepMask = true, cf.mask
		return nil
	}
	o.ids = cf.preds[0].candidates(o.ids[:0])
	o.narrow(cf)
	return nil
}

// labelScanNode scans the diagonal of a label matrix in batches. Pushed extra
// labels intersect the candidate set through diagonal masks before any
// record exists. The label resolves by name as each pass loads, so a scan
// planned before the label existed sees what a write below it created.
type labelScanNode struct {
	scanNode
	label string
}

func (n *labelScanNode) name() string { return "NodeByLabelScan" }
func (n *labelScanNode) args() string {
	return fmt.Sprintf("%s:%s%s", n.alias, n.label, n.pushed.describe())
}

type labelScanOp struct {
	*labelScanNode
	scanPass
}

func (o *labelScanOp) nextBatch(ctx *execCtx) (recordBatch, error) {
	return o.scanPass.nextBatch(ctx, &o.scanNode, o)
}

// loadPass builds the fully filtered candidate list: the label's members
// read off its diagonal, masked by the pushed labels, then run through the
// pushed property comparisons.
func (o *labelScanOp) loadPass(ctx *execCtx, cf compiledScanFilter) error {
	o.ids = o.ids[:0]
	lm := labelMatrix(ctx.g, o.label)
	if lm == nil {
		return nil
	}
	o.ids = lm.AppendDiag(o.ids)
	o.narrow(cf)
	return nil
}

// indexScanNode resolves nodes through an exact-match attribute index, in
// batches. Pushed predicates filter the index seeds directly.
type indexScanNode struct {
	scanNode
	label string
	attr  string
	val   evalFn
}

func (n *indexScanNode) name() string { return "NodeByIndexScan" }
func (n *indexScanNode) args() string {
	return fmt.Sprintf("%s:%s(%s)%s", n.alias, n.label, n.attr, n.pushed.describe())
}

type indexScanOp struct {
	*indexScanNode
	scanPass
}

func (o *indexScanOp) nextBatch(ctx *execCtx) (recordBatch, error) {
	return o.scanPass.nextBatch(ctx, &o.scanNode, o)
}

// loadPass resolves the seed list: a private copy of the index posting for
// the key, run through the pushed label masks and property comparisons. A
// plan is built or validated under a read lock that the query releases
// before it runs, so its index may have been dropped since: the pass then
// compares the label's members against the column, as the label scan a
// fresh plan starts with does.
func (o *indexScanOp) loadPass(ctx *execCtx, cf compiledScanFilter) error {
	o.ids = o.ids[:0]
	lid, okL := ctx.g.Schema.LabelID(o.label)
	aid, okA := ctx.g.Schema.AttrID(o.attr)
	if !okL || !okA {
		return nil
	}
	v, err := o.val(ctx, o.cur)
	if err != nil {
		return err
	}
	if ix, ok := ctx.g.Schema.Index(lid, aid); ok {
		o.ids = append(o.ids, ix.Lookup(v)...)
	} else if lm := ctx.g.LabelMatrix(lid); lm != nil {
		pred := compileColPred(ctx, o.attr, "=", v)
		o.ids = pred.filter(lm.AppendDiag(o.ids))
	}
	o.narrow(cf)
	return nil
}

// pushScan attaches a pushed predicate to any of the three scan nodes. It
// returns false for other nodes, leaving the predicate to the residual
// filter path.
func pushScan(n planNode, label string, prop *scanPropEq) bool {
	sn, ok := n.(interface{ scan() *scanNode })
	if !ok {
		return false
	}
	s := sn.scan()
	if s.pushed == nil {
		s.pushed = &scanFilter{}
	}
	if prop != nil {
		s.pushed.props = append(s.pushed.props, *prop)
	} else {
		s.pushed.labels = append(s.pushed.labels, label)
	}
	return true
}

// nodeHasLabel reports whether n carries the named label, looked up in the
// live schema (no node carries a label that does not exist).
func nodeHasLabel(g *graph.Graph, n *graph.Node, label string) bool {
	lid, ok := g.Schema.LabelID(label)
	if !ok {
		return false
	}
	for _, l := range n.Labels {
		if l == lid {
			return true
		}
	}
	return false
}
