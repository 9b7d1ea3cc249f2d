package core

import (
	"fmt"
	"strings"

	"redisgraph/internal/graph"
	"redisgraph/internal/grb"
	"redisgraph/internal/value"
)

// argumentOp emits a single empty record: the leaf of CREATE-only queries
// and projections with no reading clause (RETURN 1+1).
type argumentOp struct {
	width int
	done  bool
}

func (o *argumentOp) nextBatch(*execCtx) (recordBatch, error) {
	if o.done {
		return nil, nil
	}
	o.done = true
	return recordBatch{newRecord(o.width)}, nil
}

func (o *argumentOp) name() string          { return "Argument" }
func (o *argumentOp) args() string          { return "" }
func (o *argumentOp) children() []operation { return nil }

// emptyOp produces nothing (scans over labels that do not exist).
type emptyOp struct{}

func (o *emptyOp) nextBatch(*execCtx) (recordBatch, error) { return nil, nil }
func (o *emptyOp) name() string                            { return "Empty" }
func (o *emptyOp) args() string                            { return "" }
func (o *emptyOp) children() []operation                   { return nil }

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
	labels   []int    // required label ids beyond the scan's own
	labelStr []string // display names for EXPLAIN
	props    []scanPropEq

	// compile memoisation: the filter is record-free, so one compilation
	// covers the whole query until a mutation burst moves the store version.
	cached   compiledScanFilter
	cachedAt storeVersion
	cachedOK bool
}

func (f *scanFilter) empty() bool {
	return f == nil || (len(f.labels) == 0 && len(f.props) == 0)
}

// describe renders the pushed predicates for EXPLAIN.
func (f *scanFilter) describe() string {
	if f.empty() {
		return ""
	}
	parts := make([]string, 0, len(f.labelStr)+len(f.props))
	for _, l := range f.labelStr {
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

// compile must run after the scan has pulled the record its pass extends:
// when the child is a write operation, that pull is what runs the mutation
// burst, and the pass has to be filtered by what the burst left behind (a
// column it created, a string it interned, a kind it changed).
func (f *scanFilter) compile(ctx *execCtx) (compiledScanFilter, error) {
	var out compiledScanFilter
	if f.empty() {
		return out, nil
	}
	at := ctx.storeVersion()
	if f.cachedOK && f.cachedAt == at {
		return f.cached, nil
	}
	if len(f.labels) > 0 {
		masks := make([]grb.ColMask, 0, len(f.labels))
		for _, lid := range f.labels {
			lm := ctx.g.LabelMatrix(lid)
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
	f.cached, f.cachedAt, f.cachedOK = out, at, true
	return out, nil
}

// admitMask applies the pushed label masks.
func (c *compiledScanFilter) admitMask(id uint64) bool {
	return c.mask == nil || c.mask(grb.Index(id))
}

// filterProps compacts a pass's candidate list in place to the rows passing
// every pushed property comparison, before any record exists. The caller
// must own ids.
func (c *compiledScanFilter) filterProps(ctx *execCtx, ids []uint64) []uint64 {
	if len(c.preds) == 0 {
		return ids
	}
	return filterIDsColumnar(ctx, c.preds, ids)
}

// allNodeScanOp scans every live node in batches. With a child, it re-scans
// per child record (cartesian product).
type allNodeScanOp struct {
	child  operation
	slot   int
	alias  string
	width  int
	pushed *scanFilter

	// part/parts restrict the scan to one residue class of the id space
	// (id % parts == part) when the planner splits the pipeline into
	// parallel segments. parts <= 1 scans everything.
	part  int
	parts int

	in     batchPuller
	cur    record
	arena  recordArena
	primed bool
	done   bool

	// Pass state. cf is the pushed filter compiled for this pass. With
	// pushed property comparisons the pass walks ids: the first comparison's
	// candidate list (rows without the attribute can never pass, so they are
	// skipped wholesale), striped, masked and run through every comparison
	// at prime time. Without any there is nothing to narrow by, and the pass
	// sweeps [0, Dim) from nextID.
	cf     compiledScanFilter
	listed bool
	ids    []uint64
	pos    int
	nextID uint64
}

// startPass compiles the pushed filter, resets the pass state and, when
// property comparisons were pushed, builds the fully filtered candidate list.
func (o *allNodeScanOp) startPass(ctx *execCtx) error {
	cf, err := o.pushed.compile(ctx)
	if err != nil {
		return err
	}
	o.cf = cf
	o.nextID, o.pos = 0, 0
	o.listed = len(cf.preds) > 0
	if !o.listed {
		return nil
	}
	o.ids = cf.preds[0].candidates(o.ids[:0])
	if o.parts > 1 || cf.mask != nil {
		kept := o.ids[:0]
		for _, id := range o.ids {
			if o.inStripe(id) && cf.admitMask(id) {
				kept = append(kept, id)
			}
		}
		o.ids = kept
	}
	o.ids = cf.filterProps(ctx, o.ids)
	return nil
}

func (o *allNodeScanOp) inStripe(id uint64) bool {
	return o.parts <= 1 || int(id)%o.parts == o.part
}

// nextCandidate returns the pass's next admitted node ID, or false once the
// pass is exhausted.
func (o *allNodeScanOp) nextCandidate(ctx *execCtx) (uint64, bool) {
	if o.listed {
		if o.pos >= len(o.ids) {
			return 0, false
		}
		o.pos++
		return o.ids[o.pos-1], true
	}
	for high := uint64(ctx.g.Dim()); o.nextID < high; {
		id := o.nextID
		o.nextID++
		if o.inStripe(id) && o.cf.admitMask(id) {
			return id, true
		}
	}
	return 0, false
}

func (o *allNodeScanOp) nextBatch(ctx *execCtx) (recordBatch, error) {
	if o.done {
		return nil, nil
	}
	bs := ctx.batchSize()
	var out recordBatch
	for len(out) < bs {
		if !o.primed {
			if o.child != nil {
				r, err := o.in.pull(ctx, o.child)
				if err != nil {
					return nil, err
				}
				if r == nil {
					o.done = true
					break
				}
				o.cur = r
			} else {
				if o.cur != nil {
					o.done = true
					break
				}
				o.cur = newRecord(o.width)
			}
			if err := o.startPass(ctx); err != nil {
				return nil, err
			}
			o.primed = true
		}
		exhausted := false
		for len(out) < bs {
			id, ok := o.nextCandidate(ctx)
			if !ok {
				exhausted = true
				break
			}
			if n, ok := ctx.g.GetNode(id); ok {
				r := o.arena.extended(o.cur, o.width)
				r[o.slot] = value.NewNode(id, n)
				out = append(out, r)
			}
		}
		if exhausted {
			o.primed = false
			if o.child == nil && len(out) == 0 {
				o.done = true
				break
			}
		}
	}
	if len(out) == 0 {
		return nil, nil
	}
	return out, nil
}

func (o *allNodeScanOp) name() string { return "AllNodeScan" }
func (o *allNodeScanOp) args() string {
	return o.alias + o.pushed.describe() + describeSegment(o.part, o.parts)
}
func (o *allNodeScanOp) children() []operation {
	if o.child == nil {
		return nil
	}
	return []operation{o.child}
}

func (o *allNodeScanOp) setChild(i int, op operation) { o.child = op }

// labelScanOp scans the diagonal of a label matrix in batches. Pushed extra
// labels intersect the candidate set through diagonal masks before any
// record exists.
type labelScanOp struct {
	child  operation
	slot   int
	alias  string
	label  string
	width  int
	pushed *scanFilter

	// part/parts restrict the scan to one residue class of the label's
	// tuple positions when the pipeline runs as parallel segments.
	part  int
	parts int

	in     batchPuller
	cur    record
	arena  recordArena
	ids    []uint64
	pos    int
	primed bool
	done   bool
}

// loadIDs compiles the pushed filter and builds one pass's fully filtered
// candidate list: the label's diagonal, striped, masked by the pushed
// labels, then run through the pushed property comparisons.
func (o *labelScanOp) loadIDs(ctx *execCtx) error {
	cf, err := o.pushed.compile(ctx)
	if err != nil {
		return err
	}
	o.ids = o.ids[:0]
	lid, ok := ctx.g.Schema.LabelID(o.label)
	if !ok {
		return nil
	}
	lm := ctx.g.LabelMatrix(lid)
	if lm == nil {
		return nil
	}
	rows, _, _ := lm.ExtractTuples()
	for k, r := range rows {
		if o.parts > 1 && k%o.parts != o.part {
			continue
		}
		if cf.mask == nil || cf.mask(r) {
			o.ids = append(o.ids, uint64(r))
		}
	}
	o.ids = cf.filterProps(ctx, o.ids)
	return nil
}

func (o *labelScanOp) nextBatch(ctx *execCtx) (recordBatch, error) {
	if o.done {
		return nil, nil
	}
	bs := ctx.batchSize()
	var out recordBatch
	for len(out) < bs {
		if !o.primed {
			if o.child != nil {
				r, err := o.in.pull(ctx, o.child)
				if err != nil {
					return nil, err
				}
				if r == nil {
					o.done = true
					break
				}
				o.cur = r
			} else {
				if o.cur != nil {
					o.done = true
					break
				}
				o.cur = newRecord(o.width)
			}
			if err := o.loadIDs(ctx); err != nil {
				return nil, err
			}
			o.pos = 0
			o.primed = true
		}
		for o.pos < len(o.ids) && len(out) < bs {
			id := o.ids[o.pos]
			o.pos++
			n, ok := ctx.g.GetNode(id)
			if !ok {
				continue
			}
			r := o.arena.extended(o.cur, o.width)
			r[o.slot] = value.NewNode(id, n)
			out = append(out, r)
		}
		if o.pos >= len(o.ids) {
			o.primed = false
			if o.child == nil && len(out) == 0 {
				o.done = true
				break
			}
		}
	}
	if len(out) == 0 {
		return nil, nil
	}
	return out, nil
}

func (o *labelScanOp) name() string {
	return "NodeByLabelScan"
}
func (o *labelScanOp) args() string {
	return fmt.Sprintf("%s:%s%s%s", o.alias, o.label, o.pushed.describe(), describeSegment(o.part, o.parts))
}
func (o *labelScanOp) children() []operation {
	if o.child == nil {
		return nil
	}
	return []operation{o.child}
}

func (o *labelScanOp) setChild(i int, op operation) { o.child = op }

// indexScanOp resolves nodes through an exact-match attribute index, in
// batches. Pushed predicates filter the index seeds directly.
type indexScanOp struct {
	child  operation
	slot   int
	alias  string
	label  string
	attr   string
	val    evalFn
	width  int
	pushed *scanFilter

	// part/parts restrict an entry-point scan to one residue class of the
	// seed list's positions (not the id values: index postings are often
	// skewed, and position striping balances segments regardless of how ids
	// were assigned). Only set on childless clones by parallelizePlan.
	part  int
	parts int

	in     batchPuller
	cur    record
	arena  recordArena
	cf     compiledScanFilter // pushed filter compiled for this pass
	ids    []uint64
	pos    int
	primed bool
	done   bool
}

// loadSeeds compiles the pushed filter and resolves one pass's seed list:
// the index posting for the key, striped, then run through the pushed
// property comparisons. Label masks are applied as the seeds are emitted.
func (o *indexScanOp) loadSeeds(ctx *execCtx) error {
	cf, err := o.pushed.compile(ctx)
	if err != nil {
		return err
	}
	o.cf = cf
	o.ids = nil
	lid, okL := ctx.g.Schema.LabelID(o.label)
	aid, okA := ctx.g.Schema.AttrID(o.attr)
	if !okL || !okA {
		return nil
	}
	ix, ok := ctx.g.Schema.Index(lid, aid)
	if !ok {
		return nil
	}
	v, err := o.val(ctx, o.cur)
	if err != nil {
		return err
	}
	o.ids = ix.Lookup(v)
	if o.parts > 1 {
		var mine []uint64
		for k, id := range o.ids {
			if k%o.parts == o.part {
				mine = append(mine, id)
			}
		}
		o.ids = mine
	}
	if len(cf.preds) > 0 {
		if o.parts <= 1 {
			// Lookup returns the live posting list; copy before compacting.
			o.ids = append([]uint64(nil), o.ids...)
		}
		o.ids = cf.filterProps(ctx, o.ids)
	}
	return nil
}

func (o *indexScanOp) nextBatch(ctx *execCtx) (recordBatch, error) {
	if o.done {
		return nil, nil
	}
	bs := ctx.batchSize()
	var out recordBatch
	for len(out) < bs {
		if !o.primed {
			if o.child != nil {
				r, err := o.in.pull(ctx, o.child)
				if err != nil {
					return nil, err
				}
				if r == nil {
					o.done = true
					break
				}
				o.cur = r
			} else {
				if o.cur != nil {
					o.done = true
					break
				}
				o.cur = newRecord(o.width)
			}
			if err := o.loadSeeds(ctx); err != nil {
				return nil, err
			}
			o.pos = 0
			o.primed = true
		}
		for o.pos < len(o.ids) && len(out) < bs {
			id := o.ids[o.pos]
			o.pos++
			n, ok := ctx.g.GetNode(id)
			if !ok || !o.cf.admitMask(id) {
				continue
			}
			r := o.arena.extended(o.cur, o.width)
			r[o.slot] = value.NewNode(id, n)
			out = append(out, r)
		}
		if o.pos >= len(o.ids) {
			o.primed = false
			if o.child == nil && len(out) == 0 {
				o.done = true
				break
			}
		}
	}
	if len(out) == 0 {
		return nil, nil
	}
	return out, nil
}

func (o *indexScanOp) name() string { return "NodeByIndexScan" }
func (o *indexScanOp) args() string {
	return fmt.Sprintf("%s:%s(%s)%s%s", o.alias, o.label, o.attr, o.pushed.describe(), describeSegment(o.part, o.parts))
}
func (o *indexScanOp) children() []operation {
	if o.child == nil {
		return nil
	}
	return []operation{o.child}
}

func (o *indexScanOp) setChild(i int, op operation) { o.child = op }

// pushScan attaches a pushed predicate to any of the three scan operations.
// It returns false for non-scan operations, leaving the predicate to the
// residual filter path.
func pushScan(op operation, lid int, label string, prop *scanPropEq) bool {
	var f **scanFilter
	switch s := op.(type) {
	case *allNodeScanOp:
		f = &s.pushed
	case *labelScanOp:
		f = &s.pushed
	case *indexScanOp:
		f = &s.pushed
	default:
		return false
	}
	if *f == nil {
		*f = &scanFilter{}
	}
	if prop != nil {
		(*f).props = append((*f).props, *prop)
	} else {
		(*f).labels = append((*f).labels, lid)
		(*f).labelStr = append((*f).labelStr, label)
	}
	return true
}

// describeSegment renders a partitioned scan's residue class for
// EXPLAIN/PROFILE (1-based, matching the "workers: K" merge annotation).
func describeSegment(part, parts int) string {
	if parts <= 1 {
		return ""
	}
	return fmt.Sprintf(" | segment %d/%d", part+1, parts)
}

// nodeHasLabel filters by interned label id.
func nodeHasLabel(n *graph.Node, lid int) bool {
	for _, l := range n.Labels {
		if l == lid {
			return true
		}
	}
	return false
}
