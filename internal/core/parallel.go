// Pipeline-segment parallelism: in an eligible read-only plan the chain from
// the entry scan up to the lowest pipeline barrier executes as K independent
// segments over disjoint stripes of the scan's candidates, joined by an
// exchange-style merge. The decision is made once per plan, on plan nodes
// (parallelizePlan splices a parallelNode over the stretch); the K segments
// are K instantiations of the same nodes, differing only in the stripe
// instantiate hands their entry scan. The merge preserves global order only
// where the query demands it (ORDER BY merges per-segment sorted runs;
// TopNSort merges per-segment heaps); aggregation merges per-segment hash
// tables; plain projections gather buffered batches in segment order, so
// results stay deterministic across thread counts.
//
// Segments drive the shared morsel pool (pool.Parallel) with the
// coordinating goroutine participating; each segment executes under a
// single-threaded worker context (execCtx.forWorker) — the segments
// themselves are the query's parallelism, so nested kernel calls stay
// inline and cannot deadlock the pool. Writes never parallelise:
// parallelizePlan refuses non-read-only plans, keeping the writer discipline
// on the coordinating goroutine.
package core

import (
	"errors"
	"fmt"
	"sort"
	"sync/atomic"
	"time"

	"redisgraph/internal/pool"
	"redisgraph/internal/value"
)

// maxSegments caps pipeline fan-out: past ~16 segments the per-segment
// frontiers on one scan shrink below useful kernel batch sizes.
const maxSegments = 16

var errSegTimeout = errors.New("core: query timed out in parallel segment")

// parallelKind names the merge a parallelNode applies to its segments.
type parallelKind uint8

const (
	parGather    parallelKind = iota // no barrier: replay batches in segment order
	parSkipLimit                     // SKIP/LIMIT stack: global count-quota clamp
	parAggregate                     // the barrier kinds: seg is the barrier node
	parSort
	parTopN
	parCount
	parDistinct
)

var parallelNames = [...]string{"ParallelGather", "ParallelSkipLimit", "ParallelAggregate",
	"ParallelSortMerge", "ParallelTopNMerge", "ParallelTraverseCount", "ParallelDistinct"}

// parallelNode runs the chain rooted at seg as `workers` concurrent
// segments — each an instantiation of the same nodes with its own scan
// stripe — and merges their outputs. For the barrier kinds seg is the
// barrier the merge stands in for (EXPLAIN prints the merge in its place);
// for gather and skip-limit it is the chain below the merge.
type parallelNode struct {
	kind    parallelKind
	seg     planNode
	workers int
	skip    evalFn // parSkipLimit: nil when the stretch had no SKIP
	limit   evalFn // parSkipLimit: nil when the stretch had no LIMIT
}

func (n *parallelNode) name() string { return parallelNames[n.kind] }

func (n *parallelNode) args() string {
	workers := fmt.Sprintf("workers: %d", n.workers)
	switch n.kind {
	case parAggregate:
		return fmt.Sprintf("%d columns | %s", n.seg.(*aggregateNode).visible, workers)
	case parSort:
		return fmt.Sprintf("%d keys | %s", len(n.seg.(*sortNode).descs), workers)
	case parTopN:
		top := n.seg.(*topNSortNode)
		return fmt.Sprintf("%d keys | top %s | %s", len(top.descs), top.desc, workers)
	case parSkipLimit:
		ops := ""
		if n.skip != nil {
			ops = "skip"
		}
		if n.limit != nil {
			if ops != "" {
				ops += "+"
			}
			ops += "limit"
		}
		return ops + " | " + workers
	}
	return workers
}

func (n *parallelNode) children() []planNode {
	if n.kind >= parAggregate {
		return n.seg.children()
	}
	return []planNode{n.seg}
}

// openParallel instantiates the K segments — K instantiations of the same
// nodes, segment k taking stripe k of the entry scan — under their merge op.
// PROFILE accounts segment 1's chain; the barrier kinds drive their segment
// roots through the concrete type, so those stay unwrapped.
func (opts instOpts) openParallel(n *parallelNode) operation {
	ps := &parallelSeg{parallelNode: n, segs: make([]operation, n.workers)}
	for k := range ps.segs {
		so := instOpts{part: k, parts: n.workers}
		if k == 0 {
			so.prof = opts.prof
		}
		if n.kind >= parAggregate {
			ps.segs[k] = so.open(n.seg)
		} else {
			ps.segs[k] = instantiate(n.seg, so)
		}
	}
	switch n.kind {
	case parSkipLimit:
		return &parallelSkipLimitOp{parallelSeg: ps}
	case parAggregate:
		return &parallelAggOp{parallelSeg: ps, agg: n.seg.(*aggregateNode)}
	case parSort:
		return &parallelSortOp{parallelSeg: ps, tmpl: n.seg.(*sortNode)}
	case parTopN:
		return &parallelTopNOp{parallelSeg: ps, tmpl: n.seg.(*topNSortNode)}
	case parCount:
		return &parallelCountOp{parallelSeg: ps}
	case parDistinct:
		return &parallelDistinctOp{parallelSeg: ps, visible: n.seg.(*distinctNode).visible}
	}
	return &parallelGatherOp{parallelSeg: ps}
}

// parallelizePlan decides, once per plan and before anything executes it,
// whether p's lowest pipeline stretch runs as `threads` concurrent segments,
// and if so splices a parallelNode over that stretch. It refuses — leaving
// the plan untouched — whenever correctness or progress guarantees would
// change: write plans, multi-child spines, non-partitionable entry points,
// and distinct aggregates (per-segment dedup sets cannot be merged).
// DISTINCT itself is a mergeable barrier: segments dedup locally and the
// coordinator re-dedups across segments. SKIP/LIMIT merge as a count-quota
// barrier: the quotas are global, so segments run the chain below the
// stretch — each over-producing at most skip+limit rows — and the
// coordinator clamps the segment-major concatenation. Index-scan entry
// points partition their seed list across segments by position.
func parallelizePlan(p *Plan, threads int) {
	if !p.ReadOnly || threads < 2 {
		return
	}
	if threads > maxSegments {
		threads = maxSegments
	}
	// Flatten the root's single-child spine: chain[0] is the root,
	// chain[len-1] the entry scan.
	var chain []planNode
	for n := p.root; ; {
		chain = append(chain, n)
		kids := n.children()
		if len(kids) == 0 {
			break
		}
		if len(kids) != 1 {
			return
		}
		n = kids[0]
	}
	// The leaf must be a scan (childless, since it ends the spine): full
	// scans partition the id space into residue classes, index scans stripe
	// their seed list by position — either way, no coordination between
	// segments.
	leaf, ok := chain[len(chain)-1].(interface{ scan() *scanNode })
	if !ok {
		return
	}
	// Find the lowest barrier above the leaf. Everything below it must be
	// segmentable; the barrier itself must be mergeable.
	merge := -1
	for i := len(chain) - 2; i >= 0; i-- {
		if kind, ok := segBarrier(chain[i]); ok {
			if kind == parAggregate && !aggMergeable(chain[i].(*aggregateNode)) {
				return
			}
			merge = i
			break
		}
		if !segmentable(chain[i]) {
			return
		}
	}
	// A SKIP/LIMIT stretch is a count-quota barrier. The quotas are global —
	// a segment cannot skip locally — so the quota nodes themselves stay out
	// of the segment chains and the merge applies the global clamp. top
	// marks the highest node the merge replaces: the LIMIT sitting directly
	// above a SKIP when both are present (plan construction always stacks
	// them adjacently in that order), else the single barrier.
	node := &parallelNode{kind: parGather, seg: chain[0], workers: threads}
	top, stop := merge, 0
	if merge >= 0 {
		node.kind, _ = segBarrier(chain[merge])
		node.seg, stop = chain[merge], merge
		switch o := chain[merge].(type) {
		case *skipNode:
			node.skip = o.n
			if merge > 0 {
				if l, ok := chain[merge-1].(*limitNode); ok {
					node.limit = l.n
					top = merge - 1
				}
			}
		case *limitNode:
			node.limit = o.n
		}
		if node.kind == parSkipLimit {
			node.seg, stop = chain[merge+1], merge+1 // segments run the chain below the quota stack
		}
	}
	// Splice the merge in over chain[top..leaf], which the segments now own:
	// their traversal kernels run single-threaded (the segments themselves
	// are the query's parallelism) and their entry scan is striped.
	if top > 0 {
		above, ok := chain[top-1].(interface{ input() *unary })
		if !ok {
			return
		}
		above.input().child = node
	} else {
		p.root = node
	}
	for _, n := range chain[stop:] {
		if c, ok := n.(*traverseCountNode); ok {
			n = c.t
		}
		switch t := n.(type) {
		case *condTraverseNode:
			t.kthreads = 1
		case *expandIntoNode:
			t.kthreads = 1
		}
	}
	leaf.scan().segments = threads
	if e, ok := p.est[chain[max(top, 0)]]; ok {
		p.est[node] = e
	}
}

// segBarrier reports whether n terminates a segment stretch, and the merge
// that stands in for it: either it blocks the pipeline (materialises its
// whole input before emitting), or it owns cross-row state the coordinator
// must merge — DISTINCT's dedup set, SKIP/LIMIT's global count quotas.
func segBarrier(n planNode) (parallelKind, bool) {
	switch n.(type) {
	case *aggregateNode:
		return parAggregate, true
	case *sortNode:
		return parSort, true
	case *topNSortNode:
		return parTopN, true
	case *traverseCountNode:
		return parCount, true
	case *distinctNode:
		return parDistinct, true
	case *skipNode, *limitNode:
		return parSkipLimit, true
	}
	return 0, false
}

// segmentable reports whether a non-barrier node may run inside a segment:
// it keeps no state across rows that a coordinator would have to merge.
func segmentable(n planNode) bool {
	switch n.(type) {
	case *allNodeScanNode, *labelScanNode, *indexScanNode, *filterNode, *projectNode, *unwindNode,
		*condTraverseNode, *expandIntoNode, *varLenTraverseNode:
		return true
	}
	return false
}

// aggMergeable reports whether an aggregate's per-segment results can be
// combined without changing semantics. Distinct aggregates cannot: each
// segment's dedup set is local, so summing the deduplicated states would
// double-count values seen by several segments.
func aggMergeable(agg *aggregateNode) bool {
	for _, it := range agg.items {
		if it.agg != nil && it.agg.distinct {
			return false
		}
	}
	return true
}

// parallelSeg is the shared core of the merge operations: the segment
// chains, their concurrent driver and the worker-time accounting PROFILE
// reports alongside wall time (summing per-worker elapsed time instead of
// double-counting overlapped wall time).
type parallelSeg struct {
	*parallelNode
	segs        []operation
	workerNanos atomic.Int64
}

// runSegments drains every segment concurrently on the morsel pool, the
// calling goroutine participating. Each drain callback receives a private
// single-threaded context (forWorker). The pool's completion latch orders
// all segment writes before runSegments returns, so the coordinator reads
// segment state afterwards without further synchronisation.
func (s *parallelSeg) runSegments(ctx *execCtx, drain func(k int, wctx *execCtx) error) error {
	errs := make([]error, len(s.segs))
	pool.ParallelCtx(ctx.sched, len(s.segs), len(s.segs), func(k int) {
		start := time.Now()
		errs[k] = drain(k, ctx.forWorker())
		s.workerNanos.Add(time.Since(start).Nanoseconds())
	})
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// profileArgs appends the summed worker time once the segments have run.
func (s *parallelSeg) profileArgs() string {
	d := s.args()
	if n := s.workerNanos.Load(); n > 0 {
		d += fmt.Sprintf(" | worker time: %.6f ms", float64(n)/1e6)
	}
	return d
}

// drainSeg pulls one segment to exhaustion, buffering its batches.
func drainSeg(seg operation, wctx *execCtx, buf *[]recordBatch) error {
	for {
		b, err := seg.nextBatch(wctx)
		if err != nil {
			return err
		}
		if b == nil {
			return nil
		}
		if wctx.expired() {
			return errSegTimeout
		}
		*buf = append(*buf, b)
	}
}

// parallelGatherOp joins segments whose stretch reaches the plan root with
// no barrier: each segment's batches are buffered and replayed in segment
// order. The query has no ORDER BY at this point (a sort would have been
// the barrier), so segment-major order is as valid as the serial scan
// order — and deterministic for a given segment count.
type parallelGatherOp struct {
	*parallelSeg
	out    []recordBatch
	pos    int
	primed bool
}

func (o *parallelGatherOp) nextBatch(ctx *execCtx) (recordBatch, error) {
	if !o.primed {
		bufs := make([][]recordBatch, len(o.segs))
		err := o.runSegments(ctx, func(k int, wctx *execCtx) error {
			return drainSeg(o.segs[k], wctx, &bufs[k])
		})
		if err != nil {
			return nil, err
		}
		for _, bb := range bufs {
			o.out = append(o.out, bb...)
		}
		o.primed = true
	}
	if o.pos >= len(o.out) {
		return nil, nil
	}
	b := o.out[o.pos]
	o.out[o.pos] = nil
	o.pos++
	return b, nil
}

// parallelAggOp replaces an aggregateOp barrier: every segment runs its
// own hash aggregation over its partition, and the coordinator merges the
// per-segment tables group-by-group in segment order (first occurrence
// adopted, later states folded in with aggState.merge). Keyless
// aggregation works unchanged: each segment materialises the identity
// group, and merging identities is a no-op.
type parallelAggOp struct {
	*parallelSeg
	agg *aggregateNode

	groups map[string]*aggGroup
	order  []string
	pos    int
	primed bool
}

func (o *parallelAggOp) nextBatch(ctx *execCtx) (recordBatch, error) {
	if !o.primed {
		err := o.runSegments(ctx, func(k int, wctx *execCtx) error {
			return o.segs[k].(*aggregateOp).consume(wctx)
		})
		if err != nil {
			return nil, err
		}
		o.groups = map[string]*aggGroup{}
		for _, seg := range o.segs {
			agg := seg.(*aggregateOp)
			for _, key := range agg.order {
				src := agg.groups[key]
				dst, ok := o.groups[key]
				if !ok {
					o.groups[key] = src
					o.order = append(o.order, key)
					continue
				}
				for i, it := range o.agg.items {
					if it.agg != nil {
						dst.states[i].merge(it.agg, src.states[i])
					}
				}
			}
		}
		o.primed = true
	}
	if o.pos >= len(o.order) {
		return nil, nil
	}
	bs := ctx.batchSize()
	var out recordBatch
	for o.pos < len(o.order) && len(out) < bs {
		grp := o.groups[o.order[o.pos]]
		o.pos++
		r := newRecord(o.agg.visible)
		ki := 0
		for i, it := range o.agg.items {
			if it.key != nil {
				r[i] = grp.keys[ki]
				ki++
			} else {
				r[i] = grp.states[i].finalize(it.agg)
			}
		}
		out = append(out, r)
	}
	return out, nil
}

// parallelSortOp replaces a sortOp barrier: segments materialise and sort
// their partitions concurrently, and the coordinator re-sorts the
// concatenated runs with the same stable comparison. Ties across segments
// resolve in segment-major order — deterministic for a given segment
// count, though not byte-identical to the serial scan order.
type parallelSortOp struct {
	*parallelSeg
	tmpl *sortNode

	rows   []record
	pos    int
	primed bool
}

func (o *parallelSortOp) nextBatch(ctx *execCtx) (recordBatch, error) {
	if !o.primed {
		err := o.runSegments(ctx, func(k int, wctx *execCtx) error {
			return o.segs[k].(*sortOp).prime(wctx)
		})
		if err != nil {
			return nil, err
		}
		for _, seg := range o.segs {
			o.rows = append(o.rows, seg.(*sortOp).rows...)
		}
		sort.SliceStable(o.rows, func(a, b int) bool {
			return sortLess(o.rows[a], o.rows[b], o.tmpl.visible, o.tmpl.descs)
		})
		o.primed = true
	}
	if o.pos >= len(o.rows) {
		return nil, nil
	}
	bs := ctx.batchSize()
	var out recordBatch
	for o.pos < len(o.rows) && len(out) < bs {
		out = append(out, o.rows[o.pos][:o.tmpl.visible])
		o.pos++
	}
	return out, nil
}

// parallelTopNOp replaces a topNSortOp barrier (ORDER BY + LIMIT fusion):
// each segment keeps its own bounded heap of the best skip+limit records,
// and the coordinator merges the K heaps — at most K·(skip+limit) live
// records regardless of input size — re-sorts, and truncates to the
// global bound.
type parallelTopNOp struct {
	*parallelSeg
	tmpl *topNSortNode

	rows   []record
	pos    int
	primed bool
}

func (o *parallelTopNOp) nextBatch(ctx *execCtx) (recordBatch, error) {
	if !o.primed {
		err := o.runSegments(ctx, func(k int, wctx *execCtx) error {
			return o.segs[k].(*topNSortOp).prime(wctx)
		})
		if err != nil {
			return nil, err
		}
		for _, seg := range o.segs {
			o.rows = append(o.rows, seg.(*topNSortOp).h.rows...)
		}
		sort.SliceStable(o.rows, func(a, b int) bool {
			return sortLess(o.rows[a], o.rows[b], o.tmpl.visible, o.tmpl.descs)
		})
		keep, err := o.tmpl.bound(ctx)
		if err != nil {
			return nil, err
		}
		if len(o.rows) > keep {
			o.rows = o.rows[:keep]
		}
		o.primed = true
	}
	if o.pos >= len(o.rows) {
		return nil, nil
	}
	bs := ctx.batchSize()
	var out recordBatch
	for o.pos < len(o.rows) && len(out) < bs {
		out = append(out, o.rows[o.pos][:o.tmpl.visible])
		o.pos++
	}
	return out, nil
}

// parallelCountOp replaces a traverseCountOp barrier: segments count their
// partitions' reachable destinations concurrently and the coordinator sums
// the per-segment totals into the single output record.
type parallelCountOp struct {
	*parallelSeg
	done bool
}

func (o *parallelCountOp) nextBatch(ctx *execCtx) (recordBatch, error) {
	if o.done {
		return nil, nil
	}
	o.done = true
	counts := make([]int64, len(o.segs))
	err := o.runSegments(ctx, func(k int, wctx *execCtx) error {
		b, err := o.segs[k].nextBatch(wctx)
		if err != nil {
			return err
		}
		if len(b) == 1 && len(b[0]) > 0 {
			counts[k] = b[0][0].Int()
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	var total int64
	for _, c := range counts {
		total += c
	}
	r := newRecord(1)
	r[0] = value.NewInt(total)
	return recordBatch{r}, nil
}

// parallelDistinctOp replaces a distinctOp barrier: each segment deduplicates
// its own partition while it runs, and the coordinator re-deduplicates the
// buffered per-segment outputs in segment-major order with the same key
// construction. A value present in several partitions survives in the
// lowest-numbered segment that produced it — deterministic for a given
// segment count, though (like ParallelGather) not byte-identical to the
// serial scan order.
type parallelDistinctOp struct {
	*parallelSeg
	visible int

	out    []recordBatch
	pos    int
	primed bool
}

func (o *parallelDistinctOp) nextBatch(ctx *execCtx) (recordBatch, error) {
	if !o.primed {
		bufs := make([][]recordBatch, len(o.segs))
		err := o.runSegments(ctx, func(k int, wctx *execCtx) error {
			return drainSeg(o.segs[k], wctx, &bufs[k])
		})
		if err != nil {
			return nil, err
		}
		seen := map[string]bool{}
		for _, bb := range bufs {
			for _, b := range bb {
				out := b[:0]
				for _, r := range b {
					k := distinctKey(r, o.visible)
					if seen[k] {
						continue
					}
					seen[k] = true
					out = append(out, r)
				}
				if len(out) > 0 {
					o.out = append(o.out, out)
				}
			}
		}
		o.primed = true
	}
	if o.pos >= len(o.out) {
		return nil, nil
	}
	b := o.out[o.pos]
	o.out[o.pos] = nil
	o.pos++
	return b, nil
}

// parallelSkipLimitOp replaces a SKIP/LIMIT stretch (either op alone or the
// Limit-over-Skip stack): the count quotas are global, so every segment runs
// the chain below the stretch with a per-segment over-produce bound of
// skip+limit rows — any one segment alone can satisfy at most the whole
// window — and the coordinator concatenates the buffered batches in
// segment-major order before applying the global skip, then the limit
// clamp. Like ParallelGather the surviving rows are deterministic for a
// given segment count though not byte-identical to the serial scan order;
// without an ORDER BY (which would have fused to TopNSort or been the
// barrier) any qualifying window of rows is a correct answer.
type parallelSkipLimitOp struct {
	*parallelSeg

	out    []recordBatch
	pos    int
	primed bool
}

func (o *parallelSkipLimitOp) nextBatch(ctx *execCtx) (recordBatch, error) {
	if !o.primed {
		var skip, limit int64 = 0, -1
		if o.skip != nil {
			nv, err := o.skip(ctx, nil)
			if err != nil {
				return nil, err
			}
			if skip = nv.Int(); skip < 0 {
				skip = 0 // negative SKIP skips nothing
			}
		}
		if o.limit != nil {
			nv, err := o.limit(ctx, nil)
			if err != nil {
				return nil, err
			}
			if limit = nv.Int(); limit < 0 {
				limit = 0 // negative LIMIT emits nothing
			}
		}
		quota := int64(-1) // unbounded: SKIP alone still drains everything
		if limit >= 0 {
			quota = skip + limit
		}
		bufs := make([][]recordBatch, len(o.segs))
		err := o.runSegments(ctx, func(k int, wctx *execCtx) error {
			return drainSegQuota(o.segs[k], wctx, &bufs[k], quota)
		})
		if err != nil {
			return nil, err
		}
		remSkip, remLimit := skip, limit
	clamp:
		for _, bb := range bufs {
			for _, b := range bb {
				if remSkip >= int64(len(b)) {
					remSkip -= int64(len(b))
					continue
				}
				b = b[remSkip:]
				remSkip = 0
				if remLimit >= 0 {
					if int64(len(b)) >= remLimit {
						b = b[:remLimit]
						remLimit = 0
					} else {
						remLimit -= int64(len(b))
					}
				}
				if len(b) > 0 {
					o.out = append(o.out, b)
				}
				if remLimit == 0 {
					break clamp
				}
			}
		}
		o.primed = true
	}
	if o.pos >= len(o.out) {
		return nil, nil
	}
	b := o.out[o.pos]
	o.out[o.pos] = nil
	o.pos++
	return b, nil
}

// drainSegQuota drains one segment like drainSeg, stopping early once quota
// rows are buffered (quota < 0 drains to exhaustion) — the per-segment
// over-produce bound for the parallel SKIP/LIMIT clamp.
func drainSegQuota(seg operation, wctx *execCtx, buf *[]recordBatch, quota int64) error {
	var have int64
	for {
		if quota >= 0 && have >= quota {
			return nil
		}
		b, err := seg.nextBatch(wctx)
		if err != nil {
			return err
		}
		if b == nil {
			return nil
		}
		if wctx.expired() {
			return errSegTimeout
		}
		if quota >= 0 && have+int64(len(b)) > quota {
			b = b[:quota-have]
		}
		have += int64(len(b))
		*buf = append(*buf, b)
	}
}
