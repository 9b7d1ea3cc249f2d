package core

import (
	"fmt"
	"strings"

	"redisgraph/internal/graph"
	"redisgraph/internal/value"
)

// scanAggregateNode is aggregate pushdown for a keyless aggregation straight
// over a scan: every projection item is a non-DISTINCT count, sum, avg, min
// or max of `*`, the scan's variable (count only) or one of its properties.
// The scan's passes run as usual — pushed filters included — but no record
// is built: each pass's live node IDs are a selection vector folded into one
// aggState per item, reading int and float cells straight from the typed
// column arrays and boxing only string and overflow cells. Rows fold in the
// order the scan would have emitted them, so every answer (float sums
// included) is bit-identical to Aggregate over the same scan.
type scanAggregateNode struct {
	scan  aggregatedScan
	items []scanAggItem
}

// aggregatedScan is a scan node a scanAggregateNode stands over.
type aggregatedScan interface {
	planNode
	scan() *scanNode
}

// scanAggItem is one output column: the aggregate and the node property it
// reads ("" when it reads no property: count(*) and count(n) count rows).
type scanAggItem struct {
	spec aggSpec
	attr string
	desc string
}

func (n *scanAggregateNode) name() string { return "ScanAggregate" }
func (n *scanAggregateNode) args() string {
	descs := make([]string, len(n.items))
	for i, it := range n.items {
		descs[i] = it.desc
	}
	return n.scan.args() + " | " + strings.Join(descs, ", ")
}
func (n *scanAggregateNode) children() []planNode { return n.scan.children() }

// scanRunner is the running op of an aggregatedScan: its pass state and the
// loader that fills one pass's candidates.
type scanRunner interface {
	passLoader
	pass() *scanPass
}

func (s *scanPass) pass() *scanPass { return s }

type scanAggregateOp struct {
	*scanAggregateNode
	src  scanRunner
	done bool
}

// foldRun is the most candidates one fold step covers between deadline
// checks.
const foldRun = 1 << 16

func (o *scanAggregateOp) nextBatch(ctx *execCtx) (recordBatch, error) {
	if o.done {
		return nil, nil
	}
	o.done = true
	states := make([]aggState, len(o.items))
	cols := make([]*graph.Column, len(o.items))
	sp := o.src.pass()
	for {
		// prime pulls the pass's input before it compiles the filter, so the
		// columns resolve after any write burst below the scan too.
		cf, ok, err := sp.prime(ctx, o.scan.scan())
		if err != nil {
			return nil, err
		}
		if !ok {
			break
		}
		if err := o.src.loadPass(ctx, cf); err != nil {
			return nil, err
		}
		for i, it := range o.items {
			cols[i] = nil
			if it.attr == "" {
				continue
			}
			if aid, ok := ctx.g.Schema.AttrID(it.attr); ok {
				cols[i] = ctx.g.PropColumn(aid)
			}
		}
		for {
			if ctx.expired() {
				return nil, fmt.Errorf("query timed out during scan aggregation")
			}
			ids, more := sp.nextLive(ctx, foldRun)
			if !more {
				break
			}
			for i := range o.items {
				o.items[i].fold(&states[i], cols[i], ids)
			}
		}
	}
	out := newRecord(len(o.items))
	for i := range o.items {
		out[i] = states[i].finalize(&o.items[i].spec)
	}
	return recordBatch{out}, nil
}

// nextLive returns the loaded pass's next run of at most limit candidates,
// narrowed to the nodes that exist — the IDs the record path would bind, in
// the order it would bind them — and false once the pass is exhausted. The
// run is valid until the next call. Only the [0, Dim) sweep probes each ID:
// every other pass reads a label diagonal, an index posting or a column's
// holders, and DeleteNode clears a node from all three, so they hold live
// nodes alone.
func (s *scanPass) nextLive(ctx *execCtx, limit int) ([]uint64, bool) {
	if !s.sweep {
		end := min(s.pos+limit, len(s.ids))
		run := s.ids[s.pos:end]
		s.pos = end
		return run, len(run) > 0
	}
	run := s.ids[:0]
	k := 0
	for ; k < limit; k++ {
		id, ok := s.sweepNext(ctx)
		if !ok {
			break
		}
		if _, ok := ctx.g.GetNode(id); ok {
			run = append(run, id)
		}
	}
	s.ids = run
	return run, k > 0
}

// fold folds one run of live rows into st in order, through one loop chosen
// for the whole run by the aggregate and the column's kind. Int and float
// cells are read unboxed: sum adds ints exactly through addInt (which
// switches to float64 on overflow) and floats through addFloat, avg adds
// float64 readings, and min and max box a cell only when it may replace the
// current extreme, leaving the exact decision to update (a tie in float64
// reading still may: 2⁵³+1 beats 2⁵³). String cells and rows without a
// typed cell (overflow values) are boxed by Column.Value and go through
// update; absent cells read null and are skipped.
func (it *scanAggItem) fold(st *aggState, col *graph.Column, ids []uint64) {
	spec := &it.spec
	switch {
	case it.attr == "":
		st.count += int64(len(ids)) // a scanned node is never null
		return
	case col == nil:
		return // no node holds the attribute: every row reads null
	}
	switch kind := col.Kind(); {
	case spec.kind == aggCount:
		for _, id := range ids {
			if col.Present(id) {
				st.count++
			} else {
				st.boxed(spec, col, id)
			}
		}
	case kind == graph.ColInt:
		pres, xs := col.Ints()
		switch spec.kind {
		case aggSum:
			for _, id := range ids {
				if pres.Get(int(id)) {
					st.addInt(xs[id])
				} else {
					st.boxed(spec, col, id)
				}
			}
		case aggAvg:
			for _, id := range ids {
				if pres.Get(int(id)) {
					st.count++
					st.sum += float64(xs[id])
				} else {
					st.boxed(spec, col, id)
				}
			}
		case aggMin:
			for _, id := range ids {
				if !pres.Get(int(id)) {
					st.boxed(spec, col, id)
				} else if x := xs[id]; float64(x) <= st.minF || !isNumeric(st.minv.Kind) {
					st.update(spec, value.NewInt(x))
				}
			}
		case aggMax:
			for _, id := range ids {
				if !pres.Get(int(id)) {
					st.boxed(spec, col, id)
				} else if x := xs[id]; st.maxF <= float64(x) || !isNumeric(st.maxv.Kind) {
					st.update(spec, value.NewInt(x))
				}
			}
		}
	case kind == graph.ColFloat:
		pres, xs := col.Floats()
		switch spec.kind {
		case aggSum:
			for _, id := range ids {
				if pres.Get(int(id)) {
					st.addFloat(xs[id])
				} else {
					st.boxed(spec, col, id)
				}
			}
		case aggAvg:
			for _, id := range ids {
				if pres.Get(int(id)) {
					st.count++
					st.sum += xs[id]
				} else {
					st.boxed(spec, col, id)
				}
			}
		case aggMin:
			for _, id := range ids {
				if !pres.Get(int(id)) {
					st.boxed(spec, col, id)
				} else if x := xs[id]; x <= st.minF || !isNumeric(st.minv.Kind) {
					st.update(spec, value.NewFloat(x))
				}
			}
		case aggMax:
			for _, id := range ids {
				if !pres.Get(int(id)) {
					st.boxed(spec, col, id)
				} else if x := xs[id]; st.maxF <= x || !isNumeric(st.maxv.Kind) {
					st.update(spec, value.NewFloat(x))
				}
			}
		}
	default:
		for _, id := range ids {
			st.boxed(spec, col, id)
		}
	}
}

// boxed folds one row through update, boxed by Column.Value; a row without
// the attribute reads null and is skipped.
func (s *aggState) boxed(spec *aggSpec, col *graph.Column, id uint64) {
	if v, ok := col.Value(id); ok {
		s.update(spec, v)
	}
}

// isNumeric is Value.IsNumeric on the kind alone, so the per-row check never
// copies the Value it reads.
func isNumeric(k value.Kind) bool { return k == value.KindInt || k == value.KindFloat }
