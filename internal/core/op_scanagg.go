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
	input() *unary
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
func (n *scanAggregateNode) input() *unary        { return n.scan.input() }

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
// run is valid until the next call.
func (s *scanPass) nextLive(ctx *execCtx, limit int) ([]uint64, bool) {
	var run []uint64
	if s.sweep {
		run = s.ids[:0]
		for len(run) < limit {
			id, ok := s.sweepNext(ctx)
			if !ok {
				break
			}
			run = append(run, id)
		}
		s.ids = run
	} else {
		end := min(s.pos+limit, len(s.ids))
		run = s.ids[s.pos:end]
		s.pos = end
	}
	if len(run) == 0 {
		return nil, false
	}
	live := run[:0]
	for _, id := range run {
		if _, ok := ctx.g.GetNode(id); ok {
			live = append(live, id)
		}
	}
	return live, true
}

// fold folds one run of live rows into st in order. Int and float cells go
// through foldNum unboxed; string cells and overflow rows go through
// update, boxed by Column.Value; absent cells read null and are skipped.
func (it *scanAggItem) fold(st *aggState, col *graph.Column, ids []uint64) {
	if it.attr == "" {
		st.count += int64(len(ids)) // a scanned node is never null
		return
	}
	if col == nil {
		return // no node holds the attribute: every row reads null
	}
	kind := col.Kind()
	for _, id := range ids {
		switch present := col.Present(id); {
		case present && kind == graph.ColInt:
			x := col.IntAt(id)
			st.foldNum(&it.spec, float64(x), x, true)
		case present && kind == graph.ColFloat:
			st.foldNum(&it.spec, col.FloatAt(id), 0, false)
		default:
			if v, ok := col.Value(id); ok {
				st.update(&it.spec, v)
			}
		}
	}
}

// foldNum is update for a numeric cell read unboxed: f is its float64
// reading (what avg adds and min/max prefilter on), i its exact value when
// isInt (what sum adds and min/max keep). A min/max candidate is boxed only
// when it may replace the current extreme, and then update decides exactly:
// a tie in float64 reading still may (2⁵³+1 beats 2⁵³).
func (s *aggState) foldNum(spec *aggSpec, f float64, i int64, isInt bool) {
	switch spec.kind {
	case aggCount:
		s.count++
	case aggSum:
		if isInt {
			s.addInt(i)
		} else {
			s.addFloat(f)
		}
	case aggAvg:
		s.count++
		s.sum += f
	case aggMin:
		if !isNumeric(s.minv.Kind) || f <= s.minF {
			s.update(spec, numValue(f, i, isInt))
		}
	case aggMax:
		if !isNumeric(s.maxv.Kind) || s.maxF <= f {
			s.update(spec, numValue(f, i, isInt))
		}
	}
}

// isNumeric is Value.IsNumeric on the kind alone, so the per-row check never
// copies the Value it reads.
func isNumeric(k value.Kind) bool { return k == value.KindInt || k == value.KindFloat }

func numValue(f float64, i int64, isInt bool) value.Value {
	if isInt {
		return value.NewInt(i)
	}
	return value.NewFloat(f)
}
