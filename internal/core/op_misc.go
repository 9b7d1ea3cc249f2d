package core

import (
	"container/heap"
	"fmt"
	"sort"
	"strings"

	"redisgraph/internal/value"
)

// filterNode drops records whose predicate is not true, compacting each input
// batch in place so surviving records never move between backing arrays.
type filterNode struct {
	unary
	pred evalFn
	desc string
}

func (n *filterNode) name() string { return "Filter" }
func (n *filterNode) args() string { return n.desc }

type filterOp struct {
	*filterNode
	child operation
}

func (o *filterOp) nextBatch(ctx *execCtx) (recordBatch, error) {
	for {
		b, err := o.child.nextBatch(ctx)
		if err != nil || b == nil {
			return nil, err
		}
		out := b[:0]
		for _, r := range b {
			v, err := o.pred(ctx, r)
			if err != nil {
				return nil, err
			}
			if v.IsTrue() {
				out = append(out, r)
			}
		}
		if len(out) > 0 {
			return out, nil
		}
	}
}

// projectNode evaluates the projection items into a fresh record layout,
// one batch at a time. Hidden trailing slots carry ORDER BY keys for a
// downstream sortOp.
type projectNode struct {
	unary
	items    []evalFn
	sortKeys []evalFn // evaluated against the INPUT record
	visible  int
}

func (n *projectNode) name() string { return "Project" }
func (n *projectNode) args() string { return fmt.Sprintf("%d columns", n.visible) }

type projectOp struct {
	*projectNode
	child operation
}

func (o *projectOp) nextBatch(ctx *execCtx) (recordBatch, error) {
	b, err := o.child.nextBatch(ctx)
	if err != nil || b == nil {
		return nil, err
	}
	for k, in := range b {
		out := newRecord(o.visible + len(o.sortKeys))
		for i, f := range o.items {
			v, err := f(ctx, in)
			if err != nil {
				return nil, err
			}
			out[i] = v
		}
		for i, f := range o.sortKeys {
			v, err := f(ctx, in)
			if err != nil {
				return nil, err
			}
			out[o.visible+i] = v
		}
		b[k] = out
	}
	return b, nil
}

// aggKind enumerates aggregate functions.
type aggKind uint8

const (
	aggCount aggKind = iota
	aggSum
	aggAvg
	aggMin
	aggMax
	aggCollect
)

// aggKinds maps each aggregate function's name to its kind.
var aggKinds = map[string]aggKind{"count": aggCount, "sum": aggSum, "avg": aggAvg,
	"min": aggMin, "max": aggMax, "collect": aggCollect}

// aggSpec describes one aggregate projection item.
type aggSpec struct {
	kind     aggKind
	arg      evalFn // nil for count(*)
	distinct bool
}

type aggState struct {
	count int64
	// sum is avg's running total, and sum's once sumIsFl is set; isum is
	// sum's exact total while every input is an int and the total fits.
	sum     float64
	isum    int64
	sumIsFl bool
	minv    value.Value
	maxv    value.Value
	// minF/maxF are minv/maxv's float64 reading while they are numeric, so
	// the scan-aggregate kernel compares against them without copying a
	// Value.
	minF, maxF float64
	list       []value.Value
	seen       map[string]bool
}

func (s *aggState) update(spec *aggSpec, v value.Value) {
	if spec.arg != nil && v.IsNull() {
		return
	}
	if spec.distinct {
		if s.seen == nil {
			s.seen = map[string]bool{}
		}
		k := v.HashKey()
		if s.seen[k] {
			return
		}
		s.seen[k] = true
	}
	switch spec.kind {
	case aggCount:
		s.count++
	case aggSum:
		switch v.Kind {
		case value.KindInt:
			s.addInt(v.Int())
		case value.KindFloat:
			s.addFloat(v.Float())
		}
	case aggAvg:
		if v.IsNumeric() {
			s.count++
			s.sum += v.Float()
		}
	case aggMin:
		if s.minv.IsNull() || value.OrderLess(v, s.minv) {
			s.minv, s.minF = v, v.Float()
		}
	case aggMax:
		if s.maxv.IsNull() || value.OrderLess(s.maxv, v) {
			s.maxv, s.maxF = v, v.Float()
		}
	case aggCollect:
		s.list = append(s.list, v)
	}
}

// addInt adds x to sum's total: exactly in isum until the first float input
// or int64 overflow, in float64 from then on.
func (s *aggState) addInt(x int64) {
	if s.sumIsFl {
		s.sum += float64(x)
		return
	}
	t := s.isum + x
	if (x > 0 && t < s.isum) || (x < 0 && t > s.isum) {
		s.sumIsFl, s.sum = true, float64(s.isum)+float64(x)
		return
	}
	s.isum = t
}

// addFloat adds f to sum's total, switching it to float64 first.
func (s *aggState) addFloat(f float64) {
	if !s.sumIsFl {
		s.sumIsFl, s.sum = true, float64(s.isum)
	}
	s.sum += f
}

func (s *aggState) finalize(spec *aggSpec) value.Value {
	switch spec.kind {
	case aggCount:
		return value.NewInt(s.count)
	case aggSum:
		if s.sumIsFl {
			return value.NewFloat(s.sum)
		}
		return value.NewInt(s.isum)
	case aggAvg:
		if s.count == 0 {
			return value.Null
		}
		return value.NewFloat(s.sum / float64(s.count))
	case aggMin:
		return s.minv
	case aggMax:
		return s.maxv
	default:
		return value.NewArray(s.list)
	}
}

// aggItem is one projection column: either a group key or an aggregate.
type aggItem struct {
	key *evalFn  // group-by expression
	agg *aggSpec // aggregate
}

// aggregateNode implements hash aggregation over the group keys, consuming
// its input batch-at-a-time and emitting the finished groups in batches.
type aggregateNode struct {
	unary
	items   []aggItem
	visible int
}

func (n *aggregateNode) name() string { return "Aggregate" }
func (n *aggregateNode) args() string { return fmt.Sprintf("%d columns", n.visible) }

type aggregateOp struct {
	*aggregateNode
	child operation

	groups map[string]*aggGroup
	order  []string
	pos    int
	primed bool
}

type aggGroup struct {
	keys   []value.Value
	states []*aggState
}

func (o *aggregateOp) consume(ctx *execCtx) error {
	o.groups = map[string]*aggGroup{}
	hasKeys := o.hasKeys()
	for {
		b, err := o.child.nextBatch(ctx)
		if err != nil {
			return err
		}
		if b == nil {
			break
		}
		if ctx.expired() {
			return fmt.Errorf("query timed out during aggregation")
		}
		for _, r := range b {
			if err := o.consumeRecord(ctx, r, hasKeys); err != nil {
				return err
			}
		}
	}
	// Aggregation over zero rows with no group keys yields one row.
	if len(o.groups) == 0 && !o.hasKeys() {
		grp := &aggGroup{states: make([]*aggState, len(o.items))}
		for i := range grp.states {
			grp.states[i] = &aggState{}
		}
		o.groups[""] = grp
		o.order = append(o.order, "")
	}
	return nil
}

func (o *aggregateOp) consumeRecord(ctx *execCtx, r record, hasKeys bool) error {
	// Group key (skipped entirely for keyless aggregates like count(n)).
	var k string
	var keyVals []value.Value
	if hasKeys {
		var kb strings.Builder
		keyVals = make([]value.Value, 0, len(o.items))
		for _, it := range o.items {
			if it.key != nil {
				v, err := (*it.key)(ctx, r)
				if err != nil {
					return err
				}
				keyVals = append(keyVals, v)
				kb.WriteString(v.HashKey())
				kb.WriteByte('|')
			}
		}
		k = kb.String()
	}
	grp, ok := o.groups[k]
	if !ok {
		grp = &aggGroup{keys: keyVals, states: make([]*aggState, len(o.items))}
		for i := range grp.states {
			grp.states[i] = &aggState{}
		}
		o.groups[k] = grp
		o.order = append(o.order, k)
	}
	for i, it := range o.items {
		if it.agg == nil {
			continue
		}
		var v value.Value
		if it.agg.arg != nil {
			var err error
			v, err = it.agg.arg(ctx, r)
			if err != nil {
				return err
			}
		}
		grp.states[i].update(it.agg, v)
	}
	return nil
}

func (o *aggregateOp) hasKeys() bool {
	for _, it := range o.items {
		if it.key != nil {
			return true
		}
	}
	return false
}

func (o *aggregateOp) nextBatch(ctx *execCtx) (recordBatch, error) {
	if !o.primed {
		if err := o.consume(ctx); err != nil {
			return nil, err
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
		r := newRecord(o.visible)
		ki := 0
		for i, it := range o.items {
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

// distinctNode deduplicates records over the first `visible` slots, compacting
// batches in place.
type distinctNode struct {
	unary
	visible int
}

func (n *distinctNode) name() string { return "Distinct" }
func (n *distinctNode) args() string { return "" }

type distinctOp struct {
	*distinctNode
	child operation
	seen  map[string]bool
}

func (o *distinctOp) nextBatch(ctx *execCtx) (recordBatch, error) {
	if o.seen == nil {
		o.seen = map[string]bool{}
	}
	for {
		b, err := o.child.nextBatch(ctx)
		if err != nil || b == nil {
			return nil, err
		}
		out := b[:0]
		for _, r := range b {
			k := distinctKey(r, o.visible)
			if o.seen[k] {
				continue
			}
			o.seen[k] = true
			out = append(out, r)
		}
		if len(out) > 0 {
			return out, nil
		}
	}
}

// distinctKey builds the dedup key over a record's first `visible` slots.
func distinctKey(r record, visible int) string {
	var kb strings.Builder
	for i := 0; i < visible && i < len(r); i++ {
		kb.WriteString(r[i].HashKey())
		kb.WriteByte('|')
	}
	return kb.String()
}

// sortLess compares two records on hidden trailing key slots.
func sortLess(a, b record, visible int, descs []bool) bool {
	for k := range descs {
		va, vb := a[visible+k], b[visible+k]
		if va.Equals(vb) || (va.IsNull() && vb.IsNull()) {
			continue
		}
		less := value.OrderLess(va, vb)
		if descs[k] {
			return !less
		}
		return less
	}
	return false
}

// sortNode materialises its input and sorts on the hidden trailing key slots,
// truncating them from emitted records.
type sortNode struct {
	unary
	visible int
	descs   []bool
}

func (n *sortNode) name() string { return "Sort" }
func (n *sortNode) args() string { return fmt.Sprintf("%d keys", len(n.descs)) }

type sortOp struct {
	*sortNode
	child operation

	rows   []record
	pos    int
	primed bool
}

// prime materialises and sorts the input.
func (o *sortOp) prime(ctx *execCtx) error {
	for {
		b, err := o.child.nextBatch(ctx)
		if err != nil {
			return err
		}
		if b == nil {
			break
		}
		o.rows = append(o.rows, b...)
	}
	sort.SliceStable(o.rows, func(a, b int) bool {
		return sortLess(o.rows[a], o.rows[b], o.visible, o.descs)
	})
	o.primed = true
	return nil
}

func (o *sortOp) nextBatch(ctx *execCtx) (recordBatch, error) {
	if !o.primed {
		if err := o.prime(ctx); err != nil {
			return nil, err
		}
	}
	if o.pos >= len(o.rows) {
		return nil, nil
	}
	bs := ctx.batchSize()
	var out recordBatch
	for o.pos < len(o.rows) && len(out) < bs {
		out = append(out, o.rows[o.pos][:o.visible])
		o.pos++
	}
	return out, nil
}

// topNSortNode is the ORDER BY + LIMIT fusion: instead of materialising and
// sorting every input row, it keeps a bounded max-heap of the best
// skip+limit records, so a LIMIT 10 over a million rows costs O(n log 10)
// comparisons and ~10 live records. The planner substitutes it for sortOp
// whenever a LIMIT directly follows ORDER BY; SKIP rows are retained here
// and dropped by the skipOp above.
type topNSortNode struct {
	unary
	visible int
	descs   []bool
	skip    evalFn // nil when the projection has no SKIP
	limit   evalFn
	desc    string // EXPLAIN text for the bound
}

func (n *topNSortNode) name() string { return "TopNSort" }
func (n *topNSortNode) args() string {
	return fmt.Sprintf("%d keys | top %s", len(n.descs), n.desc)
}

type topNSortOp struct {
	*topNSortNode
	child operation

	h      topNHeap
	pos    int
	primed bool
}

// topNHeap is a max-heap under the sort order: the root is the worst
// retained record, evicted whenever a better one arrives.
type topNHeap struct {
	rows    []record
	visible int
	descs   []bool
}

func (h *topNHeap) Len() int { return len(h.rows) }
func (h *topNHeap) Less(a, b int) bool {
	return sortLess(h.rows[b], h.rows[a], h.visible, h.descs)
}
func (h *topNHeap) Swap(a, b int) { h.rows[a], h.rows[b] = h.rows[b], h.rows[a] }
func (h *topNHeap) Push(x any)    { h.rows = append(h.rows, x.(record)) }
func (h *topNHeap) Pop() any {
	n := len(h.rows)
	r := h.rows[n-1]
	h.rows = h.rows[:n-1]
	return r
}

func (o *topNSortNode) bound(ctx *execCtx) (int, error) {
	nv, err := o.limit(ctx, nil)
	if err != nil {
		return 0, err
	}
	n := nv.Int()
	if n < 0 {
		n = 0 // negative LIMIT emits nothing
	}
	if o.skip != nil {
		sv, err := o.skip(ctx, nil)
		if err != nil {
			return 0, err
		}
		// Clamp per term: a negative SKIP skips nothing (matching skipOp)
		// and must not eat into the LIMIT's share of the heap.
		if s := sv.Int(); s > 0 {
			n += s
		}
	}
	return int(n), nil
}

// prime drains the input through the bounded heap and sorts the survivors.
func (o *topNSortOp) prime(ctx *execCtx) error {
	keep, err := o.bound(ctx)
	if err != nil {
		return err
	}
	o.h = topNHeap{visible: o.visible, descs: o.descs}
	for {
		b, err := o.child.nextBatch(ctx)
		if err != nil {
			return err
		}
		if b == nil {
			break
		}
		if keep == 0 {
			continue // still drain the child for its side effects
		}
		for _, r := range b {
			if len(o.h.rows) < keep {
				heap.Push(&o.h, r)
				continue
			}
			if sortLess(r, o.h.rows[0], o.visible, o.descs) {
				o.h.rows[0] = r
				heap.Fix(&o.h, 0)
			}
		}
	}
	sort.SliceStable(o.h.rows, func(a, b int) bool {
		return sortLess(o.h.rows[a], o.h.rows[b], o.visible, o.descs)
	})
	o.primed = true
	return nil
}

func (o *topNSortOp) nextBatch(ctx *execCtx) (recordBatch, error) {
	if !o.primed {
		if err := o.prime(ctx); err != nil {
			return nil, err
		}
	}
	if o.pos >= len(o.h.rows) {
		return nil, nil
	}
	bs := ctx.batchSize()
	var out recordBatch
	for o.pos < len(o.h.rows) && len(out) < bs {
		out = append(out, o.h.rows[o.pos][:o.visible])
		o.pos++
	}
	return out, nil
}

// skipNode drops the first n records, slicing whole batches where possible.
type skipNode struct {
	unary
	n evalFn
}

func (n *skipNode) name() string { return "Skip" }
func (n *skipNode) args() string { return "" }

type skipOp struct {
	*skipNode
	child   operation
	remain  int64
	skipped bool
}

func (o *skipOp) nextBatch(ctx *execCtx) (recordBatch, error) {
	if !o.skipped {
		o.skipped = true
		nv, err := o.n(ctx, nil)
		if err != nil {
			return nil, err
		}
		o.remain = nv.Int()
		if o.remain < 0 {
			o.remain = 0 // negative SKIP skips nothing
		}
	}
	for {
		b, err := o.child.nextBatch(ctx)
		if err != nil || b == nil {
			return nil, err
		}
		if o.remain >= int64(len(b)) {
			o.remain -= int64(len(b))
			continue
		}
		b = b[o.remain:]
		o.remain = 0
		return b, nil
	}
}

// limitNode caps the record count, truncating the final batch.
type limitNode struct {
	unary
	n evalFn
}

func (n *limitNode) name() string { return "Limit" }
func (n *limitNode) args() string { return "" }

type limitOp struct {
	*limitNode
	child   operation
	limit   int64
	emitted int64
	primed  bool
}

func (o *limitOp) nextBatch(ctx *execCtx) (recordBatch, error) {
	if !o.primed {
		nv, err := o.n(ctx, nil)
		if err != nil {
			return nil, err
		}
		o.limit = nv.Int()
		o.primed = true
	}
	if o.emitted >= o.limit {
		return nil, nil
	}
	b, err := o.child.nextBatch(ctx)
	if err != nil || b == nil {
		return nil, err
	}
	if rem := o.limit - o.emitted; int64(len(b)) > rem {
		b = b[:rem]
	}
	o.emitted += int64(len(b))
	return b, nil
}

// unwindNode expands a list expression into one record per element, filling
// batches across input records.
type unwindNode struct {
	unary
	list  evalFn
	slot  int
	width int
}

func (n *unwindNode) name() string { return "Unwind" }
func (n *unwindNode) args() string { return "" }

type unwindOp struct {
	*unwindNode
	child operation

	in    batchPuller
	cur   record
	items []value.Value
	pos   int
	done  bool
}

func (o *unwindOp) nextBatch(ctx *execCtx) (recordBatch, error) {
	if o.done {
		return nil, nil
	}
	bs := ctx.batchSize()
	var out recordBatch
	for len(out) < bs {
		if o.cur != nil && o.pos < len(o.items) {
			r := o.cur.extended(o.width)
			r[o.slot] = o.items[o.pos]
			o.pos++
			out = append(out, r)
			continue
		}
		in, err := o.in.pull(ctx, o.child)
		if err != nil {
			return nil, err
		}
		if in == nil {
			o.done = true
			break
		}
		v, err := o.list(ctx, in)
		if err != nil {
			return nil, err
		}
		switch v.Kind {
		case value.KindArray:
			o.items = v.Array()
		case value.KindNull:
			o.items = nil
		default:
			o.items = []value.Value{v}
		}
		o.cur = in
		o.pos = 0
	}
	if len(out) == 0 {
		return nil, nil
	}
	return out, nil
}
