package core

import (
	"fmt"

	"redisgraph/internal/value"
)

// propSetter computes one property value at create/set time.
type propSetter struct {
	key string
	fn  evalFn
}

// createNodeSpec creates (or reuses, when already bound) one pattern node.
type createNodeSpec struct {
	slot   int
	labels []string
	props  []propSetter
}

// createEdgeSpec creates one pattern edge between two pattern nodes.
type createEdgeSpec struct {
	slot   int // -1 when anonymous
	typ    string
	srcIdx int // index into the pattern's node list
	dstIdx int
	props  []propSetter
}

type createPatternSpec struct {
	nodes []createNodeSpec
	edges []createEdgeSpec
}

// createNode materialises CREATE patterns. It drains its child first so that
// scans never observe mid-query inserts, then creates per buffered record.
// The child drain runs under the shared lock (concurrently with readers);
// the buffered creates are applied in one exclusive mutation burst.
type createNode struct {
	unary
	patterns []createPatternSpec
	width    int
}

func (n *createNode) name() string { return "Create" }
func (n *createNode) args() string { return fmt.Sprintf("%d pattern(s)", len(n.patterns)) }

type createOp struct {
	*createNode
	child operation

	out    []record
	pos    int
	primed bool
}

func (o *createOp) nextBatch(ctx *execCtx) (recordBatch, error) {
	if !o.primed {
		var buf []record
		for {
			b, err := o.child.nextBatch(ctx)
			if err != nil {
				return nil, err
			}
			if b == nil {
				break
			}
			buf = append(buf, b...)
		}
		// One exclusive burst for all buffered creates; the deferred end
		// keeps the lock discipline consistent even if a property evaluator
		// or the store panics mid-burst.
		if err := func() error {
			ctx.mut.begin()
			defer ctx.mut.end()
			for _, r := range buf {
				r = r.extended(o.width)
				if err := applyCreate(ctx, r, o.patterns); err != nil {
					return err
				}
				o.out = append(o.out, r)
			}
			return nil
		}(); err != nil {
			return nil, err
		}
		o.primed = true
	}
	return drainBuffered(ctx, o.out, &o.pos), nil
}

// drainBuffered emits a materialised record buffer in batch-sized slices.
func drainBuffered(ctx *execCtx, rows []record, pos *int) recordBatch {
	if *pos >= len(rows) {
		return nil
	}
	end := *pos + ctx.batchSize()
	if end > len(rows) {
		end = len(rows)
	}
	out := recordBatch(rows[*pos:end])
	*pos = end
	return out
}

func applyCreate(ctx *execCtx, r record, patterns []createPatternSpec) error {
	for _, pat := range patterns {
		ids := make([]uint64, len(pat.nodes))
		for i, ns := range pat.nodes {
			if cur := r[ns.slot]; cur.Kind == value.KindNode {
				ids[i] = cur.ID // bound by an earlier clause
				continue
			}
			props := map[string]value.Value{}
			for _, ps := range ns.props {
				v, err := ps.fn(ctx, r)
				if err != nil {
					return err
				}
				if !v.IsNull() {
					props[ps.key] = v
				}
			}
			before := ctx.g.Schema.LabelCount()
			n := ctx.g.CreateNode(ns.labels, props)
			ctx.stats.LabelsAdded += ctx.g.Schema.LabelCount() - before
			ctx.stats.NodesCreated++
			ctx.stats.PropertiesSet += len(props)
			ids[i] = n.ID
			r[ns.slot] = value.NewNode(n.ID, n)
		}
		for _, es := range pat.edges {
			props := map[string]value.Value{}
			for _, ps := range es.props {
				v, err := ps.fn(ctx, r)
				if err != nil {
					return err
				}
				if !v.IsNull() {
					props[ps.key] = v
				}
			}
			e, err := ctx.g.CreateEdge(es.typ, ids[es.srcIdx], ids[es.dstIdx], props)
			if err != nil {
				return err
			}
			ctx.stats.RelationshipsCreated++
			ctx.stats.PropertiesSet += len(props)
			if es.slot >= 0 {
				r[es.slot] = value.NewEdge(e.ID, e)
			}
		}
	}
	return nil
}

// mergeNode runs its match sub-plan (its input); when that produces no
// records, the pattern is created instead (MATCH-or-CREATE). Like the other
// write operations it is eager: drain, at most one mutation burst, then emit.
type mergeNode struct {
	unary
	pattern createPatternSpec
	width   int
}

func (n *mergeNode) name() string { return "Merge" }
func (n *mergeNode) args() string { return "" }

type mergeOp struct {
	*mergeNode
	matchPlan operation

	out    []record
	pos    int
	primed bool
}

func (o *mergeOp) nextBatch(ctx *execCtx) (recordBatch, error) {
	if !o.primed {
		for {
			b, err := o.matchPlan.nextBatch(ctx)
			if err != nil {
				return nil, err
			}
			if b == nil {
				break
			}
			for _, r := range b {
				o.out = append(o.out, r.extended(o.width))
			}
		}
		if len(o.out) == 0 {
			r := newRecord(o.width)
			if err := func() error {
				ctx.mut.begin()
				defer ctx.mut.end()
				return applyCreate(ctx, r, []createPatternSpec{o.pattern})
			}(); err != nil {
				return nil, err
			}
			o.out = append(o.out, r)
		}
		o.primed = true
	}
	return drainBuffered(ctx, o.out, &o.pos), nil
}

// deleteNode drains its input, then deletes the referenced entities (edges
// first; node deletion cascades to incident edges), then emits the records.
type deleteNode struct {
	unary
	exprs  []evalFn
	detach bool
}

func (n *deleteNode) name() string { return "Delete" }
func (n *deleteNode) args() string { return "" }

type deleteOp struct {
	*deleteNode
	child operation

	out    []record
	pos    int
	primed bool
}

func (o *deleteOp) nextBatch(ctx *execCtx) (recordBatch, error) {
	if !o.primed {
		var nodeIDs []uint64
		var edgeIDs []uint64
		for {
			b, err := o.child.nextBatch(ctx)
			if err != nil {
				return nil, err
			}
			if b == nil {
				break
			}
			for _, r := range b {
				for _, f := range o.exprs {
					v, err := f(ctx, r)
					if err != nil {
						return nil, err
					}
					switch v.Kind {
					case value.KindNode:
						nodeIDs = append(nodeIDs, v.ID)
					case value.KindEdge:
						edgeIDs = append(edgeIDs, v.ID)
					case value.KindNull:
					default:
						return nil, fmt.Errorf("DELETE expects nodes or relationships, got %s", v.Kind)
					}
				}
				o.out = append(o.out, r)
			}
		}
		if err := func() error {
			ctx.mut.begin()
			defer ctx.mut.end()
			for _, id := range edgeIDs {
				if ctx.g.DeleteEdge(id) {
					ctx.stats.RelationshipsDeleted++
				}
			}
			for _, id := range nodeIDs {
				if n, ok := ctx.g.GetNode(id); ok {
					if !o.detach && ctx.g.Adjacency().RowDegree(int(n.ID))+ctx.g.TAdjacency().RowDegree(int(n.ID)) > 0 {
						return fmt.Errorf("cannot delete node %d with relationships without DETACH", id)
					}
				}
				if edges, ok := ctx.g.DeleteNode(id); ok {
					ctx.stats.NodesDeleted++
					ctx.stats.RelationshipsDeleted += edges
				}
			}
			return nil
		}(); err != nil {
			return nil, err
		}
		o.primed = true
	}
	return drainBuffered(ctx, o.out, &o.pos), nil
}

// setItemSpec is one SET assignment.
type setItemSpec struct {
	slot int
	key  string
	fn   evalFn
}

// setNode applies property assignments. Like the other write operations it is
// eager: the child is drained first and every assignment lands in one
// exclusive mutation burst before any record is emitted, so downstream
// operations observe the same post-SET state at every batch size (the old
// streaming setOp made write visibility depend on pipeline granularity).
type setNode struct {
	unary
	items []setItemSpec
}

func (n *setNode) name() string { return "Set" }
func (n *setNode) args() string { return fmt.Sprintf("%d assignment(s)", len(n.items)) }

type setOp struct {
	*setNode
	child operation

	out    []record
	pos    int
	primed bool
}

func (o *setOp) nextBatch(ctx *execCtx) (recordBatch, error) {
	if !o.primed {
		for {
			b, err := o.child.nextBatch(ctx)
			if err != nil {
				return nil, err
			}
			if b == nil {
				break
			}
			o.out = append(o.out, b...)
		}
		if err := func() error {
			ctx.mut.begin()
			defer ctx.mut.end()
			for _, r := range o.out {
				if err := o.apply(ctx, r); err != nil {
					return err
				}
			}
			return nil
		}(); err != nil {
			return nil, err
		}
		o.primed = true
	}
	return drainBuffered(ctx, o.out, &o.pos), nil
}

func (o *setOp) apply(ctx *execCtx, r record) error {
	for _, it := range o.items {
		v, err := it.fn(ctx, r)
		if err != nil {
			return err
		}
		target := r[it.slot]
		switch target.Kind {
		case value.KindNode:
			if err := ctx.g.SetNodeProperty(target.ID, it.key, v); err != nil {
				return err
			}
			ctx.stats.PropertiesSet++
		case value.KindEdge:
			if err := ctx.g.SetEdgeProperty(target.ID, it.key, v); err != nil {
				return err
			}
			ctx.stats.PropertiesSet++
		case value.KindNull:
		default:
			return fmt.Errorf("SET expects a node or relationship, got %s", target.Kind)
		}
	}
	return nil
}
