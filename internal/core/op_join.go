package core

import (
	"fmt"

	"redisgraph/internal/value"
)

// joinNode is the hash join the planner substitutes for a cartesian rescan
// when two otherwise-disconnected pattern components are bridged only by a
// WHERE equality (`a.k = b.k`). The build child — the side with the smaller
// estimated cardinality — is drained fully into an in-memory hash table on
// first pull; probe records then stream through batch-at-a-time, each
// emitting one joined record per matching build row.
//
// Key semantics follow compareValues exactly: records whose key evaluates
// to null never join (the equality is undefined), and hash buckets are only
// a pre-filter — every candidate pair is re-checked through compareValues,
// so cross-type numeric equality (1 = 1.0) and hash collisions resolve the
// same way a residual filter would.
type joinNode struct {
	probe planNode
	build planNode
	// probeKey/buildKey evaluate the bridge equality's two sides against
	// records of their respective inputs.
	probeKey evalFn
	buildKey evalFn
	// buildSlots are the record slots the build side populates; matches copy
	// them into the probe record extended to the plan width.
	buildSlots []int
	width      int
	desc       string // EXPLAIN annotation (bridge + build/probe estimates)
}

func (n *joinNode) name() string         { return "HashJoin" }
func (n *joinNode) args() string         { return n.desc }
func (n *joinNode) children() []planNode { return []planNode{n.probe, n.build} }

type joinOp struct {
	*joinNode
	probe operation
	build operation

	table map[string][]joinEntry
	built bool
	queue recordBatch
	done  bool
	arena recordArena
}

// joinEntry is one build-side row under its evaluated key. The key value is
// kept alongside the record so the probe re-check does not re-evaluate the
// build expression.
type joinEntry struct {
	key value.Value
	rec record
}

func (o *joinOp) nextBatch(ctx *execCtx) (recordBatch, error) {
	if !o.built {
		if err := o.buildTable(ctx); err != nil {
			return nil, err
		}
	}
	bs := ctx.batchSize()
	for {
		if len(o.queue) > 0 {
			n := min(bs, len(o.queue))
			out := o.queue[:n]
			o.queue = o.queue[n:]
			return out, nil
		}
		if o.done {
			return nil, nil
		}
		in, err := o.probe.nextBatch(ctx)
		if err != nil {
			return nil, err
		}
		if in == nil {
			o.done = true
			continue
		}
		if ctx.expired() {
			return nil, fmt.Errorf("core: query timed out during hash-join probe")
		}
		for _, pr := range in {
			pv, err := o.probeKey(ctx, pr)
			if err != nil {
				return nil, err
			}
			if pv.IsNull() {
				continue
			}
			for _, ent := range o.table[pv.HashKey()] {
				if !compareValues("=", pv, ent.key).IsTrue() {
					continue
				}
				r := o.arena.extended(pr, o.width)
				for _, s := range o.buildSlots {
					if s < len(ent.rec) {
						r[s] = ent.rec[s]
					}
				}
				o.queue = append(o.queue, r)
			}
		}
	}
}

// buildTable drains the build child into the hash table. Rows with null
// keys are dropped here — they can never satisfy the bridge equality.
func (o *joinOp) buildTable(ctx *execCtx) error {
	o.table = map[string][]joinEntry{}
	for {
		b, err := o.build.nextBatch(ctx)
		if err != nil {
			return err
		}
		if b == nil {
			break
		}
		if ctx.expired() {
			return fmt.Errorf("core: query timed out during hash-join build")
		}
		for _, r := range b {
			k, err := o.buildKey(ctx, r)
			if err != nil {
				return err
			}
			if k.IsNull() {
				continue
			}
			hk := k.HashKey()
			o.table[hk] = append(o.table[hk], joinEntry{key: k, rec: r})
		}
	}
	o.built = true
	return nil
}
