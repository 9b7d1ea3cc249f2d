package core

import (
	"strings"

	"redisgraph/internal/graph"
	"redisgraph/internal/grb"
	"redisgraph/internal/value"
)

// Vectorized predicate evaluation over the property store.
//
// Interpreted, a property comparison (`n.x > 5`) evaluates per row: resolve
// the attribute name, box the column cell into a value.Value, run
// compareValues — the path every residual filter takes, and under NoPushdown
// the differential reference for this file. A pushed-down predicate is
// instead compiled once into a colPred — a mode tag plus an unboxed target —
// and run as a tight typed loop over the column's flat array, touching
// value.Value only for the rare overflow (mixed-type) rows.
//
// Semantics are pinned to compareValues exactly:
//   - a row without the attribute compares as null and is dropped (any op);
//   - numeric columns compare as float64 regardless of int/float mix, with
//     compareValues' three-way outcome (NaN compares equal to everything
//     numeric, matching value.Compare's default branch);
//   - string = / <> reduce to interned-ID equality, orderings to
//     strings.Compare;
//   - a kind mismatch between a typed row and the target keeps the row for
//     <> and drops it for every other operator (compareValues' incomparable
//     branch);
//   - overflow rows fall back to the boxed compareValues itself.
//
// Every predicate compiles. A null target, an unknown attribute or an
// attribute no node ever stored compiles to "no row passes" (col == nil):
// compareValues yields null for each of them on every row. A column that was
// never promoted to a typed layout has an empty presence bitmap, so probe
// falls through to its boxed overflow branch for every row.
//
// Validity. A colPred bakes in what it resolved at compile time: the column
// pointer (or its absence), the column kind, the interned ID of a string
// target. Node-property writes can change all three, so a colPred — and
// anything filtered through it — is valid only for the graph.PropVersion it
// was compiled at. Read-only and write plans hold to that the same way:
// compiled filters and masks are memoised on storeVersion (connectivity
// epoch + property version), and a scan pass never straddles a write,
// because every write operation is eager — it drains its child completely,
// applies one mutation burst, then emits. A burst below a scan therefore runs
// inside the scan's first pull of its child and nowhere later; a burst above
// it runs only once the scan is exhausted. What each consumer owes in return
// is to compile after that pull, not before it: the scans compile in the one
// place they prime a pass (scanPass.prime), the traversals after gathering
// their input batch. From there to the end of the pass no burst can run, so
// the candidate list the pass filtered stays true.

type predMode uint8

const (
	predNum    predMode = iota // numeric column vs numeric target
	predStrEq                  // string column, = against an interned target
	predStrNe                  // string column, <> against an interned target
	predStrOrd                 // string column, ordering against the target
	predKeep                   // kind mismatch under <>: every typed row passes
	predDrop                   // kind mismatch otherwise: no typed row passes
)

// cmpOp is a comparison operator resolved once at compile time, so the
// per-row loops switch on a small integer instead of comparing strings.
type cmpOp uint8

const (
	cmpEq cmpOp = iota
	cmpNe
	cmpLt
	cmpLe
	cmpGt
	cmpGe
)

var cmpOpText = [...]string{"=", "<>", "<", "<=", ">", ">="}

// parseCmpOp maps an operator's text to its cmpOp; empty means =.
func parseCmpOp(op string) cmpOp {
	for i, t := range cmpOpText {
		if t == op {
			return cmpOp(i)
		}
	}
	return cmpEq
}

// colPred is one pushed predicate compiled against a typed column.
type colPred struct {
	col   *graph.Column
	mode  predMode
	op    cmpOp
	wantF float64 // predNum target
	wantS string  // predStrOrd target
	sid   uint32  // predStrEq/predStrNe target (valid when sidOK)
	sidOK bool
	wantV value.Value // boxed target, for overflow rows
}

// storeVersion identifies the graph state compiled, record-free predicates
// were resolved against: label masks and index postings follow the
// connectivity epoch and the property version, colPreds the latter.
type storeVersion struct{ epoch, props uint64 }

func (ctx *execCtx) storeVersion() storeVersion {
	return storeVersion{ctx.g.Epoch(), ctx.g.PropVersion()}
}

// compileColPred resolves one pushed comparison `n.attr op want`, its target
// already evaluated, against the node store.
func compileColPred(ctx *execCtx, attr, op string, want value.Value) colPred {
	out := colPred{op: parseCmpOp(op), wantV: want}
	if want.IsNull() {
		return out // compareValues(anything, null) is null under every operator
	}
	aid, ok := ctx.g.Schema.AttrID(attr)
	if !ok {
		return out
	}
	col := ctx.g.PropColumn(aid)
	if col == nil {
		return out
	}
	out.col = col
	switch col.Kind() {
	case graph.ColInt, graph.ColFloat:
		if want.IsNumeric() {
			out.mode = predNum
			out.wantF = want.Float()
		} else {
			out.mode = mismatchMode(out.op)
		}
	case graph.ColString:
		if want.Kind != value.KindString {
			out.mode = mismatchMode(out.op)
			break
		}
		switch out.op {
		case cmpEq, cmpNe:
			sid, ok := col.StringID(want.Str())
			out.sid, out.sidOK = sid, ok
			if out.op == cmpEq {
				out.mode = predStrEq
			} else {
				out.mode = predStrNe
			}
		default:
			out.mode = predStrOrd
			out.wantS = want.Str()
		}
	}
	return out
}

// mismatchMode encodes compareValues' incomparable-kinds branch for typed
// rows: both sides non-null, kinds incompatible → true only under <>.
func mismatchMode(op cmpOp) predMode {
	if op == cmpNe {
		return predKeep
	}
	return predDrop
}

// probe evaluates the predicate for one node ID, mirroring
// cmpKeep(op, <column value>, want). The presence bitmap is checked first —
// a typed row is never also in overflow, so the common case costs a bitmap
// test plus an array read, and the overflow map is only consulted for rows
// without a typed cell.
func (p *colPred) probe(id uint64) bool {
	if p.col == nil {
		return false
	}
	if p.col.Present(id) {
		switch p.mode {
		case predNum:
			return numKeep(p.op, p.col.NumAt(id), p.wantF)
		case predStrEq:
			return p.sidOK && p.col.StrIDAt(id) == p.sid
		case predStrNe:
			return !p.sidOK || p.col.StrIDAt(id) != p.sid
		case predStrOrd:
			return ordKeep(p.op, strings.Compare(p.col.StrAt(id), p.wantS))
		case predKeep:
			return true
		default: // predDrop
			return false
		}
	}
	if v, ok := p.col.OverflowAt(id); ok {
		return cmpKeep(cmpOpText[p.op], v, p.wantV)
	}
	return false // absent ≡ null: dropped under every operator
}

// numKeep applies op to value.Compare's numeric three-way outcome: strict
// < / > first, everything else (including NaN pairs) compares equal.
func numKeep(op cmpOp, a, b float64) bool {
	c := 0
	switch {
	case a < b:
		c = -1
	case a > b:
		c = 1
	}
	return ordKeep(op, c)
}

func ordKeep(op cmpOp, c int) bool {
	switch op {
	case cmpEq:
		return c == 0
	case cmpNe:
		return c != 0
	case cmpLt:
		return c < 0
	case cmpLe:
		return c <= 0
	case cmpGt:
		return c > 0
	default: // cmpGe
		return c >= 0
	}
}

// candidates appends, in ascending order, every node ID that could pass the
// predicate: the IDs holding any value in its column. Rows without the
// attribute compare as null, so an all-node scan starts from this list
// instead of sweeping [0, Dim).
func (p *colPred) candidates(dst []uint64) []uint64 {
	if p.col == nil {
		return dst
	}
	return p.col.AppendIDs(dst)
}

// colFilterGrain is the minimum candidate rows per morsel for the parallel
// selection loop; a probe is a couple of array reads, so small lists run
// inline.
const colFilterGrain = 512

// filter compacts ids in place to the rows passing the predicate, keeping
// their order. A typed row of a numeric column is decided inline; every
// other row goes through probe.
func (p *colPred) filter(ids []uint64) []uint64 {
	out := ids[:0]
	if p.col == nil {
		return out
	}
	for _, id := range ids {
		if p.mode == predNum && p.col.Present(id) {
			if numKeep(p.op, p.col.NumAt(id), p.wantF) {
				out = append(out, id)
			}
		} else if p.probe(id) {
			out = append(out, id)
		}
	}
	return out
}

// filterIDsColumnar compacts ids in place to the rows passing every
// predicate, preserving ascending order: each predicate in turn filters the
// survivors of the one before. Large candidate lists fan out over the morsel
// pool in contiguous ranges, each compacted within its own range and stitched
// back in part order, so the result is deterministic regardless of
// scheduling. The caller must own the ids slice (never an index posting or
// another shared backing array).
func filterIDsColumnar(ctx *execCtx, preds []colPred, ids []uint64) []uint64 {
	filter := func(ids []uint64) []uint64 {
		for i := range preds {
			ids = preds[i].filter(ids)
		}
		return ids
	}
	parts := grb.PartitionParts(len(ids), ctx.threads, colFilterGrain)
	if parts == 1 {
		return filter(ids)
	}
	kept := make([][]uint64, parts)
	grb.ParallelRanges(ctx.sched, len(ids), ctx.threads, colFilterGrain, func(part, lo, hi int) {
		kept[part] = filter(ids[lo:hi])
	})
	// Each part's survivors start at or after the end of those before them,
	// so the in-place stitch only ever copies forward.
	out := ids[:0]
	for _, k := range kept {
		out = append(out, k...)
	}
	return out
}
