package core

import (
	"cmp"
	"strings"

	"redisgraph/internal/graph"
	"redisgraph/internal/value"
)

// Vectorized predicate evaluation over the property store.
//
// Interpreted, a property comparison (`n.x > 5`) evaluates per row: resolve
// the attribute name, box the column cell into a value.Value, run
// compareValues — the path every residual filter takes, and under noPushdown
// the differential reference for this file. A pushed-down predicate is
// instead compiled once into a colPred — a mode tag plus an unboxed target —
// and run as one tight loop per mode over the column's flat array: the mode
// picks the loop once per run, the operator is one lookup into cmpOutcome
// per row, and value.Value is touched only for the rare overflow
// (mixed-type) rows.
//
// Semantics are pinned to compareValues exactly:
//   - a row without the attribute compares as null and is dropped (any op);
//   - numeric rows compare exactly, as value.Compare does: an int row with
//     an int target as int64, a float row with a target float64 holds
//     exactly as float64 (NaN compares equal to everything numeric), and
//     any other pair through value.CompareIntFloat;
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
	predInt    predMode = iota // int column vs int target
	predIntF                   // int column vs any other numeric target
	predFloat                  // float column vs a target float64 holds exactly
	predFloatI                 // float column vs an int target float64 does not hold
	predStrEq                  // string column, = or <> against an interned target
	predStrOrd                 // string column, ordering against the target
	predKeep                   // <> against a target no typed row can equal: every typed row passes
	predDrop                   // any other op against such a target: no typed row passes
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

// cmpOutcome is each operator's verdict on a three-way comparison: a row
// whose cell compares c ∈ {-1, 0, 1} against the target passes op when
// cmpOutcome[op][c+1] is set. Every typed comparison in this file goes
// through it.
var cmpOutcome = [...][3]bool{
	cmpEq: {false, true, false},
	cmpNe: {true, false, true},
	cmpLt: {true, false, false},
	cmpLe: {true, true, false},
	cmpGt: {false, false, true},
	cmpGe: {false, true, true},
}

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
	wantI int64       // predInt/predFloatI target
	wantF float64     // predIntF/predFloat target
	wantS string      // predStrOrd target
	sid   uint32      // predStrEq target
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
		out.wantI, out.wantF = want.Int(), want.Float()
		switch {
		case !want.IsNumeric():
			out.mode = mismatchMode(out.op)
		case col.Kind() == graph.ColInt && want.Kind == value.KindInt:
			out.mode = predInt
		case col.Kind() == graph.ColInt:
			out.mode = predIntF
		case value.NewFloat(out.wantF).Equals(want):
			out.mode = predFloat // a float, or an int its float64 reading equals
		default:
			out.mode = predFloatI
		}
	case graph.ColString:
		if want.Kind != value.KindString {
			out.mode = mismatchMode(out.op)
			break
		}
		switch out.op {
		case cmpEq, cmpNe:
			sid, ok := col.StringID(want.Str())
			out.sid, out.mode = sid, predStrEq
			if !ok {
				// No row holds the target, so every typed row compares
				// unequal: <> keeps them all, = none.
				out.mode = mismatchMode(out.op)
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

// probe evaluates the predicate for one node ID: filter over a one-row
// selection, so a traversal's destination mask and a scan share one
// comparison rule.
func (p *colPred) probe(id uint64) bool {
	one := [1]uint64{id}
	return len(p.filter(one[:])) == 1
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

// filter compacts ids in place to the rows passing the predicate, keeping
// their order. The mode picks one loop for the whole run; inside it a typed
// row costs a presence-bit test, an array read, a three-way compare and a
// cmpOutcome lookup, and is written back unconditionally with the verdict
// added to the output length. A row without a typed cell goes through
// overflowKeeps.
func (p *colPred) filter(ids []uint64) []uint64 {
	if p.col == nil {
		return ids[:0]
	}
	keep := &cmpOutcome[p.op]
	n := 0
	switch p.mode {
	case predInt:
		pres, xs := p.col.Ints()
		for _, id := range ids {
			if pres.Get(int(id)) {
				ids[n] = id
				n += b2i(keep[cmp.Compare(xs[id], p.wantI)+1])
			} else if p.overflowKeeps(id) {
				ids[n] = id
				n++
			}
		}
	case predIntF:
		pres, xs := p.col.Ints()
		for _, id := range ids {
			if pres.Get(int(id)) {
				ids[n] = id
				n += b2i(keep[value.CompareIntFloat(xs[id], p.wantF)+1])
			} else if p.overflowKeeps(id) {
				ids[n] = id
				n++
			}
		}
	case predFloat:
		pres, xs := p.col.Floats()
		for _, id := range ids {
			if pres.Get(int(id)) {
				ids[n] = id
				n += b2i(keep[cmpFloat(xs[id], p.wantF)+1])
			} else if p.overflowKeeps(id) {
				ids[n] = id
				n++
			}
		}
	case predFloatI:
		pres, xs := p.col.Floats()
		for _, id := range ids {
			if pres.Get(int(id)) {
				ids[n] = id
				n += b2i(keep[1-value.CompareIntFloat(p.wantI, xs[id])])
			} else if p.overflowKeeps(id) {
				ids[n] = id
				n++
			}
		}
	case predStrEq:
		pres, sids := p.col.StrIDs()
		for _, id := range ids {
			if pres.Get(int(id)) {
				ids[n] = id
				n += b2i(keep[1+b2i(sids[id] != p.sid)])
			} else if p.overflowKeeps(id) {
				ids[n] = id
				n++
			}
		}
	case predStrOrd:
		for _, id := range ids {
			if p.col.Present(id) {
				ids[n] = id
				n += b2i(keep[strings.Compare(p.col.StrAt(id), p.wantS)+1])
			} else if p.overflowKeeps(id) {
				ids[n] = id
				n++
			}
		}
	default: // predKeep, predDrop
		typed := b2i(p.mode == predKeep)
		for _, id := range ids {
			if p.col.Present(id) {
				ids[n] = id
				n += typed
			} else if p.overflowKeeps(id) {
				ids[n] = id
				n++
			}
		}
	}
	return ids[:n]
}

// overflowKeeps decides a row without a typed cell: an overflow value goes
// through the boxed compareValues itself, and a row without the attribute
// compares as null and is dropped under every operator.
func (p *colPred) overflowKeeps(id uint64) bool {
	v, ok := p.col.OverflowAt(id)
	return ok && cmpKeep(cmpOpText[p.op], v, p.wantV)
}

// cmpFloat is value.Compare's three-way outcome for two floats: strict < and
// > first, everything else (NaN pairs included) compares equal.
func cmpFloat(a, b float64) int { return b2i(a > b) - b2i(a < b) }

// b2i is 1 for true and 0 for false, without a branch.
func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}
