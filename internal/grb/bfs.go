package grb

import (
	"math/bits"
	"sync"
)

// This file holds the structural BFS kernel behind every k-hop search: the
// executor's variable-length traversal (and its pushed-down count). The frontier, the reached set and the
// next level are word-packed bitsets from a pool, so a search allocates
// nothing per hop and nothing per reached vertex — the GraphBLAS frontier
// reduction without a vector per hop.
//
// Both hop kernels read their operand in place, with no merged copy: a clean
// row is its main CSR span, and a dirty row (one the delta table holds) its
// main span less the zombies, then its delta-plus columns — unordered, which
// a scatter or a probe does not mind. Each checks once per hop whether the
// operand has anything pending, so a clean operand pays no table lookup per
// row.

// BFSHop is what a BFS step callback sees before each hop: the two sides of
// direction-optimizing BFS's choice.
type BFSHop struct {
	// Unreached counts the vertices not reached yet that a pull hop would
	// probe. With a transpose these stop at the last vertex that may have
	// an in-edge, so the dimension's padding past the highest node ID is
	// not counted.
	Unreached int
	// UnreachedIn counts the unreached vertices' in-edges (their transpose
	// rows' entries, direction-optimizing BFS's m_u): the most a pull hop
	// scans. It is zero when BFS has no transpose.
	UnreachedIn int

	ws *bfsWorkspace
	a  *DeltaMatrix
}

// FrontierDegree returns the summed out-degree of the frontier in the push
// operand — what a push hop scatters, direction-optimizing BFS's m_f — and
// stops summing once the total exceeds budget.
func (h *BFSHop) FrontierDegree(budget float64) float64 {
	clean := h.a.Pending() == 0
	sum := 0.0
	h.ws.frontier.iterate(func(k Index) bool {
		sum += float64(h.a.rowLen(k, clean))
		return sum <= budget
	})
	return sum
}

// bfsWorkspace is one search's pooled state. Every bitset is all-clear when
// the workspace leaves getBFSWorkspace.
type bfsWorkspace struct {
	reached, frontier, next bitset
	level                   []Index
	hop                     BFSHop
}

var bfsPool = sync.Pool{New: func() any { return new(bfsWorkspace) }}

func getBFSWorkspace(n int) *bfsWorkspace {
	ws := bfsPool.Get().(*bfsWorkspace)
	words := (n + 63) / 64
	ws.reached = clearedBitset(ws.reached, words)
	ws.frontier = clearedBitset(ws.frontier, words)
	ws.next = clearedBitset(ws.next, words)
	return ws
}

func putBFSWorkspace(ws *bfsWorkspace) {
	ws.hop = BFSHop{} // drop the operand reference
	bfsPool.Put(ws)
}

func clearedBitset(b bitset, words int) bitset {
	if cap(b) < words {
		return make(bitset, words)
	}
	b = b[:words]
	clear(b)
	return b
}

// BFS runs a level-synchronous breadth-first search from src over the square
// operand a, whose row k lists k's out-neighbours. at, when non-nil, is a's
// transpose (row j lists j's in-neighbours) and enables pull hops. maxHops < 0
// searches until no new vertex is reached.
//
// step, when non-nil, runs before every hop: it chooses pull (honoured only
// when at is non-nil) or push, and an error it returns stops the search and is
// returned by BFS. A push hop scatters the out-rows of the frontier; a pull hop
// probes every unreached vertex's in-row for a frontier member, stopping at
// the first — both reach the same level.
//
// visit receives level 0 (the source alone), then each newly reached,
// non-empty level, in ascending vertex order. The slice is reused: it is valid
// only during the call. An error visit returns stops the search and is
// returned by BFS.
//
// The search runs on the calling goroutine.
func BFS(a, at *DeltaMatrix, src Index, maxHops int,
	step func(h *BFSHop) (pull bool, err error), visit func(hop int, level []Index) error) error {
	if a == nil {
		return ErrNilObject
	}
	n := a.nrows
	if a.ncols != n {
		return dimErr("bfs: operand is %dx%d, want a square matrix", n, a.ncols)
	}
	if at != nil && (at.nrows != n || at.ncols != n) {
		return dimErr("bfs: transpose is %dx%d, want %dx%d", at.nrows, at.ncols, n, n)
	}
	if src < 0 || src >= n {
		return boundsErr("bfs: source %d, dimension %d", src, n)
	}
	ws := getBFSWorkspace(n)
	defer putBFSWorkspace(ws)

	ws.reached.set(src)
	ws.frontier.set(src)
	ws.level = append(ws.level[:0], src)
	if err := visit(0, ws.level); err != nil {
		return err
	}
	// Vertices from span on have no in-edge: no hop reaches them, and a pull
	// hop does not probe them.
	span, unreachedIn, atClean := n, 0, false
	if at != nil {
		atClean = at.Pending() == 0
		span = at.rowSpan()
		unreachedIn = at.NVals() - at.rowLen(src, atClean)
	}
	nf, unreached := 1, span
	if src < span {
		unreached--
	}
	for hop := 1; maxHops < 0 || hop <= maxHops; hop++ {
		pull := false
		if step != nil {
			ws.hop = BFSHop{Unreached: unreached, UnreachedIn: unreachedIn, ws: ws, a: a}
			var err error
			if pull, err = step(&ws.hop); err != nil {
				return err
			}
		}
		if pull && at != nil {
			nf = ws.pullHop(at, span)
		} else {
			nf = ws.pushHop(a)
		}
		if nf == 0 {
			return nil
		}
		unreached -= nf
		ws.level = ws.next.appendSet(ws.level[:0])
		if at != nil {
			for _, j := range ws.level {
				unreachedIn -= at.rowLen(j, atClean)
			}
		}
		if err := visit(hop, ws.level); err != nil {
			return err
		}
		ws.frontier, ws.next = ws.next, ws.frontier
		clear(ws.next)
	}
	return nil
}

// pushHop ORs the frontier's out-rows into next without testing a bit, then,
// a word at a time, drops the reached vertices from next and adds the rest
// to reached. It returns the level size.
func (ws *bfsWorkspace) pushHop(a *DeltaMatrix) int {
	clean := a.Pending() == 0
	rp, ci := a.main.rowPtr, a.main.colInd
	next := ws.next
	for wi, w := range ws.frontier {
		for ; w != 0; w &= w - 1 {
			k := wi<<6 + bits.TrailingZeros64(w)
			if !clean {
				if r := a.row(k); r != nil {
					a.setLive(k, r, next)
					continue
				}
			}
			for _, j := range ci[rp[k]:rp[k+1]] {
				next.set(j)
			}
		}
	}
	nf := 0
	for wi, w := range next {
		w &^= ws.reached[wi]
		next[wi] = w
		ws.reached[wi] |= w
		nf += bits.OnesCount64(w)
	}
	return nf
}

// pullHop finds every unreached vertex below span with an in-neighbour in
// the frontier, a bitset word of candidates at a time, and returns the level
// size.
func (ws *bfsWorkspace) pullHop(at *DeltaMatrix, span int) int {
	clean := at.Pending() == 0
	rp, ci := at.main.rowPtr, at.main.colInd
	frontier := ws.frontier
	nf := 0
	words := (span + 63) / 64
	for wi := 0; wi < words; wi++ {
		cand := ^ws.reached[wi]
		if tail := uint(span) & 63; tail != 0 && wi == words-1 {
			cand &= 1<<tail - 1
		}
		var hit uint64
		for ; cand != 0; cand &= cand - 1 {
			b := bits.TrailingZeros64(cand)
			j := wi<<6 + b
			if !clean {
				if r := at.row(j); r != nil {
					if at.anyLive(j, r, frontier) {
						hit |= 1 << uint(b)
					}
					continue
				}
			}
			for _, k := range ci[rp[j]:rp[j+1]] {
				if frontier.get(k) {
					hit |= 1 << uint(b)
					break
				}
			}
		}
		ws.next[wi] = hit
		ws.reached[wi] |= hit
		nf += bits.OnesCount64(hit)
	}
	return nf
}
