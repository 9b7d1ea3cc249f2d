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

// RowSource is the exported name of the kernels' stored-matrix operand: a
// *Matrix or a *DeltaMatrix, the latter read fold-free with its pending
// delta-plus and delta-minus rows. Its methods are unexported, so no other
// type implements it.
type RowSource interface{ rowSource }

// BFSHop is what a BFS step callback sees before each hop.
type BFSHop struct {
	Unreached int // vertices not reached yet: the pull kernel's candidates

	ws *bfsWorkspace
	a  rowSource
}

// FrontierDegree returns the summed out-degree of the frontier in the push
// operand — what a push hop scatters, direction-optimizing BFS's m_f — and
// stops summing once the total exceeds budget.
func (h *BFSHop) FrontierDegree(budget float64) float64 {
	sum := 0.0
	h.ws.frontier.iterate(func(k Index) bool {
		ac, _ := h.a.srcRow(k, &h.ws.row)
		sum += float64(len(ac))
		return sum <= budget
	})
	return sum
}

// bfsWorkspace is one search's pooled state. Every bitset is all-clear when
// the workspace leaves getBFSWorkspace.
type bfsWorkspace struct {
	reached, frontier, next bitset
	level                   []Index
	row                     rowScratch
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
func BFS(a, at RowSource, src Index, maxHops int,
	step func(h *BFSHop) (pull bool, err error), visit func(hop int, level []Index) error) error {
	if a == nil {
		return ErrNilObject
	}
	n, nc := a.srcDims()
	if n != nc {
		return dimErr("bfs: operand is %dx%d, want a square matrix", n, nc)
	}
	if at != nil {
		if r, c := at.srcDims(); r != n || c != n {
			return dimErr("bfs: transpose is %dx%d, want %dx%d", r, c, n, n)
		}
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
	nf, unreached := 1, n-1
	for hop := 1; maxHops < 0 || hop <= maxHops; hop++ {
		pull := false
		if step != nil {
			ws.hop = BFSHop{Unreached: unreached, ws: ws, a: a}
			var err error
			if pull, err = step(&ws.hop); err != nil {
				return err
			}
		}
		if pull && at != nil {
			nf = ws.pullHop(at, n)
		} else {
			nf = ws.pushHop(a)
		}
		if nf == 0 {
			return nil
		}
		unreached -= nf
		ws.level = ws.next.appendSet(ws.level[:0])
		if err := visit(hop, ws.level); err != nil {
			return err
		}
		ws.frontier, ws.next = ws.next, ws.frontier
		clear(ws.next)
	}
	return nil
}

// pushHop scatters the frontier's out-rows into next, marking each newly
// reached vertex, and returns the level size.
func (ws *bfsWorkspace) pushHop(a rowSource) int {
	nf := 0
	reached, next := ws.reached, ws.next
	ws.frontier.iterate(func(k Index) bool {
		ac, _ := a.srcRow(k, &ws.row)
		for _, j := range ac {
			if !reached.get(j) {
				reached.set(j)
				next.set(j)
				nf++
			}
		}
		return true
	})
	return nf
}

// pullHop finds every unreached vertex with an in-neighbour in the frontier,
// a bitset word of candidates at a time, and returns the level size.
func (ws *bfsWorkspace) pullHop(at rowSource, n int) int {
	nf := 0
	for wi := range ws.reached {
		cand := ^ws.reached[wi]
		if tail := uint(n) & 63; tail != 0 && wi == len(ws.reached)-1 {
			cand &= 1<<tail - 1
		}
		var hit uint64
		for cand != 0 {
			b := bits.TrailingZeros64(cand)
			cand &= cand - 1
			ac, _ := at.srcRow(wi<<6+b, &ws.row)
			for _, k := range ac {
				if ws.frontier.get(k) {
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
