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
// The operand is a list of matrices whose union is the graph BFS walks —
// one relation matrix for a typed directed hop, R and Rᵀ for an undirected
// one, one per type for [:A|B] or an untyped hop — and both hop kernels OR
// the parts in place instead of reading a materialised union: a push hop
// scatters each part's rows into one bitset, and a pull hop probes each part
// for the candidates the earlier parts did not reach. Each part is read in
// place, with no merged copy: a clean row is its main CSR span, and a dirty
// row (one the delta table holds) its main span less the zombies, then its
// delta-plus columns — unordered, which a scatter or a probe does not mind.
// Each hop checks once per part whether it has anything pending, so a clean
// part pays no table lookup per row.

// BFSHop is what a BFS step callback sees before each hop: the two sides of
// direction-optimizing BFS's choice.
type BFSHop struct {
	// Unreached counts the vertices not reached yet that a pull hop would
	// probe. With a transpose these stop at the last vertex that may have
	// an in-edge, so the dimension's padding past the highest node ID is
	// not counted.
	Unreached int
	// UnreachedIn counts the unreached vertices' in-edges (their transpose
	// rows' entries summed over the parts, direction-optimizing BFS's m_u):
	// the most a pull hop scans. It is zero when BFS has no transpose.
	UnreachedIn int

	ws *bfsWorkspace
	a  []*DeltaMatrix
}

// FrontierDegree returns the frontier's out-degree summed over the push
// operand's parts — what a push hop scatters, direction-optimizing BFS's
// m_f — and stops summing once the total exceeds budget.
func (h *BFSHop) FrontierDegree(budget float64) float64 {
	sum := 0.0
	for _, a := range h.a {
		clean := a.Pending() == 0
		h.ws.frontier.iterate(func(k Index) bool {
			sum += float64(a.rowLen(k, clean))
			return sum <= budget
		})
		if sum > budget {
			break
		}
	}
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
	ws.hop = BFSHop{} // drop the operand references
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

// BFS runs a level-synchronous breadth-first search from src over the union
// of the square parts of a, whose row k lists k's out-neighbours. at, when
// not empty, lists the parts of a's transpose (row j lists j's
// in-neighbours; the parts need not pair up with a's) and enables pull hops.
// maxHops < 0 searches until no new vertex is reached.
//
// step, when non-nil, runs before every hop: it chooses pull (honoured only
// when at is not empty) or push, and an error it returns stops the search and
// is returned by BFS. A push hop scatters the out-rows of the frontier; a
// pull hop probes every unreached vertex's in-rows for a frontier member,
// stopping at the first — both reach the same level.
//
// visit receives level 0 (the source alone), then each newly reached,
// non-empty level, in ascending vertex order. The slice is reused: it is valid
// only during the call. An error visit returns stops the search and is
// returned by BFS.
//
// The search runs on the calling goroutine.
func BFS(a, at []*DeltaMatrix, src Index, maxHops int,
	step func(h *BFSHop) (pull bool, err error), visit func(hop int, level []Index) error) error {
	if len(a) == 0 || a[0] == nil {
		return ErrNilObject
	}
	n := a[0].nrows
	for _, parts := range [2][]*DeltaMatrix{a, at} {
		for _, p := range parts {
			if p == nil {
				return ErrNilObject
			}
			if p.nrows != n || p.ncols != n {
				return dimErr("bfs: operand part is %dx%d, want %dx%d", p.nrows, p.ncols, n, n)
			}
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
	// Vertices from span on have no in-edge: no hop reaches them, and a pull
	// hop does not probe them.
	span, unreachedIn := n, 0
	if len(at) > 0 {
		span = 0
		for _, p := range at {
			span = max(span, p.rowSpan())
			unreachedIn += p.NVals() - p.rowLen(src, p.Pending() == 0)
		}
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
		if pull && len(at) > 0 {
			nf = ws.pullHop(at, span)
		} else {
			nf = ws.pushHop(a)
		}
		if nf == 0 {
			return nil
		}
		unreached -= nf
		ws.level = ws.next.appendSet(ws.level[:0])
		for _, p := range at {
			clean := p.Pending() == 0
			for _, j := range ws.level {
				unreachedIn -= p.rowLen(j, clean)
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

// pushHop ORs the frontier's out-rows in every part into next without
// testing a bit, then, a word at a time, drops the reached vertices from next
// and adds the rest to reached. It returns the level size.
func (ws *bfsWorkspace) pushHop(a []*DeltaMatrix) int {
	for _, p := range a {
		ws.scatter(p)
	}
	nf := 0
	for wi, w := range ws.next {
		w &^= ws.reached[wi]
		ws.next[wi] = w
		ws.reached[wi] |= w
		nf += bits.OnesCount64(w)
	}
	return nf
}

// scatter ORs the frontier's out-rows in a into next.
func (ws *bfsWorkspace) scatter(a *DeltaMatrix) {
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
}

// pullHop finds every unreached vertex below span with an in-neighbour in
// the frontier, a bitset word of candidates at a time, and returns the level
// size. Each part probes only the candidates the earlier parts missed.
func (ws *bfsWorkspace) pullHop(at []*DeltaMatrix, span int) int {
	nf := 0
	words := (span + 63) / 64
	for wi := 0; wi < words; wi++ {
		cand := ^ws.reached[wi]
		if tail := uint(span) & 63; tail != 0 && wi == words-1 {
			cand &= 1<<tail - 1
		}
		var hit uint64
		for _, p := range at {
			h := p.probeWord(wi, cand, ws.frontier)
			hit |= h
			cand &^= h
		}
		ws.next[wi] = hit
		ws.reached[wi] |= hit
		nf += bits.OnesCount64(hit)
	}
	return nf
}

// probeWord returns the candidates among the bits of cand — vertices wi·64
// + b — whose row of m holds a member of frontier, probing each row up to
// its first member.
func (m *DeltaMatrix) probeWord(wi int, cand uint64, frontier bitset) uint64 {
	clean := m.Pending() == 0
	rp, ci := m.main.rowPtr, m.main.colInd
	var hit uint64
	for ; cand != 0; cand &= cand - 1 {
		b := bits.TrailingZeros64(cand)
		j := wi<<6 + b
		if !clean {
			if r := m.row(j); r != nil {
				if m.anyLive(j, r, frontier) {
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
	return hit
}
