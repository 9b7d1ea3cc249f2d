package grb

import (
	"fmt"
	"math/rand"
	"testing"

	"redisgraph/internal/gen"
)

// hopState is a search's state before one hop, with the hop's three cost
// counts: m_f (the frontier's out-edges), m_u (the unreached vertices'
// in-edges) and the unreached candidates.
type hopState struct {
	reached, frontier bitset
	mf, mu, cand      int
}

// rmatOperands returns an RMAT graph (graph500 parameters) as a delta matrix
// and its transpose, both clean when dirty is false. When dirty is true they
// hold the same graph with pending updates: the last held edges are buffered
// inserts and held decoy edges folded into the main CSR are buffered deletes,
// below the default fold threshold as between two syncs of a written graph.
func rmatOperands(scale int, dirty bool) (a, at *DeltaMatrix) {
	const held, decoys = 2000, 1000
	e := gen.RMAT(gen.Graph500Defaults(scale, 1))
	n := e.NumNodes
	a, at = NewDeltaMatrix(n, n), NewDeltaMatrix(n, n)
	set := func(i, j Index) {
		_ = a.SetElement(i, j, 1)
		_ = at.SetElement(j, i, 1)
	}
	if !dirty {
		for k := range e.Src {
			set(e.Src[k], e.Dst[k])
		}
		a.ForceSync()
		at.ForceSync()
		return a, at
	}
	taken := make(map[[2]Index]bool, len(e.Src)+decoys)
	for k := range e.Src {
		taken[[2]Index{e.Src[k], e.Dst[k]}] = true
	}
	r := rand.New(rand.NewSource(2))
	var fake [][2]Index
	for len(fake) < decoys {
		if p := [2]Index{r.Intn(n), r.Intn(n)}; !taken[p] {
			taken[p] = true
			fake = append(fake, p)
		}
	}
	last := len(e.Src) - held
	for k := 0; k < last; k++ {
		set(e.Src[k], e.Dst[k])
	}
	for _, p := range fake {
		set(p[0], p[1])
	}
	a.ForceSync()
	at.ForceSync()
	for k := last; k < len(e.Src); k++ {
		set(e.Src[k], e.Dst[k])
	}
	for _, p := range fake {
		_ = a.RemoveElement(p[0], p[1])
		_ = at.RemoveElement(p[1], p[0])
	}
	return a, at
}

// hopStates runs a push-only search from each of the first seeds vertices
// with an out-edge (in a fixed shuffled order) and returns, per hop 1..hops,
// the states the searches were in before it.
func hopStates(a, at *DeltaMatrix, seeds, hops int) [][]hopState {
	out := make([][]hopState, hops)
	r := rand.New(rand.NewSource(3))
	found := 0
	for _, src := range r.Perm(a.nrows) {
		if found == seeds {
			break
		}
		if a.RowDegree(src) == 0 {
			continue
		}
		found++
		hop := 0
		err := BFS(a, at, src, hops, func(h *BFSHop) (bool, error) {
			out[hop] = append(out[hop], hopState{
				reached:  append(bitset(nil), h.ws.reached...),
				frontier: append(bitset(nil), h.ws.frontier...),
				mf:       int(h.FrontierDegree(float64(a.NVals()))),
				mu:       h.UnreachedIn,
				cand:     h.Unreached,
			})
			hop++
			return false, nil
		}, func(int, []Index) error { return nil })
		if err != nil {
			panic(err)
		}
	}
	return out
}

// BenchmarkBFSHop times one push hop and one pull hop of real searches over
// an RMAT scale-13 graph, on a clean operand pair (the hops read the main
// CSR) and on a dirty one (the same graph with ~3 000 pending updates, its
// dirty rows read in place as main span plus delta-plus columns). Each hop of 1..4 is timed from the states 64
// searches were in before it. Push reports ns per m_f entry (the frontier's
// out-edges); pull reports ns per m_u entry (the unreached vertices'
// in-edges) and ns per candidate (unreached vertex). These are the units of
// the var-length chooser's cost constants (choosePullHop in internal/core).
//
//	go test -run '^$' -bench BFSHop ./internal/grb
func BenchmarkBFSHop(b *testing.B) {
	const scale, seeds, hops = 13, 64, 4
	for _, state := range []string{"clean", "dirty"} {
		a, at := rmatOperands(scale, state == "dirty")
		states := hopStates(a, at, seeds, hops)
		for h, hs := range states {
			for _, dir := range []string{"push", "pull"} {
				b.Run(fmt.Sprintf("%s/hop%d/%s", state, h+1, dir), func(b *testing.B) {
					benchHop(b, a, at, hs, dir == "pull")
				})
			}
		}
	}
}

// benchHop runs b.N hops, cycling through states, and reports the per-unit
// costs.
func benchHop(b *testing.B, a, at *DeltaMatrix, states []hopState, pull bool) {
	if len(states) == 0 {
		b.Skip("no search reached this hop")
	}
	ws := getBFSWorkspace(a.nrows)
	defer putBFSWorkspace(ws)
	span := at.rowSpan()
	var mf, mu, cand int
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		st := &states[i%len(states)]
		copy(ws.reached, st.reached)
		copy(ws.frontier, st.frontier)
		clear(ws.next)
		if pull {
			ws.pullHop(at, span)
		} else {
			ws.pushHop(a)
		}
		mf, mu, cand = mf+st.mf, mu+st.mu, cand+st.cand
	}
	ns := float64(b.Elapsed().Nanoseconds())
	if pull {
		b.ReportMetric(ns/float64(max(mu, 1)), "ns/m_u")
		b.ReportMetric(ns/float64(max(cand, 1)), "ns/cand")
	} else {
		b.ReportMetric(ns/float64(max(mf, 1)), "ns/m_f")
	}
}
