package main

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"math/rand"
	"os"

	"redisgraph/internal/gen"
	"redisgraph/internal/graph"
	"redisgraph/internal/persist"
	"redisgraph/internal/value"
)

const (
	graphName = "g"
	// lagEdges is how many write-mix cycles pass between an edge's CREATE
	// and its DELETE. A cycle buffers two deltas per matrix and the engine
	// folds at 4096, so after 2048 cycles the edge has been folded into the
	// main CSR and its DELETE goes through delta-minus, not delta-plus. The
	// first 2048 DELETEs hit edges the dataset pre-creates.
	lagEdges = 2048
	cities   = 64
)

// dataset is everything the harness generates from -seed and -scale: the
// RMAT edge list, the per-node properties (which double as the point-lookup
// and filter-agg oracle) and the pre-created write-mix lag edges.
type dataset struct {
	n        int
	src, dst []int
	age      []int
	score    []float64
	city     []int
	lag      [][2]int

	pairs    map[uint64]struct{} // every (src,dst) in the graph at load time
	outDeg   []int               // distinct out-neighbours at load time
	withOut  []int               // nodes with out-degree ≥ 1 (khop seeds)
	pairSeed int64               // seeds the write-mix pair sequence
}

func pairKey(a, b int) uint64 { return uint64(a)<<32 | uint64(b) }

func cityName(i int) string { return fmt.Sprintf("city-%02d", i) }

func newDataset(scale int, seed int64) *dataset {
	e := gen.RMAT(gen.Graph500Defaults(scale, seed))
	d := &dataset{
		n: e.NumNodes, src: e.Src, dst: e.Dst,
		age:    make([]int, e.NumNodes),
		score:  make([]float64, e.NumNodes),
		city:   make([]int, e.NumNodes),
		pairs:  make(map[uint64]struct{}, len(e.Src)+lagEdges),
		outDeg: make([]int, e.NumNodes),
	}
	// A separate stream for properties, so the edge list stays exactly what
	// gen.RMAT gives every other user of the same seed.
	rng := rand.New(rand.NewSource(seed ^ 0x5eed_9709))
	for v := 0; v < d.n; v++ {
		d.age[v] = rng.Intn(100)
		// Hundredths: strconv round-trips them exactly through the reply.
		d.score[v] = float64(rng.Intn(10001)) / 100
		d.city[v] = rng.Intn(cities)
	}
	for i := range d.src {
		d.addPair(d.src[i], d.dst[i])
	}
	ps := newPairSource(d, rng.Int63())
	d.lag = make([][2]int, lagEdges)
	for i := range d.lag {
		d.lag[i] = ps.next()
	}
	for _, p := range d.lag {
		d.addPair(p[0], p[1])
	}
	d.pairSeed = rng.Int63()
	for v, deg := range d.outDeg {
		if deg > 0 {
			d.withOut = append(d.withOut, v)
		}
	}
	return d
}

func (d *dataset) addPair(a, b int) {
	k := pairKey(a, b)
	if _, dup := d.pairs[k]; !dup {
		d.pairs[k] = struct{}{}
		d.outDeg[a]++
	}
}

// allEdges returns the edge list the snapshot holds: RMAT plus lag edges.
func (d *dataset) allEdges() (src, dst []int) {
	src = append(make([]int, 0, len(d.src)+len(d.lag)), d.src...)
	dst = append(make([]int, 0, len(d.dst)+len(d.lag)), d.dst...)
	for _, p := range d.lag {
		src, dst = append(src, p[0]), append(dst, p[1])
	}
	return src, dst
}

// pairSource yields distinct (a,b) node pairs that are in neither the
// dataset nor its own earlier output, so a CREATE always adds a matrix entry
// and the matching DELETE always removes exactly one edge.
type pairSource struct {
	d    *dataset
	rng  *rand.Rand
	used map[uint64]struct{}
}

func newPairSource(d *dataset, seed int64) *pairSource {
	return &pairSource{d: d, rng: rand.New(rand.NewSource(seed)), used: map[uint64]struct{}{}}
}

func (p *pairSource) next() [2]int {
	for {
		a, b := p.rng.Intn(p.d.n), p.rng.Intn(p.d.n)
		k := pairKey(a, b)
		if a == b {
			continue
		}
		if _, taken := p.d.pairs[k]; taken {
			continue
		}
		if _, taken := p.used[k]; taken {
			continue
		}
		p.used[k] = struct{}{}
		return [2]int{a, b}
	}
}

// buildGraph loads the dataset into an in-process store the way
// bench.BuildGraph does, plus the three extra properties and the lag edges.
func (d *dataset) buildGraph() (*graph.Graph, error) {
	g := graph.New(graphName)
	g.Lock()
	defer g.Unlock()
	for v := 0; v < d.n; v++ {
		g.CreateNode([]string{"Node"}, map[string]value.Value{
			"uid":   value.NewInt(int64(v)),
			"age":   value.NewInt(int64(d.age[v])),
			"score": value.NewFloat(d.score[v]),
			"city":  value.NewString(cityName(d.city[v])),
		})
	}
	src, dst := d.allEdges()
	for i := range src {
		if _, err := g.CreateEdge("F", uint64(src[i]), uint64(dst[i]), nil); err != nil {
			return nil, err
		}
	}
	g.CreateIndex("Node", "uid")
	g.Sync()
	return g, nil
}

// writeSnapshot frames one graph the way server.SaveSnapshot does (magic,
// little-endian graph count, then persist.Save per graph), so the child
// server loads it through its ordinary -snapshot path.
func writeSnapshot(g *graph.Graph, w io.Writer) error {
	bw := bufio.NewWriter(w)
	bw.WriteString("RGSNAP01")
	var count [8]byte
	binary.LittleEndian.PutUint64(count[:], 1)
	bw.Write(count[:])
	g.RLock()
	err := persist.Save(g, bw)
	g.RUnlock()
	if err != nil {
		return fmt.Errorf("saving snapshot: %w", err)
	}
	return bw.Flush()
}

func writeSnapshotFile(g *graph.Graph, path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := writeSnapshot(g, f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
