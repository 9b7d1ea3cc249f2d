package bench

import (
	"fmt"
	"io"
	"math"
	"runtime"
	"strings"
	"sync"
	"time"

	"redisgraph/internal/baseline"
	"redisgraph/internal/gen"
	"redisgraph/internal/graph"
	"redisgraph/internal/pool"
)

// Suite holds the loaded datasets and engine line-ups for all experiments.
type Suite struct {
	Datasets []Dataset
	scale    int
	graphs   map[string]*graph.Graph
	engines  map[string][]baseline.Engine
	w        io.Writer
}

// NewSuite generates and loads the two paper datasets at the given scale.
func NewSuite(scale int, w io.Writer) *Suite {
	s := &Suite{
		scale:   scale,
		graphs:  map[string]*graph.Graph{},
		engines: map[string][]baseline.Engine{},
		w:       w,
	}
	for _, d := range []Dataset{Graph500Dataset(scale), TwitterDataset(scale)} {
		t0 := time.Now()
		g := BuildGraph(d.Name, d.Edges)
		fmt.Fprintf(w, "loaded %-14s %8d nodes %9d edges in %s\n",
			d.Name, d.Edges.NumNodes, d.Edges.NumEdges(), time.Since(t0).Round(time.Millisecond))
		s.Datasets = append(s.Datasets, d)
		s.graphs[d.Name] = g
		s.engines[d.Name] = Systems(g, d.Edges)
	}
	fmt.Fprintln(w)
	return s
}

// Fig1 reproduces Figure 1: average 1-hop response time per system on both
// datasets, with a log-scale text bar chart.
func (s *Suite) Fig1() []Measurement {
	fmt.Fprintln(s.w, "=== E1 / Fig. 1: 1-hop average response time (ms) ===")
	var all []Measurement
	for _, d := range s.Datasets {
		seeds := gen.Seeds(d.Edges, SeedCounts(1), 99)
		fmt.Fprintf(s.w, "\n%s (%d seeds)\n", d.Name, len(seeds))
		var rows []Measurement
		for _, e := range s.engines[d.Name] {
			m := RunKHop(e, d.Name, 1, seeds)
			rows = append(rows, m)
			all = append(all, m)
		}
		s.checkAgreement(rows)
		maxMean := 0.0
		for _, m := range rows {
			if m.MeanMS > maxMean {
				maxMean = m.MeanMS
			}
		}
		for _, m := range rows {
			fmt.Fprintf(s.w, "  %-16s %10.3f ms  %s\n", m.System, m.MeanMS, logBar(m.MeanMS, maxMean))
		}
	}
	fmt.Fprintln(s.w)
	return all
}

// KHopTable reproduces the Section III text results: k ∈ {1,2,3,6} per
// system and dataset, with the paper's seed counts, and prints the E5
// ratios.
func (s *Suite) KHopTable(ks []int) []Measurement {
	if len(ks) == 0 {
		ks = []int{1, 2, 3, 6}
	}
	fmt.Fprintln(s.w, "=== E2: k-hop neighborhood count, mean response time (ms) ===")
	var all []Measurement
	for _, d := range s.Datasets {
		fmt.Fprintf(s.w, "\n%s\n", d.Name)
		fmt.Fprintf(s.w, "  %-16s", "system")
		for _, k := range ks {
			fmt.Fprintf(s.w, " %12s", fmt.Sprintf("k=%d", k))
		}
		fmt.Fprintln(s.w)
		perSystem := map[string][]Measurement{}
		for _, e := range s.engines[d.Name] {
			fmt.Fprintf(s.w, "  %-16s", e.Name())
			for _, k := range ks {
				seeds := gen.Seeds(d.Edges, SeedCounts(k), int64(1000+k))
				m := RunKHop(e, d.Name, k, seeds)
				perSystem[e.Name()] = append(perSystem[e.Name()], m)
				all = append(all, m)
				fmt.Fprintf(s.w, " %12.3f", m.MeanMS)
			}
			fmt.Fprintln(s.w)
		}
		// Cross-engine agreement per k.
		for ki := range ks {
			var rows []Measurement
			for _, e := range s.engines[d.Name] {
				rows = append(rows, perSystem[e.Name()][ki])
			}
			s.checkAgreement(rows)
		}
		s.ratioSummary(perSystem, ks)
	}
	fmt.Fprintln(s.w)
	return all
}

// ratioSummary prints E5 as two measured ratios of mean times per k: the
// stack overhead (RedisGraph ÷ grb.BFS, what Cypher, planning and records
// add to the kernel) and the representation (grb.BFS ÷ AdjList, the delta
// matrix kernel against a flat CSR on one core).
func (s *Suite) ratioSummary(perSystem map[string][]Measurement, ks []int) {
	fmt.Fprintf(s.w, "  -- E5 ratios of mean time: stack = RedisGraph ÷ grb.BFS, representation = grb.BFS ÷ AdjList --\n")
	for _, r := range []struct{ label, num, den string }{
		{"stack", "RedisGraph", "grb.BFS"},
		{"representation", "grb.BFS", "AdjList"},
	} {
		fmt.Fprintf(s.w, "  %-16s", r.label)
		for ki := range ks {
			fmt.Fprintf(s.w, " %11.2fx", perSystem[r.num][ki].MeanMS/perSystem[r.den][ki].MeanMS)
		}
		fmt.Fprintln(s.w)
	}
}

// checkAgreement verifies every engine returned identical k-hop counts —
// the harness's correctness cross-check.
func (s *Suite) checkAgreement(rows []Measurement) {
	if len(rows) < 2 {
		return
	}
	ref := rows[0]
	for _, m := range rows[1:] {
		for i := range ref.Counts {
			if m.Counts[i] != ref.Counts[i] {
				panic(fmt.Sprintf("bench: %s and %s disagree on seed %d (k=%d): %d vs %d",
					ref.System, m.System, i, ref.K, ref.Counts[i], m.Counts[i]))
			}
		}
	}
}

// ThroughputResult is one concurrency point of experiment E3.
type ThroughputResult struct {
	Model       string
	Threads     int
	Clients     int
	QueriesPerS float64
}

// Throughput reproduces E3 — the architecture claim: single-core queries
// admitted up to a fixed thread count at a time (RedisGraph) scale with
// concurrent clients, while an all-cores-per-query engine (TigerGraph model)
// serialises them.
func (s *Suite) Throughput(queries int) []ThroughputResult {
	fmt.Fprintln(s.w, "=== E3: concurrent 1-hop throughput (queries/sec) ===")
	d := s.Datasets[0]
	g := s.graphs[d.Name]
	seeds := gen.Seeds(d.Edges, 64, 5)
	var out []ThroughputResult

	run := func(model string, threads int, exec func(seed int)) {
		for _, clients := range []int{1, 2, 4, 8} {
			var wg sync.WaitGroup
			per := queries / clients
			t0 := time.Now()
			for c := 0; c < clients; c++ {
				wg.Add(1)
				go func(c int) {
					defer wg.Done()
					for q := 0; q < per; q++ {
						exec(seeds[(c*per+q)%len(seeds)])
					}
				}(c)
			}
			wg.Wait()
			el := time.Since(t0)
			r := ThroughputResult{
				Model: model, Threads: threads, Clients: clients,
				QueriesPerS: float64(per*clients) / el.Seconds(),
			}
			out = append(out, r)
			fmt.Fprintf(s.w, "  %-28s clients=%d  %10.0f q/s\n", model, clients, r.QueriesPerS)
		}
	}

	// RedisGraph model, as the server runs it: each client executes its
	// query inline under one of GOMAXPROCS admission permits, one core per
	// query.
	gate := pool.NewGate(runtime.GOMAXPROCS(0))
	rg := NewRedisGraphEngine(g)
	run("RedisGraph (gate, 1 core/q)", runtime.GOMAXPROCS(0), func(seed int) {
		if _, err := gate.Acquire(time.Minute); err != nil {
			panic(err)
		}
		defer gate.Release()
		rg.KHopCount(seed, 1)
	})

	// TigerGraph model: each query grabs every core; queries serialise.
	var serial sync.Mutex
	tg := baseline.NewParallelAdjList(d.Edges.NumNodes, d.Edges.Src, d.Edges.Dst, runtime.GOMAXPROCS(0))
	run("TigerGraph (all cores/query)", runtime.GOMAXPROCS(0), func(seed int) {
		serial.Lock()
		tg.KHopCount(seed, 1)
		serial.Unlock()
	})
	fmt.Fprintln(s.w)
	return out
}

// RobustResult is experiment E4's outcome.
type RobustResult struct {
	Dataset   string
	Seeds     int
	Timeouts  int
	OOMs      int
	MaxHeapMB float64
	MeanMS    float64
}

// Robustness reproduces E4: every 6-hop query must finish without timeout
// or memory blow-up (paper Conclusions: "none of the queries timed out...
// none created out of memory exceptions").
func (s *Suite) Robustness(timeout time.Duration) []RobustResult {
	fmt.Fprintln(s.w, "=== E4: 6-hop robustness (timeouts / memory) ===")
	var out []RobustResult
	for _, d := range s.Datasets {
		g := s.graphs[d.Name]
		eng := NewRedisGraphEngine(g)
		seeds := gen.Seeds(d.Edges, SeedCounts(6), 2024)
		res := RobustResult{Dataset: d.Name, Seeds: len(seeds)}
		var total time.Duration
		for _, seed := range seeds {
			var ms runtime.MemStats
			t0 := time.Now()
			func() {
				defer func() {
					if r := recover(); r != nil {
						res.OOMs++ // any panic counts against robustness
					}
				}()
				eng.KHopCount(seed, 6)
			}()
			el := time.Since(t0)
			total += el
			if timeout > 0 && el > timeout {
				res.Timeouts++
			}
			runtime.ReadMemStats(&ms)
			heap := float64(ms.HeapAlloc) / (1 << 20)
			if heap > res.MaxHeapMB {
				res.MaxHeapMB = heap
			}
		}
		res.MeanMS = float64(total.Nanoseconds()) / 1e6 / float64(len(seeds))
		fmt.Fprintf(s.w, "  %-14s seeds=%d timeouts=%d ooms=%d maxheap=%.0fMB mean=%.3fms\n",
			d.Name, res.Seeds, res.Timeouts, res.OOMs, res.MaxHeapMB, res.MeanMS)
		out = append(out, res)
	}
	fmt.Fprintln(s.w)
	return out
}

// logBar renders a log-scale bar for the Fig. 1 chart.
func logBar(v, maxV float64) string {
	if v <= 0 || maxV <= 0 {
		return ""
	}
	// 40 chars spanning 5 decades below maxV.
	frac := 1 + (math.Log10(v)-math.Log10(maxV))/5
	if frac < 0.02 {
		frac = 0.02
	}
	n := int(frac * 40)
	if n < 1 {
		n = 1
	}
	return strings.Repeat("#", n)
}
