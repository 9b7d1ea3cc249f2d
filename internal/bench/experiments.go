package bench

import (
	"fmt"
	"io"
	"math"
	"regexp"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"redisgraph/internal/baseline"
	"redisgraph/internal/core"
	"redisgraph/internal/gen"
	"redisgraph/internal/graph"
	"redisgraph/internal/pool"
	"redisgraph/internal/value"
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
			fmt.Fprintf(s.w, "  %-14s %10.3f ms  %s\n", m.System, m.MeanMS, logBar(m.MeanMS, maxMean))
		}
	}
	fmt.Fprintln(s.w)
	return all
}

// KHopTable reproduces the Section III text results: k ∈ {1,2,3,6} per
// system and dataset, with the paper's seed counts, and prints the E5
// speedup summary.
func (s *Suite) KHopTable(ks []int) []Measurement {
	if len(ks) == 0 {
		ks = []int{1, 2, 3, 6}
	}
	fmt.Fprintln(s.w, "=== E2: k-hop neighborhood count, mean response time (ms) ===")
	var all []Measurement
	for _, d := range s.Datasets {
		fmt.Fprintf(s.w, "\n%s\n", d.Name)
		fmt.Fprintf(s.w, "  %-14s", "system")
		for _, k := range ks {
			fmt.Fprintf(s.w, " %12s", fmt.Sprintf("k=%d", k))
		}
		fmt.Fprintln(s.w)
		perSystem := map[string][]Measurement{}
		for _, e := range s.engines[d.Name] {
			fmt.Fprintf(s.w, "  %-14s", e.Name())
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
		s.speedupSummary(d.Name, perSystem, ks)
	}
	fmt.Fprintln(s.w)
	return all
}

// speedupSummary prints the paper's Conclusions comparison: RedisGraph vs
// each competitor (paper: 36×–15,000× vs the object/remote stores, 2× and
// 0.8× vs TigerGraph).
func (s *Suite) speedupSummary(dataset string, perSystem map[string][]Measurement, ks []int) {
	ref, ok := perSystem["RedisGraph"]
	if !ok {
		return
	}
	fmt.Fprintf(s.w, "  -- E5 speedups vs RedisGraph (>1 means RedisGraph faster) --\n")
	names := make([]string, 0, len(perSystem))
	for n := range perSystem {
		if n != "RedisGraph" {
			names = append(names, n)
		}
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(s.w, "  %-14s", n)
		for ki := range ks {
			fmt.Fprintf(s.w, " %11.1fx", perSystem[n][ki].MeanMS/ref[ki].MeanMS)
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
	MeanLatMS   float64
}

// Throughput reproduces E3 — the architecture claim: a pool of single-core
// queries (RedisGraph) scales with concurrent clients, while an
// all-cores-per-query engine (TigerGraph model) serialises them.
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
				MeanLatMS:   float64(el.Milliseconds()) / float64(per*clients),
			}
			out = append(out, r)
			fmt.Fprintf(s.w, "  %-28s clients=%d  %10.0f q/s\n", model, clients, r.QueriesPerS)
		}
	}

	// RedisGraph model: threadpool of single-core workers.
	p := pool.New(runtime.GOMAXPROCS(0))
	defer p.Close()
	rg := NewRedisGraphEngine(g, 1)
	run("RedisGraph (pool, 1 core/q)", p.Size(), func(seed int) {
		f, err := p.Submit(func() (any, error) { return rg.KHopCount(seed, 1), nil })
		if err != nil {
			panic(err)
		}
		if _, err := f.Wait(); err != nil {
			panic(err)
		}
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
		eng := NewRedisGraphEngine(g, 1)
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
		res.MeanMS = float64(total.Milliseconds()) / float64(len(seeds))
		fmt.Fprintf(s.w, "  %-14s seeds=%d timeouts=%d ooms=%d maxheap=%.0fMB mean=%.1fms\n",
			d.Name, res.Seeds, res.Timeouts, res.OOMs, res.MaxHeapMB, res.MeanMS)
		out = append(out, res)
	}
	fmt.Fprintln(s.w)
	return out
}

// TraverseBatchResult is one dataset's outcome of the traverse-batch
// experiment: the same traversal over every source node, evaluated
// per-record (batch 1) versus as fused frontier matrices.
type TraverseBatchResult struct {
	Dataset     string  `json:"dataset"`
	Sources     int     `json:"sources"`
	Rows        int64   `json:"rows"`
	Batch       int     `json:"batch"`
	PerRecordMS float64 `json:"per_record_ms"`
	BatchedMS   float64 `json:"batched_ms"`
	Speedup     float64 `json:"speedup"`
}

// TraverseBatch measures the batched-traversal tentpole: a one-hop MATCH
// over every source node, executed through the full Cypher stack, with the
// traversal operation's frontier batch forced to 1 (the historic per-record
// path) and to the given batch size. Both runs must return the same count —
// the experiment doubles as an end-to-end equivalence check.
func (s *Suite) TraverseBatch(batch int) []TraverseBatchResult {
	fmt.Fprintf(s.w, "=== E6: batched algebraic traversal, one-hop over all sources (batch=%d) ===\n", batch)
	const query = `MATCH (a:Node)-[:F]->(b:Node) RETURN count(b)`
	var out []TraverseBatchResult
	for _, d := range s.Datasets {
		g := s.graphs[d.Name]
		once := func(bs int) (float64, int64) {
			// Start from a collected heap so each rep pays for its own
			// garbage — on small machines GC timing otherwise dominates
			// the comparison.
			runtime.GC()
			t0 := time.Now()
			rs, err := core.ROQuery(g, query, nil, core.Config{OpThreads: 1, TraverseBatch: bs})
			if err != nil {
				panic(fmt.Sprintf("bench: traverse-batch: %v", err))
			}
			return float64(time.Since(t0).Nanoseconds()) / 1e6, rs.Rows[0][0].Int()
		}
		// Interleave the two modes so time-varying machine noise biases
		// neither; report the median rep of each (rep 0 warms caches).
		var perReps, batchReps []float64
		var rowsPer, rowsBatch int64
		for rep := 0; rep < 6; rep++ {
			var el float64
			el, rowsPer = once(1)
			if rep > 0 {
				perReps = append(perReps, el)
			}
			el, rowsBatch = once(batch)
			if rep > 0 {
				batchReps = append(batchReps, el)
			}
		}
		sort.Float64s(perReps)
		sort.Float64s(batchReps)
		perMS := perReps[len(perReps)/2]
		batchMS := batchReps[len(batchReps)/2]
		if rowsPer != rowsBatch {
			panic(fmt.Sprintf("bench: traverse-batch disagreement on %s: per-record %d vs batched %d",
				d.Name, rowsPer, rowsBatch))
		}
		r := TraverseBatchResult{
			Dataset: d.Name, Sources: d.Edges.NumNodes, Rows: rowsPer, Batch: batch,
			PerRecordMS: perMS, BatchedMS: batchMS, Speedup: perMS / batchMS,
		}
		out = append(out, r)
		fmt.Fprintf(s.w, "  %-14s sources=%d rows=%d  per-record %8.2f ms  batched(%d) %8.2f ms  %5.2fx\n",
			r.Dataset, r.Sources, r.Rows, r.PerRecordMS, batch, r.BatchedMS, r.Speedup)
	}
	fmt.Fprintln(s.w)
	return out
}

// PipelineBatchResult is one (dataset, workload) cell of the batch-pipeline
// experiment: a filter-heavy scan+traverse+aggregate query executed by the
// tuple-at-a-time engine (batch 1, no pushdown), the batch-at-a-time engine
// without pushdown, and the full engine with algebraic predicate pushdown.
type PipelineBatchResult struct {
	Dataset      string  `json:"dataset"`
	Workload     string  `json:"workload"`
	Query        string  `json:"query"`
	Rows         int     `json:"rows"`
	Batch        int     `json:"batch"`
	ScalarMS     float64 `json:"scalar_ms"`     // batch 1, residual filters
	BatchedMS    float64 `json:"batched_ms"`    // batch N, residual filters
	PushdownMS   float64 `json:"pushdown_ms"`   // batch N, pushed filters
	SpeedupBatch float64 `json:"speedup_batch"` // scalar / batched
	SpeedupTotal float64 `json:"speedup_total"` // scalar / batched+pushdown
}

// PipelineBatch measures the batch-at-a-time executor end-to-end: unlike the
// traverse-batch experiment (which isolates the fused MxM), these workloads
// push whole batches through scan → traverse → filter → aggregate, so the
// speedup reflects the full pipeline plus predicate pushdown. Every engine
// variant must return identical rows — the experiment doubles as a
// differential check.
func (s *Suite) PipelineBatch(batch int) []PipelineBatchResult {
	fmt.Fprintf(s.w, "=== E8: batch-at-a-time pipeline with predicate pushdown (batch=%d) ===\n", batch)
	var out []PipelineBatchResult
	for _, d := range s.Datasets {
		g := s.graphs[d.Name]
		n := d.Edges.NumNodes
		workloads := []struct {
			name  string
			query string
		}{
			// Residual inequality filters: not pushable, so this cell
			// isolates the batched scan/filter/aggregate pipeline.
			{"filter-agg", fmt.Sprintf(
				`MATCH (a:Node)-[:F]->(b:Node) WHERE a.uid < %d AND b.uid >= %d RETURN min(b.uid), max(b.uid), count(b)`,
				n/2, n/4)},
			// Record-free equality on the traversal destination: pushable
			// into an index-seeded frontier mask, so the pushdown cell skips
			// materialising all the non-matching (a, b) rows entirely.
			{"pushdown-eq", fmt.Sprintf(
				`MATCH (a:Node)-[:F]->(b:Node) WHERE b.uid = %d RETURN a.uid, count(b)`, n/3)},
		}
		for _, wl := range workloads {
			once := func(cfg core.Config) (float64, []string) {
				runtime.GC()
				t0 := time.Now()
				rs, err := core.ROQuery(g, wl.query, nil, cfg)
				if err != nil {
					panic(fmt.Sprintf("bench: pipeline-batch: %v", err))
				}
				rows := make([]string, len(rs.Rows))
				for i, row := range rs.Rows {
					rows[i] = fmt.Sprint(row)
				}
				sort.Strings(rows)
				return float64(time.Since(t0).Nanoseconds()) / 1e6, rows
			}
			cfgs := []core.Config{
				{OpThreads: 1, TraverseBatch: 1, NoPushdown: true},
				{OpThreads: 1, TraverseBatch: batch, NoPushdown: true},
				{OpThreads: 1, TraverseBatch: batch},
			}
			// Interleave the three variants so time-varying machine noise
			// biases none; keep the median of the post-warmup reps.
			reps := make([][]float64, len(cfgs))
			var ref []string
			for rep := 0; rep < 6; rep++ {
				for ci, cfg := range cfgs {
					el, rows := once(cfg)
					if rep > 0 {
						reps[ci] = append(reps[ci], el)
					}
					if ref == nil {
						ref = rows
					} else if strings.Join(rows, ";") != strings.Join(ref, ";") {
						panic(fmt.Sprintf("bench: pipeline-batch disagreement on %s/%s (cfg %d)",
							d.Name, wl.name, ci))
					}
				}
			}
			med := func(xs []float64) float64 {
				sort.Float64s(xs)
				return xs[len(xs)/2]
			}
			r := PipelineBatchResult{
				Dataset: d.Name, Workload: wl.name, Query: wl.query,
				Rows: len(ref), Batch: batch,
				ScalarMS: med(reps[0]), BatchedMS: med(reps[1]), PushdownMS: med(reps[2]),
			}
			r.SpeedupBatch = r.ScalarMS / r.BatchedMS
			r.SpeedupTotal = r.ScalarMS / r.PushdownMS
			out = append(out, r)
			fmt.Fprintf(s.w, "  %-14s %-12s scalar %8.2f ms  batched(%d) %8.2f ms (%4.2fx)  +pushdown %8.2f ms (%4.2fx)\n",
				r.Dataset, r.Workload, r.ScalarMS, batch, r.BatchedMS, r.SpeedupBatch, r.PushdownMS, r.SpeedupTotal)
		}
	}
	fmt.Fprintln(s.w)
	return out
}

// PlanOrderResult is one workload of the cost-based-planner experiment: an
// order-sensitive query executed with the cost planner against the
// NoCostPlanner textual baseline.
type PlanOrderResult struct {
	Workload  string  `json:"workload"`
	Query     string  `json:"query"`
	Rows      int     `json:"rows"`
	TextualMS float64 `json:"textual_ms"`
	CostMS    float64 `json:"cost_ms"`
	Speedup   float64 `json:"speedup"`
}

// PlanOrder measures the cost-based query planner (E9) on a label-skewed
// graph the textual planner handles badly: 2^scale :Big nodes densely
// connected by :S, 16 :Rare nodes touched by a handful of :R edges. Every
// workload is written so textual order starts from the dense end; the cost
// planner must pick the selective entry point and traverse the transposed
// matrices instead. Both planners must return identical results — the
// experiment doubles as a differential check.
func (s *Suite) PlanOrder() []PlanOrderResult {
	fmt.Fprintf(s.w, "=== E9: cost-based planner, order-sensitive queries (scale=%d) ===\n", s.scale)
	nBig := 1 << s.scale
	const nRare = 16
	g := graph.New("plan-order")
	g.Lock()
	bigs := make([]uint64, nBig)
	for i := 0; i < nBig; i++ {
		bigs[i] = g.CreateNode([]string{"Big"}, map[string]value.Value{
			"uid": value.NewInt(int64(i)),
		}).ID
	}
	rares := make([]uint64, nRare)
	for i := 0; i < nRare; i++ {
		rares[i] = g.CreateNode([]string{"Rare"}, map[string]value.Value{
			"uid": value.NewInt(int64(i)),
		}).ID
	}
	mustEdge := func(typ string, src, dst uint64) {
		if _, err := g.CreateEdge(typ, src, dst, nil); err != nil {
			panic(fmt.Sprintf("bench: plan-order: %v", err))
		}
	}
	// Dense relation among the Big nodes: 4 deterministic pseudo-random
	// successors each.
	for i, b := range bigs {
		for k := 0; k < 4; k++ {
			mustEdge("S", b, bigs[(i*2654435761+k*40503+1)%nBig])
		}
	}
	// Sparse relation from a few Big nodes into the Rare ones.
	for i := 0; i < 8*nRare; i++ {
		mustEdge("R", bigs[(i*7919)%nBig], rares[i%nRare])
	}
	g.Sync()
	g.Unlock()

	workloads := []struct {
		name  string
		query string
	}{
		// Entry-point choice: the pattern is written dense-end first; the
		// cost planner must start from the 16-node :Rare label and walk Rᵀ.
		{"selective-entry", `MATCH (a:Big)-[:R]->(b:Rare) RETURN count(a)`},
		// Hop ordering across a chain: textual order expands the dense :S
		// relation over every :Big node before filtering through :R.
		{"hop-order", `MATCH (a:Big)-[:S]->(m:Big)-[:R]->(b:Rare) RETURN count(*)`},
	}
	var out []PlanOrderResult
	for _, wl := range workloads {
		once := func(cfg core.Config) (float64, string) {
			runtime.GC()
			t0 := time.Now()
			rs, err := core.ROQuery(g, wl.query, nil, cfg)
			if err != nil {
				panic(fmt.Sprintf("bench: plan-order: %v", err))
			}
			rows := make([]string, len(rs.Rows))
			for i, row := range rs.Rows {
				rows[i] = fmt.Sprint(row)
			}
			sort.Strings(rows)
			return float64(time.Since(t0).Nanoseconds()) / 1e6, strings.Join(rows, ";")
		}
		// Interleave the two planners so time-varying machine noise biases
		// neither; keep the median of the post-warmup reps.
		var costReps, textReps []float64
		var ref string
		for rep := 0; rep < 6; rep++ {
			el, rows := once(core.Config{OpThreads: 1})
			if rep > 0 {
				costReps = append(costReps, el)
			}
			if ref == "" {
				ref = rows
			} else if rows != ref {
				panic(fmt.Sprintf("bench: plan-order disagreement on %s (cost)", wl.name))
			}
			el, rows = once(core.Config{OpThreads: 1, NoCostPlanner: true})
			if rep > 0 {
				textReps = append(textReps, el)
			}
			if rows != ref {
				panic(fmt.Sprintf("bench: plan-order disagreement on %s (textual)", wl.name))
			}
		}
		sort.Float64s(costReps)
		sort.Float64s(textReps)
		r := PlanOrderResult{
			Workload: wl.name, Query: wl.query,
			Rows:      strings.Count(ref, ";") + 1,
			TextualMS: textReps[len(textReps)/2],
			CostMS:    costReps[len(costReps)/2],
		}
		r.Speedup = r.TextualMS / r.CostMS
		out = append(out, r)
		fmt.Fprintf(s.w, "  %-16s textual %10.2f ms  cost-based %8.2f ms  %6.2fx\n",
			r.Workload, r.TextualMS, r.CostMS, r.Speedup)
	}
	fmt.Fprintln(s.w)
	return out
}

// JoinOrderResult is one workload cell of the second-generation join
// planner experiment (E13): the same query with the join planner on
// (hash joins for WHERE-bridged components, DP join-order search) and off
// (greedy hop ordering, cartesian rescans).
type JoinOrderResult struct {
	Workload string  `json:"workload"`
	Query    string  `json:"query"`
	Rows     int     `json:"rows"`
	GreedyMS float64 `json:"greedy_ms"`
	JoinedMS float64 `json:"joined_ms"`
	Speedup  float64 `json:"speedup"`
}

// JoinOrder measures the planner-v2 wins on the two shapes it targets.
//
// hash-bridge: two traversal components connected only by a WHERE property
// equality. Without the join planner the second component rescans once per
// outer row (a cartesian product filtered after the fact); the hash join
// builds the smaller side once and probes it per row.
//
// dp-cycle: a 4-vertex diamond cycle built as a greedy trap. Both planners
// enter the tiny :X label, but greedy's per-step metric picks the
// locally-cheaper :V hop (fanout ~3/4·fan) and rides the dense :W relation
// to an exploded frontier, while the slightly pricier :P hop unlocks the
// 16-edge collapsing :Q relation, shrinking the frontier to a handful of
// rows before the dense edge is ever expanded. Only the DP search — which
// scores whole orders — finds that; it adopts its order only because the
// simulated total undercuts the simulated greedy total, so this workload
// also exercises the adoption gate end to end.
//
// Both planner modes must return identical results — the experiment doubles
// as a differential check, including the textual planner as a third voice.
func (s *Suite) JoinOrder() []JoinOrderResult {
	fmt.Fprintf(s.w, "=== E13: join planner, bridged components and DP ordering (scale=%d) ===\n", s.scale)
	// Component size for the bridge workload and the fanout for the DP trap
	// both derive from the scale so the smoke configuration stays quick.
	n := 1 << (s.scale/2 + 3)
	fan := 1 << (s.scale - 5)
	if fan < 2 {
		fan = 2
	}
	if fan > 512 {
		fan = 512
	}
	const nKeys = 64
	const nX = 16
	nY := nX * fan
	nZ := nY / 32
	if nZ < nX {
		nZ = nX
	}
	g := graph.New("join-order")
	g.Lock()
	mustEdge := func(typ string, src, dst uint64) {
		if _, err := g.CreateEdge(typ, src, dst, nil); err != nil {
			panic(fmt.Sprintf("bench: join-order: %v", err))
		}
	}
	// hash-bridge fixture: (:L)-[:E1]->(:M {k}) and (:F {k})-[:E2]->(:T).
	for i := 0; i < n; i++ {
		l := g.CreateNode([]string{"L"}, map[string]value.Value{"uid": value.NewInt(int64(i))})
		m := g.CreateNode([]string{"M"}, map[string]value.Value{"k": value.NewInt(int64(i % nKeys))})
		mustEdge("E1", l.ID, m.ID)
		f := g.CreateNode([]string{"F"}, map[string]value.Value{"k": value.NewInt(int64(i % nKeys))})
		t := g.CreateNode([]string{"T"}, map[string]value.Value{"uid": value.NewInt(int64(i))})
		mustEdge("E2", f.ID, t.ID)
	}
	// dp-cycle fixture: the diamond a:X -P-> b:Y -Q-> d:Z and
	// a -V-> c:Y2 -W-> d. P fans out `fan` ways, V slightly less (the bait),
	// Q has only nX edges (the collapse P unlocks), W is dense.
	fan2 := fan * 3 / 4
	xs := make([]uint64, nX)
	for i := range xs {
		xs[i] = g.CreateNode([]string{"X"}, nil).ID
	}
	ys := make([]uint64, nY)
	y2s := make([]uint64, nY)
	for i := 0; i < nY; i++ {
		ys[i] = g.CreateNode([]string{"Y"}, nil).ID
		y2s[i] = g.CreateNode([]string{"Y2"}, nil).ID
	}
	zs := make([]uint64, nZ)
	for i := range zs {
		zs[i] = g.CreateNode([]string{"Z"}, nil).ID
	}
	for i := 0; i < nY; i++ {
		mustEdge("P", xs[i/fan], ys[i]) // each :X fans out `fan` ways
	}
	for i := 0; i < nX; i++ {
		for k := 0; k < fan2; k++ {
			mustEdge("V", xs[i], y2s[(i*fan2+k*2654435761+1)%nY])
		}
	}
	for i := 0; i < nX; i++ {
		mustEdge("Q", ys[(i*(nY/nX))%nY], zs[i%nZ]) // 16 collapsing edges
	}
	for i := 0; i < nY; i++ {
		for k := 0; k < 4; k++ {
			mustEdge("W", y2s[i], zs[(i*7+k*131+1)%nZ]) // dense into :Z
		}
	}
	g.Sync()
	g.Unlock()

	workloads := []struct {
		name  string
		query string
	}{
		{"hash-bridge", `MATCH (a:L)-[:E1]->(b:M), (c:F)-[:E2]->(d:T) WHERE b.k = c.k RETURN count(*)`},
		{"dp-cycle", `MATCH (a:X)-[:P]->(b:Y)-[:Q]->(d:Z), (a)-[:V]->(c:Y2)-[:W]->(d) RETURN count(*)`},
	}
	var out []JoinOrderResult
	for _, wl := range workloads {
		once := func(cfg core.Config) (float64, string) {
			runtime.GC()
			t0 := time.Now()
			rs, err := core.ROQuery(g, wl.query, nil, cfg)
			if err != nil {
				panic(fmt.Sprintf("bench: join-order: %v", err))
			}
			rows := make([]string, len(rs.Rows))
			for i, row := range rs.Rows {
				rows[i] = fmt.Sprint(row)
			}
			sort.Strings(rows)
			return float64(time.Since(t0).Nanoseconds()) / 1e6, strings.Join(rows, ";")
		}
		// Interleave the two planner modes so time-varying machine noise
		// biases neither; keep the median of the post-warmup reps.
		var joinReps, greedyReps []float64
		var ref string
		for rep := 0; rep < 6; rep++ {
			el, rows := once(core.Config{OpThreads: 1})
			if rep > 0 {
				joinReps = append(joinReps, el)
			}
			if ref == "" {
				ref = rows
			} else if rows != ref {
				panic(fmt.Sprintf("bench: join-order disagreement on %s (joined)", wl.name))
			}
			el, rows = once(core.Config{OpThreads: 1, NoJoinPlanner: true})
			if rep > 0 {
				greedyReps = append(greedyReps, el)
			}
			if rows != ref {
				panic(fmt.Sprintf("bench: join-order disagreement on %s (greedy)", wl.name))
			}
		}
		if _, rows := once(core.Config{OpThreads: 1, NoCostPlanner: true}); rows != ref {
			panic(fmt.Sprintf("bench: join-order disagreement on %s (textual)", wl.name))
		}
		sort.Float64s(joinReps)
		sort.Float64s(greedyReps)
		r := JoinOrderResult{
			Workload: wl.name, Query: wl.query,
			Rows:     strings.Count(ref, ";") + 1,
			GreedyMS: greedyReps[len(greedyReps)/2],
			JoinedMS: joinReps[len(joinReps)/2],
		}
		r.Speedup = r.GreedyMS / r.JoinedMS
		out = append(out, r)
		fmt.Fprintf(s.w, "  %-12s greedy %10.2f ms  joined %8.2f ms  %6.2fx\n",
			r.Workload, r.GreedyMS, r.JoinedMS, r.Speedup)
	}
	fmt.Fprintln(s.w)
	return out
}

// KernelSelectResult is one workload cell of the direction-optimizing
// kernel experiment (E10): the same queries under forced push, forced pull
// and density-adaptive auto traversal kernels.
type KernelSelectResult struct {
	Dataset    string  `json:"dataset"`
	Workload   string  `json:"workload"`
	Query      string  `json:"query"`
	Queries    int     `json:"queries"`
	PushQPS    float64 `json:"push_qps"`
	PullQPS    float64 `json:"pull_qps"`
	AutoQPS    float64 `json:"auto_qps"`
	AutoVsPush float64 `json:"auto_vs_push"` // auto_qps / push_qps
	AutoVsBest float64 `json:"auto_vs_best"` // auto_qps / max(push_qps, pull_qps)
}

// MisEstimate is one order-of-magnitude planner mis-estimate observed while
// profiling a bench workload: the estimated-vs-actual feedback loop over
// PROFILE's `est:` versus `Records produced:` figures. Warn-only — surfaced
// in the JSON artifact and on stdout, never failing the run.
type MisEstimate struct {
	Dataset  string  `json:"dataset"`
	Workload string  `json:"workload"`
	Op       string  `json:"op"`
	Est      float64 `json:"est"`
	Actual   int64   `json:"actual"`
	Factor   float64 `json:"factor"`
}

// KernelSelectReport bundles the experiment cells with the est-vs-actual
// feedback rows for the BENCH_kernel.json artifact.
type KernelSelectReport struct {
	Results      []KernelSelectResult `json:"results"`
	MisEstimates []MisEstimate        `json:"mis_estimates"`
}

// profileEstRE extracts the cardinality estimate and actual record count
// from one GRAPH.PROFILE line.
var profileEstRE = regexp.MustCompile(`est: ([^ ]+) rows \| Records produced: ([0-9]+)`)

// estFeedback profiles one query and flags operations whose estimate misses
// the produced record count by an order of magnitude in either direction
// (ignoring disagreements where both figures are small).
func estFeedback(g *graph.Graph, dataset, workload, query string) []MisEstimate {
	lines, err := core.Profile(g, query, nil, core.Config{OpThreads: 1})
	if err != nil {
		panic(fmt.Sprintf("bench: est-feedback: %v", err))
	}
	var out []MisEstimate
	for _, line := range lines {
		m := profileEstRE.FindStringSubmatch(line)
		if m == nil {
			continue
		}
		est := 0.5 // "<1" prints for sub-row estimates
		if m[1] != "<1" {
			if v, err := strconv.ParseFloat(m[1], 64); err == nil {
				est = v
			}
		}
		actual, _ := strconv.ParseInt(m[2], 10, 64)
		hi, lo := est, float64(actual)
		if lo > hi {
			hi, lo = lo, hi
		}
		if lo < 0.5 {
			lo = 0.5
		}
		factor := hi / lo
		if factor < 10 || hi < 10 {
			continue
		}
		op := strings.TrimSpace(line)
		if i := strings.Index(op, " | "); i > 0 {
			op = op[:i]
		}
		out = append(out, MisEstimate{Dataset: dataset, Workload: workload, Op: op,
			Est: est, Actual: actual, Factor: factor})
	}
	return out
}

// hubSeeds returns the k highest-out-degree vertices of an edge list — the
// dense-frontier seeds of the kernel-selection experiment.
func hubSeeds(e *gen.EdgeList, k int) []int {
	deg := make([]int, e.NumNodes)
	for _, s := range e.Src {
		deg[s]++
	}
	order := make([]int, e.NumNodes)
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool { return deg[order[a]] > deg[order[b]] })
	if k > len(order) {
		k = len(order)
	}
	return order[:k]
}

// KernelSelect measures direction-optimizing traversal (E10): workloads
// spanning frontier densities — multi-hop expansion from high-degree seeds
// (frontiers densify hop over hop), a cycle-closing expand-into over every
// edge (the tiny-candidate-set pull case) and sparse single-seed one-hops
// (where push must keep winning) — each run under TRAVERSE_KERNEL push,
// pull and auto. Every variant must return identical rows (a differential
// check), auto must track the better direction everywhere, and the same
// queries feed the estimated-vs-actual PROFILE feedback.
func (s *Suite) KernelSelect() KernelSelectReport {
	fmt.Fprintln(s.w, "=== E10: direction-optimizing traversal kernels (push vs pull vs auto) ===")
	var report KernelSelectReport
	for _, d := range s.Datasets {
		g := s.graphs[d.Name]
		hubs := hubSeeds(d.Edges, 16)
		sparse := gen.Seeds(d.Edges, 256, 31)
		workloads := []struct {
			name    string
			display string // representative query for the report / feedback
			queries []string
		}{
			{
				name:    "khop3-hubs",
				display: fmt.Sprintf(`MATCH (s:Node {uid: %d})-[:F*1..3]->(n) RETURN count(n)`, hubs[0]),
				queries: func() []string {
					qs := make([]string, len(hubs))
					for i, h := range hubs {
						qs[i] = fmt.Sprintf(`MATCH (s:Node {uid: %d})-[:F*1..3]->(n) RETURN count(n)`, h)
					}
					return qs
				}(),
			},
			{
				name:    "expand-into-cycle",
				display: `MATCH (a:Node)-[:F]->(b:Node)-[:F]->(a) RETURN count(*)`,
				queries: []string{`MATCH (a:Node)-[:F]->(b:Node)-[:F]->(a) RETURN count(*)`},
			},
			{
				name:    "sparse-1hop",
				display: fmt.Sprintf(`MATCH (s:Node {uid: %d})-[:F]->(n) RETURN count(n)`, sparse[0]),
				queries: func() []string {
					qs := make([]string, len(sparse))
					for i, seed := range sparse {
						qs[i] = fmt.Sprintf(`MATCH (s:Node {uid: %d})-[:F]->(n) RETURN count(n)`, seed)
					}
					return qs
				}(),
			},
		}
		for _, wl := range workloads {
			once := func(kernel string) (float64, string) {
				runtime.GC()
				var rows []string
				t0 := time.Now()
				for _, q := range wl.queries {
					rs, err := core.ROQuery(g, q, nil, core.Config{OpThreads: 1, TraverseKernel: kernel})
					if err != nil {
						panic(fmt.Sprintf("bench: kernel-select: %v", err))
					}
					for _, row := range rs.Rows {
						rows = append(rows, fmt.Sprint(row))
					}
				}
				el := time.Since(t0)
				sort.Strings(rows)
				return float64(len(wl.queries)) / el.Seconds(), strings.Join(rows, ";")
			}
			kernels := []string{"push", "pull", "auto"}
			reps := make(map[string][]float64, len(kernels))
			var ref string
			// Interleave the three kernels so time-varying machine noise
			// biases none; keep the median of the post-warmup reps.
			for rep := 0; rep < 6; rep++ {
				for _, k := range kernels {
					qps, rows := once(k)
					if rep > 0 {
						reps[k] = append(reps[k], qps)
					}
					if ref == "" {
						ref = rows
					} else if rows != ref {
						panic(fmt.Sprintf("bench: kernel-select disagreement on %s/%s (%s)",
							d.Name, wl.name, k))
					}
				}
			}
			med := func(k string) float64 {
				xs := reps[k]
				sort.Float64s(xs)
				return xs[len(xs)/2]
			}
			r := KernelSelectResult{
				Dataset: d.Name, Workload: wl.name, Query: wl.display,
				Queries: len(wl.queries),
				PushQPS: med("push"), PullQPS: med("pull"), AutoQPS: med("auto"),
			}
			r.AutoVsPush = r.AutoQPS / r.PushQPS
			r.AutoVsBest = r.AutoQPS / math.Max(r.PushQPS, r.PullQPS)
			report.Results = append(report.Results, r)
			fmt.Fprintf(s.w, "  %-14s %-18s push %9.1f q/s  pull %9.1f q/s  auto %9.1f q/s  (%.2fx vs push, %.2fx vs best)\n",
				r.Dataset, r.Workload, r.PushQPS, r.PullQPS, r.AutoQPS, r.AutoVsPush, r.AutoVsBest)

			report.MisEstimates = append(report.MisEstimates,
				estFeedback(g, d.Name, wl.name, wl.display)...)
		}
	}
	for _, me := range report.MisEstimates {
		fmt.Fprintf(s.w, "  est-feedback WARN %s/%s %s: est %.3g vs actual %d (%.0fx off)\n",
			me.Dataset, me.Workload, me.Op, me.Est, me.Actual, me.Factor)
	}
	fmt.Fprintln(s.w)
	return report
}

// ParallelScalingResult is one (workload, thread-count) cell of the
// intra-query parallel-scaling experiment: the same query under
// MAX_QUERY_THREADS 1, 2, 4 and 8. GoMaxProcs records the host's actual
// core budget — on a single-core host the speedups stay near 1 however
// many workers the morsel pool runs, and the artifact must say so.
type ParallelScalingResult struct {
	Dataset    string  `json:"dataset"`
	Workload   string  `json:"workload"`
	Query      string  `json:"query"`
	Queries    int     `json:"queries"`
	Threads    int     `json:"threads"`
	GoMaxProcs int     `json:"gomaxprocs"`
	QPS        float64 `json:"qps"`
	MeanMS     float64 `json:"mean_ms"`
	Speedup    float64 `json:"speedup_vs_1"`
}

// ParallelScaling measures morsel-driven intra-query parallelism end to
// end: k-hop expansion from high-degree seeds (morselised kernels behind
// an index entry), a filter-heavy scan+aggregate (parallel pipeline
// segments into the aggregation merge) and ORDER BY + LIMIT (segments into
// the top-N merge), each at thread budgets 1, 2, 4 and 8. Every thread
// count must return identical rows — the experiment doubles as a
// differential check. Speedups are relative to the single-thread run of
// the same build, so threads=1 also guards against regression of the
// serial path.
func (s *Suite) ParallelScaling() []ParallelScalingResult {
	maxprocs := runtime.GOMAXPROCS(0)
	fmt.Fprintf(s.w, "=== E11: morsel-driven intra-query parallel scaling (GOMAXPROCS=%d) ===\n", maxprocs)
	d := s.Datasets[0]
	g := s.graphs[d.Name]
	n := d.Edges.NumNodes
	hubs := hubSeeds(d.Edges, 8)
	workloads := []struct {
		name    string
		display string
		queries []string
	}{
		{
			name:    "khop2-hubs",
			display: fmt.Sprintf(`MATCH (s:Node {uid: %d})-[:F*1..2]->(n) RETURN count(n)`, hubs[0]),
			queries: func() []string {
				qs := make([]string, len(hubs))
				for i, h := range hubs {
					qs[i] = fmt.Sprintf(`MATCH (s:Node {uid: %d})-[:F*1..2]->(n) RETURN count(n)`, h)
				}
				return qs
			}(),
		},
		{
			name: "filter-agg",
			display: fmt.Sprintf(
				`MATCH (a:Node)-[:F]->(b:Node) WHERE a.uid < %d RETURN min(b.uid), max(b.uid), count(b)`, n/2),
			queries: []string{fmt.Sprintf(
				`MATCH (a:Node)-[:F]->(b:Node) WHERE a.uid < %d RETURN min(b.uid), max(b.uid), count(b)`, n/2)},
		},
		{
			name:    "order-limit",
			display: `MATCH (a:Node)-[:F]->(b:Node) RETURN a.uid, b.uid ORDER BY a.uid, b.uid LIMIT 100`,
			queries: []string{`MATCH (a:Node)-[:F]->(b:Node) RETURN a.uid, b.uid ORDER BY a.uid, b.uid LIMIT 100`},
		},
	}
	threadCounts := []int{1, 2, 4, 8}
	var out []ParallelScalingResult
	for _, wl := range workloads {
		once := func(th int) (float64, string) {
			runtime.GC()
			var rows []string
			t0 := time.Now()
			for _, q := range wl.queries {
				rs, err := core.ROQuery(g, q, nil, core.Config{OpThreads: th})
				if err != nil {
					panic(fmt.Sprintf("bench: parallel-scaling: %v", err))
				}
				for _, row := range rs.Rows {
					rows = append(rows, fmt.Sprint(row))
				}
			}
			el := time.Since(t0)
			sort.Strings(rows)
			return el.Seconds(), strings.Join(rows, ";")
		}
		// Interleave the thread counts so time-varying machine noise biases
		// none; keep the median of the post-warmup reps.
		reps := make(map[int][]float64, len(threadCounts))
		var ref string
		for rep := 0; rep < 6; rep++ {
			for _, th := range threadCounts {
				el, rows := once(th)
				if rep > 0 {
					reps[th] = append(reps[th], el)
				}
				if ref == "" {
					ref = rows
				} else if rows != ref {
					panic(fmt.Sprintf("bench: parallel-scaling disagreement on %s (threads=%d)", wl.name, th))
				}
			}
		}
		med := func(th int) float64 {
			xs := reps[th]
			sort.Float64s(xs)
			return xs[len(xs)/2]
		}
		base := med(1)
		for _, th := range threadCounts {
			el := med(th)
			r := ParallelScalingResult{
				Dataset: d.Name, Workload: wl.name, Query: wl.display,
				Queries: len(wl.queries), Threads: th, GoMaxProcs: maxprocs,
				QPS:     float64(len(wl.queries)) / el,
				MeanMS:  el * 1000 / float64(len(wl.queries)),
				Speedup: base / el,
			}
			out = append(out, r)
			fmt.Fprintf(s.w, "  %-14s %-12s threads=%d  %9.1f q/s  %8.2f ms/q  %5.2fx vs 1 thread\n",
				r.Dataset, r.Workload, r.Threads, r.QPS, r.MeanMS, r.Speedup)
		}
	}
	fmt.Fprintln(s.w)
	return out
}

// RWMixResult is one (ratio, client-count) cell of the mixed read/write
// throughput experiment: total queries/sec under delta-matrix concurrent
// execution versus the coarse-lock baseline (whole-query exclusive lock and
// a full matrix fold per write query).
type RWMixResult struct {
	Dataset         string  `json:"dataset"`
	Ratio           string  `json:"ratio"` // reader:writer query mix
	Clients         int     `json:"clients"`
	Ops             int     `json:"ops"`
	Writes          int     `json:"writes"`
	DeltaQPS        float64 `json:"delta_qps"`
	CoarseQPS       float64 `json:"coarse_qps"`
	SpeedupVsCoarse float64 `json:"speedup_vs_coarse"`
	// ScalingVsSingle is DeltaQPS relative to the same ratio's 1-client
	// delta run. On a multi-core host concurrent RO queries scale with the
	// reader count; on a single-core host this stays near 1.
	ScalingVsSingle float64 `json:"scaling_vs_single"`
}

// RWMix measures mixed read/write throughput on the first dataset at
// reader:writer query ratios 1:0, 9:1 and 1:1. Readers issue indexed 1-hop
// RO queries; writers alternate CREATE and DELETE of :W edges between
// indexed nodes. Each cell runs twice: delta-matrix concurrency (readers
// share the lock with write queries' read phases; deltas fold on threshold)
// and the coarse baseline (CoarseLock, full fold per write query).
func (s *Suite) RWMix(totalOps int) []RWMixResult {
	fmt.Fprintln(s.w, "=== E7: mixed read/write throughput (queries/sec) ===")
	d := s.Datasets[0]
	g := s.graphs[d.Name]
	seeds := gen.Seeds(d.Edges, 256, 77)

	readQ := func(seed int) {
		q := fmt.Sprintf(`MATCH (s:Node {uid: %d})-[:F]->(n) RETURN count(n)`, seed)
		if _, err := core.ROQuery(g, q, nil, core.Config{OpThreads: 1}); err != nil {
			panic(fmt.Sprintf("bench: rw-mix read: %v", err))
		}
	}
	// writeQ issues the i-th write query: alternating CREATE and DELETE of
	// :W edges so the graph stays near its steady-state size.
	writeQ := func(i int, cfg core.Config) {
		x := seeds[i%len(seeds)]
		y := seeds[(i*7+3)%len(seeds)]
		var q string
		if i%2 == 0 {
			q = fmt.Sprintf(`MATCH (a:Node {uid: %d}), (b:Node {uid: %d}) CREATE (a)-[:W]->(b)`, x, y)
		} else {
			q = fmt.Sprintf(`MATCH (a:Node {uid: %d})-[e:W]->(b) DELETE e`, x)
		}
		if _, err := core.Query(g, q, nil, cfg); err != nil {
			panic(fmt.Sprintf("bench: rw-mix write: %v", err))
		}
	}
	cleanup := func() {
		if _, err := core.Query(g, `MATCH (a)-[e:W]->(b) DELETE e`, nil, core.Config{OpThreads: 1}); err != nil {
			panic(fmt.Sprintf("bench: rw-mix cleanup: %v", err))
		}
		g.Lock()
		g.Sync()
		g.Unlock()
	}

	// run executes totalOps queries across the given client count; ops whose
	// global index hits the writeEvery stride are write queries.
	run := func(cfg core.Config, clients, writeEvery int) (qps float64, writes int) {
		per := totalOps / clients
		var wg sync.WaitGroup
		t0 := time.Now()
		for c := 0; c < clients; c++ {
			wg.Add(1)
			go func(c int) {
				defer wg.Done()
				for i := 0; i < per; i++ {
					global := c*per + i
					if writeEvery > 0 && global%writeEvery == writeEvery-1 {
						writeQ(global/writeEvery, cfg)
					} else {
						readQ(seeds[global%len(seeds)])
					}
				}
			}(c)
		}
		wg.Wait()
		el := time.Since(t0)
		total := per * clients
		if writeEvery > 0 {
			writes = total / writeEvery
		}
		return float64(total) / el.Seconds(), writes
	}

	ratios := []struct {
		name       string
		writeEvery int
	}{{"1:0", 0}, {"9:1", 10}, {"1:1", 2}}
	// Each cell runs twice and keeps the better rep (rep 0 warms caches and
	// absorbs GC debt from the previous cell).
	best := func(cfg core.Config, clients, writeEvery int) (float64, int) {
		var qps float64
		var writes int
		for rep := 0; rep < 2; rep++ {
			runtime.GC()
			q, w := run(cfg, clients, writeEvery)
			cleanup()
			if q > qps {
				qps, writes = q, w
			}
		}
		return qps, writes
	}

	var out []RWMixResult
	for _, ratio := range ratios {
		var single float64
		for _, clients := range []int{1, 2, 4} {
			deltaQPS, writes := best(core.Config{OpThreads: 1}, clients, ratio.writeEvery)
			coarseQPS, _ := best(core.Config{OpThreads: 1, CoarseLock: true}, clients, ratio.writeEvery)
			if clients == 1 {
				single = deltaQPS
			}
			r := RWMixResult{
				Dataset: d.Name, Ratio: ratio.name, Clients: clients,
				Ops: totalOps / clients * clients, Writes: writes,
				DeltaQPS: deltaQPS, CoarseQPS: coarseQPS,
				SpeedupVsCoarse: deltaQPS / coarseQPS,
				ScalingVsSingle: deltaQPS / single,
			}
			out = append(out, r)
			fmt.Fprintf(s.w, "  %-14s ratio=%-4s clients=%d  delta %9.0f q/s  coarse %9.0f q/s  %5.2fx vs coarse  %4.2fx vs 1 client\n",
				r.Dataset, r.Ratio, r.Clients, r.DeltaQPS, r.CoarseQPS, r.SpeedupVsCoarse, r.ScalingVsSingle)
		}
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

// PlanCacheResult is one workload cell of the plan-cache experiment (E12):
// a hot/cold query-shape mix executed with the parameterized plan cache on
// vs off (the GRAPH.CONFIG SET PLAN_CACHE_SIZE 0 baseline). Results are
// checked bit-identical between the two paths on every query.
type PlanCacheResult struct {
	Workload      string  `json:"workload"`
	Batch         int     `json:"batch"`
	Queries       int     `json:"queries"`
	UncachedQPS   float64 `json:"uncached_qps"`
	CachedQPS     float64 `json:"cached_qps"`
	Speedup       float64 `json:"speedup"` // cached_qps / uncached_qps
	Hits          uint64  `json:"hits"`
	Misses        uint64  `json:"misses"`
	Evictions     uint64  `json:"evictions"`
	Invalidations uint64  `json:"invalidations"`
	Revalidations uint64  `json:"revalidations"`
	CacheBytes    int64   `json:"plan_cache_bytes"`
}

// planCacheGraph builds the experiment fixture: n indexed :Node vertices
// with 4 deterministic :F successors each, so the hot shapes (index seed +
// short traversal) execute in microseconds and per-request parse+plan is
// the dominant cost — the regime the cache targets.
func planCacheGraph(n int) *graph.Graph {
	g := graph.New("plan-cache")
	g.Lock()
	ids := make([]uint64, n)
	for i := 0; i < n; i++ {
		ids[i] = g.CreateNode([]string{"Node"}, map[string]value.Value{
			"uid": value.NewInt(int64(i)),
		}).ID
	}
	for i, id := range ids {
		for k := 0; k < 4; k++ {
			if _, err := g.CreateEdge("F", id, ids[(i*2654435761+k*40503+1)%n], nil); err != nil {
				panic(fmt.Sprintf("bench: plan-cache: %v", err))
			}
		}
	}
	g.CreateIndex("Node", "uid")
	g.Sync()
	g.Unlock()
	return g
}

// planCacheHotShapes are the parameterized templates of the hot mix; only
// the $seed binding varies between requests. All four are point-read /
// neighbourhood-count shapes whose execution completes in microseconds,
// so per-request parse+plan dominates — the production regime the cache
// targets. Materializing traversals spend O(graph) extracting result
// frontiers, which the cache cannot and should not hide; the write mix
// below covers that modest-gain end.
var planCacheHotShapes = []string{
	`MATCH (s:Node {uid: $seed})-[:F]->(n) RETURN count(n)`,
	`MATCH (s:Node {uid: $seed})-[:F]->(n) WHERE n.uid > $seed RETURN count(n)`,
	`MATCH (s:Node) WHERE s.uid = $seed RETURN s.uid`,
	`MATCH (s:Node {uid: $seed}) RETURN s.uid, s.uid + 1, s.uid * 2`,
}

// PlanCache reproduces the parse/plan-amortization experiment: a 90/10
// hot/cold shape mix at pipeline batch sizes 1 and 64, plus a write-heavy
// mix demonstrating that epoch churn revalidates cached templates instead
// of thrashing them. Cached and uncached paths must agree on every row.
func (s *Suite) PlanCache(queries int) []PlanCacheResult {
	fmt.Fprintf(s.w, "=== E12: parameterized plan cache, hot/cold shape mix (scale=%d) ===\n", s.scale)
	n := 1 << s.scale
	g := planCacheGraph(n)

	// runMix drives one deterministic request stream and returns elapsed
	// time plus the canonical rows of every request (the differential).
	// writeEvery > 0 inserts a connectivity write every writeEvery requests.
	runMix := func(g *graph.Graph, cfg core.Config, queries, writeEvery int) (time.Duration, []string) {
		rows := make([]string, 0, queries)
		canon := func(rs *core.ResultSet) string {
			out := make([]string, len(rs.Rows))
			for i, row := range rs.Rows {
				out[i] = fmt.Sprint(row)
			}
			sort.Strings(out)
			return strings.Join(out, ";")
		}
		wuid := n
		t0 := time.Now()
		for i := 0; i < queries; i++ {
			seed := int64((i * 2654435761) % n)
			params := map[string]value.Value{"seed": value.NewInt(seed)}
			var q string
			switch {
			case writeEvery > 0 && i%writeEvery == writeEvery-1:
				// Connectivity write: a fresh node wired to an existing one
				// (epoch bump; stats drift slowly).
				q = fmt.Sprintf(`MATCH (a:Node {uid: %d}) CREATE (a)-[:F]->(:Node {uid: %d})`, seed, wuid)
				wuid++
			case i%10 == 9:
				// Cold shape: the literal is baked into the text, so every
				// request is a new cache key.
				q = fmt.Sprintf(`MATCH (s:Node {uid: %d})-[:F]->(n) WHERE n.uid < %d RETURN count(n)`, seed, 10*n+i)
			default:
				q = planCacheHotShapes[i%len(planCacheHotShapes)]
			}
			rs, err := core.Query(g, q, params, cfg)
			if err != nil {
				panic(fmt.Sprintf("bench: plan-cache: %s: %v", q, err))
			}
			rows = append(rows, canon(rs))
		}
		return time.Since(t0), rows
	}

	var out []PlanCacheResult
	cell := func(workload string, batch, queries, writeEvery int) {
		// The write mix mutates its graph, so each run gets a fresh build;
		// read mixes share the static fixture.
		graphFor := func() *graph.Graph {
			if writeEvery > 0 {
				return planCacheGraph(n)
			}
			return g
		}
		var unReps, caReps []float64
		var counters core.PlanCacheCounters
		for rep := 0; rep < 6; rep++ {
			runtime.GC()
			elU, rowsU := runMix(graphFor(), core.Config{TraverseBatch: batch}, queries, writeEvery)
			runtime.GC()
			pc := core.NewPlanCache(core.DefaultPlanCacheSize)
			elC, rowsC := runMix(graphFor(), core.Config{TraverseBatch: batch, PlanCache: pc}, queries, writeEvery)
			for i := range rowsU {
				if rowsU[i] != rowsC[i] {
					panic(fmt.Sprintf("bench: plan-cache divergence %s req %d:\ncached:   %s\nuncached: %s",
						workload, i, rowsC[i], rowsU[i]))
				}
			}
			if rep == 0 {
				continue
			}
			unReps = append(unReps, float64(queries)/elU.Seconds())
			caReps = append(caReps, float64(queries)/elC.Seconds())
			counters = pc.Counters()
		}
		sort.Float64s(unReps)
		sort.Float64s(caReps)
		r := PlanCacheResult{
			Workload: workload, Batch: batch, Queries: queries,
			UncachedQPS: unReps[len(unReps)/2], CachedQPS: caReps[len(caReps)/2],
			Hits: counters.Hits, Misses: counters.Misses, Evictions: counters.Evictions,
			Invalidations: counters.Invalidations, Revalidations: counters.Revalidations,
			CacheBytes: counters.Bytes,
		}
		r.Speedup = r.CachedQPS / r.UncachedQPS
		out = append(out, r)
		fmt.Fprintf(s.w, "  %-10s batch %-3d  uncached %9.0f q/s  cached %9.0f q/s  %5.2fx  (hits %d misses %d reval %d inval %d)\n",
			r.Workload, r.Batch, r.UncachedQPS, r.CachedQPS, r.Speedup,
			r.Hits, r.Misses, r.Revalidations, r.Invalidations)
	}

	cell("hot-mix", 1, queries, 0)
	cell("hot-mix", 64, queries, 0)
	cell("write-mix", 64, queries/2, 5)
	fmt.Fprintln(s.w)
	return out
}

// ConcurrentLoadResult is one client-count cell of the inter-query
// concurrency experiment (E14): queries/sec and tail latency of a 90/10
// read/write mix under the fair multi-tenant morsel scheduler versus the
// FAIR_SCHEDULER 0 baseline (untagged pool, full requested parallelism per
// query regardless of the active-query count). Read rows are compared for
// equality between the two schedulers on every run.
type ConcurrentLoadResult struct {
	Dataset   string  `json:"dataset"`
	Clients   int     `json:"clients"`
	Ops       int     `json:"ops"`
	Writes    int     `json:"writes"`
	FairQPS   float64 `json:"fair_qps"`
	FairP50MS float64 `json:"fair_p50_ms"`
	FairP99MS float64 `json:"fair_p99_ms"`
	BaseQPS   float64 `json:"baseline_qps"`
	BaseP50MS float64 `json:"baseline_p50_ms"`
	BaseP99MS float64 `json:"baseline_p99_ms"`
	// QPSRatio and P99Ratio compare fair against the baseline (>1 means the
	// fair scheduler is higher-throughput / longer-tailed respectively).
	QPSRatio  float64 `json:"qps_ratio_fair_vs_baseline"`
	P99Ratio  float64 `json:"p99_ratio_fair_vs_baseline"`
	RowsEqual bool    `json:"rows_equal"`
}

// ConcurrentLoad measures inter-query scheduling on the first dataset: at
// each client count, every client issues parallel-eligible 2-hop count
// reads with a 10% write stride (the RWMix create/delete pattern), once
// under the fair scheduler (per-query morsel tagging + elastic thread
// budget) and once with NoFairScheduler restoring the pre-admission-control
// behavior. Each cell runs twice per scheduler and keeps the
// higher-throughput rep; reads record their counts so the two schedulers'
// rows can be compared for equality.
func (s *Suite) ConcurrentLoad(totalOps int) []ConcurrentLoadResult {
	fmt.Fprintln(s.w, "=== E14: concurrent-load — fair scheduler vs baseline (90/10 read/write) ===")
	d := s.Datasets[0]
	g := s.graphs[d.Name]
	seeds := gen.Seeds(d.Edges, 256, 55)
	const writeEvery = 10
	// Reads request more threads than the budget / active-query ratio
	// grants under load, so the elastic clamp has something to clamp.
	reqThreads := pool.Parallelism()

	readQ := func(seed int, cfg core.Config) int64 {
		q := fmt.Sprintf(`MATCH (s:Node {uid: %d})-[:F]->(n)-[:F]->(m) RETURN count(m)`, seed)
		rs, err := core.ROQuery(g, q, nil, cfg)
		if err != nil {
			panic(fmt.Sprintf("bench: concurrent-load read: %v", err))
		}
		return rs.Rows[0][0].Int()
	}
	writeQ := func(i int, cfg core.Config) {
		x := seeds[i%len(seeds)]
		y := seeds[(i*7+3)%len(seeds)]
		var q string
		if i%2 == 0 {
			q = fmt.Sprintf(`MATCH (a:Node {uid: %d}), (b:Node {uid: %d}) CREATE (a)-[:W]->(b)`, x, y)
		} else {
			q = fmt.Sprintf(`MATCH (a:Node {uid: %d})-[e:W]->(b) DELETE e`, x)
		}
		if _, err := core.Query(g, q, nil, cfg); err != nil {
			panic(fmt.Sprintf("bench: concurrent-load write: %v", err))
		}
	}
	cleanup := func() {
		if _, err := core.Query(g, `MATCH (a)-[e:W]->(b) DELETE e`, nil, core.Config{OpThreads: 1}); err != nil {
			panic(fmt.Sprintf("bench: concurrent-load cleanup: %v", err))
		}
		g.Lock()
		g.Sync()
		g.Unlock()
	}

	// run executes one cell: per-op latencies for the percentile figures and
	// per-op read counts for the cross-scheduler row comparison.
	run := func(clients int, fair bool) (qps float64, lat []float64, rows []int64, writes int) {
		per := totalOps / clients
		if per == 0 {
			per = 1
		}
		total := per * clients
		cfg := core.Config{OpThreads: reqThreads, NoFairScheduler: !fair}
		lat = make([]float64, total)
		rows = make([]int64, total)
		var wg sync.WaitGroup
		t0 := time.Now()
		for c := 0; c < clients; c++ {
			wg.Add(1)
			go func(c int) {
				defer wg.Done()
				for i := 0; i < per; i++ {
					global := c*per + i
					q0 := time.Now()
					if global%writeEvery == writeEvery-1 {
						writeQ(global/writeEvery, cfg)
						rows[global] = -1
					} else {
						rows[global] = readQ(seeds[global%len(seeds)], cfg)
					}
					lat[global] = float64(time.Since(q0).Nanoseconds()) / 1e6
				}
			}(c)
		}
		wg.Wait()
		el := time.Since(t0)
		return float64(total) / el.Seconds(), lat, rows, total / writeEvery
	}
	pct := func(lat []float64, q float64) float64 {
		sort.Float64s(lat)
		i := int(q * float64(len(lat)))
		if i >= len(lat) {
			i = len(lat) - 1
		}
		return lat[i]
	}
	// cell measures one client count: seven reps per scheduler, the two
	// schedulers interleaved rep by rep so slow environmental drift (CPU
	// contention from neighbors, thermal state) lands on both sides of the
	// comparison instead of one block. Throughput is the best rep (rep 0
	// absorbs the cold caches and GC debt left by dataset loading); the
	// latency percentiles are computed over all reps' pooled samples — on a
	// small host, GC cycles land on arbitrary reps, so a single rep's tail
	// measures that lottery while the pooled tail converges on what each
	// scheduler sustains. Read rows are identical across reps (reads never
	// touch the :W edges the writes mutate), so the cross-scheduler row
	// comparison uses the last rep's.
	type cellStats struct {
		qps    float64
		pooled []float64
		rows   []int64
		writes int
	}
	cell := func(clients int) (fair, base cellStats) {
		for rep := 0; rep < 7; rep++ {
			for _, m := range []*cellStats{&fair, &base} {
				runtime.GC()
				q, l, r, w := run(clients, m == &fair)
				cleanup()
				m.qps = math.Max(m.qps, q)
				m.pooled = append(m.pooled, l...)
				m.rows, m.writes = r, w
			}
		}
		return fair, base
	}

	var out []ConcurrentLoadResult
	for _, clients := range []int{1, 4, 16, 64} {
		fair, base := cell(clients)
		fairQPS, fairP50, fairP99 := fair.qps, pct(fair.pooled, 0.50), pct(fair.pooled, 0.99)
		baseQPS, baseP50, baseP99 := base.qps, pct(base.pooled, 0.50), pct(base.pooled, 0.99)
		fairRows, baseRows, writes := fair.rows, base.rows, fair.writes
		equal := len(fairRows) == len(baseRows)
		for i := 0; equal && i < len(fairRows); i++ {
			equal = fairRows[i] == baseRows[i]
		}
		r := ConcurrentLoadResult{
			Dataset: d.Name, Clients: clients, Ops: len(fairRows), Writes: writes,
			FairQPS: fairQPS, FairP50MS: fairP50, FairP99MS: fairP99,
			BaseQPS: baseQPS, BaseP50MS: baseP50, BaseP99MS: baseP99,
			QPSRatio: fairQPS / baseQPS, RowsEqual: equal,
		}
		r.P99Ratio = r.FairP99MS / r.BaseP99MS
		out = append(out, r)
		fmt.Fprintf(s.w, "  %-14s clients=%-3d fair %8.0f q/s p50 %7.2f p99 %7.2f ms | base %8.0f q/s p50 %7.2f p99 %7.2f ms | qps %4.2fx p99 %4.2fx rows-equal=%v\n",
			r.Dataset, r.Clients, r.FairQPS, r.FairP50MS, r.FairP99MS,
			r.BaseQPS, r.BaseP50MS, r.BaseP99MS, r.QPSRatio, r.P99Ratio, r.RowsEqual)
		if !equal {
			panic("bench: concurrent-load: fair and baseline schedulers returned different rows")
		}
	}
	fmt.Fprintln(s.w)
	return out
}
