package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"time"

	"redisgraph/internal/client"
	"redisgraph/internal/core"
	"redisgraph/internal/cypher"
	"redisgraph/internal/graph"
	"redisgraph/internal/grb"
	"redisgraph/internal/persist"
	"redisgraph/internal/pool"
	"redisgraph/internal/resp"
	"redisgraph/internal/server"
	"redisgraph/internal/value"
)

// The traced run measures layers from outside: it times calls into each
// layer's public functions with the workload's own commands. The server is
// opaque from here, so a request is traced in two steps — one round trip
// through an in-process server (span server.roundtrip), then the same
// command re-enacted call by call on a second copy of the graph, each call a
// child span of that round trip. server.self_us is what the children do not
// account for: sockets, goroutine hand-offs, encodeResultSet. A PING through
// the same in-process server (server.ping) times the part of that remainder
// that can be reached from outside: sockets, resp and the dispatcher.

// span is one timed call. Parent is an index into the same slice (-1 for a
// root); children re-enact their parent, so they start after it ends.
type span struct {
	Name    string `json:"name"`
	Req     int    `json:"req"`
	Parent  int    `json:"parent"`
	StartNs int64  `json:"start_ns"`
	EndNs   int64  `json:"end_ns"`
}

type tracer struct {
	on    bool
	t0    time.Time
	spans []span
}

// do times fn as a span; with the tracer off it only times it.
func (t *tracer) do(name string, req, parent int, fn func()) (int, time.Duration) {
	begin := time.Now()
	fn()
	end := time.Now()
	if !t.on {
		return -1, end.Sub(begin)
	}
	t.spans = append(t.spans, span{name, req, parent, int64(begin.Sub(t.t0)), int64(end.Sub(t.t0))})
	return len(t.spans) - 1, end.Sub(begin)
}

// selfTimes returns, per span name, the summed duration minus the summed
// duration of direct children.
func selfTimes(spans []span) map[string]time.Duration {
	self := map[string]time.Duration{}
	for _, s := range spans {
		d := time.Duration(s.EndNs - s.StartNs)
		self[s.Name] += d
		if s.Parent >= 0 {
			self[spans[s.Parent].Name] -= d
		}
	}
	return self
}

// coverage is the share of the server.roundtrip spans' time that their
// direct children (the re-enacted layer calls) plus the server.ping spans
// (an empty round trip: sockets, resp, dispatcher) explain. A missing child
// span pulls it below 1; a double-counted one, which is also what a negative
// server.self_us means, pushes it above.
func coverage(spans []span) float64 {
	var roundtrip, explained int64
	for _, s := range spans {
		d := s.EndNs - s.StartNs
		switch {
		case s.Name == "server.roundtrip":
			roundtrip += d
		case s.Name == "server.ping":
			explained += d
		case s.Parent >= 0 && spans[s.Parent].Name == "server.roundtrip":
			explained += d
		}
	}
	return float64(explained) / float64(roundtrip)
}

func totals(spans []span) map[string]time.Duration {
	tot := map[string]time.Duration{}
	for _, s := range spans {
		tot[s.Name] += time.Duration(s.EndNs - s.StartNs)
	}
	return tot
}

// feed is an io.Reader the resp.Reader under test drains; refilling it
// re-uses one reader the way a connection does.
type feed struct{ data []byte }

func (f *feed) Read(p []byte) (int, error) {
	if len(f.data) == 0 {
		return 0, io.EOF
	}
	n := copy(p, f.data)
	f.data = f.data[n:]
	return n, nil
}

// The traced run's own short wire pass.
const (
	tracePassWarmup = time.Second
	tracePassWindow = 3 * time.Second
)

// traceOps is how many ops each pass replays.
func traceOps(name string) int {
	if name == "khop-traverse" || name == "filter-agg" {
		return 300
	}
	return 2000
}

func us(d time.Duration, n int) float64 { return float64(d.Nanoseconds()) / 1e3 / float64(n) }

// runTrace produces every per-layer metric for one workload.
func (s *session) runTrace(name string) (*result, error) {
	n := traceOps(name)
	m := map[string]float64{}

	// Pass 0, over the wire and untraced: what a client really waits, for
	// trace.inproc_wire_ratio, the client.* diagnostics, and the oracle check
	// of this invocation.
	wire, err := s.runWire(name, 1, tracePassWarmup, tracePassWindow)
	if err != nil {
		return nil, err
	}
	for _, d := range wire.diagnostics() {
		m[d.name] = d.value
	}
	wireMeanUs := float64(wire.meanLatency().Nanoseconds()) / 1e3

	// The in-process server loads the snapshot itself; the replay graph is a
	// second load, which is also the persist.* and graph.heap_* sample.
	replay, err := loadReplay(m, s.snapshot)
	if err != nil {
		return nil, err
	}

	srv := server.New(server.Options{Addr: "127.0.0.1:0", ThreadCount: 2, SnapshotPath: s.snapshot})
	if err := srv.Start(); err != nil {
		return nil, fmt.Errorf("in-process server: %w", err)
	}
	defer srv.Close()
	cl, err := client.Dial(srv.Addr())
	if err != nil {
		return nil, err
	}
	defer cl.Close()

	w, err := newWorkload(name, s.data, s.cfg.seed)
	if err != nil {
		return nil, err
	}
	cache := core.NewPlanCache(core.DefaultPlanCacheSize)
	hotCfg := core.Config{PlanCache: cache}
	tr := &tracer{t0: time.Now()}

	// Pass 1, spans off: round trips only, then the same ops on the replay
	// graph so both copies stay in step for write-mix. That second loop is
	// nothing but hot core queries, so the allocator counters around it are
	// core's alone (parameters are parsed beforehand).
	var rtOff time.Duration
	first := make([]op, n)
	for i := range first {
		o := w.next()
		first[i] = o
		_, d := tr.do("server.roundtrip", i, -1, func() { _, err = cl.Do(o.cmd, graphName, o.query) })
		if err != nil {
			return nil, fmt.Errorf("untraced round trip %d: %w", i, err)
		}
		rtOff += d
	}
	bodies := make([]string, n)
	paramSets := make([]map[string]value.Value, n)
	for i, o := range first {
		if paramSets[i], bodies[i], err = cypher.ParseParams(o.query); err != nil {
			return nil, err
		}
	}
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	for i, o := range first {
		if _, err := runQuery(replay, o.cmd, bodies[i], paramSets[i], hotCfg); err != nil {
			return nil, fmt.Errorf("core query %q: %w", o.query, err)
		}
	}
	runtime.ReadMemStats(&ms1)
	m["core.allocs_per_op"] = float64(ms1.Mallocs-ms0.Mallocs) / float64(n)
	m["core.alloc_kb_per_op"] = float64(ms1.TotalAlloc-ms0.TotalAlloc) / 1024 / float64(n)

	// Pass 2, spans on: round trip, then its re-enactment.
	tr.on = true
	tr.spans = make([]span, 0, 11*n)
	gate := pool.NewGate(0) // the server's default: unbounded
	workers := pool.New(2)
	defer workers.Close()
	cmdFeed, replyFeed := &feed{}, &feed{}
	cmdReader, replyReader := resp.NewReader(cmdFeed), resp.NewReader(replyFeed)
	var wireBuf bytes.Buffer
	var cmdBytes, replyBytes uint64
	for i := 0; i < n; i++ {
		o := w.next()
		req := n + i
		var v any
		root, _ := tr.do("server.roundtrip", req, -1, func() { v, err = cl.Do(o.cmd, graphName, o.query) })
		if err != nil {
			return nil, fmt.Errorf("traced round trip %d: %w", i, err)
		}
		// A root span, not a child: the children are the layer calls the
		// round trip is made of, this is a second, empty round trip.
		tr.do("server.ping", req, -1, func() { _, err = cl.Do("PING") })
		if err != nil {
			return nil, fmt.Errorf("in-process PING: %w", err)
		}

		wireBuf.Reset()
		resp.NewWriter(&wireBuf).WriteCommand(o.cmd, graphName, o.query)
		cmdBytes += uint64(wireBuf.Len())
		cmdFeed.data = wireBuf.Bytes()
		tr.do("resp.read_command", req, root, func() { _, err = cmdReader.ReadCommand() })
		if err != nil {
			return nil, fmt.Errorf("resp.ReadCommand: %w", err)
		}

		var params map[string]value.Value
		var body string
		tr.do("cypher.parse_params", req, root, func() { params, body, err = cypher.ParseParams(o.query) })
		if err != nil {
			return nil, fmt.Errorf("cypher.ParseParams: %w", err)
		}
		tr.do("pool.submit_wait", req, root, func() {
			if f, err := workers.Submit(func() (any, error) { return nil, nil }); err == nil {
				f.Wait()
			}
		})
		tr.do("pool.gate", req, root, func() {
			if _, err := gate.Acquire(time.Second); err == nil {
				gate.Release()
			}
		})

		hot, _ := tr.do("core.query_hot", req, root, func() { _, err = runQuery(replay, o.cmd, body, params, hotCfg) })
		if err != nil {
			return nil, fmt.Errorf("core query %q: %w", o.query, err)
		}
		tr.do("cypher.canonical", req, hot, func() { cypher.CanonicalQueryText(body) })

		wireBuf.Reset()
		rw := resp.NewWriter(&wireBuf)
		tr.do("resp.write_reply", req, root, func() { err = rw.WriteReply(v) })
		if err != nil {
			return nil, fmt.Errorf("resp.WriteReply: %w", err)
		}
		replyBytes += uint64(wireBuf.Len())
		replyFeed.data = wireBuf.Bytes()
		tr.do("resp.read_reply", req, root, func() { _, err = replyReader.ReadReply() })
		if err != nil {
			return nil, fmt.Errorf("resp.ReadReply: %w", err)
		}
	}
	tr.on = false
	hits := cache.Counters()
	m["core.plancache_hit_ratio"] = float64(hits.Hits) / float64(hits.Hits+hits.Misses)
	m["graph.pending_deltas"] = float64(replay.PendingDeltas())

	// Pass 3: the next n ops of the stream, cold (no plan cache) on the
	// server's graph and profiled on the replay graph; both graphs have seen
	// the same 2n ops, so both stay valid states of the stream.
	served := srv.Graph(graphName)
	var prof profileTotals
	coldSpans := len(tr.spans)
	tr.on = true
	for i := 0; i < n; i++ {
		o := w.next()
		req := 2*n + i
		params, body, err := cypher.ParseParams(o.query)
		if err != nil {
			return nil, err
		}
		cold, _ := tr.do("core.query_cold", req, -1, func() { _, err = runQuery(served, o.cmd, body, params, core.Config{}) })
		if err != nil {
			return nil, fmt.Errorf("cold core query %q: %w", o.query, err)
		}
		tr.do("cypher.parse", req, cold, func() { _, err = cypher.Parse(body) })
		if err != nil {
			return nil, err
		}
		lines, err := core.Profile(replay, body, params, hotCfg)
		if err != nil {
			return nil, fmt.Errorf("core.Profile %q: %w", o.query, err)
		}
		ops, err := parseProfile(lines)
		if err != nil {
			return nil, err
		}
		prof.add(ops)
	}
	tr.on = false

	tot, self := totals(tr.spans), selfTimes(tr.spans[:coldSpans])
	m["server.roundtrip_us"] = us(tot["server.roundtrip"], n)
	m["server.self_us"] = us(self["server.roundtrip"], n)
	m["resp.read_command_us"] = us(tot["resp.read_command"], n)
	m["resp.write_reply_us"] = us(tot["resp.write_reply"], n)
	m["resp.read_reply_us"] = us(tot["resp.read_reply"], n)
	m["resp.command_bytes"] = float64(cmdBytes) / float64(n)
	m["resp.reply_bytes"] = float64(replyBytes) / float64(n)
	m["cypher.parse_params_us"] = us(tot["cypher.parse_params"], n)
	m["cypher.canonical_us"] = us(tot["cypher.canonical"], n)
	m["cypher.parse_us"] = us(tot["cypher.parse"], n)
	m["core.query_hot_us"] = us(tot["core.query_hot"], n)
	m["core.query_cold_us"] = us(tot["core.query_cold"], n)
	m["core.plan_us"] = m["core.query_cold_us"] - m["core.query_hot_us"]
	m["core.rows_per_op"] = float64(prof.records) / float64(n)
	m["core.op_scan_us"] = prof.scan * 1e3 / float64(n)
	m["core.op_traverse_us"] = prof.traverse * 1e3 / float64(n)
	m["core.op_aggregate_us"] = prof.aggregate * 1e3 / float64(n)
	m["core.op_results_us"] = prof.results * 1e3 / float64(n)
	m["core.op_write_us"] = prof.write * 1e3 / float64(n)
	m["pool.gate_ns"] = us(tot["pool.gate"], n) * 1e3
	m["pool.submit_wait_us"] = us(tot["pool.submit_wait"], n)
	m["server.ping_us"] = us(tot["server.ping"], n)
	m["trace.spans"] = float64(len(tr.spans))
	m["trace.coverage_ratio"] = coverage(tr.spans)
	m["trace.inproc_wire_ratio"] = m["server.roundtrip_us"] / wireMeanUs
	m["trace.overhead_ratio"] = m["server.roundtrip_us"] / us(rtOff, n)

	// Kernel, store and pool micro-measurements on the replay graph, with
	// this workload's own vertices as frontiers.
	w2, err := newWorkload(name, s.data, s.cfg.seed)
	if err != nil {
		return nil, err
	}
	nodes := make([]int, n)
	for i := range nodes {
		nodes[i] = w2.next().node
	}
	measureKernels(m, replay, nodes)
	measureDeltas(m, replay, s.data)
	measureStore(m, replay, s.data)
	measurePool(m)

	if err := writeTrace(s.cfg, name, tr.spans); err != nil {
		return nil, err
	}
	r := &result{Workload: name, Correct: wire.failed == 0, Attempted: wire.attempted, Failed: wire.failed,
		ops: wire.attempted, problems: wire.problems}
	ms := make([]metric, len(layerMetrics))
	for i, lm := range layerMetrics {
		v, ok := m[lm.name]
		if !ok {
			return nil, fmt.Errorf("traced run did not produce %s", lm.name)
		}
		ms[i] = metric{lm.name, lm.unit, v}
	}
	r.set(ms)
	return r, nil
}

// layerMetrics is the per-layer list, in print order; BENCHMARK.json's
// per_layer mirrors it (a test compares the two).
var layerMetrics = []struct{ name, unit string }{
	{"resp.read_command_us", "us"}, {"resp.write_reply_us", "us"}, {"resp.read_reply_us", "us"},
	{"resp.command_bytes", "B"}, {"resp.reply_bytes", "B"},
	{"server.roundtrip_us", "us"}, {"server.self_us", "us"}, {"server.ping_us", "us"},
	{"cypher.parse_params_us", "us"}, {"cypher.canonical_us", "us"}, {"cypher.parse_us", "us"},
	{"core.query_hot_us", "us"}, {"core.query_cold_us", "us"}, {"core.plan_us", "us"},
	{"core.plancache_hit_ratio", "ratio"},
	{"core.op_scan_us", "us"}, {"core.op_traverse_us", "us"}, {"core.op_aggregate_us", "us"},
	{"core.op_results_us", "us"}, {"core.op_write_us", "us"},
	{"core.rows_per_op", "count"}, {"core.allocs_per_op", "count"}, {"core.alloc_kb_per_op", "KB"},
	{"grb.vxm_push_us", "us"}, {"grb.vxm_pull_us", "us"}, {"grb.mxm_us", "us"},
	{"grb.nnz_per_op", "count"}, {"grb.ns_per_nnz", "ns"},
	{"grb.delta_set_ns", "ns"}, {"grb.delta_remove_ns", "ns"}, {"grb.delta_sync_ms", "ms"},
	{"graph.create_edge_us", "us"}, {"graph.delete_edge_us", "us"}, {"graph.set_node_prop_us", "us"},
	{"graph.node_property_ns", "ns"}, {"graph.column_scan_ns_per_row", "ns"},
	{"graph.sync_ms", "ms"}, {"graph.pending_deltas", "count"},
	{"graph.heap_mb", "MB"}, {"graph.heap_bytes_per_edge", "B"},
	{"pool.gate_ns", "ns"}, {"pool.submit_wait_us", "us"}, {"pool.dispatch_us_per_morsel", "us"},
	{"persist.load_s", "s"}, {"persist.save_s", "s"}, {"persist.snapshot_mb", "MB"}, {"persist.bytes_per_edge", "B"},
	{"trace.spans", "count"}, {"trace.coverage_ratio", "ratio"}, {"trace.inproc_wire_ratio", "ratio"},
	{"trace.overhead_ratio", "ratio"},
	{"client.throughput_ops_s", "1/s"}, {"client.latency_p95_ms", "ms"}, {"client.server_cpu_ms_per_op", "ms"},
}

// loadReplay loads the snapshot into a fresh in-process graph and records
// what that cost: persist.* and the heap the loaded graph holds.
func loadReplay(m map[string]float64, path string) (*graph.Graph, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	st, err := f.Stat()
	if err != nil {
		return nil, err
	}
	br := bufio.NewReader(f)
	if _, err := br.Discard(16); err != nil { // server framing: magic + graph count
		return nil, err
	}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	begin := time.Now()
	g, err := persist.Load(br)
	if err != nil {
		return nil, fmt.Errorf("persist.Load: %w", err)
	}
	m["persist.load_s"] = time.Since(begin).Seconds()
	runtime.GC()
	runtime.ReadMemStats(&after)
	edges := float64(g.EdgeCount())
	heap := float64(after.HeapAlloc) - float64(before.HeapAlloc)
	m["graph.heap_mb"] = heap / (1 << 20)
	m["graph.heap_bytes_per_edge"] = heap / edges
	m["persist.snapshot_mb"] = float64(st.Size()) / (1 << 20)
	m["persist.bytes_per_edge"] = float64(st.Size()) / edges

	begin = time.Now()
	g.RLock()
	err = persist.Save(g, io.Discard)
	g.RUnlock()
	if err != nil {
		return nil, fmt.Errorf("persist.Save: %w", err)
	}
	m["persist.save_s"] = time.Since(begin).Seconds()
	return g, nil
}

// runQuery executes one parsed command the way graphCommand does.
func runQuery(g *graph.Graph, cmd, body string, params map[string]value.Value, cfg core.Config) (*core.ResultSet, error) {
	if cmd == cmdRO {
		return core.ROQuery(g, body, params, cfg)
	}
	return core.Query(g, body, params, cfg)
}

// profOp is one operator line of core.Profile output.
type profOp struct {
	depth   int
	name    string
	records int
	ms      float64 // inclusive of children
}

// parseProfile extracts the operator tree from core.Profile lines. Header
// lines (plan source, scheduler) carry no "Records produced" and are skipped.
func parseProfile(lines []string) ([]profOp, error) {
	var ops []profOp
	for _, line := range lines {
		i := strings.Index(line, "Records produced: ")
		if i < 0 {
			continue
		}
		var o profOp
		trimmed := strings.TrimLeft(line, " ")
		o.depth = (len(line) - len(trimmed)) / 4
		o.name, _, _ = strings.Cut(trimmed, " | ")
		rec, rest, ok := strings.Cut(line[i+len("Records produced: "):], ", Execution time: ")
		num, _, ok2 := strings.Cut(rest, " ms")
		if !ok || !ok2 {
			return nil, fmt.Errorf("unparseable profile line %q", line)
		}
		var err1, err2 error
		o.records, err1 = strconv.Atoi(rec)
		o.ms, err2 = strconv.ParseFloat(num, 64)
		if err1 != nil || err2 != nil {
			return nil, fmt.Errorf("unparseable profile line %q", line)
		}
		ops = append(ops, o)
	}
	return ops, nil
}

// profileTotals sums operator self-times (ms) by kind, and the records every
// operator produced (the rows the plan touched, not just those it returned).
type profileTotals struct {
	scan, traverse, aggregate, results, write float64
	records                                   int
}

func (p *profileTotals) add(ops []profOp) {
	for i, o := range ops {
		p.records += o.records
		self := o.ms
		for _, c := range ops[i+1:] {
			if c.depth <= o.depth {
				break
			}
			if c.depth == o.depth+1 {
				self -= c.ms
			}
		}
		switch {
		case strings.HasSuffix(o.name, "Scan"):
			p.scan += self
		case strings.Contains(o.name, "Traverse") || o.name == "ExpandInto":
			p.traverse += self
		case strings.Contains(o.name, "Aggregate"):
			p.aggregate += self
		case o.name == "Create" || o.name == "Merge" || o.name == "Delete" || o.name == "Set":
			p.write += self
		default: // Project, Sort, Limit, Filter, …: everything that shapes result rows
			p.results += self
		}
	}
}

// measureKernels times the three traversal kernels on the loaded adjacency
// matrices. Push takes each vertex as a one-entry frontier; pull takes the
// push result (the second hop is where auto mode switches to pull); mxm
// takes 64 one-entry rows, the engine's default batch.
func measureKernels(m map[string]float64, g *graph.Graph, nodes []int) {
	g.RLock()
	defer g.RUnlock()
	adj, tadj, dim := g.Adjacency(), g.TAdjacency(), g.Dim()
	desc := &grb.Descriptor{NThreads: 1}
	var push, pull time.Duration
	var nnz, pulls int
	for i, v := range nodes {
		u := grb.NewVector(dim)
		u.SetElement(v, 1)
		hop1 := grb.NewVector(dim)
		begin := time.Now()
		grb.VxMDelta(hop1, nil, nil, grb.AnyPair, u, adj, desc)
		push += time.Since(begin)
		nnz += hop1.NVals()
		if i < 64 { // pull scans every candidate column: a few dozen samples are enough
			hop2 := grb.NewVector(dim)
			begin = time.Now()
			grb.VxMPull(hop2, nil, nil, grb.AnyPair, hop1, tadj, nil, desc)
			pull += time.Since(begin)
			pulls++
		}
	}
	m["grb.vxm_push_us"] = us(push, len(nodes))
	m["grb.vxm_pull_us"] = us(pull, pulls)
	m["grb.nnz_per_op"] = float64(nnz) / float64(len(nodes))
	m["grb.ns_per_nnz"] = float64(push.Nanoseconds()) / float64(max(nnz, 1))

	var mxm time.Duration
	batches := 0
	for lo := 0; lo+64 <= len(nodes); lo += 64 {
		f := grb.NewMatrix(64, dim)
		for r, v := range nodes[lo : lo+64] {
			f.SetElement(r, v, 1)
		}
		f.Wait()
		c := grb.NewMatrix(64, dim)
		begin := time.Now()
		grb.MxMDelta(c, nil, nil, grb.AnyPair, f, adj, desc)
		mxm += time.Since(begin)
		batches++
	}
	m["grb.mxm_us"] = us(mxm, batches)
}

// measureDeltas times delta-matrix writes on a private copy of the
// adjacency matrix: 2048 inserts of absent entries, 2048 removals of present
// ones (the lag edges), then the fold of those 4096 pending updates.
func measureDeltas(m map[string]float64, g *graph.Graph, d *dataset) {
	g.RLock()
	dm := grb.DeltaFrom(g.Adjacency().Export().Dup())
	g.RUnlock()
	dm.SetThreshold(1 << 30) // fold only when told to
	ps := newPairSource(d, 1)
	pairs := make([][2]int, lagEdges)
	for i := range pairs {
		pairs[i] = ps.next()
	}
	begin := time.Now()
	for _, p := range pairs {
		dm.SetElement(p[0], p[1], 1)
	}
	m["grb.delta_set_ns"] = float64(time.Since(begin).Nanoseconds()) / lagEdges
	begin = time.Now()
	for _, p := range d.lag {
		dm.RemoveElement(p[0], p[1])
	}
	m["grb.delta_remove_ns"] = float64(time.Since(begin).Nanoseconds()) / lagEdges
	begin = time.Now()
	dm.Sync(true)
	m["grb.delta_sync_ms"] = time.Since(begin).Seconds() * 1e3
}

// measureStore times the graph store's write and read entry points directly.
func measureStore(m map[string]float64, g *graph.Graph, d *dataset) {
	const k = 512
	ps := newPairSource(d, 2)
	g.Lock()
	g.Sync() // start from a clean store so graph.sync_ms folds exactly this section's deltas
	ids := make([]uint64, 0, k)
	begin := time.Now()
	for i := 0; i < k; i++ {
		p := ps.next()
		if e, err := g.CreateEdge("F", uint64(p[0]), uint64(p[1]), nil); err == nil {
			ids = append(ids, e.ID)
		}
	}
	m["graph.create_edge_us"] = us(time.Since(begin), k)
	begin = time.Now()
	for i := 0; i < k; i++ {
		g.SetNodeProperty(uint64(i%d.n), "age", value.NewInt(int64(i%100)))
	}
	m["graph.set_node_prop_us"] = us(time.Since(begin), k)
	begin = time.Now()
	for _, id := range ids[:len(ids)/2] {
		g.DeleteEdge(id)
	}
	m["graph.delete_edge_us"] = us(time.Since(begin), max(len(ids)/2, 1))
	begin = time.Now()
	g.Sync()
	m["graph.sync_ms"] = time.Since(begin).Seconds() * 1e3
	g.Unlock()

	g.RLock()
	defer g.RUnlock()
	begin = time.Now()
	for v := 0; v < d.n; v++ {
		g.NodePropertyColumnar(uint64(v), "age")
	}
	m["graph.node_property_ns"] = float64(time.Since(begin).Nanoseconds()) / float64(d.n)
	aid, _ := g.Schema.AttrID("score")
	col := g.PropColumn(aid)
	sum := 0.0
	begin = time.Now()
	for v := 0; v < d.n; v++ {
		if col.Present(uint64(v)) {
			sum += col.FloatAt(uint64(v))
		}
	}
	m["graph.column_scan_ns_per_row"] = float64(time.Since(begin).Nanoseconds()) / float64(d.n)
	sink = sum
}

// sink keeps measured loops from being optimised away.
var sink float64

func measurePool(m map[string]float64) {
	const morsels, rounds = 1024, 64
	begin := time.Now()
	for r := 0; r < rounds; r++ {
		pool.Parallel(2, morsels, func(int) {})
	}
	m["pool.dispatch_us_per_morsel"] = us(time.Since(begin), morsels*rounds)
}

func writeTrace(cfg config, name string, spans []span) error {
	if err := os.MkdirAll(cfg.outDir, 0o755); err != nil {
		return err
	}
	path := filepath.Join(cfg.outDir, "trace-"+name+".json")
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	err = enc.Encode(struct {
		Workload string `json:"workload"`
		Config   string `json:"config"`
		Spans    []span `json:"spans"`
	}{name, cfg.String(), spans})
	if err == nil {
		err = bw.Flush()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return fmt.Errorf("writing %s: %w", path, err)
	}
	return nil
}
