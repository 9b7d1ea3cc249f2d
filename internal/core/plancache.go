// Parameterized plan cache: parse/plan amortization for hot query shapes.
//
// Production traffic is dominated by a small set of query *shapes* with
// varying literals — `CYPHER id=7 MATCH (n {uid:$id}) …` — so per-request
// parse+plan cost is pure fixed overhead on the hot path. The cache maps
// (graph, parameterized query text, planner-relevant config) to an immutable
// plan template plus the parsed AST, behind a bounded LRU. A hit hands out
// the template itself — every execution instantiates its own running ops
// from the shared nodes (instantiate.go) — and re-binds `$param` values
// implicitly: compiled expressions resolve parameters from the execution
// context, so index seeds, pushed scan filters and destination masks pick
// up the new values without replanning.
//
// Validation is epoch- and stats-driven. Each entry records the
// connectivity write epoch, the schema-mutation version and the stats
// snapshot its template was planned against:
//
//   - schema version moved (new label/reltype/attr, index create/drop) →
//     replan: labels and relationship types resolve by name when the plan
//     runs, but index identity is still bound at plan time (an index seed
//     is chosen only where an index exists), so index DDL still replans.
//   - epoch unchanged → the graph's connectivity is exactly as planned;
//     reuse.
//   - epoch moved but stats within tolerance (statsClose) → the
//     stats-sensitive choices (entry point, hop order) would come out the
//     same; refresh the entry and reuse. This is the
//     cheap revalidation that keeps a write-heavy mix from thrashing.
//   - stats shifted materially → replan from the cached AST (parse is
//     still amortized) and replace the template.
package core

import (
	"container/list"
	"fmt"
	"sync"
	"sync/atomic"

	"redisgraph/internal/cypher"
	"redisgraph/internal/graph"
)

// DefaultPlanCacheSize bounds the cache when the server does not configure
// PLAN_CACHE_SIZE: enough for the hot shapes of many concurrent clients,
// small enough that cold shapes age out quickly.
const DefaultPlanCacheSize = 128

// planKey identifies one cached template. The planner options (the test
// baselines noPushdown and noCostPlanner) change the planned tree, so they
// key separately; the test-only batch size and kernel direction resolve at
// execution time and do not.
type planKey struct {
	g    *graph.Graph
	text string
	opts planOptions
}

// planEntry is one cached template with its validation snapshot. The
// template is immutable and shared by every execution it serves. Replans
// swap the whole entry under the cache mutex.
type planEntry struct {
	key           planKey
	ast           *cypher.Query
	tmpl          *Plan
	size          int64 // estimated resident bytes, maintained under the cache mutex
	epoch         uint64
	schemaVersion uint64
	stats         *graph.Stats
}

// planOpBytes is the per-operation footprint estimate behind the cache's
// memory accounting: the operation struct itself plus its share of compiled
// expressions, slot metadata and EXPLAIN strings. Running ops belong to
// executions, so runtime buffers do not count.
const planOpBytes = 256

// templateBytes estimates a template's resident size: operation count times
// the per-op footprint, plus the keyed query text and AST share.
func templateBytes(key planKey, tmpl *Plan) int64 {
	return int64(countOps(tmpl.root))*planOpBytes + int64(2*len(key.text))
}

// countOps walks a template's node tree (hash joins branch).
func countOps(node planNode) int {
	n := 1
	for _, c := range node.children() {
		n += countOps(c)
	}
	return n
}

// PlanCache is a bounded LRU of plan templates shared across graphs and
// queries. The zero value is unusable; construct with NewPlanCache. All
// methods are safe for concurrent use.
type PlanCache struct {
	mu       sync.Mutex
	capacity int
	// maxBytes bounds the summed estimated resident size of cached
	// templates (0 = entries-only bounding): LRU entries evict until the
	// estimate fits — the byte-budget policy on top of the PR 8 accounting.
	maxBytes int64
	lru      *list.List // of *planEntry; front = most recently used
	entries  map[planKey]*list.Element

	hits          atomic.Uint64
	misses        atomic.Uint64
	evictions     atomic.Uint64
	invalidations atomic.Uint64
	revalidations atomic.Uint64
	bytes         atomic.Int64 // summed planEntry.size across live entries
}

// NewPlanCache returns a cache bounded to capacity templates (<= 0 caches
// nothing).
func NewPlanCache(capacity int) *PlanCache {
	return &PlanCache{capacity: capacity, lru: list.New(), entries: map[planKey]*list.Element{}}
}

// SetCapacity rebounds the cache, evicting least-recently-used templates
// down to the new limit (GRAPH.CONFIG SET PLAN_CACHE_SIZE).
func (pc *PlanCache) SetCapacity(n int) {
	pc.mu.Lock()
	defer pc.mu.Unlock()
	pc.capacity = n
	pc.evictOver()
}

// Capacity returns the current bound.
func (pc *PlanCache) Capacity() int {
	pc.mu.Lock()
	defer pc.mu.Unlock()
	return pc.capacity
}

// SetMaxBytes rebounds the cache's byte budget (GRAPH.CONFIG SET
// PLAN_CACHE_MAX_BYTES; 0 = no byte budget), evicting least-recently-used
// templates until the resident estimate fits.
func (pc *PlanCache) SetMaxBytes(n int64) {
	if n < 0 {
		n = 0
	}
	pc.mu.Lock()
	defer pc.mu.Unlock()
	pc.maxBytes = n
	pc.evictOver()
}

// MaxBytes returns the current byte budget (0 = none).
func (pc *PlanCache) MaxBytes() int64 {
	pc.mu.Lock()
	defer pc.mu.Unlock()
	return pc.maxBytes
}

// Len returns the number of cached templates.
func (pc *PlanCache) Len() int {
	pc.mu.Lock()
	defer pc.mu.Unlock()
	return pc.lru.Len()
}

// PlanCacheCounters is a snapshot of the cache's lifetime statistics plus
// the current estimated resident size of the cached templates.
type PlanCacheCounters struct {
	Hits          uint64
	Misses        uint64
	Evictions     uint64
	Invalidations uint64
	Revalidations uint64
	Bytes         int64
}

// Counters snapshots the cache statistics (EXPLAIN/PROFILE annotations).
func (pc *PlanCache) Counters() PlanCacheCounters {
	return PlanCacheCounters{
		Hits:          pc.hits.Load(),
		Misses:        pc.misses.Load(),
		Evictions:     pc.evictions.Load(),
		Invalidations: pc.invalidations.Load(),
		Revalidations: pc.revalidations.Load(),
		Bytes:         pc.bytes.Load(),
	}
}

func (c PlanCacheCounters) String() string {
	return fmt.Sprintf("hits=%d misses=%d evictions=%d invalidations=%d revalidations=%d plan_cache_bytes=%d",
		c.Hits, c.Misses, c.Evictions, c.Invalidations, c.Revalidations, c.Bytes)
}

// InvalidateGraph drops every template planned against g (GRAPH.DELETE,
// DEL, FLUSHALL): the graph pointer in the key would otherwise pin dead
// graphs until their entries age out.
func (pc *PlanCache) InvalidateGraph(g *graph.Graph) {
	pc.mu.Lock()
	defer pc.mu.Unlock()
	for el := pc.lru.Front(); el != nil; {
		next := el.Next()
		if ent := el.Value.(*planEntry); ent.key.g == g {
			delete(pc.entries, ent.key)
			pc.lru.Remove(el)
			pc.bytes.Add(-ent.size)
		}
		el = next
	}
}

// lookup returns the entry for key, promoting it to most-recently-used.
func (pc *PlanCache) lookup(key planKey) (*planEntry, bool) {
	pc.mu.Lock()
	defer pc.mu.Unlock()
	el, ok := pc.entries[key]
	if !ok {
		return nil, false
	}
	pc.lru.MoveToFront(el)
	return el.Value.(*planEntry), true
}

// insert stores (or replaces) an entry, evicting over capacity.
func (pc *PlanCache) insert(ent *planEntry) {
	pc.mu.Lock()
	defer pc.mu.Unlock()
	if pc.capacity <= 0 {
		return
	}
	ent.size = templateBytes(ent.key, ent.tmpl)
	if el, ok := pc.entries[ent.key]; ok {
		pc.bytes.Add(ent.size - el.Value.(*planEntry).size)
		el.Value = ent
		pc.lru.MoveToFront(el)
		return
	}
	pc.entries[ent.key] = pc.lru.PushFront(ent)
	pc.bytes.Add(ent.size)
	pc.evictOver()
}

// evictOver drops least-recently-used entries past the entry capacity and,
// when a byte budget is set, past the resident-size estimate — but never
// the most-recently-used entry, so one oversized template still caches
// (evicting it would only force a replan on the next request without
// freeing anything the budget could use). Caller holds mu.
func (pc *PlanCache) evictOver() {
	for pc.lru.Len() > pc.capacity ||
		(pc.maxBytes > 0 && pc.bytes.Load() > pc.maxBytes && pc.lru.Len() > 1) {
		el := pc.lru.Back()
		if el == nil {
			return
		}
		ent := el.Value.(*planEntry)
		delete(pc.entries, ent.key)
		pc.lru.Remove(el)
		pc.bytes.Add(-ent.size)
		pc.evictions.Add(1)
	}
}

// refresh updates an entry's validation snapshot after a cheap
// revalidation, or swaps in a freshly planned template after a replan.
func (pc *PlanCache) refresh(ent *planEntry, tmpl *Plan, epoch, schemaVersion uint64, st *graph.Stats) {
	pc.mu.Lock()
	defer pc.mu.Unlock()
	if tmpl != nil {
		ent.tmpl = tmpl
		size := templateBytes(ent.key, tmpl)
		// Only resident entries count: a concurrent eviction may already have
		// subtracted this entry's size.
		if el, ok := pc.entries[ent.key]; ok && el.Value.(*planEntry) == ent {
			pc.bytes.Add(size - ent.size)
		}
		ent.size = size
		// A replanned template may be larger; re-apply the byte budget.
		pc.evictOver()
	}
	ent.epoch, ent.schemaVersion, ent.stats = epoch, schemaVersion, st
}

// snapshot reads an entry's template and validation state consistently.
func (pc *PlanCache) snapshot(ent *planEntry) (*Plan, uint64, uint64, *graph.Stats) {
	pc.mu.Lock()
	defer pc.mu.Unlock()
	return ent.tmpl, ent.epoch, ent.schemaVersion, ent.stats
}

// plan resolves a query through the cache: parse and plan construction run
// only on misses and invalidations. The returned plan is the shared
// template; cached reports whether it was already resident (EXPLAIN/PROFILE's
// "plan: cached|planned" line).
func (pc *PlanCache) plan(g *graph.Graph, query string, cfg Config) (p *Plan, cached bool, err error) {
	key := planKey{g: g, text: cypher.CanonicalQueryText(query), opts: cfg.planOptions()}

	ent, ok := pc.lookup(key)
	if !ok {
		pc.misses.Add(1)
		ast, err := cypher.Parse(query)
		if err != nil {
			return nil, false, err
		}
		return pc.buildAndCache(g, key, ast, nil)
	}

	tmpl, entEpoch, entSchemaV, entStats := pc.snapshot(ent)
	g.RLock()
	epoch := g.Epoch()
	schemaV := g.Schema.Version()
	var st *graph.Stats
	if schemaV == entSchemaV && epoch != entEpoch {
		st = g.Stats()
	}
	g.RUnlock()

	switch {
	case schemaV == entSchemaV && epoch == entEpoch:
		// Connectivity exactly as planned.
		pc.hits.Add(1)
		return tmpl, true, nil
	case schemaV == entSchemaV && statsClose(entStats, st):
		// The graph changed, but not enough to move any stats-sensitive
		// planning decision: refresh the snapshot and reuse the template.
		pc.hits.Add(1)
		pc.revalidations.Add(1)
		pc.refresh(ent, nil, epoch, schemaV, st)
		return tmpl, true, nil
	}
	// Schema moved or stats shifted materially: replan from the cached AST
	// (parse stays amortized).
	pc.invalidations.Add(1)
	return pc.buildAndCache(g, key, ent.ast, ent)
}

// buildAndCache plans a fresh template under the read lock, caches it
// (replacing prev when set) and returns it.
func (pc *PlanCache) buildAndCache(g *graph.Graph, key planKey, ast *cypher.Query, prev *planEntry) (*Plan, bool, error) {
	g.RLock()
	tmpl, err := buildPlanOpts(g, ast, key.opts)
	var epoch, schemaV uint64
	var st *graph.Stats
	if err == nil {
		epoch, schemaV, st = g.Epoch(), g.Schema.Version(), g.Stats()
	}
	g.RUnlock()
	if err != nil {
		return nil, false, err
	}
	if prev != nil {
		pc.refresh(prev, tmpl, epoch, schemaV, st)
	} else {
		pc.insert(&planEntry{key: key, ast: ast, tmpl: tmpl, epoch: epoch, schemaVersion: schemaV, stats: st})
	}
	return tmpl, false, nil
}

// statsSlackFloor exempts small cardinalities from the relative-drift test:
// growing a label from 3 to 40 nodes rarely flips a planning decision worth
// a replan, and tiny graphs would otherwise thrash the cache on every write.
const statsSlackFloor = 64

// countsClose reports whether two cardinalities are within a 2x band — the
// tolerance inside which the planner's ordering decisions (entry point, hop
// order) are considered stable.
func countsClose(a, b int) bool {
	lo, hi := a, b
	if lo > hi {
		lo, hi = hi, lo
	}
	if hi <= statsSlackFloor {
		return true
	}
	return hi <= 2*lo
}

// statsClose reports whether a template planned against `old` would come
// out the same against `cur`: every figure the cost model reads must sit
// within the countsClose band. Differing label or relation counts always
// fail (the schema version usually catches those first).
func statsClose(old, cur *graph.Stats) bool {
	if old == nil || cur == nil {
		return false
	}
	if len(old.LabelNodes) != len(cur.LabelNodes) || len(old.RelPairs) != len(cur.RelPairs) {
		return false
	}
	if !countsClose(old.Nodes, cur.Nodes) || !countsClose(old.Edges, cur.Edges) {
		return false
	}
	for i := range old.LabelNodes {
		if !countsClose(old.LabelNodes[i], cur.LabelNodes[i]) {
			return false
		}
	}
	for i := range old.RelPairs {
		if !countsClose(old.RelPairs[i], cur.RelPairs[i]) {
			return false
		}
	}
	return true
}
