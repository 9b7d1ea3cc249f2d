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
// A template stays valid while the graph's schema version is unchanged. A
// schema mutation (new label, relationship type or attribute, index create
// or drop) replans from the cached AST, so parse stays amortized: labels and
// relationship types resolve by name when the plan runs, but index identity
// is bound at plan time (an index seed is chosen only where an index
// exists). Writes that only change cardinalities keep the template, as in
// RedisGraph: the cost model's entry point and hop order may then be stale,
// never the answer, because every plan reads the graph as it is when it
// runs.
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

// planEntry is one cached template and the schema version it was planned
// against. An entry is immutable and its template is shared by every
// execution it serves; a replan inserts a new entry in place of the old one.
type planEntry struct {
	key           planKey
	ast           *cypher.Query
	tmpl          *Plan
	schemaVersion uint64
}

// PlanCache is a bounded LRU of plan templates shared across graphs and
// queries. The zero value is unusable; construct with NewPlanCache. All
// methods are safe for concurrent use.
type PlanCache struct {
	mu       sync.Mutex
	capacity int
	lru      *list.List // of *planEntry; front = most recently used
	entries  map[planKey]*list.Element

	hits          atomic.Uint64
	misses        atomic.Uint64
	evictions     atomic.Uint64
	invalidations atomic.Uint64
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

// Len returns the number of cached templates.
func (pc *PlanCache) Len() int {
	pc.mu.Lock()
	defer pc.mu.Unlock()
	return pc.lru.Len()
}

// PlanCacheCounters is a snapshot of the cache's lifetime statistics.
type PlanCacheCounters struct {
	Hits          uint64
	Misses        uint64
	Evictions     uint64
	Invalidations uint64
}

// Counters snapshots the cache statistics (EXPLAIN/PROFILE annotations).
func (pc *PlanCache) Counters() PlanCacheCounters {
	return PlanCacheCounters{
		Hits:          pc.hits.Load(),
		Misses:        pc.misses.Load(),
		Evictions:     pc.evictions.Load(),
		Invalidations: pc.invalidations.Load(),
	}
}

func (c PlanCacheCounters) String() string {
	return fmt.Sprintf("hits=%d misses=%d evictions=%d invalidations=%d",
		c.Hits, c.Misses, c.Evictions, c.Invalidations)
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

// insert stores an entry, replacing the one under the same key (a replan),
// and evicts over capacity.
func (pc *PlanCache) insert(ent *planEntry) {
	pc.mu.Lock()
	defer pc.mu.Unlock()
	if pc.capacity <= 0 {
		return
	}
	if el, ok := pc.entries[ent.key]; ok {
		el.Value = ent
		pc.lru.MoveToFront(el)
		return
	}
	pc.entries[ent.key] = pc.lru.PushFront(ent)
	pc.evictOver()
}

// evictOver drops least-recently-used entries past the capacity. Caller
// holds mu.
func (pc *PlanCache) evictOver() {
	for pc.lru.Len() > pc.capacity {
		el := pc.lru.Back()
		if el == nil {
			return
		}
		ent := el.Value.(*planEntry)
		delete(pc.entries, ent.key)
		pc.lru.Remove(el)
		pc.evictions.Add(1)
	}
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
		return pc.buildAndCache(g, key, ast)
	}
	g.RLock()
	schemaV := g.Schema.Version()
	g.RUnlock()
	if schemaV == ent.schemaVersion {
		pc.hits.Add(1)
		return ent.tmpl, true, nil
	}
	// The schema moved: replan from the cached AST (parse stays amortized).
	pc.invalidations.Add(1)
	return pc.buildAndCache(g, key, ent.ast)
}

// buildAndCache plans a fresh template under the read lock, caches it in
// place of any entry under the same key and returns it.
func (pc *PlanCache) buildAndCache(g *graph.Graph, key planKey, ast *cypher.Query) (*Plan, bool, error) {
	g.RLock()
	tmpl, err := buildPlanOpts(g, ast, key.opts)
	schemaV := g.Schema.Version()
	g.RUnlock()
	if err != nil {
		return nil, false, err
	}
	pc.insert(&planEntry{key: key, ast: ast, tmpl: tmpl, schemaVersion: schemaV})
	return tmpl, false, nil
}
