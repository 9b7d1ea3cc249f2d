// Package baseline holds the measured reference engines RedisGraph is
// compared with in the paper's TigerGraph k-hop benchmark. The real systems
// (Neo4j, Amazon Neptune, JanusGraph, ArangoDB, TigerGraph) are not
// reproducible offline, so each engine here runs one storage and execution
// model on the same data, with nothing injected:
//
//   - AdjList         — flat CSR adjacency, one core per query (a native
//     engine's best case)
//   - ParallelAdjList — flat CSR, one query spread across all cores
//     (TigerGraph's execution model)
//   - ObjectStore     — per-node/per-edge heap objects, pointer chasing,
//     hash-set visited tracking and per-row record
//     materialisation (the Neo4j/JanusGraph object model)
//
// All engines implement the same k-hop distinct-neighbour count the
// TigerGraph benchmark specifies, so results are cross-checked for equality.
package baseline

import (
	"runtime"
	"sync"
)

// Engine answers k-hop neighbourhood-count queries.
type Engine interface {
	Name() string
	// KHopCount returns the number of distinct nodes reachable from seed in
	// 1..k hops (excluding the seed unless it is re-reachable... the seed is
	// never counted, matching the TigerGraph benchmark).
	KHopCount(seed, k int) int
}

// ---- CSR adjacency ----

// AdjList is a flat compressed-sparse-row adjacency engine running each
// query on a single core.
type AdjList struct {
	offsets []int
	targets []int
	n       int
}

// NewAdjList builds the CSR structure from an edge list (duplicates kept;
// BFS visits dedup).
func NewAdjList(n int, src, dst []int) *AdjList {
	a := &AdjList{n: n}
	a.offsets = make([]int, n+1)
	for _, s := range src {
		a.offsets[s+1]++
	}
	for i := 0; i < n; i++ {
		a.offsets[i+1] += a.offsets[i]
	}
	a.targets = make([]int, len(src))
	next := append([]int(nil), a.offsets[:n]...)
	for i, s := range src {
		a.targets[next[s]] = dst[i]
		next[s]++
	}
	return a
}

// Name identifies the engine.
func (a *AdjList) Name() string { return "AdjList" }

// KHopCount runs a level-synchronous BFS with a dense visited bitmap.
func (a *AdjList) KHopCount(seed, k int) int {
	visited := make([]bool, a.n)
	visited[seed] = true
	frontier := []int{seed}
	count := 0
	for hop := 0; hop < k && len(frontier) > 0; hop++ {
		var next []int
		for _, v := range frontier {
			for _, t := range a.targets[a.offsets[v]:a.offsets[v+1]] {
				if !visited[t] {
					visited[t] = true
					next = append(next, t)
				}
			}
		}
		count += len(next)
		frontier = next
	}
	return count
}

// ---- parallel CSR (TigerGraph-style) ----

// ParallelAdjList parallelises a single query across all cores, the
// execution model the paper contrasts with RedisGraph's one-core-per-query.
type ParallelAdjList struct {
	*AdjList
	workers int
}

// NewParallelAdjList builds the engine with the given worker count
// (0 = GOMAXPROCS).
func NewParallelAdjList(n int, src, dst []int, workers int) *ParallelAdjList {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	return &ParallelAdjList{AdjList: NewAdjList(n, src, dst), workers: workers}
}

// Name identifies the engine.
func (p *ParallelAdjList) Name() string { return "ParallelAdjList" }

// KHopCount partitions each BFS frontier across the worker pool.
func (p *ParallelAdjList) KHopCount(seed, k int) int {
	visited := make([]int32, p.n) // CAS-able visited flags
	visited[seed] = 1
	frontier := []int{seed}
	count := 0
	for hop := 0; hop < k && len(frontier) > 0; hop++ {
		parts := make([][]int, p.workers)
		var wg sync.WaitGroup
		chunk := (len(frontier) + p.workers - 1) / p.workers
		for w := 0; w < p.workers; w++ {
			lo := w * chunk
			if lo >= len(frontier) {
				break
			}
			hi := min(lo+chunk, len(frontier))
			wg.Add(1)
			go func(w, lo, hi int) {
				defer wg.Done()
				var local []int
				for _, v := range frontier[lo:hi] {
					for _, t := range p.targets[p.offsets[v]:p.offsets[v+1]] {
						if atomicTestAndSet(&visited[t]) {
							local = append(local, t)
						}
					}
				}
				parts[w] = local
			}(w, lo, hi)
		}
		wg.Wait()
		var next []int
		for _, part := range parts {
			next = append(next, part...)
		}
		count += len(next)
		frontier = next
	}
	return count
}

// ---- object store (Neo4j-style) ----

type edgeObj struct {
	dst   *nodeObj
	props map[string]any
}

type nodeObj struct {
	id    int
	out   []*edgeObj
	props map[string]any
}

// ObjectStore models a record/object graph engine: every node and edge is a
// separate heap object, traversal chases pointers, visited tracking uses a
// hash set, and every result row is materialised as a fresh record map —
// the overheads the paper credits for its 36×+ speedups over such engines.
type ObjectStore struct {
	nodes []*nodeObj
}

// NewObjectStore builds the object graph.
func NewObjectStore(n int, src, dst []int) *ObjectStore {
	os := &ObjectStore{}
	os.nodes = make([]*nodeObj, n)
	for i := range os.nodes {
		os.nodes[i] = &nodeObj{id: i, props: map[string]any{"uid": i}}
	}
	for i, s := range src {
		os.nodes[s].out = append(os.nodes[s].out, &edgeObj{
			dst:   os.nodes[dst[i]],
			props: map[string]any{"since": i},
		})
	}
	return os
}

// Name identifies the engine.
func (o *ObjectStore) Name() string { return "ObjectStore" }

// KHopCount chases pointers with hash-set visited tracking and materialises
// one record per visited node.
func (o *ObjectStore) KHopCount(seed, k int) int {
	visited := map[*nodeObj]bool{o.nodes[seed]: true}
	frontier := []*nodeObj{o.nodes[seed]}
	var records []map[string]any
	for hop := 0; hop < k && len(frontier) > 0; hop++ {
		var next []*nodeObj
		for _, v := range frontier {
			for _, e := range v.out {
				if !visited[e.dst] {
					visited[e.dst] = true
					next = append(next, e.dst)
					// Per-row record materialisation.
					records = append(records, map[string]any{
						"id": e.dst.id, "hop": hop + 1,
					})
				}
			}
		}
		frontier = next
	}
	return len(records)
}
