// Package redisgraph is a pure-Go reproduction of RedisGraph, the
// GraphBLAS-enabled graph database (Cailliau et al., IPDPSW 2019).
//
// It can be used two ways:
//
//   - Embedded: Open a DB and issue Cypher queries in-process (this package).
//   - Served: run cmd/redisgraph-server and speak RESP
//     (GRAPH.QUERY/EXPLAIN/...) with any Redis client, e.g.
//     cmd/redisgraph-cli.
//
// The property graph is stored as sparse adjacency matrices — one per
// relationship type (plus its transpose) and one diagonal matrix per label —
// and Cypher pattern traversals compile to sparse matrix products over a
// boolean semiring, the architecture the paper describes. A hop over
// several types, or in both directions, ORs their matrices inside the
// kernel instead of keeping a combined adjacency matrix.
//
// Quickstart:
//
//	db := redisgraph.Open("social")
//	db.MustQuery(`CREATE (:Person {name: 'alice'})-[:KNOWS]->(:Person {name: 'bob'})`, nil)
//	rs, _ := db.Query(`MATCH (a:Person)-[:KNOWS]->(b) RETURN a.name, b.name`, nil)
//	fmt.Print(rs)
package redisgraph

import (
	"fmt"
	"time"

	"redisgraph/internal/core"
	"redisgraph/internal/graph"
	"redisgraph/internal/value"
)

// DB is an embedded graph database instance. All methods are safe for
// concurrent use: the graph is stored as delta matrices, so read queries
// share the read lock (fold-free) and run concurrently with each other and
// with in-flight write queries, which serialise among themselves and take
// the exclusive lock only for short mutation bursts.
type DB struct {
	g   *graph.Graph
	cfg core.Config
}

// Option configures a DB.
type Option func(*DB)

// WithTimeout aborts queries that exceed d.
func WithTimeout(d time.Duration) Option {
	return func(db *DB) { db.cfg.Timeout = d }
}

// Open creates an empty in-memory graph database.
func Open(name string, opts ...Option) *DB {
	db := &DB{g: graph.New(name)}
	for _, o := range opts {
		o(db)
	}
	return db
}

// Result is a completed query result.
type Result = core.ResultSet

// Statistics summarises a query's side effects.
type Statistics = core.Statistics

// Value is a dynamic result cell.
type Value = value.Value

// Params builds a parameter map for Query. Values may be bool, int, int64,
// float64, string, or []any of those.
func Params(kv ...any) (map[string]Value, error) {
	if len(kv)%2 != 0 {
		return nil, fmt.Errorf("redisgraph: Params expects key/value pairs")
	}
	out := make(map[string]Value, len(kv)/2)
	for i := 0; i < len(kv); i += 2 {
		k, ok := kv[i].(string)
		if !ok {
			return nil, fmt.Errorf("redisgraph: parameter name must be a string, got %T", kv[i])
		}
		v, err := toValue(kv[i+1])
		if err != nil {
			return nil, err
		}
		out[k] = v
	}
	return out, nil
}

func toValue(v any) (Value, error) {
	switch v := v.(type) {
	case nil:
		return value.Null, nil
	case bool:
		return value.NewBool(v), nil
	case int:
		return value.NewInt(int64(v)), nil
	case int64:
		return value.NewInt(v), nil
	case float64:
		return value.NewFloat(v), nil
	case string:
		return value.NewString(v), nil
	case []any:
		arr := make([]Value, len(v))
		for i, e := range v {
			ev, err := toValue(e)
			if err != nil {
				return value.Null, err
			}
			arr[i] = ev
		}
		return value.NewArray(arr), nil
	case Value:
		return v, nil
	}
	return value.Null, fmt.Errorf("redisgraph: unsupported parameter type %T", v)
}

// Query executes a Cypher query (read or write).
func (db *DB) Query(q string, params map[string]Value) (*Result, error) {
	return core.Query(db.g, q, params, db.cfg)
}

// ROQuery executes a query that must be read-only, mirroring GRAPH.RO_QUERY.
func (db *DB) ROQuery(q string, params map[string]Value) (*Result, error) {
	return core.ROQuery(db.g, q, params, db.cfg)
}

// MustQuery is Query, panicking on error — for examples and tests.
func (db *DB) MustQuery(q string, params map[string]Value) *Result {
	rs, err := db.Query(q, params)
	if err != nil {
		panic(fmt.Sprintf("redisgraph: %s: %v", q, err))
	}
	return rs
}

// Explain returns the execution plan (GRAPH.EXPLAIN).
func (db *DB) Explain(q string) ([]string, error) {
	return core.Explain(db.g, q, db.cfg)
}

// Profile executes the query and returns the plan annotated with per-op
// record counts and timings (GRAPH.PROFILE).
func (db *DB) Profile(q string, params map[string]Value) ([]string, error) {
	return core.Profile(db.g, q, params, db.cfg)
}

// NodeCount returns the number of nodes.
func (db *DB) NodeCount() int {
	db.g.RLock()
	defer db.g.RUnlock()
	return db.g.NodeCount()
}

// EdgeCount returns the number of relationships.
func (db *DB) EdgeCount() int {
	db.g.RLock()
	defer db.g.RUnlock()
	return db.g.EdgeCount()
}

// Graph exposes the underlying store for advanced (algorithm-level) use;
// callers must hold the appropriate lock while reading matrices.
func (db *DB) Graph() *graph.Graph { return db.g }
