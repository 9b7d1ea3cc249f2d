package core

import (
	"fmt"
	"strings"
	"time"

	"redisgraph/internal/graph"
	"redisgraph/internal/value"
)

// Statistics counts the side effects of a query, mirroring the trailer
// RedisGraph appends to every reply.
type Statistics struct {
	LabelsAdded          int
	NodesCreated         int
	NodesDeleted         int
	RelationshipsCreated int
	RelationshipsDeleted int
	PropertiesSet        int
	IndicesCreated       int
	IndicesDeleted       int
	ExecutionTime        time.Duration
}

// Lines renders non-zero statistics as reply trailer lines.
func (s *Statistics) Lines() []string {
	var out []string
	add := func(n int, what string) {
		if n > 0 {
			out = append(out, fmt.Sprintf("%s: %d", what, n))
		}
	}
	add(s.LabelsAdded, "Labels added")
	add(s.NodesCreated, "Nodes created")
	add(s.NodesDeleted, "Nodes deleted")
	add(s.RelationshipsCreated, "Relationships created")
	add(s.RelationshipsDeleted, "Relationships deleted")
	add(s.PropertiesSet, "Properties set")
	add(s.IndicesCreated, "Indices created")
	add(s.IndicesDeleted, "Indices deleted")
	out = append(out, fmt.Sprintf("Query internal execution time: %.6f milliseconds",
		float64(s.ExecutionTime.Nanoseconds())/1e6))
	return out
}

// ResultSet is a completed query result.
type ResultSet struct {
	Columns []string
	Rows    [][]value.Value
	Stats   Statistics
}

// appendBatch materializes one record batch into result rows through a
// single slab allocation: one backing array per batch instead of one per
// row. Together with the arena-backed scan records this is the late half of
// late materialization — values are copied into result storage only for rows
// that survived every pushed predicate, and the per-row allocator never runs.
//
// Rows outlive the lock the query ran under, so entity cells are detached
// here, while it is still held: a result never points into the datablocks
// or the columns a later write may change.
func (rs *ResultSet) appendBatch(g *graph.Graph, batch recordBatch, visible int) {
	slab := make([]value.Value, len(batch)*visible)
	for _, r := range batch {
		row := slab[:visible:visible]
		slab = slab[visible:]
		copy(row, r[:min(visible, len(r))])
		for i := range row {
			row[i] = detach(g, row[i])
		}
		rs.Rows = append(rs.Rows, row)
	}
}

// detach replaces a live node or edge reference — at top level or inside an
// array, as collect(n) builds — with a detached copy carrying its
// properties. (No operation constructs a path value, so there is none to
// detach.)
func detach(g *graph.Graph, v value.Value) value.Value {
	switch v.Kind {
	case value.KindNode:
		return value.NewNode(v.ID(), g.DetachNode(v.ID()))
	case value.KindEdge:
		return value.NewEdge(v.ID(), g.DetachEdge(v.ID()))
	case value.KindArray:
		if !holdsEntity(v) {
			return v
		}
		out := make([]value.Value, len(v.Array()))
		for i, e := range v.Array() {
			out[i] = detach(g, e)
		}
		return value.NewArray(out)
	}
	return v
}

func holdsEntity(v value.Value) bool {
	switch v.Kind {
	case value.KindNode, value.KindEdge:
		return true
	case value.KindArray:
		for _, e := range v.Array() {
			if holdsEntity(e) {
				return true
			}
		}
	}
	return false
}

// String renders the result as an aligned text table (CLI output).
func (rs *ResultSet) String() string {
	var b strings.Builder
	if len(rs.Columns) > 0 {
		widths := make([]int, len(rs.Columns))
		for i, c := range rs.Columns {
			widths[i] = len(c)
		}
		cells := make([][]string, len(rs.Rows))
		for ri, row := range rs.Rows {
			cells[ri] = make([]string, len(row))
			for ci, v := range row {
				s := v.String()
				cells[ri][ci] = s
				if ci < len(widths) && len(s) > widths[ci] {
					widths[ci] = len(s)
				}
			}
		}
		for i, c := range rs.Columns {
			if i > 0 {
				b.WriteString(" | ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], c)
		}
		b.WriteByte('\n')
		for ri := range cells {
			for ci, s := range cells[ri] {
				if ci > 0 {
					b.WriteString(" | ")
				}
				fmt.Fprintf(&b, "%-*s", widths[ci], s)
			}
			b.WriteByte('\n')
		}
	}
	for _, line := range rs.Stats.Lines() {
		b.WriteString(line)
		b.WriteByte('\n')
	}
	return b.String()
}
