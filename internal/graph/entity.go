package graph

import (
	"fmt"
	"strings"

	"redisgraph/internal/value"
)

// Node is a graph vertex. Its ID is the row/column index in every matrix.
// Properties are not part of the entity: they live in the graph's node
// property store, indexed by ID (propstore.go).
type Node struct {
	ID     uint64
	Labels []int

	// schema resolves label and attribute names for String rendering. It is
	// set by Graph.CreateNode and read through lock-free snapshots, because
	// result sets render entities after the query's lock is released. Nil on
	// hand-built nodes, which fall back to numeric IDs.
	schema *Schema
}

// Edge is a typed, directed relationship between two nodes. Its properties
// live in the graph's edge property store, indexed by ID.
type Edge struct {
	ID   uint64
	Type int
	Src  uint64
	Dst  uint64

	schema *Schema // see Node.schema
}

// Prop is one property of a detached entity: the interned attribute ID and
// the boxed value read from its column.
type Prop struct {
	Attr  int
	Value value.Value
}

// DetachedNode is a copy of a node taken while a lock was held — the
// structural fields plus its properties in ascending attribute-ID order — so
// it stays readable after the lock is released, whatever later writes do to
// the slot or the columns. Result sets hold these, never live entities.
type DetachedNode struct {
	Node
	Props []Prop
}

// DetachedEdge is the edge counterpart of DetachedNode.
type DetachedEdge struct {
	Edge
	Props []Prop
}

// String renders the node compactly for result sets and debugging: labels
// and property keys print by name when the schema can resolve them
// (`(3:Hub {uid:7})`), by numeric ID otherwise. A live node renders without
// properties; DetachedNode carries them.
func (n *Node) String() string { return n.render(nil) }

// String renders the detached node with its properties.
func (d *DetachedNode) String() string { return d.Node.render(d.Props) }

func (n *Node) render(props []Prop) string {
	var b strings.Builder
	fmt.Fprintf(&b, "(%d", n.ID)
	for _, l := range n.Labels {
		if name := n.schema.labelNameSnap(l); name != "" {
			b.WriteByte(':')
			b.WriteString(name)
		} else {
			fmt.Fprintf(&b, ":L%d", l)
		}
	}
	writeProps(&b, n.schema, props)
	b.WriteByte(')')
	return b.String()
}

// String renders the edge compactly, without properties (see Node.String).
func (e *Edge) String() string { return e.render(nil) }

// String renders the detached edge with its properties.
func (d *DetachedEdge) String() string { return d.Edge.render(d.Props) }

func (e *Edge) render(props []Prop) string {
	var b strings.Builder
	if name := e.schema.relNameSnap(e.Type); name != "" {
		fmt.Fprintf(&b, "[%d:%s %d->%d", e.ID, name, e.Src, e.Dst)
	} else {
		fmt.Fprintf(&b, "[%d:T%d %d->%d", e.ID, e.Type, e.Src, e.Dst)
	}
	writeProps(&b, e.schema, props)
	b.WriteByte(']')
	return b.String()
}

func writeProps(b *strings.Builder, s *Schema, props []Prop) {
	if len(props) == 0 {
		return
	}
	b.WriteString(" {")
	for i, p := range props {
		if i > 0 {
			b.WriteString(", ")
		}
		if name := s.attrNameSnap(p.Attr); name != "" {
			fmt.Fprintf(b, "%s:%s", name, p.Value)
		} else {
			fmt.Fprintf(b, "%d:%s", p.Attr, p.Value)
		}
	}
	b.WriteByte('}')
}
