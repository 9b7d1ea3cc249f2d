package graph

import (
	"sync/atomic"

	"redisgraph/internal/value"
)

// Schema interns label, relationship-type and attribute names to dense
// integer IDs, and owns secondary indexes.
type Schema struct {
	labels    map[string]int
	labelName []string
	relTypes  map[string]int
	relName   []string
	attrs     map[string]int
	attrName  []string

	// names is a copy-on-write snapshot of the three name tables, refreshed
	// under the exclusive lock whenever a name is interned. Entities render
	// themselves (Node.String, Edge.String) after the query's lock is
	// released — results outlive the read lock — so name resolution must not
	// touch the mutable slices. The tables are append-only, so a snapshot's
	// prefix view stays valid forever.
	names atomic.Pointer[nameSnap]

	// indexes[label][attr] is the exact-match index, when created.
	indexes map[int]map[int]*AttrIndex

	// version counts schema mutations (new labels, relationship types,
	// attributes, index create/drop). Plans bake index lookups in at build
	// time — a dropped index makes a cached index seed silently yield
	// nothing — and the connectivity write epoch does not move for any of
	// those events, so the plan cache keys its validity on this counter as
	// well. Mutated only under the graph's
	// exclusive lock; read under at least the read lock.
	version uint64
}

// nameSnap is one immutable view of the interned name tables.
type nameSnap struct {
	labels []string
	rels   []string
	attrs  []string
}

// NewSchema returns an empty schema.
func NewSchema() *Schema {
	s := &Schema{
		labels:   map[string]int{},
		relTypes: map[string]int{},
		attrs:    map[string]int{},
		indexes:  map[int]map[int]*AttrIndex{},
	}
	s.names.Store(&nameSnap{})
	return s
}

// refreshNames publishes the current name tables for lock-free readers.
// Called under the exclusive lock after interning a name.
func (s *Schema) refreshNames() {
	s.names.Store(&nameSnap{labels: s.labelName, rels: s.relName, attrs: s.attrName})
}

// labelNameSnap / relNameSnap / attrNameSnap resolve a name against the
// latest published snapshot, without any lock. They return "" for unknown
// IDs and are safe on a nil schema (hand-built entities).
func (s *Schema) labelNameSnap(id int) string {
	if s == nil {
		return ""
	}
	if ns := s.names.Load(); ns != nil && id >= 0 && id < len(ns.labels) {
		return ns.labels[id]
	}
	return ""
}

func (s *Schema) relNameSnap(id int) string {
	if s == nil {
		return ""
	}
	if ns := s.names.Load(); ns != nil && id >= 0 && id < len(ns.rels) {
		return ns.rels[id]
	}
	return ""
}

func (s *Schema) attrNameSnap(id int) string {
	if s == nil {
		return ""
	}
	if ns := s.names.Load(); ns != nil && id >= 0 && id < len(ns.attrs) {
		return ns.attrs[id]
	}
	return ""
}

// Version returns the schema-mutation counter. The caller must hold at
// least the graph's read lock.
func (s *Schema) Version() uint64 { return s.version }

// LabelID resolves a label name without creating it.
func (s *Schema) LabelID(name string) (int, bool) {
	id, ok := s.labels[name]
	return id, ok
}

// AddLabel resolves or interns a label name.
func (s *Schema) AddLabel(name string) int {
	if id, ok := s.labels[name]; ok {
		return id
	}
	id := len(s.labelName)
	s.labels[name] = id
	s.labelName = append(s.labelName, name)
	s.version++
	s.refreshNames()
	return id
}

// LabelName returns the name for a label ID.
func (s *Schema) LabelName(id int) string {
	if id < 0 || id >= len(s.labelName) {
		return ""
	}
	return s.labelName[id]
}

// LabelCount returns the number of labels.
func (s *Schema) LabelCount() int { return len(s.labelName) }

// RelTypeID resolves a relationship type name without creating it.
func (s *Schema) RelTypeID(name string) (int, bool) {
	id, ok := s.relTypes[name]
	return id, ok
}

// AddRelType resolves or interns a relationship type name.
func (s *Schema) AddRelType(name string) int {
	if id, ok := s.relTypes[name]; ok {
		return id
	}
	id := len(s.relName)
	s.relTypes[name] = id
	s.relName = append(s.relName, name)
	s.version++
	s.refreshNames()
	return id
}

// RelTypeName returns the name for a relationship type ID.
func (s *Schema) RelTypeName(id int) string {
	if id < 0 || id >= len(s.relName) {
		return ""
	}
	return s.relName[id]
}

// RelTypeCount returns the number of relationship types.
func (s *Schema) RelTypeCount() int { return len(s.relName) }

// AttrID resolves an attribute name without creating it.
func (s *Schema) AttrID(name string) (int, bool) {
	id, ok := s.attrs[name]
	return id, ok
}

// AddAttr resolves or interns an attribute name.
func (s *Schema) AddAttr(name string) int {
	if id, ok := s.attrs[name]; ok {
		return id
	}
	id := len(s.attrName)
	s.attrs[name] = id
	s.attrName = append(s.attrName, name)
	s.version++
	s.refreshNames()
	return id
}

// AttrName returns the name for an attribute ID.
func (s *Schema) AttrName(id int) string {
	if id < 0 || id >= len(s.attrName) {
		return ""
	}
	return s.attrName[id]
}

// AttrIndex is an exact-match secondary index from property value to the
// node IDs holding it.
type AttrIndex struct {
	byValue map[string][]uint64
}

func newAttrIndex() *AttrIndex { return &AttrIndex{byValue: map[string][]uint64{}} }

func (ix *AttrIndex) add(id uint64, v value.Value) {
	k := v.HashKey()
	ix.byValue[k] = append(ix.byValue[k], id)
}

func (ix *AttrIndex) remove(id uint64, v value.Value) {
	k := v.HashKey()
	s := ix.byValue[k]
	for i, e := range s {
		if e == id {
			s[i] = s[len(s)-1]
			ix.byValue[k] = s[:len(s)-1]
			return
		}
	}
}

// Lookup returns the node IDs whose indexed attribute equals v.
func (ix *AttrIndex) Lookup(v value.Value) []uint64 {
	return ix.byValue[v.HashKey()]
}

// CreateIndex registers an exact-match index for (label, attr). The caller
// (Graph.CreateIndex) backfills existing nodes.
func (s *Schema) CreateIndex(label, attr int) *AttrIndex {
	m, ok := s.indexes[label]
	if !ok {
		m = map[int]*AttrIndex{}
		s.indexes[label] = m
	}
	if ix, ok := m[attr]; ok {
		return ix
	}
	ix := newAttrIndex()
	m[attr] = ix
	s.version++
	return ix
}

// DropIndex removes the (label, attr) index, reporting whether it existed.
func (s *Schema) DropIndex(label, attr int) bool {
	m, ok := s.indexes[label]
	if !ok {
		return false
	}
	if _, ok := m[attr]; !ok {
		return false
	}
	delete(m, attr)
	s.version++
	return true
}

// Index returns the (label, attr) index if one exists.
func (s *Schema) Index(label, attr int) (*AttrIndex, bool) {
	m, ok := s.indexes[label]
	if !ok {
		return nil, false
	}
	ix, ok := m[attr]
	return ix, ok
}
