package graph

import (
	"redisgraph/internal/grb"
	"redisgraph/internal/value"
)

// The property store: one typed column per attribute, indexed by entity ID.
// It is the only place properties live. A graph owns two — one indexed by
// node ID, one by edge ID — and Node/Edge carry no property field, so every
// reader (pushed-down scan predicates, traversal destination masks,
// interpreted property access, result rendering, snapshots) goes through a
// column: the hot comparison loops run over flat typed arrays without a map
// lookup or a value.Value box per row, and everything else boxes one cell
// with Column.Value.
//
// What a column holds: a presence bitmap over entity IDs, one typed array
// (int64, float64 or interned-string IDs) and an untyped overflow map. A
// column's kind is fixed by the first int / float / string value stored in it
// and never changes afterwards (kernels compiled against the kind stay valid
// for the column's lifetime). Values of any other kind — bools, arrays — and
// values whose kind mismatches an already-typed column land in the overflow
// map, which preserves exact fidelity for mixed-type attributes.
//
// Columns are indexed by entity ID directly rather than per (label ×
// attribute): IDs are already the dense row space of every matrix, so a
// label split would only duplicate the presence information the label
// diagonals hold.
//
// Every mutation happens under the graph's exclusive lock and bumps the
// store's version, so state derived from the columns (compiled predicates,
// candidate lists) can be keyed on it. An entity that must outlive the lock
// it was read under is copied out with appendProps (DetachedNode/Edge).

// ColKind is the fixed element type of a typed column.
type ColKind uint8

const (
	// ColNone marks a column that has not been promoted to a typed layout:
	// every value it holds lives in the overflow map.
	ColNone ColKind = iota
	ColInt
	ColFloat
	ColString
)

// Column is the storage for one attribute: a presence bitmap over entity
// IDs, exactly one typed array matching the column kind, and the untyped
// overflow map. For any ID, at most one of (presence bit, overflow entry) is
// set.
type Column struct {
	store   *PropStore
	kind    ColKind
	present grb.Bitmap
	ints    []int64
	floats  []float64
	strs    []uint32 // interned string IDs (PropStore.strTab)

	// overflow holds values whose kind does not match the column's: bools,
	// arrays, and late values of a different scalar kind.
	overflow map[uint64]value.Value
}

// PropStore holds every column plus the shared string interner. All writes
// happen under the graph's exclusive lock; reads under at least the shared
// lock.
type PropStore struct {
	cols   []*Column
	strIDs map[string]uint32
	strTab []string

	// version counts mutations (set, null-set, clear).
	version uint64
}

func newPropStore() *PropStore {
	return &PropStore{strIDs: map[string]uint32{}}
}

// Column returns the column for an attribute ID, or nil if no value was ever
// stored under it.
func (ps *PropStore) Column(aid int) *Column {
	if aid < 0 || aid >= len(ps.cols) {
		return nil
	}
	return ps.cols[aid]
}

// value reads one cell boxed; ok is false when the entity holds nothing
// under the attribute.
func (ps *PropStore) value(id uint64, aid int) (value.Value, bool) {
	if c := ps.Column(aid); c != nil {
		return c.Value(id)
	}
	return value.Null, false
}

// byName reads one cell by attribute name, null when absent (the zero Value
// is null) — the per-row read of every interpreted property access. It
// probes the column itself because going through value() measured 35–39 ns
// a read against 25–27 ns (8192 nodes, int column, six runs each).
func (ps *PropStore) byName(s *Schema, id uint64, attr string) value.Value {
	aid, ok := s.AttrID(attr)
	if !ok {
		return value.Null
	}
	if c := ps.Column(aid); c != nil {
		v, _ := c.Value(id)
		return v
	}
	return value.Null
}

func (ps *PropStore) columnFor(aid int) *Column {
	for aid >= len(ps.cols) {
		ps.cols = append(ps.cols, nil)
	}
	if ps.cols[aid] == nil {
		ps.cols[aid] = &Column{store: ps}
	}
	return ps.cols[aid]
}

func (ps *PropStore) intern(s string) uint32 {
	if id, ok := ps.strIDs[s]; ok {
		return id
	}
	id := uint32(len(ps.strTab))
	ps.strIDs[s] = id
	ps.strTab = append(ps.strTab, s)
	return id
}

// StringID resolves a string against the column's interner without creating
// it. Equal strings always share one ID, so typed equality over a string
// column is an integer compare.
func (c *Column) StringID(s string) (uint32, bool) {
	id, ok := c.store.strIDs[s]
	return id, ok
}

func scalarKind(v value.Value) ColKind {
	switch v.Kind {
	case value.KindInt:
		return ColInt
	case value.KindFloat:
		return ColFloat
	case value.KindString:
		return ColString
	}
	return ColNone
}

// set stores (or, with null, removes) one property value.
func (ps *PropStore) set(id uint64, aid int, v value.Value) {
	ps.version++
	c := ps.columnFor(aid)
	if v.IsNull() {
		c.del(id)
		return
	}
	k := scalarKind(v)
	if c.kind == ColNone && k != ColNone {
		c.kind = k // promotion: the first scalar value fixes the layout
	}
	if k != ColNone && k == c.kind {
		c.ensure(int(id))
		switch k {
		case ColInt:
			c.ints[id] = v.Int()
		case ColFloat:
			c.floats[id] = v.Float()
		case ColString:
			c.strs[id] = ps.intern(v.Str())
		}
		c.present.Set(int(id))
		delete(c.overflow, id)
		return
	}
	c.present.Unset(int(id))
	if c.overflow == nil {
		c.overflow = map[uint64]value.Value{}
	}
	c.overflow[id] = v
}

func (c *Column) del(id uint64) {
	c.present.Unset(int(id))
	delete(c.overflow, id)
}

// clear drops every column entry a deleted entity held, so a recycled ID
// starts empty.
func (ps *PropStore) clear(id uint64) {
	ps.version++
	for _, c := range ps.cols {
		if c != nil {
			c.del(id)
		}
	}
}

// appendProps appends every property entity id holds, in ascending
// attribute-ID order — the detached view result sets and snapshots read.
func (ps *PropStore) appendProps(dst []Prop, id uint64) []Prop {
	for aid, c := range ps.cols {
		if c == nil {
			continue
		}
		if v, ok := c.Value(id); ok {
			dst = append(dst, Prop{Attr: aid, Value: v})
		}
	}
	return dst
}

// ensure grows the typed array and presence bitmap to cover entity ID i.
func (c *Column) ensure(i int) {
	need := i + 1
	switch c.kind {
	case ColInt:
		if len(c.ints) < need {
			c.ints = append(c.ints, make([]int64, need-len(c.ints))...)
		}
	case ColFloat:
		if len(c.floats) < need {
			c.floats = append(c.floats, make([]float64, need-len(c.floats))...)
		}
	case ColString:
		if len(c.strs) < need {
			c.strs = append(c.strs, make([]uint32, need-len(c.strs))...)
		}
	}
	c.present = c.present.Grown(need)
}

// Kind returns the column's fixed element type. ColNone means no typed
// layout exists (overflow-only column); a typed kind never changes once set,
// so compiled kernels may cache decisions derived from it.
func (c *Column) Kind() ColKind { return c.kind }

// Present reports whether entity id holds a typed value in this column.
func (c *Column) Present(id uint64) bool { return c.present.Get(int(id)) }

// IntAt / FloatAt / StrIDAt read the typed cell for a present entity; callers
// must check Present (or a selection derived from it) first.
func (c *Column) IntAt(id uint64) int64     { return c.ints[id] }
func (c *Column) FloatAt(id uint64) float64 { return c.floats[id] }
func (c *Column) StrIDAt(id uint64) uint32  { return c.strs[id] }

// StrAt returns the interned string value for a present entity.
func (c *Column) StrAt(id uint64) string { return c.store.strTab[c.strs[id]] }

// OverflowAt returns the untyped value for an entity, if it has one.
func (c *Column) OverflowAt(id uint64) (value.Value, bool) {
	v, ok := c.overflow[id]
	return v, ok
}

// OverflowLen returns the number of untyped entries.
func (c *Column) OverflowLen() int { return len(c.overflow) }

// Value reconstructs the value.Value for an entity, typed or overflow.
func (c *Column) Value(id uint64) (value.Value, bool) {
	if c.present.Get(int(id)) {
		switch c.kind {
		case ColInt:
			return value.NewInt(c.ints[id]), true
		case ColFloat:
			return value.NewFloat(c.floats[id]), true
		case ColString:
			return value.NewString(c.store.strTab[c.strs[id]]), true
		}
	}
	v, ok := c.overflow[id]
	return v, ok
}

// AppendIDs appends, in ascending order, every entity ID holding any value
// (typed or overflow) in this column. It is the candidate generator for
// unlabelled scans: rows without the attribute compare as null and
// can never pass a pushed predicate, so they are skipped before any per-row
// work happens.
func (c *Column) AppendIDs(dst []uint64) []uint64 {
	if len(c.overflow) == 0 {
		c.present.Iterate(func(i int) bool {
			dst = append(dst, uint64(i))
			return true
		})
		return dst
	}
	sel := c.present.Clone()
	maxID := 0
	for id := range c.overflow {
		if int(id) > maxID {
			maxID = int(id)
		}
	}
	sel = sel.Grown(maxID + 1)
	for id := range c.overflow {
		sel.Set(int(id))
	}
	sel.Iterate(func(i int) bool {
		dst = append(dst, uint64(i))
		return true
	})
	return dst
}
