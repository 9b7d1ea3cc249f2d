// Package core is the RedisGraph query engine: it compiles Cypher ASTs into
// execution plans whose traversal operations are algebraic expressions over
// the graph's GraphBLAS matrices, and executes them in record batches. A
// query runs entirely on its caller's goroutine, as in the paper, where each
// query runs on one thread of the threadpool; concurrency comes from
// concurrent queries.
package core

import (
	"redisgraph/internal/value"
)

// symtab maps variable names to record slots. Projection barriers (WITH,
// RETURN) introduce fresh symtabs.
type symtab struct {
	slots map[string]int
	names []string
}

func newSymtab() *symtab {
	return &symtab{slots: map[string]int{}}
}

// add returns the slot for name, creating one if needed.
func (s *symtab) add(name string) int {
	if i, ok := s.slots[name]; ok {
		return i
	}
	i := len(s.names)
	s.slots[name] = i
	s.names = append(s.names, name)
	return i
}

// lookup returns the slot for name.
func (s *symtab) lookup(name string) (int, bool) {
	i, ok := s.slots[name]
	return i, ok
}

func (s *symtab) size() int { return len(s.names) }

// record is one row of intermediate execution state.
type record []value.Value

// recordBatch is an ordered group of records flowing between operations —
// the unit of work of the batch-at-a-time executor. A batch is owned by its
// consumer once returned: operations may compact or truncate it in place.
type recordBatch []record

func newRecord(n int) record {
	return make(record, n)
}

// extended returns a copy of r grown to n slots.
func (r record) extended(n int) record {
	out := make(record, n)
	copy(out, r)
	return out
}

// recordArena carves records out of chunked backing arrays so high-fanout
// operations (traversal scatter) pay one allocation per chunk instead of one
// per output record. Handed-out records never overlap and are capacity-
// clipped, so downstream in-place writes and appends stay safe.
type recordArena struct {
	buf []value.Value
	// next is the size of the next chunk. It starts small and quadruples up
	// to arenaChunk, so a point lookup emitting one record pays a few dozen
	// slots while scatter-heavy passes still converge on chunk-sized
	// allocations after a few refills.
	next int
}

const (
	arenaChunk      = 4096
	arenaFirstChunk = 64
)

// extended is the arena-backed equivalent of record.extended.
func (a *recordArena) extended(r record, n int) record {
	if len(a.buf) < n {
		switch {
		case a.next == 0:
			a.next = arenaFirstChunk
		case a.next < arenaChunk:
			a.next *= 4
		}
		a.buf = make([]value.Value, max(a.next, n))
	}
	out := record(a.buf[:n:n])
	a.buf = a.buf[n:]
	copy(out, r)
	return out
}
