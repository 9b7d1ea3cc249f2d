package main

import (
	"fmt"
	"strconv"
	"strings"

	"redisgraph/internal/resp"
)

// cellKind tags a decoded result-set cell.
type cellKind uint8

const (
	cellNil cellKind = iota
	cellInt
	cellString // strings, and the doubles/booleans the server renders as text
	cellNode
	cellEdge
	cellArray
)

// cell is one decoded value of a result row. Nodes and edges follow the
// RedisGraph verbose protocol a go-redis client parses (SNIPPETS #3): a node
// is a 3-array (id, labels, properties), an edge a 5-array (id, type,
// src_node, dest_node, properties), each member a [name, value] pair.
type cell struct {
	kind   cellKind
	i      int64  // cellInt value; node/edge id
	s      string // cellString value; edge type
	src    int64  // edge endpoints
	dst    int64
	labels []string
	props  []prop
	arr    []cell
}

type prop struct {
	key string
	val cell
}

// queryStats is the statistics trailer of a GRAPH.QUERY reply.
type queryStats struct {
	labelsAdded, nodesCreated, nodesDeleted int
	relsCreated, relsDeleted, propsSet      int
	indicesCreated, indicesDeleted          int
	execMs                                  float64
}

// reply is a decoded GRAPH.QUERY / GRAPH.RO_QUERY reply: header, rows and
// statistics, the three sections every RedisGraph client library splits.
type reply struct {
	header []string
	rows   [][]cell
	stats  queryStats
}

// decodeReply splits a raw RESP reply into header / rows / statistics. It
// runs on the clock: a client has not received a result until it is decoded.
func decodeReply(v any) (reply, error) {
	var r reply
	top, ok := v.([]any)
	if !ok {
		return r, fmt.Errorf("reply is %T, want an array", v)
	}
	var statLines []any
	switch len(top) {
	case 1: // statistics only (the real module's reply to a bare write)
		statLines, ok = top[0].([]any)
	case 3:
		var hdr, rows []any
		if hdr, ok = top[0].([]any); !ok {
			return r, fmt.Errorf("header is %T, want an array", top[0])
		}
		if len(hdr) > 0 {
			r.header = make([]string, len(hdr))
			for i, h := range hdr {
				s, isStr := h.(string)
				if !isStr {
					return r, fmt.Errorf("header[%d] is %T, want a string", i, h)
				}
				r.header[i] = s
			}
		}
		if rows, ok = top[1].([]any); !ok {
			return r, fmt.Errorf("rows section is %T, want an array", top[1])
		}
		if len(rows) > 0 {
			r.rows = make([][]cell, len(rows))
			for i, raw := range rows {
				cols, isArr := raw.([]any)
				if !isArr {
					return r, fmt.Errorf("row %d is %T, want an array", i, raw)
				}
				row := make([]cell, len(cols))
				for j, c := range cols {
					var err error
					if row[j], err = decodeCell(c); err != nil {
						return r, fmt.Errorf("row %d col %d: %w", i, j, err)
					}
				}
				r.rows[i] = row
			}
		}
		statLines, ok = top[2].([]any)
	default:
		return r, fmt.Errorf("reply has %d sections, want 1 or 3", len(top))
	}
	if !ok {
		return r, fmt.Errorf("statistics section is not an array")
	}
	for _, l := range statLines {
		s, isStr := l.(string)
		if !isStr {
			return r, fmt.Errorf("statistics line is %T, want a string", l)
		}
		if err := r.stats.parseLine(s); err != nil {
			return r, err
		}
	}
	return r, nil
}

func decodeCell(v any) (cell, error) {
	switch v := v.(type) {
	case nil:
		return cell{kind: cellNil}, nil
	case int64:
		return cell{kind: cellInt, i: v}, nil
	case string:
		return cell{kind: cellString, s: v}, nil
	case resp.SimpleString:
		return cell{kind: cellString, s: string(v)}, nil
	case []any:
		if c, ok, err := decodeEntity(v); ok || err != nil {
			return c, err
		}
		c := cell{kind: cellArray, arr: make([]cell, len(v))}
		for i, e := range v {
			var err error
			if c.arr[i], err = decodeCell(e); err != nil {
				return c, err
			}
		}
		return c, nil
	}
	return cell{}, fmt.Errorf("unsupported cell type %T", v)
}

// decodeEntity recognises the node(3) / edge(5) shapes: every member is a
// [name, value] pair and the names are the protocol's fixed field names.
func decodeEntity(v []any) (cell, bool, error) {
	if len(v) != 3 && len(v) != 5 {
		return cell{}, false, nil
	}
	fields := make(map[string]any, len(v))
	for _, m := range v {
		pair, ok := m.([]any)
		if !ok || len(pair) != 2 {
			return cell{}, false, nil
		}
		name, ok := pair[0].(string)
		if !ok {
			return cell{}, false, nil
		}
		fields[name] = pair[1]
	}
	id, hasID := fields["id"].(int64)
	rawProps, hasProps := fields["properties"].([]any)
	if !hasID || !hasProps {
		return cell{}, false, nil
	}
	c := cell{i: id}
	if len(v) == 3 {
		rawLabels, ok := fields["labels"].([]any)
		if !ok {
			return cell{}, false, nil
		}
		c.kind = cellNode
		for _, l := range rawLabels {
			s, ok := l.(string)
			if !ok {
				return c, true, fmt.Errorf("node label is %T, want a string", l)
			}
			c.labels = append(c.labels, s)
		}
	} else {
		typ, okT := fields["type"].(string)
		src, okS := fields["src_node"].(int64)
		dst, okD := fields["dest_node"].(int64)
		if !okT || !okS || !okD {
			return cell{}, false, nil
		}
		c.kind, c.s, c.src, c.dst = cellEdge, typ, src, dst
	}
	for _, rp := range rawProps {
		pair, ok := rp.([]any)
		if !ok || len(pair) != 2 {
			return c, true, fmt.Errorf("entity property is not a [key, value] pair")
		}
		key, ok := pair[0].(string)
		if !ok {
			return c, true, fmt.Errorf("entity property key is %T, want a string", pair[0])
		}
		val, err := decodeCell(pair[1])
		if err != nil {
			return c, true, err
		}
		c.props = append(c.props, prop{key, val})
	}
	return c, true, nil
}

// parseLine folds one "Name: value" statistics line into s. Unknown names
// are an error: a new server-side counter should be decoded, not dropped.
func (s *queryStats) parseLine(line string) error {
	name, val, ok := strings.Cut(line, ": ")
	if !ok {
		return fmt.Errorf("statistics line %q has no ': '", line)
	}
	if name == "Query internal execution time" {
		num, _, _ := strings.Cut(val, " ")
		ms, err := strconv.ParseFloat(num, 64)
		if err != nil {
			return fmt.Errorf("statistics line %q: %w", line, err)
		}
		s.execMs = ms
		return nil
	}
	var dst *int
	switch name {
	case "Labels added":
		dst = &s.labelsAdded
	case "Nodes created":
		dst = &s.nodesCreated
	case "Nodes deleted":
		dst = &s.nodesDeleted
	case "Relationships created":
		dst = &s.relsCreated
	case "Relationships deleted":
		dst = &s.relsDeleted
	case "Properties set":
		dst = &s.propsSet
	case "Indices created":
		dst = &s.indicesCreated
	case "Indices deleted":
		dst = &s.indicesDeleted
	default:
		return fmt.Errorf("unknown statistics line %q", line)
	}
	n, err := strconv.Atoi(val)
	if err != nil {
		return fmt.Errorf("statistics line %q: %w", line, err)
	}
	*dst = n
	return nil
}

// digest condenses everything the oracle checks — header, rows and the
// side-effect counters, not the execution time — into 64 bits. The run keeps
// one digest per reply, eight bytes, so a window of several hundred thousand
// replies is verified afterwards without the client holding them (and
// without its own garbage collector on the latency clock).
func (r *reply) digest() uint64 {
	h := fnvOffset
	h.num(int64(len(r.header)))
	for _, c := range r.header {
		h.str(c)
	}
	h.num(int64(len(r.rows)))
	for _, row := range r.rows {
		h.num(int64(len(row)))
		for i := range row {
			h.cell(&row[i])
		}
	}
	s := &r.stats
	for _, n := range [...]int{s.labelsAdded, s.nodesCreated, s.nodesDeleted, s.relsCreated,
		s.relsDeleted, s.propsSet, s.indicesCreated, s.indicesDeleted} {
		h.num(int64(n))
	}
	return uint64(h)
}

// fnv64a is an allocation-free FNV-1a accumulator (hash/fnv's interface
// would make every string escape to the heap, on the clock).
type fnv64a uint64

const (
	fnvOffset fnv64a = 14695981039346656037
	fnvPrime  fnv64a = 1099511628211
)

func (h *fnv64a) num(n int64) {
	for i := 0; i < 8; i++ {
		*h = (*h ^ fnv64a(byte(n>>(8*i)))) * fnvPrime
	}
}

func (h *fnv64a) str(s string) {
	h.num(int64(len(s)))
	for i := 0; i < len(s); i++ {
		*h = (*h ^ fnv64a(s[i])) * fnvPrime
	}
}

func (h *fnv64a) cell(c *cell) {
	h.num(int64(c.kind))
	h.num(c.i)
	h.str(c.s)
	h.num(c.src)
	h.num(c.dst)
	h.num(int64(len(c.labels)))
	for _, l := range c.labels {
		h.str(l)
	}
	h.num(int64(len(c.props)))
	for i := range c.props {
		h.str(c.props[i].key)
		h.cell(&c.props[i].val)
	}
	h.num(int64(len(c.arr)))
	for i := range c.arr {
		h.cell(&c.arr[i])
	}
}

// String renders a reply for mismatch reports.
func (r *reply) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%v", r.header)
	for _, row := range r.rows {
		b.WriteString(" [")
		for i := range row {
			if i > 0 {
				b.WriteString(", ")
			}
			switch c := &row[i]; c.kind {
			case cellNil:
				b.WriteString("null")
			case cellInt:
				fmt.Fprintf(&b, "%d", c.i)
			case cellString:
				fmt.Fprintf(&b, "%q", c.s)
			default:
				fmt.Fprintf(&b, "%+v", *c)
			}
		}
		b.WriteString("]")
	}
	s := r.stats
	fmt.Fprintf(&b, " created=%d/%d deleted=%d/%d set=%d", s.nodesCreated, s.relsCreated,
		s.nodesDeleted, s.relsDeleted, s.propsSet)
	return b.String()
}
