// Package persist implements graph snapshot serialisation — the role Redis
// RDB files play for RedisGraph. The format is a compact little-endian
// binary stream: schema tables (in interned-ID order), then nodes, then
// edges, with entity IDs preserved exactly (including holes left by
// deletions) so matrix coordinates survive a save/load round trip.
package persist

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"math"

	"redisgraph/internal/graph"
	"redisgraph/internal/value"
)

const magic = "RGGO0001"

// Save writes a snapshot of g. The caller must hold at least the graph's
// read lock and should force a full delta sync first (the server snapshot
// layer takes the exclusive lock and calls Graph.Sync) so the serialised
// state matches the fully materialised matrices.
func Save(g *graph.Graph, w io.Writer) error {
	bw := bufio.NewWriter(w)
	if _, err := bw.WriteString(magic); err != nil {
		return err
	}
	writeString(bw, g.Name)

	// Schema tables in ID order so interning replays identically.
	writeUvarint(bw, uint64(g.Schema.LabelCount()))
	for i := 0; i < g.Schema.LabelCount(); i++ {
		writeString(bw, g.Schema.LabelName(i))
	}
	writeUvarint(bw, uint64(g.Schema.RelTypeCount()))
	for i := 0; i < g.Schema.RelTypeCount(); i++ {
		writeString(bw, g.Schema.RelTypeName(i))
	}
	attrCount := 0
	for g.Schema.AttrName(attrCount) != "" {
		attrCount++
	}
	writeUvarint(bw, uint64(attrCount))
	for i := 0; i < attrCount; i++ {
		writeString(bw, g.Schema.AttrName(i))
	}

	// Nodes (live only; IDs are explicit so holes are preserved).
	writeUvarint(bw, uint64(g.NodeCount()))
	var err error
	var props []graph.Prop // reused per entity; ascending attribute ID
	g.ForEachNode(func(n *graph.Node) bool {
		writeUvarint(bw, n.ID)
		writeUvarint(bw, uint64(len(n.Labels)))
		for _, l := range n.Labels {
			writeUvarint(bw, uint64(l))
		}
		props = g.AppendNodeProps(props[:0], n.ID)
		err = writeProps(bw, props)
		return err == nil
	})
	if err != nil {
		return err
	}

	// Edges.
	writeUvarint(bw, uint64(g.EdgeCount()))
	g.ForEachEdge(func(e *graph.Edge) bool {
		writeUvarint(bw, e.ID)
		writeUvarint(bw, uint64(e.Type))
		writeUvarint(bw, e.Src)
		writeUvarint(bw, e.Dst)
		props = g.AppendEdgeProps(props[:0], e.ID)
		err = writeProps(bw, props)
		return err == nil
	})
	if err != nil {
		return err
	}

	// Indexes.
	type ixPair struct{ label, attr int }
	var pairs []ixPair
	for l := 0; l < g.Schema.LabelCount(); l++ {
		for a := 0; a < attrCount; a++ {
			if _, ok := g.Schema.Index(l, a); ok {
				pairs = append(pairs, ixPair{l, a})
			}
		}
	}
	writeUvarint(bw, uint64(len(pairs)))
	for _, p := range pairs {
		writeUvarint(bw, uint64(p.label))
		writeUvarint(bw, uint64(p.attr))
	}
	return bw.Flush()
}

// Load reads a snapshot into a fresh graph. When several snapshots are
// concatenated in one stream, pass a *bufio.Reader and call Load repeatedly
// — it reads exactly one graph and leaves the reader positioned after it.
func Load(r io.Reader) (*graph.Graph, error) {
	br, ok := r.(*bufio.Reader)
	if !ok {
		br = bufio.NewReader(r)
	}
	head := make([]byte, len(magic))
	if _, err := io.ReadFull(br, head); err != nil {
		return nil, err
	}
	if string(head) != magic {
		return nil, fmt.Errorf("persist: bad magic %q", head)
	}
	name, err := readString(br)
	if err != nil {
		return nil, err
	}
	g := graph.New(name)

	nLabels, err := readUvarint(br)
	if err != nil {
		return nil, err
	}
	// Every table grows as its entries are read, so a hostile count costs
	// no more than the bytes that back it.
	var labelNames []string
	for i := uint64(0); i < nLabels; i++ {
		s, err := readString(br)
		if err != nil {
			return nil, err
		}
		labelNames = append(labelNames, s)
		g.Schema.AddLabel(s)
	}
	nRels, err := readUvarint(br)
	if err != nil {
		return nil, err
	}
	for i := uint64(0); i < nRels; i++ {
		s, err := readString(br)
		if err != nil {
			return nil, err
		}
		g.Schema.AddRelType(s)
	}
	nAttrs, err := readUvarint(br)
	if err != nil {
		return nil, err
	}
	var attrNames []string
	for i := uint64(0); i < nAttrs; i++ {
		s, err := readString(br)
		if err != nil {
			return nil, err
		}
		attrNames = append(attrNames, s)
		g.Schema.AddAttr(s)
	}

	// Nodes: replay in ID order, padding holes with placeholder nodes that
	// are deleted afterwards so the DataBlock free list matches.
	nNodes, err := readUvarint(br)
	if err != nil {
		return nil, err
	}
	var holes []uint64
	next := uint64(0)
	for i := uint64(0); i < nNodes; i++ {
		id, err := readUvarint(br)
		if err != nil {
			return nil, err
		}
		for next < id {
			g.CreateNode(nil, nil)
			holes = append(holes, next)
			next++
		}
		nl, err := readUvarint(br)
		if err != nil {
			return nil, err
		}
		var labels []string
		for k := uint64(0); k < nl; k++ {
			lid, err := readUvarint(br)
			if err != nil {
				return nil, err
			}
			if lid >= nLabels {
				return nil, fmt.Errorf("persist: label id %d out of range", lid)
			}
			labels = append(labels, labelNames[lid])
		}
		props, err := readProps(br, attrNames)
		if err != nil {
			return nil, err
		}
		n := g.CreateNode(labels, props)
		if n.ID != id {
			return nil, fmt.Errorf("persist: node id drift: %d != %d", n.ID, id)
		}
		next = id + 1
	}
	for _, h := range holes {
		g.DeleteNode(h)
	}

	// Edges, with the same hole-preserving replay.
	nEdges, err := readUvarint(br)
	if err != nil {
		return nil, err
	}
	var edgeHoles []uint64
	nextE := uint64(0)
	for i := uint64(0); i < nEdges; i++ {
		id, err := readUvarint(br)
		if err != nil {
			return nil, err
		}
		typ, err := readUvarint(br)
		if err != nil {
			return nil, err
		}
		src, err := readUvarint(br)
		if err != nil {
			return nil, err
		}
		dst, err := readUvarint(br)
		if err != nil {
			return nil, err
		}
		props, err := readProps(br, attrNames)
		if err != nil {
			return nil, err
		}
		if typ >= nRels {
			return nil, fmt.Errorf("persist: relationship type id %d out of range", typ)
		}
		for nextE < id {
			// Placeholder edge between src and dst, deleted below.
			ph, err := g.CreateEdge(g.Schema.RelTypeName(int(typ)), src, dst, nil)
			if err != nil {
				return nil, err
			}
			edgeHoles = append(edgeHoles, ph.ID)
			nextE++
		}
		e, err := g.CreateEdge(g.Schema.RelTypeName(int(typ)), src, dst, props)
		if err != nil {
			return nil, err
		}
		if e.ID != id {
			return nil, fmt.Errorf("persist: edge id drift: %d != %d", e.ID, id)
		}
		nextE = id + 1
	}
	for _, h := range edgeHoles {
		g.DeleteEdge(h)
	}

	// Indexes.
	nIx, err := readUvarint(br)
	if err != nil {
		return nil, err
	}
	for i := uint64(0); i < nIx; i++ {
		l, err := readUvarint(br)
		if err != nil {
			return nil, err
		}
		a, err := readUvarint(br)
		if err != nil {
			return nil, err
		}
		if l >= nLabels || a >= nAttrs {
			return nil, fmt.Errorf("persist: index ids out of range")
		}
		g.CreateIndex(labelNames[l], attrNames[a])
	}
	g.Sync()
	return g, nil
}

// ---- primitives ----

func writeUvarint(w *bufio.Writer, v uint64) {
	var buf [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(buf[:], v)
	w.Write(buf[:n])
}

func readUvarint(r *bufio.Reader) (uint64, error) {
	return binary.ReadUvarint(r)
}

func writeString(w *bufio.Writer, s string) {
	writeUvarint(w, uint64(len(s)))
	w.WriteString(s)
}

func readString(r *bufio.Reader) (string, error) {
	n, err := readUvarint(r)
	if err != nil {
		return "", err
	}
	if n > 1<<24 {
		return "", fmt.Errorf("persist: string too long (%d)", n)
	}
	buf := make([]byte, n)
	if _, err := io.ReadFull(r, buf); err != nil {
		return "", err
	}
	return string(buf), nil
}

func writeProps(w *bufio.Writer, props []graph.Prop) error {
	writeUvarint(w, uint64(len(props)))
	for _, p := range props {
		writeUvarint(w, uint64(p.Attr))
		if err := writeValue(w, p.Value); err != nil {
			return err
		}
	}
	return nil
}

func readProps(r *bufio.Reader, attrNames []string) (map[string]value.Value, error) {
	n, err := readUvarint(r)
	if err != nil {
		return nil, err
	}
	if n == 0 {
		return nil, nil
	}
	props := make(map[string]value.Value, min(n, uint64(len(attrNames))))
	for i := uint64(0); i < n; i++ {
		k, err := readUvarint(r)
		if err != nil {
			return nil, err
		}
		if k >= uint64(len(attrNames)) {
			return nil, fmt.Errorf("persist: attr id %d out of range", k)
		}
		v, err := readValue(r)
		if err != nil {
			return nil, err
		}
		props[attrNames[k]] = v
	}
	return props, nil
}

func writeValue(w *bufio.Writer, v value.Value) error {
	w.WriteByte(byte(v.Kind))
	switch v.Kind {
	case value.KindNull:
	case value.KindBool:
		if v.Bool() {
			w.WriteByte(1)
		} else {
			w.WriteByte(0)
		}
	case value.KindInt:
		var buf [8]byte
		binary.LittleEndian.PutUint64(buf[:], uint64(v.Int()))
		w.Write(buf[:])
	case value.KindFloat:
		var buf [8]byte
		binary.LittleEndian.PutUint64(buf[:], math.Float64bits(v.Float()))
		w.Write(buf[:])
	case value.KindString:
		writeString(w, v.Str())
	case value.KindArray:
		writeUvarint(w, uint64(len(v.Array())))
		for _, e := range v.Array() {
			if err := writeValue(w, e); err != nil {
				return err
			}
		}
	default:
		return fmt.Errorf("persist: cannot serialise %s values", v.Kind)
	}
	return nil
}

func readValue(r *bufio.Reader) (value.Value, error) {
	kind, err := r.ReadByte()
	if err != nil {
		return value.Null, err
	}
	switch value.Kind(kind) {
	case value.KindNull:
		return value.Null, nil
	case value.KindBool:
		b, err := r.ReadByte()
		if err != nil {
			return value.Null, err
		}
		return value.NewBool(b != 0), nil
	case value.KindInt:
		var buf [8]byte
		if _, err := io.ReadFull(r, buf[:]); err != nil {
			return value.Null, err
		}
		return value.NewInt(int64(binary.LittleEndian.Uint64(buf[:]))), nil
	case value.KindFloat:
		var buf [8]byte
		if _, err := io.ReadFull(r, buf[:]); err != nil {
			return value.Null, err
		}
		return value.NewFloat(math.Float64frombits(binary.LittleEndian.Uint64(buf[:]))), nil
	case value.KindString:
		s, err := readString(r)
		if err != nil {
			return value.Null, err
		}
		return value.NewString(s), nil
	case value.KindArray:
		n, err := readUvarint(r)
		if err != nil {
			return value.Null, err
		}
		if n > 1<<24 {
			return value.Null, fmt.Errorf("persist: array too long")
		}
		arr := []value.Value{}
		for i := uint64(0); i < n; i++ {
			v, err := readValue(r)
			if err != nil {
				return value.Null, err
			}
			arr = append(arr, v)
		}
		return value.NewArray(arr), nil
	}
	return value.Null, fmt.Errorf("persist: unknown value kind %d", kind)
}
