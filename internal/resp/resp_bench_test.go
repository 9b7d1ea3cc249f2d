package resp

import (
	"bytes"
	"io"
	"testing"
)

// loopReader serves one frame over and over, so a benchmark reads as many
// commands as it needs from a fixed buffer.
type loopReader struct {
	frame []byte
	off   int
}

func (l *loopReader) Read(p []byte) (int, error) {
	n := copy(p, l.frame[l.off:])
	l.off = (l.off + n) % len(l.frame)
	return n, nil
}

// BenchmarkReadCommand times ReadCommand on the wire benchmark's
// point-lookup frame: a GRAPH.RO_QUERY array of three bulk strings with a
// CYPHER parameter prefix, each body checked for its CRLF terminator.
//
//	go test -run '^$' -bench ReadCommand ./internal/resp
func BenchmarkReadCommand(b *testing.B) {
	var frame bytes.Buffer
	NewWriter(&frame).WriteCommand("GRAPH.RO_QUERY", "g",
		"CYPHER seed=4242 MATCH (s:Node {uid: $seed}) RETURN s.uid, s.age, s.city")
	r := NewReader(&loopReader{frame: frame.Bytes()})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if args, err := r.ReadCommand(); err != nil || len(args) != 3 {
			b.Fatalf("%d args, err = %v", len(args), err)
		}
	}
}

// BenchmarkWriteReply times WriteReply on the point-lookup reply: a header
// of three columns, one row of two integers and a string, and two
// statistics lines.
//
//	go test -run '^$' -bench WriteReply ./internal/resp
func BenchmarkWriteReply(b *testing.B) {
	reply := []any{
		[]any{"s.uid", "s.age", "s.city"},
		[]any{[]any{int64(4242), int64(37), "city-07"}},
		[]any{"Cached execution: 1", "Query internal execution time: 0.012345 milliseconds"},
	}
	w := NewWriter(io.Discard)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := w.WriteReply(reply); err != nil {
			b.Fatal(err)
		}
	}
}
