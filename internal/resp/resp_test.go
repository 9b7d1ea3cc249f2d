package resp

import (
	"bytes"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"testing"
)

func TestCommandRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	if err := w.WriteCommand("GRAPH.QUERY", "g", "MATCH (n) RETURN n"); err != nil {
		t.Fatal(err)
	}
	r := NewReader(&buf)
	args, err := r.ReadCommand()
	if err != nil {
		t.Fatal(err)
	}
	if len(args) != 3 || args[0] != "GRAPH.QUERY" || args[2] != "MATCH (n) RETURN n" {
		t.Fatalf("args: %v", args)
	}
}

func TestInlineCommand(t *testing.T) {
	r := NewReader(strings.NewReader("PING hello\r\n"))
	args, err := r.ReadCommand()
	if err != nil {
		t.Fatal(err)
	}
	if len(args) != 2 || args[1] != "hello" {
		t.Fatalf("args: %v", args)
	}
	// Quoted inline arguments.
	r = NewReader(strings.NewReader(`GRAPH.QUERY g "MATCH (n) RETURN n"` + "\r\n"))
	args, err = r.ReadCommand()
	if err != nil {
		t.Fatal(err)
	}
	if len(args) != 3 || args[2] != "MATCH (n) RETURN n" {
		t.Fatalf("args: %v", args)
	}
}

func TestReplyRoundTrip(t *testing.T) {
	cases := []any{
		SimpleString("OK"),
		"bulk",
		int64(-42),
		nil,
		[]any{SimpleString("a"), int64(1), nil, []any{"nested"}},
		[]string{"x", "y"},
	}
	for _, c := range cases {
		var buf bytes.Buffer
		if err := NewWriter(&buf).WriteReply(c); err != nil {
			t.Fatal(err)
		}
		got, err := NewReader(&buf).ReadReply()
		if err != nil {
			t.Fatal(err)
		}
		switch want := c.(type) {
		case nil:
			if got != nil {
				t.Fatalf("nil: %v", got)
			}
		case SimpleString:
			if got.(SimpleString) != want {
				t.Fatalf("simple: %v", got)
			}
		case string:
			if got.(string) != want {
				t.Fatalf("bulk: %v", got)
			}
		case int64:
			if got.(int64) != want {
				t.Fatalf("int: %v", got)
			}
		case []string:
			arr := got.([]any)
			if len(arr) != len(want) {
				t.Fatalf("strs: %v", got)
			}
		case []any:
			arr := got.([]any)
			if len(arr) != len(want) {
				t.Fatalf("array: %v", got)
			}
		}
	}
}

func TestErrorReply(t *testing.T) {
	var buf bytes.Buffer
	if err := NewWriter(&buf).WriteReply(errors.New("ERR something bad")); err != nil {
		t.Fatal(err)
	}
	_, err := NewReader(&buf).ReadReply()
	var er ErrorReply
	if !errors.As(err, &er) || !strings.Contains(string(er), "something bad") {
		t.Fatalf("err = %v", err)
	}
}

// TestErrorReplyStaysOneLine writes error texts holding line breaks, as an
// error quoting client input can: each must read back as one error reply,
// with the following reply still in step.
func TestErrorReplyStaysOneLine(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	w.WriteReply(ErrorReply("ERR unknown command 'foo\r\n+OK\r\n'"))
	w.WriteReply(errors.New("bad\rvalue\nhere"))
	w.WriteReply(SimpleString("PONG"))
	r := NewReader(&buf)
	for _, want := range []string{"ERR unknown command 'foo +OK '", "ERR bad value here"} {
		_, err := r.ReadReply()
		var er ErrorReply
		if !errors.As(err, &er) || string(er) != want {
			t.Fatalf("err = %q, want %q", err, want)
		}
	}
	if v, err := r.ReadReply(); err != nil || v != SimpleString("PONG") {
		t.Fatalf("reply after the errors: %v %v", v, err)
	}
}

func TestBinarySafeBulk(t *testing.T) {
	var buf bytes.Buffer
	payload := "line1\r\nline2\x00bin"
	NewWriter(&buf).WriteReply(payload)
	got, err := NewReader(&buf).ReadReply()
	if err != nil || got.(string) != payload {
		t.Fatalf("%q %v", got, err)
	}
}

func TestMalformedInput(t *testing.T) {
	for _, in := range []string{
		"*2\r\n$3\r\nab", // truncated
		"*x\r\n",         // bad count
		"$5\r\nab\r\n",   // short bulk
		"!weird\r\n",     // unknown type
	} {
		r := NewReader(strings.NewReader(in))
		if _, err := r.ReadReply(); err == nil {
			if _, err := r.ReadCommand(); err == nil {
				t.Fatalf("%q: expected error", in)
			}
		}
	}
}

func TestReadCommandBounds(t *testing.T) {
	for _, in := range []string{
		"*1\r\n$9223372036854775807\r\n", // ln+2 overflowed into a makeslice panic
		"*1\r\n$536870913\r\n",           // one byte above the bulk bound
		"*1048577\r\n",                   // one element above the array bound
		"*9223372036854775807\r\n",
	} {
		_, err := NewReader(strings.NewReader(in)).ReadCommand()
		var perr ProtocolError
		if !errors.As(err, &perr) {
			t.Fatalf("%q: err = %v, want a ProtocolError", in, err)
		}
	}
	// At the bounds a header is accepted; the short body is an I/O error.
	for _, in := range []string{"*1\r\n$536870912\r\nab", "*1048576\r\n$1\r\na\r\n"} {
		_, err := NewReader(strings.NewReader(in)).ReadCommand()
		var perr ProtocolError
		if err == nil || errors.As(err, &perr) {
			t.Fatalf("%q: err = %v, want a short-read error", in, err)
		}
	}
}

// TestReadCommandLineBound checks one command line — inline or a header — is
// capped at 64 KiB: at the cap it is read, above it (or a never-ending line)
// it is a ProtocolError.
func TestReadCommandLineBound(t *testing.T) {
	arg := strings.Repeat("x", maxLineLen-len("SET k \r\n"))
	args, err := NewReader(strings.NewReader("SET k " + arg + "\r\n")).ReadCommand()
	if err != nil || len(args) != 3 || args[2] != arg {
		t.Fatalf("line at the cap: %d args, err = %v", len(args), err)
	}
	for _, in := range []string{
		"SET k " + arg + "x\r\n",                        // one byte over
		strings.Repeat("P", 1<<20),                      // 1 MiB, no newline at all
		"*1\r\n$" + strings.Repeat("1", 70000) + "\r\n", // an oversized header line
	} {
		_, err := NewReader(strings.NewReader(in)).ReadCommand()
		var perr ProtocolError
		if !errors.As(err, &perr) {
			t.Fatalf("%d-byte line: err = %v, want a ProtocolError", len(in), err)
		}
	}
}

func TestReadCommandLongBulk(t *testing.T) {
	arg := strings.Repeat("x", bulkChunk+1)
	var buf bytes.Buffer
	NewWriter(&buf).WriteCommand("SET", "k", arg)
	args, err := NewReader(&buf).ReadCommand()
	if err != nil || len(args) != 3 || args[2] != arg {
		t.Fatalf("len(args) = %d, err = %v", len(args), err)
	}
}

// TestBulkWithoutCRLF sends a bulk string whose body is not followed by
// CRLF, through the buffered path and the long-bulk stream: both are a
// protocol error, not a skip of two bytes that misframes what follows.
func TestBulkWithoutCRLF(t *testing.T) {
	long := strings.Repeat("x", bulkChunk+1)
	for _, in := range []string{
		"*1\r\n$10\r\nfoo\r\n+OK\r\n*1\r\n$4\r\nPING\r\n",
		"*1\r\n$3\r\nfooXY*1\r\n$4\r\nPING\r\n",
		"*1\r\n$3\r\nfoo\r*1\r\n$4\r\nPING\r\n",
		fmt.Sprintf("*1\r\n$%d\r\n%sXY*1\r\n$4\r\nPING\r\n", len(long), long),
	} {
		_, err := NewReader(strings.NewReader(in)).ReadCommand()
		if err == nil || err.Error() != `Protocol error: expected '\r\n'` {
			t.Fatalf("%.24q: err = %v, want the CRLF protocol error", in, err)
		}
	}
	in := fmt.Sprintf("*1\r\n$%d\r\n%s\r\n*1\r\n$4\r\nPING\r\n", len(long), long)
	r := NewReader(strings.NewReader(in))
	for _, want := range []string{long, "PING"} {
		if args, err := r.ReadCommand(); err != nil || len(args) != 1 || args[0] != want {
			t.Fatalf("well-framed stream: %d args, err = %v", len(args), err)
		}
	}
}

// FuzzReadCommand feeds arbitrary bytes to the command reader: it must never
// panic, and what it allocates must track the bytes it was given rather than
// the lengths the headers claim.
func FuzzReadCommand(f *testing.F) {
	for _, seed := range []string{
		"*1\r\n$9223372036854775807\r\n",
		"*3\r\n$11\r\nGRAPH.QUERY\r\n$1\r\ng\r\n$18\r\nMATCH (n) RETURN n\r\n",
		"*1048576\r\n",
		"*1\r\n$536870912\r\nab",
		"PING \"quoted arg\"\r\n",
		"*1\r\n$10\r\nfoo\r\n+OK\r\n*1\r\n$4\r\nPING\r\n", // a bulk body without its CRLF
		strings.Repeat("a", 1<<20),                        // a 1 MiB line without a newline
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		r := NewReader(bytes.NewReader(data))
		for {
			if _, err := r.ReadCommand(); err != nil {
				break
			}
		}
		runtime.ReadMemStats(&after)
		if got, limit := after.TotalAlloc-before.TotalAlloc, uint64(1<<20+64*len(data)); got > limit {
			t.Fatalf("allocated %d bytes for %d input bytes (limit %d)", got, len(data), limit)
		}
	})
}
