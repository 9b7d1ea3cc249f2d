// Package resp implements the Redis Serialization Protocol (RESP2): the
// wire format between redis-cli-style clients and the server substrate.
package resp

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"strconv"
	"strings"
)

// SimpleString marks a reply to be encoded as +text (not a bulk string).
type SimpleString string

// ErrorReply encodes as a RESP error (-text).
type ErrorReply string

func (e ErrorReply) Error() string { return string(e) }

// Reader decodes client commands and server replies.
type Reader struct {
	br *bufio.Reader
}

// NewReader wraps r.
func NewReader(r io.Reader) *Reader {
	return &Reader{br: bufio.NewReader(r)}
}

// Bounds on a client command, as in Redis (proto-max-bulk-len is 512 MiB,
// inline requests 64 KiB): a header above the first two, or a line — an
// inline command or a header — longer than the third, is a protocol error,
// never an allocation.
const (
	maxArrayLen = 1 << 20
	maxBulkLen  = 512 << 20
	maxLineLen  = 64 << 10
)

// ProtocolError reports a malformed or oversized client command. A server
// answers it with -ERR Protocol error and drops the connection, as Redis
// does.
type ProtocolError string

func (e ProtocolError) Error() string { return "Protocol error: " + string(e) }

// ReadCommand reads one client command: either a RESP array of bulk strings
// or an inline space-separated line.
func (r *Reader) ReadCommand() ([]string, error) {
	line, err := r.readCommandLine()
	if err != nil {
		return nil, err
	}
	if len(line) == 0 {
		return nil, ProtocolError("empty command")
	}
	if line[0] != '*' {
		// Inline command.
		return splitInline(line), nil
	}
	n, err := strconv.Atoi(line[1:])
	if err != nil || n < 0 || n > maxArrayLen {
		return nil, ProtocolError(fmt.Sprintf("invalid multibulk length %q", line))
	}
	// The header is only a promise: reserve room for the arguments that
	// actually arrive, not for the count it claims.
	args := make([]string, 0, min(n, 16))
	for i := 0; i < n; i++ {
		hdr, err := r.readCommandLine()
		if err != nil {
			return nil, err
		}
		if len(hdr) == 0 || hdr[0] != '$' {
			return nil, ProtocolError(fmt.Sprintf("expected '$', got %q", hdr))
		}
		ln, err := strconv.Atoi(hdr[1:])
		if err != nil || ln < 0 {
			return nil, ProtocolError(fmt.Sprintf("invalid bulk length %q", hdr))
		}
		arg, err := r.readBulk(ln)
		if err != nil {
			return nil, err
		}
		args = append(args, arg)
	}
	return args, nil
}

// bulkChunk is the largest bulk string read into a buffer sized from its
// header; longer ones grow with the bytes that arrive.
const bulkChunk = 64 << 10

// readBulk reads an ln-byte bulk string body and its trailing CRLF. Two
// other bytes there are a protocol error: skipping them would misframe the
// rest of the stream.
func (r *Reader) readBulk(ln int) (string, error) {
	if ln > maxBulkLen {
		return "", ProtocolError(fmt.Sprintf("bulk length %d above %d", ln, maxBulkLen))
	}
	var body []byte
	if ln <= bulkChunk {
		body = make([]byte, ln+2)
		if _, err := io.ReadFull(r.br, body); err != nil {
			return "", err
		}
	} else {
		var buf bytes.Buffer
		if _, err := io.CopyN(&buf, r.br, int64(ln+2)); err != nil {
			return "", err
		}
		body = buf.Bytes()
	}
	if body[ln] != '\r' || body[ln+1] != '\n' {
		return "", ProtocolError("expected '\\r\\n'")
	}
	return string(body[:ln]), nil
}

// ReadReply decodes one server reply into Go values: SimpleString, string
// (bulk), int64, nil, []any, or ErrorReply (returned as error).
func (r *Reader) ReadReply() (any, error) {
	line, err := r.readLine()
	if err != nil {
		return nil, err
	}
	if len(line) == 0 {
		return nil, fmt.Errorf("resp: empty reply")
	}
	switch line[0] {
	case '+':
		return SimpleString(line[1:]), nil
	case '-':
		return nil, ErrorReply(line[1:])
	case ':':
		n, err := strconv.ParseInt(line[1:], 10, 64)
		if err != nil {
			return nil, fmt.Errorf("resp: bad integer %q", line)
		}
		return n, nil
	case '$':
		ln, err := strconv.Atoi(line[1:])
		if err != nil {
			return nil, fmt.Errorf("resp: bad bulk length %q", line)
		}
		if ln < 0 {
			return nil, nil // null bulk string
		}
		return r.readBulk(ln)
	case '*':
		n, err := strconv.Atoi(line[1:])
		if err != nil {
			return nil, fmt.Errorf("resp: bad array length %q", line)
		}
		if n < 0 {
			return nil, nil
		}
		out := make([]any, n)
		for i := range out {
			v, err := r.ReadReply()
			if err != nil {
				if e, ok := err.(ErrorReply); ok {
					out[i] = e
					continue
				}
				return nil, err
			}
			out[i] = v
		}
		return out, nil
	}
	return nil, fmt.Errorf("resp: unknown reply type %q", line[0])
}

func (r *Reader) readLine() (string, error) {
	s, err := r.br.ReadString('\n')
	if err != nil {
		return "", err
	}
	return strings.TrimRight(s, "\r\n"), nil
}

// readCommandLine is readLine for a client command: a line longer than
// maxLineLen is a protocol error, read no further than the bound.
func (r *Reader) readCommandLine() (string, error) {
	var line []byte // only for a line longer than the reader's buffer
	for {
		frag, err := r.br.ReadSlice('\n')
		if len(line)+len(frag) > maxLineLen {
			return "", ProtocolError(fmt.Sprintf("line longer than %d bytes", maxLineLen))
		}
		if err == nil {
			if line != nil {
				frag = append(line, frag...)
			}
			return strings.TrimRight(string(frag), "\r\n"), nil
		}
		if err != bufio.ErrBufferFull {
			return "", err
		}
		line = append(line, frag...)
	}
}

func splitInline(line string) []string {
	var out []string
	var cur strings.Builder
	inQuote := byte(0)
	flush := func() {
		if cur.Len() > 0 {
			out = append(out, cur.String())
			cur.Reset()
		}
	}
	for i := 0; i < len(line); i++ {
		c := line[i]
		switch {
		case inQuote != 0:
			if c == inQuote {
				inQuote = 0
			} else if c == '\\' && i+1 < len(line) && line[i+1] == inQuote {
				i++
				cur.WriteByte(line[i])
			} else {
				cur.WriteByte(c)
			}
		case c == '"' || c == '\'':
			inQuote = c
		case c == ' ' || c == '\t':
			flush()
		default:
			cur.WriteByte(c)
		}
	}
	flush()
	return out
}

// Writer encodes commands and replies.
type Writer struct {
	bw *bufio.Writer
}

// NewWriter wraps w.
func NewWriter(w io.Writer) *Writer {
	return &Writer{bw: bufio.NewWriter(w)}
}

// WriteCommand encodes a client command as an array of bulk strings.
func (w *Writer) WriteCommand(args ...string) error {
	fmt.Fprintf(w.bw, "*%d\r\n", len(args))
	for _, a := range args {
		fmt.Fprintf(w.bw, "$%d\r\n%s\r\n", len(a), a)
	}
	return w.bw.Flush()
}

// WriteReply encodes a server reply. Supported payloads: SimpleString,
// string, []byte, error/ErrorReply, int/int64, nil, []any and []string.
func (w *Writer) WriteReply(v any) error {
	if err := w.writeValue(v); err != nil {
		return err
	}
	return w.bw.Flush()
}

// oneLine blanks the line breaks in an error's text. Error texts can quote
// client input (an unknown command's name is a bulk string, which may hold
// CRLF); written raw, that would end the error line early and frame the rest
// as a further reply.
var oneLine = strings.NewReplacer("\r\n", " ", "\r", " ", "\n", " ")

func (w *Writer) writeValue(v any) error {
	switch v := v.(type) {
	case nil:
		_, err := w.bw.WriteString("$-1\r\n")
		return err
	case SimpleString:
		_, err := fmt.Fprintf(w.bw, "+%s\r\n", string(v))
		return err
	case ErrorReply:
		_, err := fmt.Fprintf(w.bw, "-%s\r\n", oneLine.Replace(string(v)))
		return err
	case error:
		_, err := fmt.Fprintf(w.bw, "-ERR %s\r\n", oneLine.Replace(v.Error()))
		return err
	case string:
		_, err := fmt.Fprintf(w.bw, "$%d\r\n%s\r\n", len(v), v)
		return err
	case []byte:
		_, err := fmt.Fprintf(w.bw, "$%d\r\n%s\r\n", len(v), v)
		return err
	case int:
		_, err := fmt.Fprintf(w.bw, ":%d\r\n", v)
		return err
	case int64:
		_, err := fmt.Fprintf(w.bw, ":%d\r\n", v)
		return err
	case []string:
		fmt.Fprintf(w.bw, "*%d\r\n", len(v))
		for _, e := range v {
			if err := w.writeValue(e); err != nil {
				return err
			}
		}
		return nil
	case []any:
		fmt.Fprintf(w.bw, "*%d\r\n", len(v))
		for _, e := range v {
			if err := w.writeValue(e); err != nil {
				return err
			}
		}
		return nil
	}
	return fmt.Errorf("resp: cannot encode %T", v)
}
