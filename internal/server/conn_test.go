package server

import (
	"bytes"
	"errors"
	"net"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"redisgraph/internal/client"
	"redisgraph/internal/resp"
)

// dialRaw opens a bare connection whose reads give up after a deadline, so
// a server that never answers fails the test instead of hanging it.
func dialRaw(t *testing.T, addr string) net.Conn {
	t.Helper()
	c, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	c.SetReadDeadline(time.Now().Add(10 * time.Second))
	t.Cleanup(func() { c.Close() })
	return c
}

// replyCount extracts the single count cell of a `RETURN count(…)` reply.
func replyCount(t *testing.T, v any, err error) int64 {
	t.Helper()
	if err != nil {
		t.Fatal(err)
	}
	return v.([]any)[1].([]any)[0].([]any)[0].(int64)
}

// TestPipelinedCommandsInOrder writes every command before reading any
// reply: each read must see every write the client sent before it.
func TestPipelinedCommandsInOrder(t *testing.T) {
	s, _ := startServer(t)
	c := dialRaw(t, s.Addr())
	const pairs = 200
	var buf bytes.Buffer
	w := resp.NewWriter(&buf)
	for i := 0; i < pairs; i++ {
		w.WriteCommand("GRAPH.QUERY", "g", "CREATE (:N)")
		w.WriteCommand("GRAPH.RO_QUERY", "g", "MATCH (n:N) RETURN count(n)")
	}
	w.WriteCommand("DEL", "g")
	w.WriteCommand("GRAPH.RO_QUERY", "g", "MATCH (n:N) RETURN count(n)")
	go c.Write(buf.Bytes())

	r := resp.NewReader(c)
	for i := 1; i <= pairs; i++ {
		if _, err := r.ReadReply(); err != nil {
			t.Fatalf("CREATE %d: %v", i, err)
		}
		v, err := r.ReadReply()
		if n := replyCount(t, v, err); n != int64(i) {
			t.Fatalf("count after CREATE %d = %d", i, n)
		}
	}
	if v, err := r.ReadReply(); err != nil || v.(int64) != 1 {
		t.Fatalf("DEL: %v %v", v, err)
	}
	v, err := r.ReadReply()
	if n := replyCount(t, v, err); n != 0 {
		t.Fatalf("count after DEL = %d", n)
	}
}

func TestServerCloseClosesClients(t *testing.T) {
	s := New(Options{Addr: "127.0.0.1:0", ThreadCount: 2})
	if err := s.Start(); err != nil {
		t.Fatal(err)
	}
	c := dialRaw(t, s.Addr())
	r, w := resp.NewReader(c), resp.NewWriter(c)
	w.WriteCommand("PING")
	if v, err := r.ReadReply(); err != nil || v != resp.SimpleString("PONG") {
		t.Fatalf("PING: %v %v", v, err)
	}
	s.Close()
	// The write may fail once the close reaches this end, or land in the
	// socket buffer before it does; the read is what must fail rather than
	// wait for a reply that never comes.
	w.WriteCommand("PING")
	if _, err := r.ReadReply(); err == nil || errors.Is(err, os.ErrDeadlineExceeded) {
		t.Fatalf("PING after Close: err = %v, want a closed connection", err)
	}
	s.Close() // a second Close is a no-op
}

// TestProtocolErrorDropsOnlyThatConnection sends a bulk length whose +2
// overflows: the sender gets a protocol error and is disconnected, and the
// server keeps serving everyone else.
func TestProtocolErrorDropsOnlyThatConnection(t *testing.T) {
	s, c := startServer(t)
	hostile := dialRaw(t, s.Addr())
	if _, err := hostile.Write([]byte("*1\r\n$9223372036854775807\r\n")); err != nil {
		t.Fatal(err)
	}
	r := resp.NewReader(hostile)
	if _, err := r.ReadReply(); err == nil || !strings.Contains(err.Error(), "Protocol error") {
		t.Fatalf("hostile header: err = %v", err)
	}
	if _, err := r.ReadReply(); err == nil || errors.Is(err, os.ErrDeadlineExceeded) {
		t.Fatalf("connection still open after a protocol error: %v", err)
	}
	if v, err := c.Do("PING"); err != nil || v != resp.SimpleString("PONG") {
		t.Fatalf("PING on another connection: %v %v", v, err)
	}
	fresh, err := client.Dial(s.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer fresh.Close()
	if v, err := fresh.Do("PING"); err != nil || v != resp.SimpleString("PONG") {
		t.Fatalf("PING on a fresh connection: %v %v", v, err)
	}
}

// TestBulkWithoutCRLFDropsConnection sends a bulk string whose ten bytes
// are followed by "*1" instead of CRLF: the sender gets the protocol error
// and is disconnected, and the PING after it in the stream gets no reply.
func TestBulkWithoutCRLFDropsConnection(t *testing.T) {
	s, _ := startServer(t)
	c := dialRaw(t, s.Addr())
	if _, err := c.Write([]byte("*1\r\n$10\r\nfoo\r\n+OK\r\n*1\r\n$4\r\nPING\r\n")); err != nil {
		t.Fatal(err)
	}
	r := resp.NewReader(c)
	if _, err := r.ReadReply(); err == nil || err.Error() != `ERR Protocol error: expected '\r\n'` {
		t.Fatalf("reply: err = %v, want the CRLF protocol error", err)
	}
	if v, err := r.ReadReply(); err == nil || errors.Is(err, os.ErrDeadlineExceeded) {
		t.Fatalf("connection still open after a protocol error: %v %v", v, err)
	}
}

// TestErrorQuotingInputIsOneReply sends a command whose bulk name holds
// CRLF and a RESP reply line: the unknown-command error quoting it must reach
// the client as one reply, and a PING on the same connection must still get
// its own PONG.
func TestErrorQuotingInputIsOneReply(t *testing.T) {
	s, _ := startServer(t)
	c := dialRaw(t, s.Addr())
	if _, err := c.Write([]byte("*1\r\n$10\r\nfoo\r\n+OK\r\n\r\n*1\r\n$4\r\nPING\r\n")); err != nil {
		t.Fatal(err)
	}
	r := resp.NewReader(c)
	_, err := r.ReadReply()
	if err == nil || !strings.HasPrefix(err.Error(), "ERR unknown command 'foo ") {
		t.Fatalf("first reply: err = %v, want one unknown-command error", err)
	}
	if v, err := r.ReadReply(); err != nil || v != resp.SimpleString("PONG") {
		t.Fatalf("PING after the error: %v %v", v, err)
	}
}

// TestConcurrentSavesOneAtATime has eight connections SAVE at once while a
// ninth writes: every SAVE succeeds and the file left behind loads as the
// graph at some point of the write sequence.
func TestConcurrentSavesOneAtATime(t *testing.T) {
	path := filepath.Join(t.TempDir(), "dump.rgsnap")
	s1 := New(Options{Addr: "127.0.0.1:0", ThreadCount: 4, SnapshotPath: path})
	if err := s1.Start(); err != nil {
		t.Fatal(err)
	}
	const savers, saves, creates = 8, 5, 100
	start := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < savers+1; i++ {
		c, err := client.Dial(s1.Addr())
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		wg.Add(1)
		go func(writer bool) {
			defer wg.Done()
			<-start
			if writer {
				for j := 0; j < creates; j++ {
					if _, err := c.Query("g", "CREATE (:N)"); err != nil {
						t.Error(err)
						return
					}
				}
				return
			}
			for j := 0; j < saves; j++ {
				if v, err := c.Do("SAVE"); err != nil || v != resp.SimpleString("OK") {
					t.Errorf("SAVE: %v %v", v, err)
					return
				}
			}
		}(i == savers)
	}
	close(start)
	wg.Wait()
	s1.Close()
	if t.Failed() {
		return
	}

	s2 := New(Options{Addr: "127.0.0.1:0", ThreadCount: 2, SnapshotPath: path})
	if err := s2.Start(); err != nil {
		t.Fatalf("loading the snapshot: %v", err)
	}
	defer s2.Close()
	c, err := client.Dial(s2.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	v, err := c.Do("GRAPH.RO_QUERY", "g", "MATCH (n:N) RETURN count(n)")
	if n := replyCount(t, v, err); n < 0 || n > creates {
		t.Fatalf("reloaded count = %d, want 0..%d", n, creates)
	}
}

// TestPanicIsContainedToItsCommand plants a nil graph under a key, so a
// query on it panics after taking its admission permit: the client gets an
// error reply, the same connection keeps serving keyspace and graph
// commands, and the permit went back to the gate.
func TestPanicIsContainedToItsCommand(t *testing.T) {
	s, c := startServer(t)
	s.mu.Lock()
	s.graphs["broken"] = nil
	s.mu.Unlock()
	if _, err := c.Do("GRAPH.QUERY", "broken", "MATCH (n) RETURN count(n)"); err == nil ||
		!strings.HasPrefix(err.Error(), "ERR internal error") {
		t.Fatalf("query on a nil graph: err = %v, want -ERR internal error", err)
	}
	if v, err := c.Do("PING"); err != nil || v != resp.SimpleString("PONG") {
		t.Fatalf("PING after the panic: %v %v", v, err)
	}
	if _, err := c.Query("g", "CREATE (:N), (:N)"); err != nil {
		t.Fatal(err)
	}
	v, err := c.Do("GRAPH.RO_QUERY", "g", "MATCH (n:N) RETURN count(n)")
	if n := replyCount(t, v, err); n != 2 {
		t.Fatalf("count after the panic = %d, want 2", n)
	}
	if st := s.gate.Snapshot(); st.Inflight != 0 {
		t.Fatalf("%d admission permits still held after the panic", st.Inflight)
	}
}
