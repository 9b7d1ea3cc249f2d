// Package server implements the Redis-like server hosting the graph module.
//
// Architecture (paper Section II): each client connection is served by one
// goroutine that reads a command, executes it and writes its reply before
// reading the next, so a client's commands run one at a time in the order
// it sent them — Redis's blocked-client order. Every command executes
// inline on that goroutine. GRAPH.QUERY, GRAPH.RO_QUERY and GRAPH.PROFILE
// first take one of THREAD_COUNT admission permits (the paper's fixed
// threadpool size), so at most THREAD_COUNT queries execute at once; a query
// past that waits FIFO for up to ADMISSION_TIMEOUT, then gets -BUSY.
package server

import (
	"errors"
	"fmt"
	"log"
	"net"
	"path"
	"runtime/debug"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"redisgraph/internal/core"
	"redisgraph/internal/graph"
	"redisgraph/internal/pool"
	"redisgraph/internal/resp"
)

// Options configures the server.
type Options struct {
	Addr string
	// ThreadCount is the number of queries that may execute at once, the
	// paper's threadpool size (configured at module load time, fixed after
	// it). Defaults to 8.
	ThreadCount int
	// QueryTimeout bounds each query (0 = none).
	QueryTimeout time.Duration
	// SnapshotPath, when set, enables the SAVE command and loading the
	// snapshot at Start (the role of an RDB file).
	SnapshotPath string
}

// Server is a Redis-like TCP server with the graph module loaded.
type Server struct {
	opts Options
	ln   net.Listener

	// planCache is the server-wide parameterized plan cache, shared by every
	// graph and worker. Its capacity is the live PLAN_CACHE_SIZE value
	// (starts at the engine default, 128; capacity 0 = caching off, the
	// differential baseline).
	planCache *core.PlanCache
	// gate is the server's only concurrency bound: THREAD_COUNT permits,
	// one held by each executing GRAPH.QUERY/RO_QUERY/PROFILE; saturated
	// arrivals queue FIFO up to the admission timeout.
	gate *pool.Gate
	// admissionTimeoutMs is the live ADMISSION_TIMEOUT value in
	// milliseconds (starts at 1000, mutable via GRAPH.CONFIG SET).
	admissionTimeoutMs atomic.Int64

	mu       sync.RWMutex
	graphs   map[string]*graph.Graph
	keyspace map[string]string

	// saveMu keeps SAVEs one at a time: concurrent ones would write the
	// same temporary file.
	saveMu sync.Mutex

	// connMu guards conns, the open client connections; Close sets it to
	// nil so a connection accepted after Close is refused.
	connMu sync.Mutex
	conns  map[net.Conn]struct{}
	// wg counts the accept goroutine and every connection goroutine.
	wg sync.WaitGroup
}

// New creates a server (not yet listening).
func New(opts Options) *Server {
	if opts.ThreadCount <= 0 {
		opts.ThreadCount = 8
	}
	s := &Server{
		opts:     opts,
		gate:     pool.NewGate(opts.ThreadCount),
		graphs:   map[string]*graph.Graph{},
		keyspace: map[string]string{},
		conns:    map[net.Conn]struct{}{},
	}
	s.planCache = core.NewPlanCache(core.DefaultPlanCacheSize)
	s.admissionTimeoutMs.Store(defaultAdmissionTimeoutMs)
	return s
}

// defaultAdmissionTimeoutMs is the default queue-wait deadline behind the
// admission gate: long enough to absorb bursts, short enough that clients
// learn about overload instead of stacking up.
const defaultAdmissionTimeoutMs = 1000

// admissionTimeout resolves the live queue-wait deadline.
func (s *Server) admissionTimeout() time.Duration {
	return time.Duration(s.admissionTimeoutMs.Load()) * time.Millisecond
}

// Addr returns the bound listen address (valid after Start).
func (s *Server) Addr() string {
	if s.ln == nil {
		return s.opts.Addr
	}
	return s.ln.Addr().String()
}

// Start begins listening and serving. It returns once the listener is
// bound; serving continues in background goroutines until Close.
func (s *Server) Start() error {
	if err := s.LoadSnapshot(); err != nil {
		return fmt.Errorf("server: loading snapshot: %w", err)
	}
	ln, err := net.Listen("tcp", s.opts.Addr)
	if err != nil {
		return err
	}
	s.ln = ln
	s.wg.Add(1)
	go s.acceptLoop()
	return nil
}

// Close stops accepting, closes every client connection and waits for
// their goroutines to finish the command in hand.
func (s *Server) Close() {
	if s.ln != nil {
		s.ln.Close()
	}
	s.connMu.Lock()
	for c := range s.conns {
		c.Close()
	}
	s.conns = nil
	s.connMu.Unlock()
	s.wg.Wait()
}

func (s *Server) acceptLoop() {
	defer s.wg.Done()
	for {
		c, err := s.ln.Accept()
		if errors.Is(err, net.ErrClosed) {
			return
		}
		if err != nil {
			continue
		}
		s.connMu.Lock()
		if s.conns == nil {
			s.connMu.Unlock()
			c.Close()
			return
		}
		s.conns[c] = struct{}{}
		s.wg.Add(1)
		s.connMu.Unlock()
		go s.serveConn(c)
	}
}

// serveConn reads, executes and answers one client's commands in the order
// it sent them.
func (s *Server) serveConn(c net.Conn) {
	defer func() {
		s.connMu.Lock()
		delete(s.conns, c)
		s.connMu.Unlock()
		c.Close()
		s.wg.Done()
	}()
	r := resp.NewReader(c)
	w := resp.NewWriter(c)
	for {
		args, err := r.ReadCommand()
		if err != nil {
			if perr, ok := err.(resp.ProtocolError); ok {
				w.WriteReply(perr)
			}
			return
		}
		if len(args) == 0 {
			continue
		}
		cmd := strings.ToUpper(args[0])
		if cmd == "QUIT" {
			w.WriteReply(resp.SimpleString("OK"))
			return
		}
		v, err := s.execute(cmd, args[1:])
		if err != nil {
			// Every command error already starts with its Redis error code
			// ("ERR …"); written as a plain error it would gain a second one.
			v = resp.ErrorReply(err.Error())
		}
		if w.WriteReply(v) != nil {
			return
		}
	}
}

// execute runs one command on the connection goroutine. A panic in any
// command is contained here: the client gets an error reply, the command is
// logged, and the connection keeps serving. A query's deferred permit
// release runs while the panic unwinds, so no admission permit leaks.
func (s *Server) execute(cmd string, args []string) (v any, err error) {
	defer func() {
		if r := recover(); r != nil {
			log.Printf("server: panic in %s: %v\n%s", cmd, r, debug.Stack())
			v, err = nil, fmt.Errorf("ERR internal error: %v", r)
		}
	}()
	if strings.HasPrefix(cmd, "GRAPH.") {
		return s.graphCommand(cmd, args)
	}
	return s.keyspaceCommand(cmd, args)
}

// Graph returns (creating on demand) the named graph.
func (s *Server) Graph(name string) *graph.Graph {
	s.mu.Lock()
	defer s.mu.Unlock()
	g, ok := s.graphs[name]
	if !ok {
		g = graph.New(name)
		s.graphs[name] = g
	}
	return g
}

func (s *Server) graphNames() []string {
	s.mu.RLock()
	defer s.mu.RUnlock()
	names := make([]string, 0, len(s.graphs))
	for n := range s.graphs {
		names = append(names, n)
	}
	return names
}

func (s *Server) deleteGraph(name string) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	g, ok := s.graphs[name]
	if !ok {
		return false
	}
	delete(s.graphs, name)
	// A later graph with the same name is a different *graph.Graph, so its
	// cache keys never collide with the dead entries — dropping them here
	// just releases the plans promptly.
	s.planCache.InvalidateGraph(g)
	return true
}

func (s *Server) keyspaceCommand(cmd string, args []string) (any, error) {
	switch cmd {
	case "PING":
		if len(args) == 1 {
			return args[0], nil
		}
		return resp.SimpleString("PONG"), nil
	case "ECHO":
		if len(args) != 1 {
			return nil, fmt.Errorf("ERR wrong number of arguments for 'echo' command")
		}
		return args[0], nil
	case "SET":
		if len(args) < 2 {
			return nil, fmt.Errorf("ERR wrong number of arguments for 'set' command")
		}
		s.mu.Lock()
		s.keyspace[args[0]] = args[1]
		s.mu.Unlock()
		return resp.SimpleString("OK"), nil
	case "GET":
		if len(args) != 1 {
			return nil, fmt.Errorf("ERR wrong number of arguments for 'get' command")
		}
		s.mu.RLock()
		v, ok := s.keyspace[args[0]]
		s.mu.RUnlock()
		if !ok {
			return nil, nil
		}
		return v, nil
	case "DEL":
		n := 0
		s.mu.Lock()
		for _, k := range args {
			if _, ok := s.keyspace[k]; ok {
				delete(s.keyspace, k)
				n++
			}
			if g, ok := s.graphs[k]; ok {
				delete(s.graphs, k)
				s.planCache.InvalidateGraph(g)
				n++
			}
		}
		s.mu.Unlock()
		return n, nil
	case "EXISTS":
		n := 0
		s.mu.RLock()
		for _, k := range args {
			if _, ok := s.keyspace[k]; ok {
				n++
			} else if _, ok := s.graphs[k]; ok {
				n++
			}
		}
		s.mu.RUnlock()
		return n, nil
	case "KEYS":
		pattern := "*"
		if len(args) > 0 {
			pattern = args[0]
		}
		var out []any
		s.mu.RLock()
		for k := range s.keyspace {
			if ok, _ := path.Match(pattern, k); ok {
				out = append(out, k)
			}
		}
		for k := range s.graphs {
			if ok, _ := path.Match(pattern, k); ok {
				out = append(out, k)
			}
		}
		s.mu.RUnlock()
		return out, nil
	case "DBSIZE":
		s.mu.RLock()
		n := len(s.keyspace) + len(s.graphs)
		s.mu.RUnlock()
		return n, nil
	case "FLUSHALL":
		s.mu.Lock()
		for _, g := range s.graphs {
			s.planCache.InvalidateGraph(g)
		}
		s.keyspace = map[string]string{}
		s.graphs = map[string]*graph.Graph{}
		s.mu.Unlock()
		return resp.SimpleString("OK"), nil
	case "SAVE", "BGSAVE":
		return s.saveCommand()
	case "INFO":
		return s.info(), nil
	case "COMMAND":
		return []any{}, nil
	}
	return nil, fmt.Errorf("ERR unknown command '%s'", strings.ToLower(cmd))
}

func (s *Server) info() string {
	s.mu.RLock()
	defer s.mu.RUnlock()
	var b strings.Builder
	b.WriteString("# Server\r\nredisgraph_module:go-reproduction\r\n")
	fmt.Fprintf(&b, "threadpool_size:%d\r\n", s.opts.ThreadCount)
	fmt.Fprintf(&b, "graphs:%d\r\nkeys:%d\r\n", len(s.graphs), len(s.keyspace))
	gs := s.gate.Snapshot()
	b.WriteString("# Scheduler\r\n")
	fmt.Fprintf(&b, "admission_limit:%d\r\n", gs.Limit)
	fmt.Fprintf(&b, "admission_inflight:%d\r\n", gs.Inflight)
	fmt.Fprintf(&b, "admission_queued:%d\r\n", gs.QueuedNow)
	fmt.Fprintf(&b, "admission_admitted:%d\r\n", gs.Admitted)
	fmt.Fprintf(&b, "admission_rejected:%d\r\n", gs.Rejected)
	return b.String()
}
