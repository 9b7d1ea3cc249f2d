// Package server implements the Redis-like server hosting the graph module.
//
// Architecture (paper Section II): a single dispatcher goroutine — the
// "Redis main thread" — receives every command. Keyspace commands execute
// inline on that thread. GRAPH.* commands are handed to the module
// threadpool, where each query runs on exactly one worker; per-connection
// reply order is preserved by an ordered future queue per connection.
package server

import (
	"fmt"
	"net"
	"path"
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
	// ThreadCount is the module threadpool size (paper: configured at
	// module load time). Defaults to 8.
	ThreadCount int
	// TraverseBatch is the engine's pipeline batch size: records per batch
	// through every operation and frontier rows per fused MxM. 0 uses the
	// engine default (64); 1 is tuple-at-a-time execution (one-row batches
	// and frontiers through the same code). Runtime changes go through
	// GRAPH.CONFIG SET TRAVERSE_BATCH.
	TraverseBatch int
	// TraverseKernel selects the traversal kernel direction: "auto" (default)
	// picks push or pull per hop from the frontier density, "push"/"pull"
	// force one direction for differential baselines. Runtime changes go
	// through GRAPH.CONFIG SET TRAVERSE_KERNEL.
	TraverseKernel string
	// QueryTimeout bounds each query (0 = none).
	QueryTimeout time.Duration
	// SnapshotPath, when set, enables the SAVE command and loading the
	// snapshot at Start (the role of an RDB file).
	SnapshotPath string
	// MaxConcurrentQueries bounds how many GRAPH.QUERY/RO_QUERY/PROFILE
	// commands execute at once; excess queries queue FIFO up to
	// AdmissionTimeout, then fail fast with a -BUSY error. 0 (default) is
	// unbounded — admission control off, the differential baseline. Runtime
	// changes go through GRAPH.CONFIG SET MAX_CONCURRENT_QUERIES.
	MaxConcurrentQueries int
	// AdmissionTimeout is the per-query queue-wait deadline behind the
	// admission gate. 0 uses the default (1s); negative fails saturated
	// queries immediately. Runtime changes go through GRAPH.CONFIG SET
	// ADMISSION_TIMEOUT (milliseconds).
	AdmissionTimeout time.Duration
	// GlobalThreadBudget caps morsel-pool workers assisting across all
	// concurrent queries (the process-wide budget behind elastic per-query
	// parallelism). 0 (default) resolves to GOMAXPROCS (floor 4, matching
	// the pool's sizing). Runtime changes go through GRAPH.CONFIG SET
	// GLOBAL_THREAD_BUDGET. The budget is process-global: every server in
	// the process shares the one morsel pool.
	GlobalThreadBudget int
}

// Server is a Redis-like TCP server with the graph module loaded.
type Server struct {
	opts Options
	ln   net.Listener
	pool *pool.Pool

	// opThreads is the live MAX_QUERY_THREADS value (starts at 1, the
	// paper's one core per query; 0 = auto, resolved to GOMAXPROCS at query
	// time; mutable via GRAPH.CONFIG SET).
	opThreads atomic.Int32
	// traverseBatch is the live TRAVERSE_BATCH value (seeded from
	// Options.TraverseBatch, mutable via GRAPH.CONFIG SET).
	traverseBatch atomic.Int32
	// costPlanner is the live COST_PLANNER value (starts on, mutable via
	// GRAPH.CONFIG SET).
	costPlanner atomic.Bool
	// joinPlanner is the live JOIN_PLANNER value (starts on, mutable via
	// GRAPH.CONFIG SET).
	joinPlanner atomic.Bool
	// traverseKernel is the live TRAVERSE_KERNEL value ("auto", "push" or
	// "pull"; seeded from Options.TraverseKernel, mutable via GRAPH.CONFIG
	// SET).
	traverseKernel atomic.Value
	// planCache is the server-wide parameterized plan cache, shared by every
	// graph and worker. Its capacity is the live PLAN_CACHE_SIZE value
	// (starts at the engine default, 128; capacity 0 = caching off, the
	// differential baseline).
	planCache *core.PlanCache
	// gate is the inter-query admission control (MAX_CONCURRENT_QUERIES,
	// 0 = unbounded): executing GRAPH.QUERY/RO_QUERY/PROFILE commands hold
	// one slot; saturated arrivals queue FIFO up to the admission timeout.
	gate *pool.Gate
	// admissionTimeoutMs is the live ADMISSION_TIMEOUT value in
	// milliseconds (seeded from Options.AdmissionTimeout, mutable via
	// GRAPH.CONFIG SET).
	admissionTimeoutMs atomic.Int64
	// fairScheduler is the live FAIR_SCHEDULER value (starts on, mutable via
	// GRAPH.CONFIG SET).
	fairScheduler atomic.Bool

	mu       sync.RWMutex
	graphs   map[string]*graph.Graph
	keyspace map[string]string

	dispatch chan *request
	quit     chan struct{}
	wg       sync.WaitGroup
}

type request struct {
	args  []string
	conn  *connState
	reply *pool.Future
}

type connState struct {
	c       net.Conn
	w       *resp.Writer
	replies chan *pool.Future
	closed  chan struct{}
}

// New creates a server (not yet listening).
func New(opts Options) *Server {
	if opts.ThreadCount <= 0 {
		opts.ThreadCount = 8
	}
	if opts.TraverseBatch <= 0 {
		opts.TraverseBatch = core.DefaultTraverseBatch
	}
	s := &Server{
		opts:     opts,
		pool:     pool.New(opts.ThreadCount),
		graphs:   map[string]*graph.Graph{},
		keyspace: map[string]string{},
		dispatch: make(chan *request, 1024),
		quit:     make(chan struct{}),
	}
	s.opThreads.Store(1)
	s.traverseBatch.Store(int32(opts.TraverseBatch))
	s.costPlanner.Store(true)
	s.joinPlanner.Store(true)
	kernel := strings.ToLower(opts.TraverseKernel)
	if kernel != "push" && kernel != "pull" {
		kernel = "auto"
	}
	s.traverseKernel.Store(kernel)
	s.planCache = core.NewPlanCache(core.DefaultPlanCacheSize)
	s.gate = pool.NewGate(opts.MaxConcurrentQueries)
	switch {
	case opts.AdmissionTimeout == 0:
		s.admissionTimeoutMs.Store(defaultAdmissionTimeoutMs)
	case opts.AdmissionTimeout < 0:
		s.admissionTimeoutMs.Store(0)
	default:
		s.admissionTimeoutMs.Store(opts.AdmissionTimeout.Milliseconds())
	}
	s.fairScheduler.Store(true)
	if opts.GlobalThreadBudget > 0 {
		pool.SetBudget(opts.GlobalThreadBudget)
	}
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
	s.wg.Add(2)
	go s.acceptLoop()
	go s.dispatchLoop()
	return nil
}

// Close stops the server and waits for shutdown.
func (s *Server) Close() {
	close(s.quit)
	if s.ln != nil {
		s.ln.Close()
	}
	s.wg.Wait()
	s.pool.Close()
}

func (s *Server) acceptLoop() {
	defer s.wg.Done()
	for {
		c, err := s.ln.Accept()
		if err != nil {
			select {
			case <-s.quit:
				return
			default:
				continue
			}
		}
		cs := &connState{
			c:       c,
			w:       resp.NewWriter(c),
			replies: make(chan *pool.Future, 1024),
			closed:  make(chan struct{}),
		}
		go s.readLoop(cs)
		go s.writeLoop(cs)
	}
}

// readLoop parses commands and forwards them to the dispatcher.
func (s *Server) readLoop(cs *connState) {
	defer func() {
		close(cs.closed)
		cs.c.Close()
	}()
	r := resp.NewReader(cs.c)
	for {
		args, err := r.ReadCommand()
		if err != nil {
			return
		}
		if len(args) == 0 {
			continue
		}
		if strings.ToUpper(args[0]) == "QUIT" {
			f := immediateReply(resp.SimpleString("OK"))
			cs.replies <- f
			return
		}
		req := &request{args: args, conn: cs}
		select {
		case s.dispatch <- req:
		case <-s.quit:
			return
		}
	}
}

// writeLoop delivers replies in submission order.
func (s *Server) writeLoop(cs *connState) {
	for {
		select {
		case f := <-cs.replies:
			v, err := f.Wait()
			if err != nil {
				v = err
			}
			if werr := cs.w.WriteReply(v); werr != nil {
				return
			}
		case <-cs.closed:
			// Drain anything already queued, then stop.
			for {
				select {
				case f := <-cs.replies:
					v, err := f.Wait()
					if err != nil {
						v = err
					}
					cs.w.WriteReply(v)
				default:
					return
				}
			}
		case <-s.quit:
			return
		}
	}
}

func immediateReply(v any) *pool.Future {
	f, done := pool.NewResolvedFuture()
	done(v, nil)
	return f
}

// dispatchLoop is the single "Redis main thread".
func (s *Server) dispatchLoop() {
	defer s.wg.Done()
	for {
		select {
		case req := <-s.dispatch:
			s.handle(req)
		case <-s.quit:
			return
		}
	}
}

func (s *Server) handle(req *request) {
	cmd := strings.ToUpper(req.args[0])
	if strings.HasPrefix(cmd, "GRAPH.") {
		// Module command: runs on one threadpool worker.
		f, err := s.pool.Submit(func() (any, error) {
			return s.graphCommand(cmd, req.args[1:])
		})
		if err != nil {
			f = immediateReply(fmt.Errorf("ERR %v", err))
		}
		req.conn.replies <- f
		return
	}
	// Keyspace command: executes inline on the dispatcher thread.
	v, err := s.keyspaceCommand(cmd, req.args[1:])
	f, done := pool.NewResolvedFuture()
	done(v, err)
	req.conn.replies <- f
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
	fmt.Fprintf(&b, "threadpool_size:%d\r\n", s.pool.Size())
	fmt.Fprintf(&b, "graphs:%d\r\nkeys:%d\r\n", len(s.graphs), len(s.keyspace))
	ps := pool.ReadStats()
	gs := s.gate.Snapshot()
	b.WriteString("# Scheduler\r\n")
	fmt.Fprintf(&b, "global_thread_budget:%d\r\n", ps.Budget)
	fmt.Fprintf(&b, "active_queries:%d\r\n", ps.ActiveQueries)
	fmt.Fprintf(&b, "busy_workers:%d\r\n", ps.BusyWorkers)
	fmt.Fprintf(&b, "stolen_morsels:%d\r\n", ps.StolenMorsels)
	fmt.Fprintf(&b, "caller_morsels:%d\r\n", ps.CallerMorsels)
	fmt.Fprintf(&b, "worker_time_ms:%.3f\r\n", float64(ps.WorkerNanos)/1e6)
	fmt.Fprintf(&b, "admission_limit:%d\r\n", gs.Limit)
	fmt.Fprintf(&b, "admission_inflight:%d\r\n", gs.Inflight)
	fmt.Fprintf(&b, "admission_queued:%d\r\n", gs.QueuedNow)
	fmt.Fprintf(&b, "admission_admitted:%d\r\n", gs.Admitted)
	fmt.Fprintf(&b, "admission_rejected:%d\r\n", gs.Rejected)
	return b.String()
}
