package main

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"time"

	"redisgraph/internal/client"
	"redisgraph/internal/resp"
)

// segments is how many fresh servers share a run's measured window. Each
// is one timed cold start, a warm-up and an equal share of the window on a
// stream of its own; every metric of the run is the median over its
// segments. Identical server processes differ (thread placement, heap layout,
// garbage-collector timing during the load: point-read p50 by ±5 %, VmHWM by
// ±6 %), and a neighbour's burst can sit on one segment; the median of four
// takes both out at no cost in run time, since setup_s needs the starts
// anyway.
const segments = 4

// trimShare is the share of the slowest requests throughput_trimmed_ops_s
// sets aside. On a busy host a few percent of requests sit through stalls
// tens of milliseconds long; they made the plain completion rate spread 30 %
// from run to run where the trimmed one spread 7 %.
const trimShare = 0.05

// session is one invocation's shared set-up: the dataset, its snapshot file
// and the scratch directory both live in.
type session struct {
	cfg      config
	data     *dataset
	snapshot string

	// The signal handler closes the session from its own goroutine, so what
	// close releases is guarded.
	mu      sync.Mutex
	closed  bool
	dir     string // scratch directory
	serving *child // the child currently running
}

var errSessionClosed = errors.New("session closed")

// setUp generates the dataset, writes its snapshot and runs the primer
// start, so that no measured start reads the server binary or the snapshot
// from a cold page cache. The caller closes the session whatever setUp
// returns.
func (s *session) setUp() error {
	if _, err := os.Stat(s.cfg.serverBin); err != nil {
		return fmt.Errorf("server binary: %w (run benchmark/run.sh, which builds it)", err)
	}
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return errSessionClosed
	}
	dir, err := os.MkdirTemp(filepath.Dir(s.cfg.serverBin), "run-")
	s.dir = dir
	s.mu.Unlock()
	if err != nil {
		return fmt.Errorf("creating scratch directory: %w", err)
	}
	s.snapshot = filepath.Join(dir, "dataset.snap")
	s.data = newDataset(s.cfg.scale, s.cfg.seed)
	g, err := s.data.buildGraph()
	if err != nil {
		return err
	}
	if err := writeSnapshotFile(g, s.snapshot); err != nil {
		return err
	}
	g = nil
	runtime.GC() // the in-process copy is dead weight from here on
	primer, err := s.start()
	if err != nil {
		return fmt.Errorf("primer start: %w", err)
	}
	s.stop(primer)
	return nil
}

// start launches a child and waits until it serves. The child is recorded
// under the lock the moment it exists, so a close that races with a start
// either prevents the launch or kills what was launched.
func (s *session) start() (*child, error) {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil, errSessionClosed
	}
	c, err := launchServer(s.cfg.serverBin, s.snapshot)
	s.serving = c
	s.mu.Unlock()
	if err != nil {
		return nil, err
	}
	if err := c.awaitReady(); err != nil {
		s.stop(c)
		return nil, err
	}
	return c, nil
}

func (s *session) stop(c *child) {
	c.stop()
	s.mu.Lock()
	if s.serving == c {
		s.serving = nil
	}
	s.mu.Unlock()
}

// close kills whatever child is still running and removes the scratch
// directory; every exit path, including the signal handler, goes through it.
// Nothing can be started or created in a closed session.
func (s *session) close() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.closed = true
	s.serving.stop()
	s.serving = nil
	if s.dir != "" {
		os.RemoveAll(s.dir)
	}
}

// segment is what one server process measured.
type segment struct {
	ops       int           // ops completed in its share of the window
	elapsed   time.Duration // that share as it actually ran
	latencies []int64       // ns, ascending, window ops only
	cpu       time.Duration // child utime+stime over its share
	peakRSS   int64         // child VmHWM when its share ended, bytes
	startup   time.Duration // exec → first PONG
	digests   []uint64      // one per reply, warm-up included
}

// wireResult is one workload's over-the-wire measurement.
type wireResult struct {
	segs      []segment
	attempted int // every op sent, warm-up included
	failed    int // error replies + replies the oracle rejects
	problems  []string
}

const maxProblems = 5

func (r *wireResult) problem(format string, args ...any) {
	if len(r.problems) < maxProblems {
		r.problems = append(r.problems, fmt.Sprintf(format, args...))
	}
}

// trimmedThroughput is the closed-loop completion rate with the slowest
// trimShare of requests set aside: the kept requests divided by the time
// they took, client think time included pro rata.
func (g *segment) trimmedThroughput() float64 {
	kept := len(g.latencies) - int(trimShare*float64(len(g.latencies)))
	var waited, keptWait int64
	for i, l := range g.latencies {
		waited += l
		if i < kept {
			keptWait += l
		}
	}
	think := float64(int64(g.elapsed)-waited) * float64(kept) / float64(len(g.latencies))
	return float64(kept) / ((float64(keptWait) + think) / 1e9)
}

// over is the median over the run's segments of one per-segment number.
func (r *wireResult) over(f func(*segment) float64) float64 {
	vs := make([]float64, len(r.segs))
	for i := range r.segs {
		vs[i] = f(&r.segs[i])
	}
	return median(vs)
}

func (r *wireResult) ops() int {
	n := 0
	for i := range r.segs {
		n += r.segs[i].ops
	}
	return n
}

// meanLatency is the mean client wait over every window op of the run.
func (r *wireResult) meanLatency() time.Duration {
	var waited int64
	for i := range r.segs {
		for _, l := range r.segs[i].latencies {
			waited += l
		}
	}
	return time.Duration(waited / int64(r.ops()))
}

// endToEnd is the bounded metric list; BENCHMARK.json's end_to_end mirrors
// it (a test compares the two).
func (r *wireResult) endToEnd() []metric {
	return []metric{
		{"latency_p50_ms", "ms", r.over(func(g *segment) float64 { return float64(percentile(g.latencies, 50)) / 1e6 })},
		{"throughput_trimmed_ops_s", "1/s", r.over((*segment).trimmedThroughput)},
		{"peak_rss_mb", "MB", r.over(func(g *segment) float64 { return float64(g.peakRSS) / (1 << 20) })},
		{"setup_s", "s", r.over(func(g *segment) float64 { return g.startup.Seconds() })},
	}
}

// diagnostics are the client-side numbers that are reported but not
// bounded: on a busy host they do not repeat within a tenth (see README).
func (r *wireResult) diagnostics() []metric {
	return []metric{
		{"client.throughput_ops_s", "1/s", r.over(func(g *segment) float64 { return float64(g.ops) / g.elapsed.Seconds() })},
		{"client.latency_p95_ms", "ms", r.over(func(g *segment) float64 { return float64(percentile(g.latencies, 95)) / 1e6 })},
		{"client.server_cpu_ms_per_op", "ms", r.over(func(g *segment) float64 { return g.cpu.Seconds() * 1e3 / float64(g.ops) })},
	}
}

// streamSeed gives every segment of a run an op stream of its own.
func streamSeed(seed int64, seg int) int64 { return seed + int64(seg)*0x1000_0001 }

// runWire measures one workload over the wire in the given number of
// segments and verifies every reply, warm-up included, once the last server
// is gone.
func (s *session) runWire(name string, segs int, warmup, window time.Duration) (*wireResult, error) {
	res := &wireResult{segs: make([]segment, segs)}
	share := window / time.Duration(segs)
	for i := range res.segs {
		if err := s.runSegment(res, i, name, warmup, share); err != nil {
			return nil, err
		}
	}
	for i := range res.segs {
		g := &res.segs[i]
		res.attempted += len(g.digests)
		if err := res.verify(name, s, i); err != nil {
			return nil, err
		}
	}
	return res, nil
}

// runSegment is one server's life: a timed cold start, the warm-up, then the
// measured share on one closed-loop connection.
func (s *session) runSegment(res *wireResult, i int, name string, warmup, share time.Duration) error {
	g := &res.segs[i]
	srv, err := s.start()
	if err != nil {
		return err
	}
	defer s.stop(srv)
	g.startup = srv.startup

	w, err := newWorkload(name, s.data, streamSeed(s.cfg.seed, i))
	if err != nil {
		return err
	}
	cl, err := client.Dial(srv.addr)
	if err != nil {
		return fmt.Errorf("connecting to the server: %w", err)
	}
	defer cl.Close()

	// One digest per reply, one latency per window op: sized so that append
	// does not reallocate on the clock at any rate this engine reaches.
	secs := int((warmup + share) / time.Second)
	g.digests = make([]uint64, 0, 40000*(secs+1))
	g.latencies = make([]int64, 0, cap(g.digests))

	runtime.GC()
	for deadline := time.Now().Add(warmup); ; {
		end, _, err := res.do(cl, w, &g.digests)
		if err != nil {
			return err
		}
		if !end.Before(deadline) {
			break
		}
	}
	before, err := srv.sample()
	if err != nil {
		return err
	}
	warmOps := len(g.digests)
	t0 := time.Now()
	for deadline := t0.Add(share); ; {
		end, lat, err := res.do(cl, w, &g.digests)
		if err != nil {
			return err
		}
		g.latencies = append(g.latencies, int64(lat))
		if !end.Before(deadline) {
			g.elapsed = end.Sub(t0)
			break
		}
	}
	after, err := srv.sample()
	if err != nil {
		return err
	}
	g.cpu = after.cpu - before.cpu
	g.peakRSS = after.peakRSS
	g.ops = len(g.digests) - warmOps
	sort.Slice(g.latencies, func(a, b int) bool { return g.latencies[a] < g.latencies[b] })
	return nil
}

// do sends the stream's next command, decodes the reply on the clock and
// appends its digest. It returns when the reply was decoded and how long the
// client waited. A transport error is fatal; an error reply or a malformed
// one is a failed op.
func (r *wireResult) do(cl *client.Client, w workload, digests *[]uint64) (time.Time, time.Duration, error) {
	o := w.next()
	begin := time.Now()
	v, err := cl.Do(o.cmd, graphName, o.query)
	var rep reply
	var bad error
	var errReply resp.ErrorReply
	switch {
	case errors.As(err, &errReply): // includes -BUSY
		bad = fmt.Errorf("error reply %q", string(errReply))
	case err != nil:
		return begin, 0, fmt.Errorf("op %d: %w", len(*digests), err)
	default:
		rep, bad = decodeReply(v)
	}
	end := time.Now()
	var dg uint64 // zero never matches the oracle, so verification counts the failure
	if bad == nil {
		dg = rep.digest()
	} else {
		r.problem("op %d %q: %v", len(*digests), o.query, bad)
	}
	*digests = append(*digests, dg)
	return end, end.Sub(begin), nil
}

// verify replays one segment's stream through the oracle, off the clock and
// after its server is gone, and compares digests reply by reply.
func (r *wireResult) verify(name string, s *session, seg int) error {
	w, err := newWorkload(name, s.data, streamSeed(s.cfg.seed, seg))
	if err != nil {
		return err
	}
	for i, got := range r.segs[seg].digests {
		o := w.next()
		want := w.expected()
		if want.digest() != got {
			r.failed++
			if got == 0 {
				continue // already reported when the reply arrived
			}
			r.problem("segment %d op %d %q: reply differs from the oracle's %s", seg, i, o.query, want.String())
		}
	}
	return nil
}
