// Command benchmark is the repository's wire-level benchmark: it drives a
// child redisgraph-server over RESP with four seed-deterministic workloads,
// verifies every reply against an oracle, and prints the end-to-end metrics
// BENCHMARK.json names; -trace 1 prints the per-layer metrics from an
// in-process traced replay instead. Run it through benchmark/run.sh, which
// builds the server and this harness first. See README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"runtime"
	"slices"
	"syscall"
	"time"
)

// config is every knob of a run; all of it is echoed into the output so a
// result states how it was made.
type config struct {
	serverBin string
	outDir    string // where -trace 1 writes its span files
	seed      int64
	scale     int
	window    time.Duration
	warmup    time.Duration
	trace     bool
	selfcheck int // runs per set; 0: off
}

func (c config) String() string {
	return fmt.Sprintf("seed=%d scale=%d seconds=%g warmup=%s segments=%d server_flags=%q server_env=%q client=%q",
		c.seed, c.scale, c.window.Seconds(), c.warmup, segments,
		"-threads 2 -snapshot <generated>", "GOGC=100, GOMAXPROCS unset",
		"1 connection, closed loop, unpipelined, GOMAXPROCS=1")
}

// metric is one named, unit-carrying number of the output.
type metric struct {
	name  string
	unit  string
	value float64
}

func main() { os.Exit(run()) }

func run() int {
	var cfg config
	var trace int
	var seconds float64
	var workload string
	flag.StringVar(&cfg.serverBin, "server", ".bench_build/redisgraph-server", "path of the built cmd/redisgraph-server (run.sh builds it there)")
	flag.StringVar(&cfg.outDir, "out", "benchmark/out", "directory for the span files of -trace 1")
	flag.StringVar(&workload, "workload", "", "run one workload (point-lookup, khop-traverse, filter-agg, write-mix); default all four")
	flag.Int64Var(&cfg.seed, "seed", 1, "seed of the dataset and of every op stream")
	flag.IntVar(&cfg.scale, "scale", 13, "RMAT scale: 2^scale nodes, 16·2^scale edges")
	flag.Float64Var(&seconds, "seconds", 20, "measured window per workload, in seconds, shared equally by the segments")
	flag.DurationVar(&cfg.warmup, "warmup", time.Second, "warm-up of each segment's fresh server")
	flag.IntVar(&trace, "trace", 0, "1: print the per-layer metrics of an in-process traced replay instead of the end-to-end metrics")
	flag.IntVar(&cfg.selfcheck, "selfcheck", 0, "run two alternating sets of N runs of every workload and compare their medians with the bounds in BENCHMARK.json")
	flag.Parse()
	// -scale stops at 14: snapshot load is superlinear (≈1 s at 13, ≈5 s at
	// 14 here) and a start must stay well inside startDeadline.
	if flag.NArg() > 0 || trace < 0 || trace > 1 || cfg.scale < 4 || cfg.scale > 14 || seconds <= 0 || cfg.warmup < 0 {
		fmt.Fprintln(os.Stderr, "benchmark: bad arguments (see -h; -trace is 0 or 1, -scale 4..14, -seconds > 0)")
		return 2
	}
	cfg.window = time.Duration(seconds * float64(time.Second))
	cfg.trace = trace == 1
	names := workloadNames
	if workload != "" {
		if !slices.Contains(workloadNames, workload) {
			fmt.Fprintf(os.Stderr, "benchmark: unknown workload %q (have %v)\n", workload, workloadNames)
			return 2
		}
		names = []string{workload}
	}

	// The client is one goroutine; one P keeps client + server within the
	// host's two cores. The traced replay hosts client and server in this
	// process, so it gets both.
	if cfg.trace {
		runtime.GOMAXPROCS(2)
	} else {
		runtime.GOMAXPROCS(1)
	}

	fmt.Println("config:", cfg)
	if cfg.selfcheck > 0 {
		return selfcheck(cfg, names)
	}
	results, err := runOnce(cfg, names)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	code := 0
	for _, r := range results {
		r.print()
		if r.Failed > 0 {
			code = 1
		}
	}
	// The driver reads the last line of a one-workload run.
	for _, r := range results {
		line, _ := json.Marshal(r)
		fmt.Println(string(line))
	}
	return code
}

// result is one workload's outcome in the shape the driver reads from the
// last line of standard output.
type result struct {
	Workload  string                `json:"-"`
	Correct   bool                  `json:"correct"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	Metrics   map[string]metricJSON `json:"metrics"`

	ordered     []metric
	diagnostics []metric // printed, never part of the JSON line
	ops         int
	problems    []string
}

type metricJSON struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func (r *result) set(ms []metric) {
	r.ordered = ms
	r.Metrics = make(map[string]metricJSON, len(ms))
	for _, m := range ms {
		r.Metrics[m.name] = metricJSON{m.value, m.unit}
	}
}

func (r *result) print() {
	fmt.Printf("workload %s: ops=%d attempted=%d failed=%d error_rate=%g\n",
		r.Workload, r.ops, r.Attempted, r.Failed, float64(r.Failed)/float64(r.Attempted))
	for _, ms := range [][]metric{r.ordered, r.diagnostics} {
		for _, m := range ms {
			fmt.Printf("  %-28s %14.6g %s\n", m.name, m.value, m.unit)
		}
	}
	for _, p := range r.problems {
		fmt.Println("  FAILED", p)
	}
}

// runOnce makes one session and measures the named workloads in it, over
// the wire or, with -trace 1, through the traced replay.
func runOnce(cfg config, names []string) ([]*result, error) {
	sess := &session{cfg: cfg}
	defer sess.close()
	// The handler is in place before the session owns anything, and it takes
	// the same close as every other exit path.
	sig := make(chan os.Signal, 1)
	done := make(chan struct{})
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	go func() {
		select {
		case <-sig:
			sess.close()
			os.Exit(130)
		case <-done:
		}
	}()
	defer func() {
		signal.Stop(sig)
		close(done)
	}()
	if err := sess.setUp(); err != nil {
		return nil, err
	}

	var out []*result
	for _, name := range names {
		var r *result
		var err error
		if cfg.trace {
			r, err = sess.runTrace(name)
		} else {
			r, err = sess.measure(name)
		}
		if err != nil {
			return nil, fmt.Errorf("%s: %w", name, err)
		}
		out = append(out, r)
	}
	return out, nil
}

// measure turns one wire run into the end-to-end metrics, and prints the
// client.* diagnostics this host cannot repeat well enough to bound.
func (s *session) measure(name string) (*result, error) {
	w, err := s.runWire(name, segments, s.cfg.warmup, s.cfg.window)
	if err != nil {
		return nil, err
	}
	r := &result{Workload: name, Correct: w.failed == 0, Attempted: w.attempted, Failed: w.failed,
		ops: w.ops(), problems: w.problems, diagnostics: w.diagnostics()}
	r.set(w.endToEnd())
	return r, nil
}
