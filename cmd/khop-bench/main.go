// Command khop-bench regenerates the tables and the figure of the paper's
// evaluation at laptop scale:
//
//	khop-bench -scale 14 -experiment all
//
// Experiments: fig1 (E1), khop (E2 + the E5 stack and representation
// ratios), throughput (E3), robust (E4), or all. Performance numbers for the
// engine itself come from `bash benchmark/run.sh`, not from here.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"redisgraph/internal/bench"
)

var (
	queries = flag.Int("queries", 2048, "query count per concurrency point of the throughput experiment")
	timeout = flag.Duration("timeout", 30*time.Second, "robustness experiment timeout per query")
)

type experiment struct {
	name string
	run  func(*bench.Suite)
}

// experiments is the registered-experiment table: the -experiment help
// text, "all" and dispatch all read it, in this order.
var experiments = []experiment{
	{"fig1", func(s *bench.Suite) { s.Fig1() }},
	{"khop", func(s *bench.Suite) { s.KHopTable([]int{1, 2, 3, 6}) }},
	{"throughput", func(s *bench.Suite) { s.Throughput(*queries) }},
	{"robust", func(s *bench.Suite) { s.Robustness(*timeout) }},
}

func experimentNames() string {
	names := make([]string, len(experiments))
	for i, e := range experiments {
		names[i] = e.name
	}
	return strings.Join(names, " | ")
}

// selected resolves -experiment to the table rows to run; an unregistered
// name is an error that lists the registered ones.
func selected(name string) ([]experiment, error) {
	var runs []experiment
	for _, e := range experiments {
		if name == "all" || strings.EqualFold(name, e.name) {
			runs = append(runs, e)
		}
	}
	if len(runs) == 0 {
		return nil, fmt.Errorf("unknown experiment %q (registered: %s | all)", name, experimentNames())
	}
	return runs, nil
}

func main() {
	scale := flag.Int("scale", 13, "graph scale: 2^scale vertices per dataset")
	name := flag.String("experiment", "all", experimentNames()+" | all")
	flag.Parse()

	runs, err := selected(*name)
	if err != nil {
		fmt.Fprintln(os.Stderr, "khop-bench:", err)
		os.Exit(2)
	}

	fmt.Printf("khop-bench: reproducing 'RedisGraph GraphBLAS Enabled Graph Database' (IPDPSW'19)\n")
	fmt.Printf("scale=%d (paper: graph500 scale≈21, twitter 41.6M nodes; shapes, not absolutes)\n\n", *scale)

	s := bench.NewSuite(*scale, os.Stdout)
	for _, e := range runs {
		e.run(s)
	}
}
