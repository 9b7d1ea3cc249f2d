// Command khop-bench regenerates every table and figure of the paper's
// evaluation at laptop scale:
//
//	khop-bench -scale 14 -experiment all
//
// Experiments: fig1 (E1), khop (E2 + E5 speedups), throughput (E3),
// robust (E4), traverse-batch (E6, the batched-frontier ablation),
// rw-mix (E7, mixed read/write throughput under delta-matrix concurrency
// vs the coarse-lock baseline), pipeline-batch (E8, the end-to-end
// batch-at-a-time pipeline with predicate pushdown), plan-order (E9, the
// cost-based planner vs the textual-order baseline on order-sensitive
// queries), kernel-select (E10, direction-optimizing push/pull traversal
// kernels vs the forced single-direction baselines), plan-cache (E12, the
// parameterized plan cache vs the PLAN_CACHE_SIZE 0 re-plan baseline on a
// 90/10 hot/cold shape mix), join-order (E13, hash joins for WHERE-bridged
// components and the DP join-order search vs the greedy/rescan baseline),
// concurrent-load (E14, the fair multi-tenant morsel scheduler vs the
// FAIR_SCHEDULER 0 baseline on a 90/10 read/write mix at rising client
// counts), or all.
// -batch sets the batch size for the traverse-batch and pipeline-batch
// experiments; -out writes the selected experiment's results as JSON (the
// perf-trajectory artifacts BENCH_traverse.json / BENCH_rwmix.json /
// BENCH_pipeline.json / BENCH_planner.json / BENCH_plancache.json /
// BENCH_join.json / BENCH_concurrency.json), each stamped with a uniform
// host block (GOMAXPROCS, CPU count, Go version, race detector).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"

	"redisgraph/internal/bench"
)

func main() {
	scale := flag.Int("scale", 13, "graph scale: 2^scale vertices per dataset")
	experiment := flag.String("experiment", "all", "fig1 | khop | throughput | robust | traverse-batch | rw-mix | pipeline-batch | plan-order | kernel-select | parallel-scaling | plan-cache | join-order | concurrent-load | all")
	queries := flag.Int("queries", 2048, "query count for the throughput and rw-mix experiments")
	timeout := flag.Duration("timeout", 30*time.Second, "robustness experiment timeout per query")
	batch := flag.Int("batch", 64, "batch size for the traverse-batch and pipeline-batch experiments")
	out := flag.String("out", "", "write the selected experiment's results as JSON to this file")
	flag.Parse()

	fmt.Printf("khop-bench: reproducing 'RedisGraph GraphBLAS Enabled Graph Database' (IPDPSW'19)\n")
	fmt.Printf("scale=%d (paper: graph500 scale≈21, twitter 41.6M nodes; shapes, not absolutes)\n\n", *scale)

	s := bench.NewSuite(*scale, os.Stdout)
	want := func(name string) bool {
		return *experiment == "all" || strings.EqualFold(*experiment, name)
	}
	if want("fig1") {
		s.Fig1()
	}
	if want("khop") {
		s.KHopTable([]int{1, 2, 3, 6})
	}
	if want("throughput") {
		s.Throughput(*queries)
	}
	if want("robust") {
		s.Robustness(*timeout)
	}
	// outFor resolves the JSON artifact path for one experiment. With a
	// single experiment selected -out is used verbatim; with -experiment all
	// each JSON-producing experiment gets a derived name so they do not
	// clobber each other.
	outFor := func(name string) string {
		if *out == "" || strings.EqualFold(*experiment, name) {
			return *out
		}
		ext := filepath.Ext(*out)
		return strings.TrimSuffix(*out, ext) + "_" + name + ext
	}
	if want("traverse-batch") {
		results := s.TraverseBatch(*batch)
		writeJSON(outFor("traverse-batch"), "traverse-batch", *scale, results)
	}
	if want("rw-mix") {
		results := s.RWMix(*queries)
		writeJSON(outFor("rw-mix"), "rw-mix", *scale, results)
	}
	if want("pipeline-batch") {
		results := s.PipelineBatch(*batch)
		writeJSON(outFor("pipeline-batch"), "pipeline-batch", *scale, results)
	}
	if want("plan-order") {
		results := s.PlanOrder()
		writeJSON(outFor("plan-order"), "plan-order", *scale, results)
	}
	if want("kernel-select") {
		report := s.KernelSelect()
		writeJSON(outFor("kernel-select"), "kernel-select", *scale, report)
	}
	if want("parallel-scaling") {
		results := s.ParallelScaling()
		writeJSON(outFor("parallel-scaling"), "parallel-scaling", *scale, results)
	}
	if want("plan-cache") {
		results := s.PlanCache(*queries)
		writeJSON(outFor("plan-cache"), "plan-cache", *scale, results)
	}
	if want("join-order") {
		results := s.JoinOrder()
		writeJSON(outFor("join-order"), "join-order", *scale, results)
	}
	if want("concurrent-load") {
		results := s.ConcurrentLoad(*queries)
		writeJSON(outFor("concurrent-load"), "concurrent-load", *scale, results)
	}
}

// writeJSON writes one experiment's results as the perf-trajectory
// artifact; a missing -out skips it.
func writeJSON(path, experiment string, scale int, results any) {
	if path == "" {
		return
	}
	doc := struct {
		Experiment string         `json:"experiment"`
		Scale      int            `json:"scale"`
		Host       bench.HostInfo `json:"host"`
		Results    any            `json:"results"`
	}{experiment, scale, bench.Host(), results}
	data, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	fmt.Printf("wrote %s\n", path)
}
