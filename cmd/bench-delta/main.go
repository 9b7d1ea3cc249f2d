// bench-delta compares two benchmark JSON artifacts (the files khop-bench
// -out writes) and prints per-workload metric ratios as a markdown table:
//
//	bench-delta -old BENCH_pipeline.json -new bench-artifacts/BENCH_pipeline-batch.json
//
// Rows are matched by their identity fields (strings, bools, and the
// parameter-like integer fields such as batch/threads/clients); the
// throughput metrics (*qps*) and latency metrics (*_ms) of matched rows are
// reported as new/old ratios. For qps higher is better, for _ms lower is
// better. With -fail-below R the exit status is 1 if any matched qps ratio
// falls below R — the CI regression gate. Artifacts recorded at different
// scales or on different hosts are still matched (the scale difference is
// printed), so the speedup columns remain comparable even when absolute
// numbers are not: a dataset name loses its "-<scale>" suffix in the key,
// and a row that names its workload is not also keyed on its query text,
// whose constants are derived from the scale.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"
)

type artifact struct {
	Experiment string          `json:"experiment"`
	Scale      int             `json:"scale"`
	Results    json.RawMessage `json:"results"`
}

// keyFields are integer-valued fields that configure a row rather than
// measure it; they join the string/bool fields in the row identity key.
// Volume-type integers (queries, ops, rows, sources) are deliberately
// excluded — they scale with the run, and including them would prevent
// matching a small smoke run against a full-scale baseline.
var keyFields = map[string]bool{
	"batch": true, "threads": true, "clients": true,
	"gomaxprocs": true, "k": true,
}

func rows(raw json.RawMessage) []map[string]any {
	var list []map[string]any
	if err := json.Unmarshal(raw, &list); err == nil {
		return list
	}
	// Some experiments wrap their rows ({"results": [...], ...}).
	var wrapped struct {
		Results []map[string]any `json:"results"`
	}
	if err := json.Unmarshal(raw, &wrapped); err == nil {
		return wrapped.Results
	}
	return nil
}

func rowKey(r map[string]any, scale int) string {
	_, named := r["workload"].(string)
	var parts []string
	for k, v := range r {
		switch vv := v.(type) {
		case string:
			if k == "query" && named {
				continue
			}
			if k == "dataset" {
				vv = strings.TrimSuffix(vv, fmt.Sprintf("-%d", scale))
			}
			parts = append(parts, fmt.Sprintf("%s=%s", k, vv))
		case bool:
			parts = append(parts, fmt.Sprintf("%s=%v", k, vv))
		case float64:
			if keyFields[k] {
				parts = append(parts, fmt.Sprintf("%s=%g", k, vv))
			}
		}
	}
	sort.Strings(parts)
	return strings.Join(parts, " ")
}

// isQPS marks higher-is-better rate metrics; speedup rides along in the
// table but never gates -fail-below — it is a ratio of two rates, and a
// run where both rates improve can still move it either way.
func isQPS(name string) bool {
	return strings.Contains(name, "qps") || strings.HasPrefix(name, "speedup")
}
func isMS(name string) bool    { return strings.HasSuffix(name, "_ms") }
func isGated(name string) bool { return strings.Contains(name, "qps") }

func load(path string) artifact {
	b, err := os.ReadFile(path)
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench-delta: %v\n", err)
		os.Exit(2)
	}
	var a artifact
	if err := json.Unmarshal(b, &a); err != nil {
		fmt.Fprintf(os.Stderr, "bench-delta: %s: %v\n", path, err)
		os.Exit(2)
	}
	return a
}

func main() {
	oldPath := flag.String("old", "", "committed baseline artifact")
	newPath := flag.String("new", "", "freshly measured artifact")
	failBelow := flag.Float64("fail-below", 0, "exit 1 if any qps ratio (new/old) falls below this")
	flag.Parse()
	if *oldPath == "" || *newPath == "" {
		fmt.Fprintln(os.Stderr, "usage: bench-delta -old OLD.json -new NEW.json [-fail-below 0.95]")
		os.Exit(2)
	}
	oldA, newA := load(*oldPath), load(*newPath)
	if oldA.Experiment != newA.Experiment {
		fmt.Fprintf(os.Stderr, "bench-delta: experiment mismatch: %q vs %q\n", oldA.Experiment, newA.Experiment)
		os.Exit(2)
	}
	fmt.Printf("### %s: %s (scale %d) vs %s (scale %d)\n\n",
		newA.Experiment, *newPath, newA.Scale, *oldPath, oldA.Scale)
	if oldA.Scale != newA.Scale {
		fmt.Printf("_scales differ: absolute q/s are not comparable, speedup columns are._\n\n")
	}

	oldRows := map[string]map[string]any{}
	for _, r := range rows(oldA.Results) {
		oldRows[rowKey(r, oldA.Scale)] = r
	}

	fmt.Println("| workload | metric | old | new | new/old |")
	fmt.Println("|---|---|---:|---:|---:|")
	worst, matched := 1e18, 0
	for _, nr := range rows(newA.Results) {
		key := rowKey(nr, newA.Scale)
		or, ok := oldRows[key]
		if !ok {
			fmt.Printf("| %s | _no baseline row_ | | | |\n", key)
			continue
		}
		matched++
		names := make([]string, 0, len(nr))
		for name := range nr {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			nv, ok1 := nr[name].(float64)
			ov, ok2 := or[name].(float64)
			if !ok1 || !ok2 || keyFields[name] || (!isQPS(name) && !isMS(name)) || ov == 0 {
				continue
			}
			ratio := nv / ov
			if isGated(name) && ratio < worst {
				worst = ratio
			}
			fmt.Printf("| %s | %s | %.2f | %.2f | %.2fx |\n", key, name, ov, nv, ratio)
		}
	}
	if matched == 0 {
		fmt.Fprintln(os.Stderr, "bench-delta: no rows matched between the two artifacts")
		os.Exit(2)
	}
	if *failBelow > 0 && worst < *failBelow {
		fmt.Fprintf(os.Stderr, "bench-delta: worst qps ratio %.3f below threshold %.3f\n", worst, *failBelow)
		os.Exit(1)
	}
}
