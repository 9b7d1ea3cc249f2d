package main

import (
	"encoding/json"
	"fmt"
	"os"
)

// benchSpec is the part of BENCHMARK.json the harness reads: the bounds are
// defined there once, and -selfcheck holds the benchmark to them.
type benchSpec struct {
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

type specMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func loadSpec(path string) (*benchSpec, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var spec benchSpec
	if err := json.Unmarshal(raw, &spec); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &spec, nil
}

// selfcheck runs the benchmark as two alternating sets of cfg.selfcheck runs
// of this same binary — A B, B A, A B, … so slow drift of the host lands on
// both — with one seed per pair, as the driver does with two checkouts of
// one commit. Per workload × end-to-end metric it prints both medians, how
// much worse the second is, each set's quartile spread, and the bound; it
// fails if a gap or a spread exceeds the bound (setup_s is exempt from the
// spread test, as in the driver: its value already is a median of starts).
func selfcheck(cfg config, names []string) int {
	spec, err := loadSpec("BENCHMARK.json")
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark: -selfcheck reads the bounds from BENCHMARK.json at the root of the checkout:", err)
		return 1
	}
	// values[set][workload][metric] → one value per run
	var values [2]map[string]map[string][]float64
	for set := range values {
		values[set] = map[string]map[string][]float64{}
	}
	for k := 0; k < cfg.selfcheck; k++ {
		runCfg := cfg
		runCfg.seed = cfg.seed + int64(k)
		for i := 0; i < 2; i++ {
			set := (i + k) % 2
			results, err := runOnce(runCfg, names)
			if err != nil {
				fmt.Fprintln(os.Stderr, "benchmark:", err)
				return 1
			}
			for _, r := range results {
				fmt.Printf("pair %d set %c ", k, 'A'+set)
				r.print()
				if r.Failed > 0 {
					return 1
				}
				byMetric := values[set][r.Workload]
				if byMetric == nil {
					byMetric = map[string][]float64{}
					values[set][r.Workload] = byMetric
				}
				for name, m := range r.Metrics {
					byMetric[name] = append(byMetric[name], m.Value)
				}
			}
		}
	}

	fmt.Printf("\n%-14s %-22s %12s %12s %8s %9s %9s %7s\n",
		"workload", "metric", "median A", "median B", "gap", "spread A", "spread B", "bound")
	code := 0
	for _, wl := range names {
		for _, sm := range spec.EndToEnd {
			a, b := values[0][wl][sm.Name], values[1][wl][sm.Name]
			if len(a) == 0 {
				fmt.Printf("%-14s %-22s not reported\n", wl, sm.Name)
				code = 1
				continue
			}
			ma, mb := median(a), median(b)
			gap := (mb - ma) / ma // positive: B worse, for a lower-is-better metric
			if sm.Better == "higher" {
				gap = -gap
			}
			sa, sb := quartileSpread(a), quartileSpread(b)
			verdict := ""
			if gap > sm.Bound || -gap > sm.Bound {
				verdict = "  GAP EXCEEDS BOUND"
				code = 1
			}
			if sm.Name != "setup_s" && (sa > sm.Bound || sb > sm.Bound) {
				verdict += "  SPREAD EXCEEDS BOUND"
				code = 1
			}
			fmt.Printf("%-14s %-22s %12.6g %12.6g %+7.2f%% %8.2f%% %8.2f%% %6.0f%%%s\n",
				wl, sm.Name, ma, mb, 100*gap, 100*sa, 100*sb, 100*sm.Bound, verdict)
		}
	}
	return code
}
