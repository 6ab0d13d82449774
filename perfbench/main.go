// Command perfbench is AStream's steady-state benchmark. It drives the public
// engine API (core.Engine, checkpoint.Runner, durable.Open) from one
// generator goroutine and reports the paper's §4.3 metrics end to end, or,
// with -trace 1, per-layer counters, spans and CPU shares. README.md
// describes the workloads and how to run it.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
)

// metric is one reported figure.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// units of every metric the benchmark reports.
var endToEndUnits = map[string]string{
	"capacity_tup_cpu_s":    "tup/cpu-s",
	"latency_p50_ms":        "ms",
	"latency_p99_ms":        "ms",
	"deploy_p50_ms":         "ms",
	"checkpoint_cpu_p50_ms": "ms",
	"setup_s":               "s",
	"mem_peak_mb":           "MB",
}

var perLayerUnits = map[string]string{
	"gen.achieved_ratio":           "ratio",
	"gen.lag_p99_ms":               "ms",
	"ingest.ns_per_call":           "ns",
	"ingest.busy_share":            "share",
	"cpu.spe_share":                "share",
	"sel.match_ratio":              "ratio",
	"sel.querysetgen_ns_per_tuple": "ns",
	"cpu.selection_share":          "share",
	"agg.results_per_tuple":        "ratio",
	"agg.bitset_ns_per_tuple":      "ns",
	"cpu.agg_fire_share":           "share",
	"cpu.agg_fold_share":           "share",
	"cpu.agg_selfanout_share":      "share",
	"join.pair_reuse_ratio":        "ratio",
	"join.results_per_tuple":       "ratio",
	"cpu.join_share":               "share",
	"sink.results_per_s":           "1/s",
	"router.copy_ns_per_result":    "ns",
	"cpu.router_share":             "share",
	"submit.us_per_call":           "us",
	"deploy_p99_ms":                "ms",
	"checkpoint_cpu_p90_ms":        "ms",
	"recovery_cpu_ms":              "ms",
	"index_builds_per_changelog":   "ratio",
	"cpu.changelog_share":          "share",
	"ckpt.wal_bytes_per_tuple":     "B",
	"ckpt.snap_bytes_full":         "B",
	"ckpt.snap_bytes_delta":        "B",
	"recovery.replayed_records":    "count",
	"cpu.durable_share":            "share",
	"cpu.gc_share":                 "share",
	"heap.inuse_peak_mb":           "MB",
	"drain_ms":                     "ms",
}

func main() {
	os.Exit(run())
}

func run() int {
	name := flag.String("workload", "agg-sliding", "workload name")
	seed := flag.Int64("seed", 1, "seed for the generated inputs")
	seconds := flag.Float64("seconds", 10, "measured seconds (open loop half, closed loop half)")
	traceOn := flag.Int("trace", 0, "1: traced run reporting per-layer metrics")
	root := flag.String("root", ".bench_build", "directory for state directories and trace files")
	flag.Parse()

	w, err := workloadByName(*name)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}
	if err := os.MkdirAll(*root, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}
	dir, err := filepath.Abs(*root)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}
	clk := newWallClock()
	b := &bench{w: w, seed: *seed, seconds: *seconds, clk: clk, root: dir}
	if *traceOn == 1 {
		b.tr = newTracer(clk)
	}
	runErr := b.run()
	for _, n := range b.notes {
		fmt.Println("#", n)
	}
	if runErr != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", runErr)
		return 1
	}
	if b.tr != nil {
		path := traceFile(dir, w.name, *seed)
		if err := b.tr.write(path); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench: writing spans:", err)
			return 1
		}
		fmt.Println("# spans written to", path)
	}

	values, units := b.e2e, endToEndUnits
	if b.tr != nil {
		values, units = b.layer, perLayerUnits
	}
	metrics := map[string]metric{}
	var names []string
	for n, u := range units {
		v, ok := values[n]
		if !ok {
			fmt.Fprintf(os.Stderr, "perfbench: metric %s was not measured\n", n)
			return 1
		}
		metrics[n] = metric{Value: v, Unit: u}
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Printf("%-30s %14.4f %s\n", n, metrics[n].Value, metrics[n].Unit)
	}
	fmt.Printf("%-30s %14.6f (failed %d of %d attempted operations)\n", "failed_frac", float64(b.failed)/float64(b.attempted), b.failed, b.attempted)
	out, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int64             `json:"attempted"`
		Failed    int64             `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{b.failed == 0, b.attempted, b.failed, metrics})
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	fmt.Println(string(out))
	return 0
}
