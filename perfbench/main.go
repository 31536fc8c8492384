// Command perfbench is the repository benchmark. It hosts the real
// serving stack in this process — serve.New, plus stream.NewManager
// behind stream.Mux for graph-stream — drives one named workload against
// it over loopback HTTP with at most NumCPU connections, checks every
// reply against ground truth computed before timing starts, and prints
// one JSON result line:
//
//	bash perfbench/run.sh --workload graph-stream --seed 1 --seconds 50 --trace 0
//
// With --trace 0 the result carries the end-to-end metrics. With
// --trace 1 a separate traced run carries the per-layer metrics. Each
// layer is measured from outside: spans recorded around calls into its
// public functions, and the counters it already publishes
// (serve.Server.Snapshot, stream.Manager.Stats, store.Cache.Stats).
//
// BENCHMARK.json lists graph-stream and warm-restart. eval-mix runs the
// same way but is not listed: its tail is not steady enough on a 2-vCPU
// VM for the bounds a run is held to.
//
// The last line of standard output is the result; the line before it
// stamps the host and inputs. A wrong reply fails the run: the result
// says "correct": false and the exit code is 1.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"
)

func main() {
	if len(os.Args) > 1 && os.Args[1] == prepCommand {
		os.Exit(prepWarm(os.Args[2:]))
	}
	os.Exit(run(os.Args[1:]))
}

// workloads maps each --workload name to its constructor.
var workloads = map[string]func() workload{
	"eval-mix":     func() workload { return &evalMix{} },
	"graph-stream": func() workload { return &graphStream{} },
	"warm-restart": func() workload { return &warmRestart{} },
}

func run(args []string) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload: eval-mix, graph-stream or warm-restart")
	seed := fs.Int64("seed", 1, "seed for every generated input")
	seconds := fs.Int("seconds", 50, "measured seconds of traffic")
	trace := fs.Int("trace", 0, "1 runs the traced variant and reports per-layer metrics")
	out := fs.String("out", filepath.Join(".bench_build", "perfbench-out"), "directory for temporary stores and span files")
	gitSHA := fs.String("git-sha", "none", "source revision stamped into the output")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	mk, ok := workloads[*name]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need --workload (eval-mix, graph-stream, warm-restart), --seconds >= 1 and --trace 0|1\n")
		return 2
	}
	b := newBench(*name, *seed, time.Duration(*seconds)*time.Second, *trace == 1, *out)
	stamp := map[string]any{
		"workload": *name, "seed": *seed, "seconds": *seconds, "trace": *trace,
		"gomaxprocs": runtime.GOMAXPROCS(0), "num_cpu": runtime.NumCPU(),
		"go": runtime.Version(), "git_sha": *gitSHA, "conns": b.conns,
	}
	line, _ := json.Marshal(map[string]any{"host": stamp})
	fmt.Println(string(line))

	err := b.run(mk())
	var w *wrongAnswer
	switch {
	case errors.As(err, &w):
		fmt.Fprintln(os.Stderr, "perfbench: wrong answer:", err)
		b.print(false)
		return 1
	case err != nil:
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	b.print(true)
	return 0
}

// endToEnd and perLayer are every metric the benchmark reports, with
// its unit. BENCHMARK.json declares the same (checked by the tests).
var endToEnd = map[string]string{
	"setup_s":        "s",
	"throughput_rps": "1/s",
	"latency_p50_ms": "ms",
	"latency_p95_ms": "ms",
	"max_rate_rps":   "1/s",
	"ok_frac":        "frac",
	"peak_rss_mb":    "MB",
}

var perLayer = map[string]string{
	"serve.handler_us":      "us",
	"serve.transport_us":    "us",
	"serve.codec_us":        "us",
	"serve.do_us":           "us",
	"serve.eval_us":         "us",
	"serve.wait_us":         "us",
	"serve.mean_batch":      "samples",
	"serve.singleton_frac":  "frac",
	"serve.cache_misses":    "per_1k_req",
	"serve.evictions":       "per_1k_req",
	"serve.retries":         "per_1k_req",
	"serve.rejected":        "per_1k_req",
	"serve.stats_scrape_ms": "ms",

	"circuit.gates":         "count",
	"circuit.eval_us":       "us",
	"circuit.planes_b2_us":  "us",
	"circuit.planes_b64_us": "us",
	"circuit.energy_b64_us": "us",

	"core.build_s":        "s",
	"core.build_alloc_mb": "MB",
	"core.assign_us":      "us",

	"store.load_ms":     "ms",
	"store.artifact_mb": "MB",
	"store.mapped":      "count",
	"store.corrupt":     "count",

	"stream.update_us":           "us",
	"stream.screen_us":           "us",
	"stream.sweep_ms":            "ms",
	"stream.sweep_tenants_per_s": "1/s",
	"stream.screens":             "count",
	"stream.energy_gates":        "count",

	"load.gen_lag_p99_ms": "ms",
	"load.client_us":      "us",

	"trace.overhead_frac": "frac",
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// put records one metric of the run's kind (end-to-end or per-layer).
func (b *bench) put(name string, v float64) {
	if _, ok := b.units()[name]; !ok {
		panic("perfbench: unknown metric " + name)
	}
	b.values[name] = v
}

func (b *bench) units() map[string]string {
	if b.traced {
		return perLayer
	}
	return endToEnd
}

// print writes the human-readable metric table to standard error and
// the result object as the last line of standard output. Per-layer
// metrics a workload does not exercise read 0.
func (b *bench) print(correct bool) {
	res := result{
		Correct:   correct,
		Attempted: b.attempted.Load(),
		Failed:    b.failed.Load(),
		Metrics:   map[string]metric{},
	}
	if res.Attempted < 1 {
		res.Attempted = 1
	}
	names := make([]string, 0, len(b.units()))
	for name, unit := range b.units() {
		res.Metrics[name] = metric{Value: b.values[name], Unit: unit}
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		m := res.Metrics[name]
		fmt.Fprintf(os.Stderr, "  %-28s %14.6g %s\n", name, m.Value, m.Unit)
	}
	line, _ := json.Marshal(res)
	fmt.Println(string(line))
}
