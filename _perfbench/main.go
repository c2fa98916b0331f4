// Command perfbench is keyedeq's end-to-end and per-layer benchmark.
//
//	bash _perfbench/run.sh --workload serve-repeat --seed 1 --seconds 10 --trace 0
//
// It calls the layers' public functions in-process.  Daemon traffic
// goes through serve.Server.Handler().ServeHTTP, request bytes to
// response bytes with no sockets and no second process; batches go
// through engine.Run.  Every server is configured as cmd/keyedeqd
// configures it by default.  Load is a closed loop: each caller waits
// for its reply before it sends the next request, like an optimizer
// checking a rewrite.
//
// Workloads (the seed drives every generator; see workloads in
// BENCHMARK.json for why each exists):
//
//	serve-repeat  repeat questions to a warm daemon: every answer is a cache hit
//	serve-novel   a daemon restarts onto its verdict log, then gets first-seen questions
//	batch-cold    first-seen batches through engine.Run on a fresh engine per batch
//
// -workload all runs the three in turn and exits non-zero if any fails.
//
// Every verdict is checked against containment's plain decision
// procedure, computed while the inputs are prepared.  The program's
// counters are reconciled against the benchmark's own tallies, and each
// workload's shape (its cache-hit share) is checked before anything is
// reported.  A failed check exits 1.
//
// With -trace 0 the last line of standard output is a JSON object with
// the end-to-end metrics.  With -trace 1 the run also replays the same
// inputs traced: spans around every public call, plus the program's own
// stage spans, kept in memory and written to <dir>/traces/ at the end;
// the last line then carries the per-layer metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
)

// metricDef names a reported metric, its unit, and why it is measured:
// the layer it watches.
type metricDef struct{ name, unit, why string }

// endToEnd are the metrics a user of the daemon or the batch engine
// sees.  The time-based ones are medians over one-second rounds.
var endToEnd = []metricDef{
	{"setup_s", "s", "what users pay before answers flow (serve.New and a warm pass, a restart onto the verdict log, or parsing batches); median of several set-ups"},
	{"pairs_per_s", "1/s", "decisions completed per second: throughput of the whole stack for one closed-loop caller set"},
	{"latency_p50_ms", "ms", "per-request (serve) or per-batch (batch-cold) median latency a waiting caller sees"},
	{"latency_p90_ms", "ms", "tail latency; p90, not p99, because p99 swings with fsync and scheduler stalls"},
	{"cpu_us_per_pair", "us", "process user+system CPU per decision: cost independent of how busy the cores were"},
	{"alloc_kb_per_pair", "KB", "bytes allocated per decision: the garbage-collector load every layer adds"},
	{"heap_retained_mb", "MB", "live heap the program keeps after the timed phase (caches, warm map, engines, parsed batches)"},
}

// perLayer are the traced run's metrics, one group per module.  A layer
// a workload does not use reports 0 there.
var perLayer = []metricDef{
	{"serve.overhead_us", "us", "serve: ServeHTTP time minus the same request's Engine.Decide time"},
	{"serve.route_us", "us", "serve: schema.Parse + fd.KeyFDs + engine.Fingerprint, re-derived on every request"},
	{"serve.rejected_share", "ratio", "serve: admission refusals per request"},
	{"serve.latency_p99_ms", "ms", "serve: ServeHTTP p99 of the traced replay; reported, not gated"},
	{"serve.latency_samples", "count", "serve: the sample count behind serve.latency_p99_ms"},
	{"cq.parse_us.keyed", "us", "cq: cq.Parse per keyed query"},
	{"cq.parse_us.graph", "us", "cq: cq.Parse per graph query"},
	{"cq.parse_us.wide", "us", "cq: cq.Parse per wide query"},
	{"cq.parse_ns_per_byte", "ns/B", "cq: parse time per byte of query text, which shows super-linear parsing"},
	{"cq.plan_us", "us", "cq: homomorphism-search planning per plan span"},
	{"cq.search_us", "us", "cq: homomorphism search per search span"},
	{"cq.search_nodes_per_search", "count", "cq: search tree nodes per search"},
	{"cq.searches_per_pair", "count", "cq: searches per decision"},
	{"engine.canonicalize_us.keyed", "us", "engine: canonicalization per keyed query"},
	{"engine.canonicalize_us.graph", "us", "engine: canonicalization per graph query"},
	{"engine.canonicalize_us.wide", "us", "engine: canonicalization per wide query"},
	{"engine.canonicalizations_per_pair", "count", "engine: canonical forms computed per decision"},
	{"engine.cache_hit_share", "ratio", "engine: verdict-cache hits per decision"},
	{"engine.cache_probe_us", "us", "engine: a cache hit's Decide minus its two canonicalizations"},
	{"engine.cache_evictions", "count", "engine: verdict-cache evictions"},
	{"engine.run_dedup_share", "ratio", "engine: Run pairs answered by another pair of the same batch"},
	{"engine.run_computed_share", "ratio", "engine: Run pairs decided by fresh work"},
	{"engine.run_core_busy_share", "ratio", "engine: CPU / (Run wall × GOMAXPROCS), how well Run's pool fills the cores"},
	{"chase.freeze_chase_us", "us", "chase: freeze plus chase per run"},
	{"chase.runs_per_pair", "count", "chase: chase runs per decision"},
	{"chase.iterations_per_run", "count", "chase: fixpoint rounds per chase run"},
	{"store.append_us", "us", "store: Log.Append without an fsync"},
	{"store.sync_ms", "ms", "store: appends that carried the log's fsync, and the drain's Log.Sync"},
	{"store.syncs_per_1k_pairs", "count", "store: fsyncs per thousand decisions"},
	{"store.replay_records_per_s", "1/s", "store: records replayed per second of store.Open + Log.Replay at restart"},
	{"store.appends_per_miss", "count", "store: appends per computed verdict; above 1, concurrent misses appended twice"},
	{"store.log_bytes_per_verdict", "B", "store: verdict-log growth per appended verdict"},
	{"runtime.gc_cycles_per_1k_pairs", "count", "runtime: garbage collections per thousand decisions"},
	{"obs.trace_overhead_pct", "%", "obs: pairs/s lost by the traced replay against the untraced phase; validates the trace"},
}

// config is one invocation's settings.
type config struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	dir      string  // scratch directory: verdict logs and traces
	scale    float64 // input-size multiplier; 1 in real runs, smaller in the smoke tests
}

// result is what one run found: the verdict tally, the metrics and
// their sample counts, and every failed check.
type result struct {
	attempted, failed int
	values            map[string]float64
	samples           map[string]int
	idle              map[string]bool // per-layer metrics of layers the workload does not use
	problems          []string
}

func newResult() *result {
	return &result{values: map[string]float64{}, samples: map[string]int{}, idle: map[string]bool{}}
}

func (r *result) set(name string, v float64) { r.values[name] = v }

func (r *result) setN(name string, v float64, n int) {
	r.values[name] = v
	r.samples[name] = n
}

func (r *result) fail(format string, args ...any) {
	r.problems = append(r.problems, fmt.Sprintf(format, args...))
}

// workloads maps each workload name to its runner.
var workloads = map[string]func(config) (*result, error){
	"serve-repeat": runServeRepeat,
	"serve-novel":  runServeNovel,
	"batch-cold":   runBatchCold,
}

// allWorkloads is the order -workload all runs them in.
var allWorkloads = []string{"serve-repeat", "serve-novel", "batch-cold"}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var cfg config
	fs.StringVar(&cfg.workload, "workload", "", "workload `name`: serve-repeat, serve-novel, batch-cold, or all of them in turn")
	fs.Int64Var(&cfg.seed, "seed", 1, "input generator `seed`")
	fs.IntVar(&cfg.seconds, "seconds", 10, "length of the timed phase in `seconds`")
	traceFlag := fs.Int("trace", 0, "1 replays the inputs traced and reports per-layer metrics")
	fs.StringVar(&cfg.dir, "dir", ".bench_build", "scratch `directory` for verdict logs and traces")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	names := []string{cfg.workload}
	if cfg.workload == "all" {
		names = allWorkloads
	}
	if workloads[names[0]] == nil || cfg.seconds < 1 || (*traceFlag != 0 && *traceFlag != 1) {
		fmt.Fprintf(stderr, "perfbench: need -workload serve-repeat|serve-novel|batch-cold|all, -seconds ≥ 1, -trace 0|1\n")
		return 2
	}
	cfg.trace = *traceFlag == 1
	cfg.scale = 1
	code := 0
	for _, name := range names {
		cfg.workload = name
		code = max(code, report(cfg, workloads[name], stdout, stderr))
	}
	return code
}

// report runs one workload and prints its metrics, then the JSON result
// line.  It returns the exit code.
func report(cfg config, runner func(config) (*result, error), stdout, stderr io.Writer) int {
	dir, err := filepath.Abs(filepath.Join(cfg.dir, "perfbench", fmt.Sprintf("%s-%d", cfg.workload, os.Getpid())))
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	cfg.dir = dir
	if err := os.MkdirAll(dir, 0o755); err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	defer os.RemoveAll(dir)
	fmt.Fprintf(stdout, "perfbench: workload=%s seed=%d seconds=%d trace=%t num_cpu=%d GOMAXPROCS=%d clients=%d log_dir=%s flush=sync-every-%d\n",
		cfg.workload, cfg.seed, cfg.seconds, cfg.trace, runtime.NumCPU(), runtime.GOMAXPROCS(0), clients, dir, syncEvery)

	res, err := runner(cfg)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", cfg.workload, err)
		return 1
	}
	defs := endToEnd
	if cfg.trace {
		defs = perLayer
	}
	metrics := make(map[string]any, len(defs))
	for _, d := range defs {
		v, ok := res.values[d.name]
		if !ok {
			res.fail("metric %s was not measured", d.name)
		}
		line := fmt.Sprintf("perfbench: %-34s %14.4f %s", d.name, v, d.unit)
		if n, ok := res.samples[d.name]; ok {
			line += fmt.Sprintf("  (n=%d)", n)
		}
		if res.idle[d.name] {
			line += "  (layer idle on this workload)"
		}
		line += "  # " + d.why
		fmt.Fprintln(stdout, line)
		metrics[d.name] = map[string]any{"value": v, "unit": d.unit}
	}
	// Printed, not gated: failures are carried by attempted/failed, and
	// a constant-zero share cannot take a relative bound.
	fmt.Fprintf(stdout, "perfbench: %-34s %14.6f ratio  (n=%d)\n", "failed_share",
		ratio(float64(res.failed), float64(res.attempted)), res.attempted)
	extra := make([]string, 0, len(res.values))
	for name := range res.values {
		if !defined(defs, name) {
			extra = append(extra, name)
		}
	}
	sort.Strings(extra)
	for _, name := range extra {
		fmt.Fprintf(stdout, "perfbench: %-34s %14.4f\n", name, res.values[name])
	}
	for _, p := range res.problems {
		fmt.Fprintf(stderr, "perfbench: FAILED CHECK: %s\n", p)
	}
	correct := len(res.problems) == 0
	line, err := json.Marshal(map[string]any{
		"correct":   correct,
		"attempted": res.attempted,
		"failed":    res.failed,
		"metrics":   metrics,
	})
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if !correct {
		return 1
	}
	return 0
}

func defined(defs []metricDef, name string) bool {
	for _, d := range defs {
		if d.name == name {
			return true
		}
	}
	return false
}
