// Command keyedeq-bench regenerates every table and figure of the
// reproduction's evaluation suite (DESIGN.md §4, EXPERIMENTS.md): the
// empirical validations of Theorems 9 and 13 and Lemmas 1-12, and the
// scaling studies of containment, the chase, mapping composition, the
// equivalence decision procedures, and FD reasoning.
//
// Usage:
//
//	keyedeq-bench                       # quick suite (seconds)
//	keyedeq-bench -full                 # full suite (stresses the exponential corners)
//	keyedeq-bench -only T3              # one experiment by ID
//	keyedeq-bench -json BENCH_engine.json                 # run E1 and write the regression record
//	keyedeq-bench -record hom -json BENCH_homsearch.json  # run H1 (planned vs naive search)
//	keyedeq-bench -record alloc -json BENCH_alloc.json    # run A1 (hot-path allocs/op)
//	keyedeq-bench -verify-bench BENCH_engine.json         # gate: parse + engine not slower
//	keyedeq-bench -record hom -verify-bench BENCH_homsearch.json
//	keyedeq-bench -record alloc -verify-bench BENCH_alloc.json  # gate: re-measure, <= 110% of record
//	keyedeq-bench -verify-obs BENCH_homsearch.json        # gate: metrics overhead <= 2%, node totals unchanged
//
// -parallel and -cache tune the batch engine E1 benchmarks with (0 =
// defaults; -cache -1 disables the verdict cache).  -cpuprofile and
// -memprofile write pprof profiles of whatever the invocation runs.
//
// Observability: -metrics collects pipeline counters during the run
// and prints the Prometheus exposition on exit (with -json record
// runs, the exported totals reconcile exactly with the record's
// per-job statistics); -trace out.jsonl writes one JSON span per
// pipeline stage; -pprof-http :6060 serves /debug/pprof, /debug/vars,
// and /metrics while the suite runs.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"

	"keyedeq/internal/cli"
	"keyedeq/internal/exp"
	"keyedeq/internal/obs"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("keyedeq-bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	full := fs.Bool("full", false, "run the full-size suite")
	only := fs.String("only", "", "run only the experiment with this ID (e.g. T3, F1)")
	jsonOut := fs.String("json", "", "run the selected benchmark record and write it to this file")
	verifyBench := fs.String("verify-bench", "", "verify a previously written regression record and exit")
	record := fs.String("record", "engine", "which regression record -json/-verify-bench handles: engine (E1), hom (H1), or alloc (A1)")
	parallel := fs.Int("parallel", 0, "engine worker pool size for E1 (0 = GOMAXPROCS)")
	cacheSize := fs.Int("cache", 0, "engine verdict cache entries for E1 (0 = fit corpus, <0 = disable)")
	cpuProfile := fs.String("cpuprofile", "", "write a CPU profile to this file")
	memProfile := fs.String("memprofile", "", "write a heap profile to this file on exit")
	verifyObs := fs.String("verify-obs", "", "run the observability overhead gate and cross-check node totals against this H1 record")
	var of cli.ObsFlags
	of.Register(fs)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *record != "engine" && *record != "hom" && *record != "alloc" {
		fmt.Fprintf(stderr, "keyedeq-bench: unknown record %q (want engine, hom, or alloc)\n", *record)
		return 2
	}
	ob, err := of.Setup(time.Now)
	if err != nil {
		fmt.Fprintf(stderr, "keyedeq-bench: %v\n", err)
		return 2
	}
	defer func() {
		if cerr := ob.Close(stdout); cerr != nil {
			fmt.Fprintf(stderr, "keyedeq-bench: %v\n", cerr)
		}
	}()

	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			fmt.Fprintf(stderr, "keyedeq-bench: %v\n", err)
			return 2
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintf(stderr, "keyedeq-bench: %v\n", err)
			return 2
		}
		defer pprof.StopCPUProfile()
	}
	if *memProfile != "" {
		defer func() {
			f, err := os.Create(*memProfile)
			if err != nil {
				fmt.Fprintf(stderr, "keyedeq-bench: %v\n", err)
				return
			}
			defer f.Close()
			runtime.GC()
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintf(stderr, "keyedeq-bench: %v\n", err)
			}
		}()
	}

	if *verifyObs != "" {
		return verifyObsFile(*verifyObs, stdout, stderr)
	}
	if *verifyBench != "" {
		switch *record {
		case "hom":
			return verifyHomBenchFile(*verifyBench, stdout, stderr)
		case "alloc":
			return verifyAllocBenchFile(*verifyBench, stdout, stderr)
		}
		return verifyBenchFile(*verifyBench, stdout, stderr)
	}
	if *jsonOut != "" {
		switch *record {
		case "hom":
			return writeHomBenchFile(*jsonOut, *full, ob.Obs, stdout, stderr)
		case "alloc":
			return writeAllocBenchFile(*jsonOut, stdout, stderr)
		}
		return writeBenchFile(*jsonOut, *full, *parallel, *cacheSize, ob.Obs, stdout, stderr)
	}

	cfg := exp.Config{Quick: !*full}
	mode := "quick"
	if *full {
		mode = "full"
	}
	fmt.Fprintf(stdout, "keyedeq evaluation suite (%s mode)\n", mode)
	fmt.Fprintf(stdout, "start: %s\n\n", time.Now().Format(time.RFC3339))

	start := time.Now()
	tables := exp.All(cfg)
	ran := 0
	for _, t := range tables {
		if *only != "" && !strings.EqualFold(t.ID, *only) {
			continue
		}
		fmt.Fprintln(stdout, t)
		ran++
	}
	if ran == 0 {
		fmt.Fprintf(stderr, "keyedeq-bench: no experiment %q\n", *only)
		return 2
	}
	fmt.Fprintf(stdout, "total wall time: %s\n", time.Since(start).Round(time.Millisecond))
	return 0
}

// sweepWorkerCounts are the fixed pool sizes the engine record's
// multi-worker section measures.
var sweepWorkerCounts = []int{1, 4, 8}

// writeBenchFile runs the E1 engine-vs-sequential benchmark plus the
// E2 worker sweep and writes the machine-readable regression record
// (ns/op, nodes, cache hit rates, speedup, per-pool-size walls) for
// CI's bench smoke gate.
func writeBenchFile(path string, full bool, workers, cacheSize int, o *obs.Obs, stdout, stderr io.Writer) int {
	pairs := 300
	if full {
		pairs = 1000
	}
	table, res := exp.E1EngineBatch(pairs, workers, cacheSize, 11, o)
	fmt.Fprintln(stdout, table)
	sweepTable, sweep, err := exp.E1WorkerSweep(pairs, cacheSize, 11, sweepWorkerCounts)
	if err != nil {
		fmt.Fprintf(stderr, "keyedeq-bench: worker sweep: %v\n", err)
		return 2
	}
	fmt.Fprintln(stdout, sweepTable)
	res.GoMaxProcs = runtime.GOMAXPROCS(0)
	res.NumCPU = runtime.NumCPU()
	res.Sweep = sweep
	if writeJSON(path, res, stderr) != 0 {
		return 2
	}
	fmt.Fprintf(stdout, "wrote %s (speedup %.2fx, %d-point worker sweep)\n", path, res.Speedup, len(sweep))
	return 0
}

// writeHomBenchFile runs the H1 planned-vs-naive homomorphism search
// benchmark and writes its regression record.
func writeHomBenchFile(path string, full bool, o *obs.Obs, stdout, stderr io.Writer) int {
	pairs := 300
	if full {
		pairs = 1000
	}
	table, res := exp.H1HomSearch(pairs, 21, o)
	fmt.Fprintln(stdout, table)
	if writeJSON(path, res, stderr) != 0 {
		return 2
	}
	fmt.Fprintf(stdout, "wrote %s (speedup %.2fx, wide node ratio %.1fx)\n",
		path, res.Speedup, res.WideNodeRatio)
	return 0
}

func writeJSON(path string, v interface{}, stderr io.Writer) int {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		fmt.Fprintf(stderr, "keyedeq-bench: %v\n", err)
		return 2
	}
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		fmt.Fprintf(stderr, "keyedeq-bench: %v\n", err)
		return 2
	}
	return 0
}

// verifyBenchFile is the CI gate over a written record: the file must
// parse, cover every corpus family, and show the engine no slower than
// the sequential baseline.
func verifyBenchFile(path string, stdout, stderr io.Writer) int {
	data, err := os.ReadFile(path)
	if err != nil {
		fmt.Fprintf(stderr, "keyedeq-bench: %v\n", err)
		return 2
	}
	var res exp.EngineBenchResult
	if err := json.Unmarshal(data, &res); err != nil {
		fmt.Fprintf(stderr, "keyedeq-bench: %s: %v\n", path, err)
		return 2
	}
	var problems []string
	if len(res.Families) == 0 {
		problems = append(problems, "no families recorded")
	}
	if res.Seq.Pairs == 0 || res.Eng.Pairs == 0 {
		problems = append(problems, "no pairs recorded")
	}
	if res.Speedup < 1 {
		problems = append(problems, fmt.Sprintf("engine slower than sequential (speedup %.2fx)", res.Speedup))
	}
	if res.SecondPassHitRate < 1 {
		problems = append(problems, fmt.Sprintf("second pass not fully cached (hit rate %.2f)", res.SecondPassHitRate))
	}
	problems = append(problems, checkWorkerSweep(&res)...)
	if len(problems) > 0 {
		for _, p := range problems {
			fmt.Fprintf(stderr, "keyedeq-bench: %s: %s\n", path, p)
		}
		return 1
	}
	if res.GoMaxProcs <= 1 {
		// Not a failure: the sweep's fingerprints are still checked, but
		// every wall-time claim in the record was measured without real
		// parallelism, so say so loudly.
		fmt.Fprintf(stderr, "keyedeq-bench: WARNING: %s was recorded with gomaxprocs %d (machine has %d CPUs); its wall-time speedups are not a scaling claim — re-record on a multi-core runner for those\n",
			path, res.GoMaxProcs, res.NumCPU)
	}
	fmt.Fprintf(stdout, "%s: ok (%d pairs, speedup %.2fx, second-pass hit rate %.2f, %d-point worker sweep)\n",
		path, res.Eng.Pairs, res.Speedup, res.SecondPassHitRate, len(res.Sweep))
	return 0
}

// checkWorkerSweep validates the engine record's multi-worker section:
// every required pool size present with honest measurements, and an
// identical work fingerprint at every size — worker count may move
// wall time, never verdicts.  Wall-time scaling is only judged when
// the record was taken with real parallelism available (GoMaxProcs >
// 1); a single-core record's sweep is kept for its fingerprints alone.
func checkWorkerSweep(res *exp.EngineBenchResult) []string {
	var problems []string
	if res.GoMaxProcs < 1 {
		problems = append(problems, fmt.Sprintf("record carries gomaxprocs %d; re-record with the current tool", res.GoMaxProcs))
	}
	seen := map[int]exp.WorkerSweepEntry{}
	for _, e := range res.Sweep {
		if e.WallNs <= 0 || e.NsPerOp <= 0 {
			problems = append(problems, fmt.Sprintf("worker sweep entry %d has no timing", e.Workers))
		}
		seen[e.Workers] = e
	}
	for _, want := range sweepWorkerCounts {
		if _, ok := seen[want]; !ok {
			problems = append(problems, fmt.Sprintf("worker sweep missing the %d-worker point", want))
		}
	}
	for i := 1; i < len(res.Sweep); i++ {
		a, b := res.Sweep[0], res.Sweep[i]
		if a.Nodes != b.Nodes || a.Holding != b.Holding {
			problems = append(problems, fmt.Sprintf(
				"worker sweep fingerprints diverge: %d workers (%d nodes, %d holding) vs %d workers (%d nodes, %d holding)",
				a.Workers, a.Nodes, a.Holding, b.Workers, b.Nodes, b.Holding))
		}
	}
	return problems
}

// verifyHomBenchFile is the CI gate over the H1 record: the file must
// parse, cover every corpus family including the wide one, agree on
// every verdict, show the measured runtime at least 1.5x faster
// overall with at least 5x fewer search nodes on the wide family, and
// — the adaptive runtime's reason to exist — lose to naive on NO
// family: every per-family speedup must be at least 1.0x.
func verifyHomBenchFile(path string, stdout, stderr io.Writer) int {
	data, err := os.ReadFile(path)
	if err != nil {
		fmt.Fprintf(stderr, "keyedeq-bench: %v\n", err)
		return 2
	}
	var res exp.HomBenchResult
	if err := json.Unmarshal(data, &res); err != nil {
		fmt.Fprintf(stderr, "keyedeq-bench: %s: %v\n", path, err)
		return 2
	}
	var problems []string
	if len(res.Families) == 0 {
		problems = append(problems, "no families recorded")
	}
	hasWide := false
	for _, f := range res.Families {
		if f.Pairs == 0 {
			problems = append(problems, fmt.Sprintf("family %s has no pairs", f.Family))
		}
		if f.Family == "wide" {
			hasWide = true
		}
		if f.Speedup < 1.0 {
			problems = append(problems, fmt.Sprintf(
				"family %s slower than naive (speedup %.2fx); the adaptive runtime must never lose a family",
				f.Family, f.Speedup))
		}
	}
	if !hasWide {
		problems = append(problems, "wide family missing from record")
	}
	if res.Mismatches != 0 {
		problems = append(problems, fmt.Sprintf("%d verdict mismatches between modes", res.Mismatches))
	}
	if res.Speedup < 1.5 {
		problems = append(problems, fmt.Sprintf("planned search not 1.5x faster overall (speedup %.2fx)", res.Speedup))
	}
	if res.WideNodeRatio < 5 {
		problems = append(problems, fmt.Sprintf("wide family node ratio %.1fx, want >= 5x", res.WideNodeRatio))
	}
	if len(problems) > 0 {
		for _, p := range problems {
			fmt.Fprintf(stderr, "keyedeq-bench: %s: %s\n", path, p)
		}
		return 1
	}
	fmt.Fprintf(stdout, "%s: ok (speedup %.2fx, wide node ratio %.1fx, mismatches %d)\n",
		path, res.Speedup, res.WideNodeRatio, res.Mismatches)
	return 0
}

// writeAllocBenchFile runs the A1 hot-path allocation benchmark and
// writes its regression record.
func writeAllocBenchFile(path string, stdout, stderr io.Writer) int {
	table, res := exp.A1AllocBench()
	fmt.Fprintln(stdout, table)
	if len(res.Cases) != len(exp.AllocCaseNames()) {
		fmt.Fprintf(stderr, "keyedeq-bench: alloc record incomplete (%d of %d cases ran)\n",
			len(res.Cases), len(exp.AllocCaseNames()))
		return 2
	}
	if writeJSON(path, res, stderr) != 0 {
		return 2
	}
	fmt.Fprintf(stdout, "wrote %s\n", path)
	return 0
}

// allocHeadroom is the slack the alloc gate grants a fresh measurement
// over the committed record: allocation counts on these deterministic
// workloads barely move, but map-growth timing can shift a handful of
// allocations between runs.
const allocHeadroom = 1.10

// verifyAllocBenchFile is the CI gate over the A1 record: the committed
// file must parse and carry every case at or under its pre-fix seed,
// and a fresh in-process measurement must come in at or under
// allocHeadroom times the committed allocs/op — so hot-path allocation
// regressions fail CI even when they slip past the static rules.
func verifyAllocBenchFile(path string, stdout, stderr io.Writer) int {
	data, err := os.ReadFile(path)
	if err != nil {
		fmt.Fprintf(stderr, "keyedeq-bench: %v\n", err)
		return 2
	}
	var rec exp.AllocBenchResult
	if err := json.Unmarshal(data, &rec); err != nil {
		fmt.Fprintf(stderr, "keyedeq-bench: %s: %v\n", path, err)
		return 2
	}
	table, fresh := exp.A1AllocBench()
	fmt.Fprintln(stdout, table)
	problems := compareAllocRecords(&rec, fresh)
	if len(problems) > 0 {
		for _, p := range problems {
			fmt.Fprintf(stderr, "keyedeq-bench: %s: %s\n", path, p)
		}
		return 1
	}
	for _, name := range exp.AllocCaseNames() {
		c, _ := rec.Case(name)
		f, _ := fresh.Case(name)
		fmt.Fprintf(stdout, "%s: %s ok (measured %d allocs/op, committed %d, seed %d)\n",
			path, name, f.AllocsPerOp, c.AllocsPerOp, c.SeedAllocsPerOp)
	}
	return 0
}

// compareAllocRecords checks a fresh A1 measurement against the
// committed record, returning the list of gate violations.
func compareAllocRecords(committed, fresh *exp.AllocBenchResult) []string {
	var problems []string
	for _, name := range exp.AllocCaseNames() {
		c, ok := committed.Case(name)
		if !ok {
			problems = append(problems, fmt.Sprintf("case %s missing from record", name))
			continue
		}
		if c.AllocsPerOp <= 0 {
			problems = append(problems, fmt.Sprintf("%s: non-positive allocs/op %d recorded", name, c.AllocsPerOp))
			continue
		}
		if c.AllocsPerOp > c.SeedAllocsPerOp {
			problems = append(problems, fmt.Sprintf("%s: recorded %d allocs/op exceeds the pre-fix seed %d",
				name, c.AllocsPerOp, c.SeedAllocsPerOp))
		}
		f, ok := fresh.Case(name)
		if !ok {
			problems = append(problems, fmt.Sprintf("%s: fresh measurement failed", name))
			continue
		}
		limit := int64(float64(c.AllocsPerOp) * allocHeadroom)
		if f.AllocsPerOp > limit {
			problems = append(problems, fmt.Sprintf("%s: measured %d allocs/op, over the committed %d (limit %d)",
				name, f.AllocsPerOp, c.AllocsPerOp, limit))
		}
	}
	return problems
}

// obsOverheadBudget is the gate on what metrics collection may cost
// the planned homomorphism search: observed wall time at most 2% above
// the unobserved fast path, both taken as minima over interleaved
// trials in the same process.
const obsOverheadBudget = 1.02

// obsGateAttempts bounds how often the overhead measurement may be
// retaken when it lands over budget.  Scheduler interference only ever
// inflates wall time, so one clean measurement is valid evidence the
// true overhead fits the budget, while a real regression fails every
// attempt.
const obsGateAttempts = 3

// verifyObsFile is the CI gate over the observability layer: run the
// in-process overhead measurement, require the metrics arm within the
// budget, the exported counters in exact agreement with per-search
// sums, and the per-family planned node totals identical to the
// committed H1 record (instrumentation must never change what the
// search does).
func verifyObsFile(path string, stdout, stderr io.Writer) int {
	data, err := os.ReadFile(path)
	if err != nil {
		fmt.Fprintf(stderr, "keyedeq-bench: %v\n", err)
		return 2
	}
	var rec exp.HomBenchResult
	if err := json.Unmarshal(data, &rec); err != nil {
		fmt.Fprintf(stderr, "keyedeq-bench: %s: %v\n", path, err)
		return 2
	}
	if len(rec.Families) == 0 {
		fmt.Fprintf(stderr, "keyedeq-bench: %s: no families recorded\n", path)
		return 2
	}
	pairs := rec.Families[0].Pairs

	var res *exp.ObsGateResult
	for attempt := 1; ; attempt++ {
		table, r, err := exp.ObsOverheadGate(pairs, 21, 7)
		if err != nil {
			fmt.Fprintf(stderr, "keyedeq-bench: %v\n", err)
			return 2
		}
		fmt.Fprintln(stdout, table)
		res = r
		if res.Overhead <= obsOverheadBudget || attempt == obsGateAttempts {
			break
		}
		fmt.Fprintf(stdout, "attempt %d/%d over budget (%.2f%%), remeasuring\n",
			attempt, obsGateAttempts, (res.Overhead-1)*100)
	}

	var problems []string
	if res.Overhead > obsOverheadBudget {
		problems = append(problems, fmt.Sprintf(
			"metrics overhead %.2f%% above the %.0f%% budget",
			(res.Overhead-1)*100, (obsOverheadBudget-1)*100))
	}
	if !res.Reconciled {
		problems = append(problems, "exported search counters disagree with per-search sums")
	}
	for _, f := range rec.Families {
		got, ok := res.FamilyNodes[f.Family]
		if !ok {
			problems = append(problems, fmt.Sprintf("family %s missing from the gate run", f.Family))
			continue
		}
		if got != f.PlannedNodes {
			problems = append(problems, fmt.Sprintf(
				"family %s: %d planned nodes under observation, record says %d",
				f.Family, got, f.PlannedNodes))
		}
	}
	if len(problems) > 0 {
		for _, p := range problems {
			fmt.Fprintf(stderr, "keyedeq-bench: %s: %s\n", path, p)
		}
		return 1
	}
	fmt.Fprintf(stdout, "%s: ok (overhead %.2f%%, %d searches/pass, node totals match the record)\n",
		path, (res.Overhead-1)*100, res.Searches)
	return 0
}
