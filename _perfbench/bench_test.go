package main

import (
	"bytes"
	"encoding/json"
	"math/rand"
	"os"
	"strings"
	"testing"
	"time"
)

func TestPercentileNearestRank(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3, 6, 7, 8, 9, 10}
	for _, c := range []struct{ p, want float64 }{
		{0.1, 1}, {0.5, 5}, {0.9, 9}, {0.99, 10}, {1, 10}, {0.01, 1},
	} {
		if got := percentile(append([]float64(nil), xs...), c.p); got != c.want {
			t.Errorf("percentile(1..10, %v) = %v, want %v", c.p, got, c.want)
		}
	}
	if got := percentile(nil, 0.5); got != 0 {
		t.Errorf("percentile of no samples = %v, want 0", got)
	}
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("median(3,1,2) = %v, want 2", got)
	}
}

func TestRatio(t *testing.T) {
	if got := ratio(3, 4); got != 0.75 {
		t.Errorf("ratio(3, 4) = %v", got)
	}
	if got := ratio(3, 0); got != 0 {
		t.Errorf("ratio(3, 0) = %v, want 0", got)
	}
}

func TestReconcile(t *testing.T) {
	ok := counts{pairs: 10, hits: 4, computed: 3, deduped: 2, errors: 1}
	if ps := reconcile("x", 10, ok); len(ps) != 0 {
		t.Errorf("consistent counts flagged: %v", ps)
	}
	if ps := reconcile("x", 11, ok); len(ps) != 1 {
		t.Errorf("pair total off by one: got %v", ps)
	}
	bad := ok
	bad.hits++
	if ps := reconcile("x", 10, bad); len(ps) != 1 {
		t.Errorf("hits+computed+deduped+errors ≠ pairs: got %v", ps)
	}
}

func TestSelfTimeSubtractsCoveredChildren(t *testing.T) {
	spans := []span{
		{ID: 1, Start: 0, Dur: 100},
		{ID: 2, Parent: 1, Start: 10, Dur: 30},  // [10, 40)
		{ID: 3, Parent: 1, Start: 30, Dur: 20},  // [30, 50): overlaps 2
		{ID: 4, Parent: 1, Start: 90, Dur: 50},  // [90, 140): half outside
		{ID: 5, Parent: 1, Start: 200, Dur: 10}, // outside the parent
		{ID: 6, Parent: 2, Start: 15, Dur: 5},
	}
	selfTimes(spans)
	want := map[int64]int64{1: 100 - 40 - 10, 2: 25, 3: 20, 4: 50, 5: 10, 6: 5}
	for _, sp := range spans {
		if sp.Self != want[sp.ID] {
			t.Errorf("span %d self = %d, want %d", sp.ID, sp.Self, want[sp.ID])
		}
	}
}

func TestVerdictOf(t *testing.T) {
	for body, want := range map[string][2]bool{
		`{"holds":true,"cache_hit":false}`:  {true, true},
		`{"holds":false,"cache_hit":false}`: {false, true},
		`{"error":"boom"}`:                  {false, false},
	} {
		holds, ok := verdictOf([]byte(body))
		if holds != want[0] || ok != want[1] {
			t.Errorf("verdictOf(%s) = %v, %v; want %v", body, holds, ok, want)
		}
	}
}

// A wrong reference verdict must be caught by the load's check.
func TestServeLoadCountsWrongVerdicts(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	reqs := freshPairs(rng, "keyed", 6, 1, 2, map[string]bool{})
	if err := references(reqs, 2); err != nil {
		t.Fatal(err)
	}
	reqs[0].holds = !reqs[0].holds
	srv, err := newServer(nil)
	if err != nil {
		t.Fatal(err)
	}
	tl := serveLoad(srv.srv.Handler(), reqs, identitySeq(len(reqs)), 0, len(reqs), time.Time{}, nil)
	if tl.done != len(reqs) || tl.decided != len(reqs) || tl.wrong != 1 || len(tl.problems("x")) != 1 {
		t.Errorf("done %d decided %d wrong %d problems %v; want %d, %d, 1, one problem",
			tl.done, tl.decided, tl.wrong, tl.problems("x"), len(reqs), len(reqs))
	}
}

// A run with a failed check prints correct=false and exits 1.
func TestReportFailsOnProblems(t *testing.T) {
	var out, errb bytes.Buffer
	code := report(config{workload: "x", seconds: 1, dir: t.TempDir(), scale: 1}, func(config) (*result, error) {
		r := newResult()
		r.attempted = 1
		r.fail("verdict mismatch")
		return r, nil
	}, &out, &errb)
	if code != 1 || !strings.Contains(errb.String(), "verdict mismatch") {
		t.Fatalf("exit %d, stderr %q; want 1 and the failed check", code, errb.String())
	}
	if res := lastJSON(t, out.String()); res.Correct {
		t.Errorf("correct = true for a failed run")
	}
}

type jsonResult struct {
	Correct   bool `json:"correct"`
	Attempted int  `json:"attempted"`
	Failed    int  `json:"failed"`
	Metrics   map[string]struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	} `json:"metrics"`
}

func lastJSON(t *testing.T, stdout string) jsonResult {
	t.Helper()
	lines := strings.Split(strings.TrimSpace(stdout), "\n")
	var r jsonResult
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &r); err != nil {
		t.Fatalf("last stdout line is not the JSON result: %v\n%s", err, stdout)
	}
	return r
}

// Each workload, shrunk, runs untraced and traced, passes its checks
// and reports exactly its metric set.
func TestSmokeWorkloads(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	for name, runner := range workloads {
		for _, trace := range []bool{false, true} {
			var out, errb bytes.Buffer
			cfg := config{workload: name, seed: 3, seconds: 1, trace: trace, dir: t.TempDir(), scale: 0.05}
			if code := report(cfg, runner, &out, &errb); code != 0 {
				t.Fatalf("%s trace=%t: exit %d\n%s\n%s", name, trace, code, out.String(), errb.String())
			}
			res := lastJSON(t, out.String())
			defs := endToEnd
			if trace {
				defs = perLayer
			}
			if !res.Correct || res.Attempted < 1 || res.Failed != 0 || len(res.Metrics) != len(defs) {
				t.Errorf("%s trace=%t: correct %t attempted %d failed %d, %d metrics (want %d)",
					name, trace, res.Correct, res.Attempted, res.Failed, len(res.Metrics), len(defs))
			}
			for _, d := range defs {
				if m, ok := res.Metrics[d.name]; !ok || m.Unit != d.unit {
					t.Errorf("%s trace=%t: metric %s missing or unit %q", name, trace, d.name, m.Unit)
				}
			}
			if !trace && res.Metrics["pairs_per_s"].Value <= 0 {
				t.Errorf("%s: pairs_per_s = %v", name, res.Metrics["pairs_per_s"].Value)
			}
		}
	}
}

// BENCHMARK.json names the same metrics, with the same units, as the
// program reports.
func TestBenchmarkJSONMatchesMetrics(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		Workloads []struct{ Name string }       `json:"workloads"`
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		got  []struct{ Name, Unit string }
		want []metricDef
	}{{b.EndToEnd, endToEnd}, {b.PerLayer, perLayer}} {
		if len(c.got) != len(c.want) {
			t.Fatalf("BENCHMARK.json lists %d metrics, the program %d", len(c.got), len(c.want))
		}
		for i, m := range c.got {
			if m.Name != c.want[i].name || m.Unit != c.want[i].unit {
				t.Errorf("metric %d: BENCHMARK.json %s %s, program %s %s", i, m.Name, m.Unit, c.want[i].name, c.want[i].unit)
			}
		}
	}
	if len(allWorkloads) != len(workloads) {
		t.Errorf("-workload all runs %d workloads, the program has %d", len(allWorkloads), len(workloads))
	}
	if len(b.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json lists %d workloads, the program %d", len(b.Workloads), len(workloads))
	}
	for _, w := range b.Workloads {
		if workloads[w.Name] == nil {
			t.Errorf("BENCHMARK.json workload %s is unknown to the program", w.Name)
		}
	}
}
