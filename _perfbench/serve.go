package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"runtime"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"keyedeq/internal/engine"
	"keyedeq/internal/obs"
	"keyedeq/internal/serve"
	"keyedeq/internal/store"
)

const (
	// clients is the closed loop's caller count: nproc of the 2-core
	// machines the workloads were sized on.
	clients = 2
	// syncEvery is keyedeqd's default -sync-every flush policy.
	syncEvery = 64
	// fpSep joins an engine fingerprint to a pair key in the daemon's
	// verdict-log keys; the mirror reads the daemon's logs through it.
	fpSep = "\x1d"
)

// server is one daemon instance under test.
type server struct {
	srv *serve.Server
	reg *obs.Registry
	log *store.Log // nil without persistence
}

// newServer builds a server configured as cmd/keyedeqd configures it by
// default: an Obs with a registry and no span sink, default cache and
// admission limits, and Options.Now = time.Now.
func newServer(log *store.Log) (*server, error) {
	reg := obs.NewRegistry()
	srv, err := serve.New(serve.Config{
		Engine: engine.Options{Now: time.Now},
		Log:    log,
		Obs:    &obs.Obs{Reg: reg, Now: time.Now},
	})
	if err != nil {
		return nil, err
	}
	return &server{srv: srv, reg: reg, log: log}, nil
}

// close syncs and closes the server's log, as keyedeqd's drain does.
func (s *server) close() error {
	if s.log == nil {
		return nil
	}
	if err := s.log.Sync(); err != nil {
		s.log.Close()
		return err
	}
	return s.log.Close()
}

// call sends one request through the handler: request bytes in,
// response bytes out, no socket.
func call(h http.Handler, method, path string, body []byte) *httptest.ResponseRecorder {
	req := httptest.NewRequest(method, path, bytes.NewReader(body))
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	return rec
}

// verdictOf reads the holds field of a /v1/decide response; the daemon
// encodes it first.
func verdictOf(body []byte) (holds, ok bool) {
	switch {
	case bytes.HasPrefix(body, []byte(`{"holds":true`)):
		return true, true
	case bytes.HasPrefix(body, []byte(`{"holds":false`)):
		return false, true
	}
	return false, false
}

// cacheEvictions reads the summed verdict-cache evictions from the
// daemon's /v1/stats endpoint.
func cacheEvictions(h http.Handler) (int64, error) {
	rec := call(h, "GET", "/v1/stats", nil)
	var st struct {
		Cache struct {
			Evictions int64 `json:"evictions"`
		} `json:"cache"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &st); err != nil {
		return 0, fmt.Errorf("decoding /v1/stats: %v", err)
	}
	return st.Cache.Evictions, nil
}

// closedLoop runs `clients` callers.  Each takes the next index i in
// [from, n) and calls fn(c, i), and only then takes another, until the
// indices run out or the deadline passes (a zero deadline never does).
// Every index taken is finished, so the calls made are exactly
// [from, from+count).
func closedLoop(from, n int, deadline time.Time, fn func(c, i int)) (count int, wall time.Duration) {
	var next atomic.Int64
	next.Store(int64(from))
	var wg sync.WaitGroup
	start := time.Now()
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for {
				if !deadline.IsZero() && !time.Now().Before(deadline) {
					return
				}
				i := int(next.Add(1) - 1)
				if i >= n {
					return
				}
				fn(c, i)
			}
		}(c)
	}
	wg.Wait()
	wall = time.Since(start)
	return min(int(next.Load()), n) - from, wall
}

// tally is one load phase's outcome, merged over the callers.
type tally struct {
	done, decided, failed, wrong, serverErrors int
	lat                                        []float64 // ms per request
	wall                                       time.Duration
}

func (t *tally) merge(o *tally) {
	t.done += o.done
	t.decided += o.decided
	t.failed += o.failed
	t.wrong += o.wrong
	t.serverErrors += o.serverErrors
	t.lat = append(t.lat, o.lat...)
}

// problems lists the phase's verdict failures.
func (t *tally) problems(what string) []string {
	var out []string
	if t.wrong > 0 {
		out = append(out, fmt.Sprintf("%s: %d verdicts differ from the reference", what, t.wrong))
	}
	if t.serverErrors > 0 {
		out = append(out, fmt.Sprintf("%s: %d responses were 5xx", what, t.serverErrors))
	}
	return out
}

// serveLoad sends pool[seq[i % len(seq)]] for i in [from, n) through h
// in a closed loop and checks every response against its reference
// verdict.  hook, when set, sees each request's timing.
func serveLoad(h http.Handler, pool []*request, seq []int32, from, n int, deadline time.Time,
	hook func(i int, q *request, start time.Time, d time.Duration)) *tally {
	per := make([]tally, clients)
	count, wall := closedLoop(from, n, deadline, func(c, i int) {
		q := pool[seq[i%len(seq)]]
		t := &per[c]
		start := time.Now()
		rec := call(h, "POST", "/v1/decide", q.body)
		d := time.Since(start)
		if hook != nil {
			hook(i, q, start, d)
		}
		t.done++
		t.lat = append(t.lat, float64(d.Nanoseconds())/1e6)
		switch code := rec.Code; {
		case code == http.StatusOK:
			t.decided++
			if holds, ok := verdictOf(rec.Body.Bytes()); !ok || holds != q.holds {
				t.wrong++
			}
		case code >= 500:
			t.failed++
			t.serverErrors++
			if code == http.StatusGatewayTimeout {
				t.decided++
			}
		default:
			t.failed++
			if code == http.StatusUnprocessableEntity {
				t.decided++
			}
		}
	})
	out := &tally{wall: wall}
	for c := range per {
		out.merge(&per[c])
	}
	if out.done != count {
		panic("perfbench: closed loop lost a request")
	}
	return out
}

// A traced replay re-sends at most this many of the timed phase's
// first requests (and batch-cold at most traceBatches batches), which
// keeps its spans in memory to about a hundred megabytes.
const (
	traceRequests = 8000
	traceBatches  = 48
)

// A serve timed phase runs as one-second rounds, one per requested
// second (batch-cold's rounds are passes over its pool).  The
// time-based end-to-end metrics are medians over the rounds, so a stall
// of the machine during a few rounds moves them little.
const roundLen = time.Second

// roundStats collects the time-based figures of each round.
type roundStats struct{ pps, cpuPerPair, p50, p90 []float64 }

// add records a round of `pairs` decisions taking wall time and cpu
// time, with the latency samples (ms) of its requests or batches.
func (rs *roundStats) add(pairs int, wall, cpu time.Duration, lat []float64) {
	if pairs == 0 {
		return
	}
	lat = append([]float64(nil), lat...)
	rs.pps = append(rs.pps, float64(pairs)/wall.Seconds())
	rs.cpuPerPair = append(rs.cpuPerPair, float64(cpu.Nanoseconds())/1e3/float64(pairs))
	rs.p50 = append(rs.p50, percentile(lat, 0.5))
	rs.p90 = append(rs.p90, percentile(lat, 0.9))
}

// report sets the round medians, with the phase's pair and latency
// sample counts, prints each round, and returns the median pairs/s.
func (rs *roundStats) report(res *result, pairs, latSamples int) float64 {
	for r := range rs.pps {
		res.set(fmt.Sprintf("round%d.pairs_per_s", r+1), rs.pps[r])
	}
	pps := median(append([]float64(nil), rs.pps...))
	res.setN("pairs_per_s", pps, pairs)
	res.setN("latency_p50_ms", median(rs.p50), latSamples)
	res.setN("latency_p90_ms", median(rs.p90), latSamples)
	res.setN("cpu_us_per_pair", median(rs.cpuPerPair), pairs)
	return pps
}

// phaseMark snapshots what a timed phase is measured against.
type phaseMark struct {
	reg map[string]int64
	ms  runtime.MemStats
	cpu time.Duration
}

func mark(reg *obs.Registry) *phaseMark {
	p := &phaseMark{reg: reg.Snapshot()}
	runtime.ReadMemStats(&p.ms)
	p.cpu = cpuTime()
	return p
}

// phaseDelta is what a timed phase cost.
type phaseDelta struct {
	reg        map[string]int64 // registry counter deltas
	allocBytes uint64
	numGC      uint32
	cpu        time.Duration
}

func (p *phaseMark) delta(reg *obs.Registry) phaseDelta {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	d := phaseDelta{
		reg:        make(map[string]int64),
		allocBytes: ms.TotalAlloc - p.ms.TotalAlloc,
		numGC:      ms.NumGC - p.ms.NumGC,
		cpu:        cpuTime() - p.cpu,
	}
	for k, v := range reg.Snapshot() {
		d.reg[k] = v - p.reg[k]
	}
	return d
}

// pairCounts reads the pair counters out of registry deltas.
func (d phaseDelta) pairCounts() counts {
	return counts{
		pairs:    d.reg["keyedeq_pairs_total"],
		hits:     d.reg["keyedeq_cache_hits_total"],
		computed: d.reg["keyedeq_pairs_computed_total"],
		deduped:  d.reg["keyedeq_pairs_deduped_total"],
		errors:   d.reg["keyedeq_pairs_errors_total"],
	}
}

// liveHeap returns the live heap after a forced collection.
func liveHeap() uint64 {
	// Two cycles: the first moves sync.Pool contents to the victim
	// cache, the second frees them, so pooled buffers do not count.
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// serveSpec describes a serve workload to runServe.
type serveSpec struct {
	pool []*request
	// inputs is the mapping offHeap moved the pool's bodies into.
	inputs []byte
	seq    []int32
	// cyclic reuses seq for as long as the timed phase runs; otherwise
	// each request is sent once and the phase ends early if they run out.
	cyclic bool
	setups int // set-ups per run; setup_s is their median
	// setup builds one server as the workload's users would, and returns
	// it with the set-up time they pay.  tr, when set, records spans.
	setup func(tr *tracer) (*server, time.Duration, error)
	// mirrorSetup prepares the traced mirror's state (its log, warm map
	// or warm pass).
	mirrorSetup func(tr *tracer) (*mirror, error)
	// check returns the workload-shape failures for a timed phase's
	// cache-hit share and evictions.
	check func(hitShare float64, evictions int64) []string
}

// runServe measures a serve workload: set-up, then a timed closed loop
// through ServeHTTP, then (traced runs only) the traced replay.
func runServe(cfg config, spec serveSpec) (*result, error) {
	defer syscall.Munmap(spec.inputs)
	res := newResult()
	base := liveHeap()
	res.set("heap_inputs_mb", float64(base)/(1<<20))

	var srv *server
	var setups []float64
	for k := 0; k < spec.setups; k++ {
		if srv != nil {
			if err := srv.close(); err != nil {
				return nil, err
			}
		}
		s, d, err := spec.setup(nil)
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		srv = s
		setups = append(setups, d.Seconds())
	}
	res.setN("setup_s", median(setups), len(setups))

	n := len(spec.seq)
	if spec.cyclic {
		n = math.MaxInt
	}
	var logSize0 int64
	if srv.log != nil {
		logSize0 = fileSize(srv.log.Path())
	}
	t := &tally{}
	var rs roundStats
	pm := mark(srv.reg)
	for r := 0; r < cfg.seconds && t.done < n; r++ {
		cpu0 := cpuTime()
		rt := serveLoad(srv.srv.Handler(), spec.pool, spec.seq, t.done, n, time.Now().Add(roundLen), nil)
		rs.add(rt.done, rt.wall, cpuTime()-cpu0, rt.lat)
		t.merge(rt)
		t.wall += rt.wall
	}
	d := pm.delta(srv.reg)
	if !spec.cyclic && t.done == len(spec.seq) {
		fmt.Fprintf(os.Stderr, "perfbench: warning: all %d prepared requests were sent after %.2fs\n", t.done, t.wall.Seconds())
	}
	evictions, err := cacheEvictions(srv.srv.Handler())
	if err != nil {
		return nil, err
	}
	if srv.log != nil {
		appends := d.reg["keyedeq_store_appends_total"]
		res.set("log_bytes_per_verdict", ratio(float64(fileSize(srv.log.Path())-logSize0), float64(appends)))
	}
	res.attempted, res.failed = t.done, t.failed
	res.problems = append(res.problems, t.problems("timed phase")...)
	pc := d.pairCounts()
	res.problems = append(res.problems, reconcile("timed phase", int64(t.decided), pc)...)
	if got := d.reg["keyedeq_serve_requests_total"]; got != int64(t.decided) {
		res.fail("timed phase: keyedeq_serve_requests_total moved by %d, %d requests reached the engine", got, t.decided)
	}
	hitShare := ratio(float64(pc.hits), float64(pc.pairs))
	res.problems = append(res.problems, spec.check(hitShare, evictions)...)

	pps := rs.report(res, t.done, len(t.lat))
	res.set("alloc_kb_per_pair", ratio(float64(d.allocBytes)/1024, float64(t.done)))
	res.set("cache_hit_share", hitShare)
	res.set("cache_evictions", float64(evictions))
	res.set("runtime.gc_cycles_per_1k_pairs", ratio(1000*float64(d.numGC), float64(t.done)))
	res.set("heap_retained_mb", float64(int64(liveHeap())-int64(base))/(1<<20))
	runtime.KeepAlive(srv)
	if err := srv.close(); err != nil {
		return nil, err
	}
	if cfg.trace {
		if err := traceServe(cfg, spec, res, min(t.done, traceRequests), pps); err != nil {
			return nil, fmt.Errorf("traced replay: %w", err)
		}
	}
	return res, nil
}

func fileSize(path string) int64 {
	st, err := os.Stat(path)
	if err != nil {
		return 0
	}
	return st.Size()
}
