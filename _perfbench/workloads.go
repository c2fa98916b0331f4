package main

import (
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"time"

	"keyedeq/internal/store"
)

// Workload sizes, at scale 1.  They were chosen so every set-up is real
// work of 0.1 s or more on a 2-core machine and so a 60 s run still has
// inputs to spare.
const (
	repeatPairsPerCorpus = 150 // canonical pairs per corpus family in the repeat pool
	repeatVariants       = 4   // α-variant texts per canonical pair
	repeatSetups         = 5
	repeatSeqLen         = 1 << 16

	novelHistory  = 6000 // verdicts in the history log a serve-novel daemon restarts onto
	novelRate     = 3000 // prepared first-seen requests per timed second
	novelSetups   = 7
	setupTraceIDs = 1 << 40 // trace IDs of set-up passes, apart from the timed requests' 1..n
)

// scaled returns n·scale, at least 1.
func scaled(n int, scale float64) int {
	return max(1, int(float64(n)*scale))
}

// identitySeq is 0, 1, ..., n-1.
func identitySeq(n int) []int32 {
	seq := make([]int32, n)
	for i := range seq {
		seq[i] = int32(i)
	}
	return seq
}

// zipfSeq draws a request sequence of length n.  Groups take turns, so
// each family keeps its share of the traffic whatever the seed; within
// a group, requests are drawn with Zipf skew over a seeded ranking.
func zipfSeq(rng *rand.Rand, groups [][]int32, n int) []int32 {
	type ranked struct {
		perm []int
		z    *rand.Zipf
	}
	rs := make([]ranked, len(groups))
	for g, idx := range groups {
		rs[g] = ranked{perm: rng.Perm(len(idx)), z: rand.NewZipf(rng, 1.1, 20, uint64(len(idx)-1))}
	}
	seq := make([]int32, n)
	for j := range seq {
		g := j % len(groups)
		seq[j] = groups[g][rs[g].perm[rs[g].z.Uint64()]]
	}
	return seq
}

// checkSetupPass turns a set-up pass's verdict failures into an error.
func checkSetupPass(t *tally, what string) error {
	if ps := t.problems(what); len(ps) > 0 || t.failed > 0 {
		return fmt.Errorf("%v (%d failed requests)", ps, t.failed)
	}
	return nil
}

// runServeRepeat: repeat questions to a warm daemon.  A fixed pool of
// request bodies over the keyed, graph-mixed, graph-long and wide
// families, each canonical pair under several α-variant texts, is
// answered once during set-up; the timed phase then draws from it with
// Zipf skew, so every answer is a cache hit and the cost is JSON decode,
// schema routing, cq.Parse, two canonicalizations and a cache probe.
// The working set stays under half of each engine's verdict cache.
func runServeRepeat(cfg config) (*result, error) {
	rng := rand.New(rand.NewSource(cfg.seed))
	seen := make(map[string]bool)
	var pool []*request
	var groups [][]int32
	for _, corpus := range []string{"keyed", "graph-mixed", "graph-long", "wide"} {
		rs := freshPairs(rng, corpus, scaled(repeatPairsPerCorpus, cfg.scale), repeatVariants, clients, seen)
		groups = append(groups, identitySeq(len(rs)))
		for j := range groups[len(groups)-1] {
			groups[len(groups)-1][j] += int32(len(pool))
		}
		pool = append(pool, rs...)
	}
	if err := references(pool, clients); err != nil {
		return nil, err
	}
	for i := 0; i < len(pool); i += repeatVariants {
		for v := 1; v < repeatVariants; v++ {
			if pool[i+v].holds != pool[i].holds {
				return nil, fmt.Errorf("reference verdicts of α-variant texts disagree: %s vs %s", pool[i].left, pool[i+v].left)
			}
		}
	}
	inputs, err := offHeap(pool)
	if err != nil {
		return nil, err
	}
	warmSeq := identitySeq(len(pool))
	spec := serveSpec{
		pool:   pool,
		inputs: inputs,
		seq:    zipfSeq(rng, groups, repeatSeqLen),
		cyclic: true,
		setups: repeatSetups,
		setup: func(tr *tracer) (*server, time.Duration, error) {
			start := time.Now()
			srv, err := newServer(nil)
			if err != nil {
				return nil, 0, err
			}
			var hook func(int, *request, time.Time, time.Duration)
			if tr != nil {
				tr.add(span{Name: "serve.New", Phase: "setup", Start: tr.at(start), Dur: time.Since(start).Nanoseconds()})
				hook = func(i int, q *request, s time.Time, d time.Duration) {
					tr.add(span{Trace: setupTraceIDs + int64(i), Name: "ServeHTTP", Phase: "setup", Family: q.family,
						Start: tr.at(s), Dur: d.Nanoseconds()})
				}
			}
			t := serveLoad(srv.srv.Handler(), pool, warmSeq, 0, len(pool), time.Time{}, hook)
			return srv, time.Since(start), checkSetupPass(t, "set-up pass")
		},
		mirrorSetup: func(tr *tracer) (*mirror, error) {
			m, err := openMirror(tr, filepath.Join(cfg.dir, "mirror.log"))
			if err != nil {
				return nil, err
			}
			_, t, err := mirrorLoad(m, pool, warmSeq, len(pool), "setup", func(i int) (int64, int64) { return setupTraceIDs + int64(i), 0 })
			if err == nil {
				err = checkSetupPass(t, "mirror set-up pass")
			}
			if err != nil {
				m.close()
				return nil, err
			}
			return m, nil
		},
		check: func(hitShare float64, evictions int64) []string {
			var out []string
			if hitShare < 0.99 {
				out = append(out, fmt.Sprintf("serve-repeat: cache-hit share %.4f, want ≥ 0.99", hitShare))
			}
			if evictions != 0 {
				out = append(out, fmt.Sprintf("serve-repeat: %d cache evictions, want 0", evictions))
			}
			return out
		},
	}
	return runServe(cfg, spec)
}

// novelRequests draws n first-seen requests, a third from each corpus
// family, in seeded random order.  Each family's supply of distinct
// cheap pairs runs out as it is drawn, so unshuffled the stream would
// grow costlier as it goes.
func novelRequests(rng *rand.Rand, n int, seen map[string]bool) []*request {
	corpora := []string{"keyed", "graph-long", "wide"}
	var out []*request
	for _, corpus := range corpora {
		out = append(out, freshPairs(rng, corpus, (n+len(corpora)-1)/len(corpora), 1, clients, seen)...)
	}
	rng.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out[:n]
}

// copyFile copies src to a fresh dst.
func copyFile(dst, src string) error {
	in, err := os.Open(src)
	if err != nil {
		return err
	}
	defer in.Close()
	out, err := os.Create(dst)
	if err != nil {
		return err
	}
	if _, err := io.Copy(out, in); err != nil {
		out.Close()
		return err
	}
	return out.Close()
}

// runServeNovel: a daemon restarts onto its verdict history, then gets
// questions it has never seen.  The history log is written during
// preparation by a serve run over a disjoint seed stream; set-up is
// store.Open plus serve.New on a fresh copy of it.  Timed pairs come
// from the keyed, graph-long and wide families with bases drawn fresh
// and no pair repeated, so nearly every answer runs chase and search
// and appends to the log.
func runServeNovel(cfg config) (*result, error) {
	rng := rand.New(rand.NewSource(cfg.seed))
	histRng := rand.New(rand.NewSource(^cfg.seed))
	// One seen-set for both: no timed pair is already in the history.
	seen := make(map[string]bool)
	history := novelRequests(histRng, scaled(novelHistory, cfg.scale), seen)
	pool := novelRequests(rng, scaled(novelRate*cfg.seconds, cfg.scale), seen)
	if err := references(append(append([]*request(nil), history...), pool...), clients); err != nil {
		return nil, err
	}
	histPath := filepath.Join(cfg.dir, "history.log")
	log, err := store.Open(histPath, store.Options{SyncEvery: syncEvery})
	if err != nil {
		return nil, err
	}
	srv, err := newServer(log)
	if err != nil {
		log.Close()
		return nil, err
	}
	t := serveLoad(srv.srv.Handler(), history, identitySeq(len(history)), 0, len(history), time.Time{}, nil)
	if err := srv.close(); err != nil {
		return nil, err
	}
	if err := checkSetupPass(t, "history run"); err != nil {
		return nil, err
	}

	inputs, err := offHeap(pool)
	if err != nil {
		return nil, err
	}
	restartPath := filepath.Join(cfg.dir, "restart.log")
	spec := serveSpec{
		pool:   pool,
		inputs: inputs,
		seq:    identitySeq(len(pool)),
		setups: novelSetups,
		setup: func(tr *tracer) (*server, time.Duration, error) {
			if err := copyFile(restartPath, histPath); err != nil {
				return nil, 0, err
			}
			start := time.Now()
			log, err := store.Open(restartPath, store.Options{SyncEvery: syncEvery})
			if err != nil {
				return nil, 0, err
			}
			opened := time.Now()
			srv, err := newServer(log)
			if err != nil {
				log.Close()
				return nil, 0, err
			}
			d := time.Since(start)
			if tr != nil {
				tr.add(span{Name: "store.Open", Phase: "setup", Start: tr.at(start), Dur: opened.Sub(start).Nanoseconds()})
				tr.add(span{Name: "serve.New", Phase: "setup", Start: tr.at(opened), Dur: d.Nanoseconds() - opened.Sub(start).Nanoseconds()})
			}
			return srv, d, nil
		},
		mirrorSetup: func(tr *tracer) (*mirror, error) {
			path := filepath.Join(cfg.dir, "mirror.log")
			if err := copyFile(path, histPath); err != nil {
				return nil, err
			}
			return openMirror(tr, path)
		},
		check: func(hitShare float64, _ int64) []string {
			if hitShare > 0.05 {
				return []string{fmt.Sprintf("serve-novel: cache-hit share %.4f, want ≤ 0.05", hitShare)}
			}
			return nil
		},
	}
	return runServe(cfg, spec)
}
