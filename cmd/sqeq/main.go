// Command sqeq decides conjunctive query equivalence of keyed relational
// schemas (Theorem 13 of Albert/Ioannidis/Ramakrishnan, PODS 1997).
//
// Usage:
//
//	sqeq [-witness] [-verify] [-search] schema1.txt schema2.txt
//	sqeq -e "r(a*:T1, b:T2)" -e2 "s(x:T2, y*:T1)"
//	sqeq -e ... -e2 ... -alpha alpha.txt -beta beta.txt
//	sqeq -search -parallel 4 -cache 8192 schema1.txt schema2.txt
//
// With -search, -parallel sizes the worker pool of the bounded mapping
// search and -cache bounds the batch engine's verdict cache (0 picks
// the defaults; -cache -1 disables caching).
//
// Observability (most useful with -search, whose decisions run the
// instrumented batch engine): -metrics prints Prometheus-text counters
// on exit, -trace out.jsonl writes one JSON span per pipeline stage,
// and -pprof-http :6060 serves /debug/pprof, /debug/vars, and
// /metrics while the process runs.
//
// With -alpha and -beta, sqeq verifies a USER-SUPPLIED dominance pair
// instead: both mapping files (one view per line, named for the
// destination relation) are checked for validity and β∘α = id
// symbolically.
//
// Schema files contain one relation per line, key attributes starred:
//
//	employee(ss*:T1, eName:T2, salary:T3, depId:T4)
//	department(deptId*:T4, deptName:T5, mgr:T1)
//
// Exit status: 0 equivalent, 1 not equivalent, 2 usage or input error.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"syscall"
	"time"

	"keyedeq"
	"keyedeq/internal/cli"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("sqeq", flag.ContinueOnError)
	fs.SetOutput(stderr)
	witness := fs.Bool("witness", false, "print the witness conjunctive query mappings")
	verify := fs.Bool("verify", false, "symbolically verify the witness (validity + β∘α = id)")
	search := fs.Bool("search", false, "ALSO decide by bounded mapping search and report agreement")
	inline1 := fs.String("e", "", "first schema given inline instead of a file")
	inline2 := fs.String("e2", "", "second schema given inline instead of a file")
	alphaFile := fs.String("alpha", "", "file with a candidate mapping schema1 → schema2 to verify")
	betaFile := fs.String("beta", "", "file with a candidate mapping schema2 → schema1 to verify")
	parallel := fs.Int("parallel", 0, "worker pool size for -search (0 = GOMAXPROCS, 1 = sequential)")
	cacheSize := fs.Int("cache", 0, "verdict cache entries for -search (0 = default, <0 = disable)")
	var of cli.ObsFlags
	of.Register(fs)
	if err := fs.Parse(args); err != nil {
		return 2
	}

	fail := cli.Fail(stderr, "sqeq")
	ob, err := of.Setup(time.Now)
	if err != nil {
		return fail(err)
	}
	defer func() {
		if cerr := ob.Close(stdout); cerr != nil {
			fmt.Fprintf(stderr, "sqeq: %v\n", cerr)
		}
	}()
	s1, err := loadSchema(fs, *inline1, 0)
	if err != nil {
		return fail(err)
	}
	s2, err := loadSchema(fs, *inline2, 1)
	if err != nil {
		return fail(err)
	}

	if (*alphaFile == "") != (*betaFile == "") {
		return fail(fmt.Errorf("-alpha and -beta must be given together"))
	}
	if *alphaFile != "" {
		return verifyUserPair(s1, s2, *alphaFile, *betaFile, stdout, stderr)
	}

	fmt.Fprintln(stdout, keyedeq.ExplainEquivalence(s1, s2))
	eq := keyedeq.Equivalent(s1, s2)

	if *witness || *verify {
		w, ok, err := keyedeq.EquivalentWithWitness(s1, s2)
		if err != nil {
			return fail(err)
		}
		if ok {
			fmt.Fprintln(stdout, "\nwitness α (schema 1 → schema 2):")
			fmt.Fprintln(stdout, w.Alpha)
			fmt.Fprintln(stdout, "\nwitness β (schema 2 → schema 1):")
			fmt.Fprintln(stdout, w.Beta)
			if *verify {
				good, err := keyedeq.VerifyDominance(w.Alpha, w.Beta)
				if err != nil {
					return fail(err)
				}
				fmt.Fprintf(stdout, "\nsymbolic verification (validity + β∘α = id): %v\n", good)
			}
		}
	}

	if *search {
		b := keyedeq.DefaultSearchBounds()
		// The mapping search decides many candidate view pairs over the
		// same two schemas — exactly the batch shape the engine's
		// canonical-query cache deduplicates, so route its equivalence
		// calls through an engine pool.  Ctrl-C cancels the context,
		// which stops the pair loop and aborts in-flight chases instead
		// of letting a long search run to completion.
		ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
		defer stop()
		pool := keyedeq.NewEnginePool(keyedeq.EngineOptions{
			Workers:      *parallel,
			CacheSize:    *cacheSize,
			DisableCache: *cacheSize < 0,
			Obs:          ob.Obs,
		})
		found, stats, err := keyedeq.SearchEquivalenceCtx(ctx, s1, s2, b, keyedeq.SearchOptions{
			Workers:  *parallel,
			EquivCtx: pool.EquivCtx,
		})
		if err != nil {
			return fail(err)
		}
		fmt.Fprintf(stdout, "\nbounded mapping search: equivalent=%v (pairs checked %d, truncated %v)\n",
			found, stats.PairsChecked, stats.Truncated)
		cs := pool.Stats()
		fmt.Fprintf(stdout, "engine cache: %d hits / %d misses (hit rate %.2f)\n",
			cs.Hits, cs.Misses, cs.HitRate())
		if found != eq && !stats.Truncated {
			fmt.Fprintln(stdout, "WARNING: search disagrees with the canonical-form test")
		}
	}

	if !eq {
		return 1
	}
	return 0
}

// verifyUserPair checks a user-supplied (α, β) pair: validity of both
// mappings and β∘α = id, all decided symbolically.
func verifyUserPair(s1, s2 *keyedeq.Schema, alphaFile, betaFile string, stdout, stderr io.Writer) int {
	fail := cli.Fail(stderr, "sqeq")
	aText, err := os.ReadFile(alphaFile)
	if err != nil {
		return fail(err)
	}
	bText, err := os.ReadFile(betaFile)
	if err != nil {
		return fail(err)
	}
	alpha, err := keyedeq.ParseMapping(s1, s2, string(aText))
	if err != nil {
		return fail(fmt.Errorf("alpha: %v", err))
	}
	beta, err := keyedeq.ParseMapping(s2, s1, string(bText))
	if err != nil {
		return fail(fmt.Errorf("beta: %v", err))
	}
	ok, err := keyedeq.VerifyDominance(alpha, beta)
	if err != nil {
		return fail(err)
	}
	fmt.Fprintf(stdout, "user-supplied pair establishes S1 ≼ S2 (valid + β∘α = id): %v\n", ok)
	if !ok {
		return 1
	}
	return 0
}

func loadSchema(fs *flag.FlagSet, inline string, arg int) (*keyedeq.Schema, error) {
	if inline != "" {
		return cli.Schema(inline)
	}
	if fs.NArg() <= arg {
		return nil, fmt.Errorf("need two schemas (files or -e/-e2); see -h")
	}
	return cli.SchemaFile(fs.Arg(arg))
}
