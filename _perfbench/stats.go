package main

import (
	"fmt"
	"math"
	"sort"
	"syscall"
	"time"
)

// percentile returns the nearest-rank p-quantile (0 < p ≤ 1) of xs:
// the smallest sample with at least p·n samples at or below it.  xs is
// sorted in place; an empty slice gives 0.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	i := int(math.Ceil(p*float64(len(xs)))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(xs) {
		i = len(xs) - 1
	}
	return xs[i]
}

// median is percentile(xs, 0.5).
func median(xs []float64) float64 { return percentile(xs, 0.5) }

// ratio returns num/den, or 0 when den is 0: a share or rate of nothing
// is reported as zero rather than NaN, which JSON cannot carry.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// counts are the pair counters one run reconciles: the program's own
// (registry deltas or engine reports) against the benchmark's tallies.
type counts struct {
	pairs, hits, computed, deduped, errors int64
}

// reconcile checks the program's pair counters against the number of
// decisions the benchmark made: the pair total must equal it, and every
// pair must be exactly one of hit, computed, deduped or error.
func reconcile(what string, decided int64, c counts) []string {
	var out []string
	if c.pairs != decided {
		out = append(out, fmt.Sprintf("%s: keyedeq_pairs_total moved by %d, benchmark made %d decisions", what, c.pairs, decided))
	}
	if sum := c.hits + c.computed + c.deduped + c.errors; sum != c.pairs {
		out = append(out, fmt.Sprintf("%s: hits %d + computed %d + deduped %d + errors %d = %d, pairs %d",
			what, c.hits, c.computed, c.deduped, c.errors, sum, c.pairs))
	}
	return out
}

// cpuTime returns the process's user+system CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}
