package main

import (
	"math"
	"os"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"time"
)

// median returns the middle value of xs (the mean of the two middle values
// for an even count); NaN for an empty slice.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// tailQuantile is the highest quantile, capped at q, that leaves at least
// ten samples beyond it: a percentile read from fewer tail samples than
// that is mostly the single largest value.
func tailQuantile(q float64, n int) float64 {
	if n <= 10 {
		return 0.5
	}
	if lim := 1 - 10/float64(n); lim < q {
		return math.Max(lim, 0.5)
	}
	return q
}

// percentile returns the nearest-rank q-quantile of samples, sorting them
// in place. It is always one of the samples, so never above their max.
func percentile(samples []int64, q float64) float64 {
	if len(samples) == 0 {
		return math.NaN()
	}
	slices.Sort(samples)
	i := int(math.Ceil(q*float64(len(samples)))) - 1
	i = max(0, min(i, len(samples)-1))
	return float64(samples[i])
}

// latency summarizes per-call samples as the benchmark reports them: the
// median, the tail percentile (p99, or the highest quantile with ten
// samples beyond it when there are fewer than 1000), the max and the count.
type latency struct {
	p50, tail, tailQ, max float64
	n                     int
}

func summarize(samples []int64) latency {
	if len(samples) == 0 {
		return latency{p50: math.NaN(), tail: math.NaN(), max: math.NaN()}
	}
	q := tailQuantile(0.99, len(samples))
	l := latency{p50: percentile(samples, 0.5), tail: percentile(samples, q), tailQ: q, n: len(samples)}
	l.max = float64(samples[len(samples)-1])
	return l
}

// now reads the wall clock for the benchmark's timers; every timing the
// benchmark takes goes through it.
func now() time.Time {
	return time.Now() //cdc:allow(nodetermflow) benchmark timers only measure calls; nothing the program records depends on them
}

// stolen is the CPU time the hypervisor has taken from this machine's
// CPUs since boot (the steal column of /proc/stat, in USER_HZ = 100
// ticks per second), or 0 where the kernel does not report it.
func stolen() time.Duration {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0
	}
	line, _, _ := strings.Cut(string(data), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0
	}
	ticks, err := strconv.ParseInt(f[8], 10, 64)
	if err != nil {
		return 0
	}
	return time.Duration(ticks) * 10 * time.Millisecond
}

// stealWatch measures an interval's wall time and the share of the
// machine's CPU time stolen during it.
type stealWatch struct {
	t0 time.Time
	s0 time.Duration
}

func watchSteal() stealWatch { return stealWatch{now(), stolen()} }

func (w stealWatch) elapsed() time.Duration { return now().Sub(w.t0) }

func (w stealWatch) share() float64 {
	wall := w.elapsed()
	if wall <= 0 {
		return 0
	}
	return float64(stolen()-w.s0) / (float64(wall) * float64(runtime.NumCPU()))
}
