// Command perfbench is the repository's end-to-end record→replay benchmark.
//
// One run executes a named workload in repeated rounds for a fixed time.
// Each round runs the application four times on 4 in-process ranks: a
// plain run, cdc.Record, an offline scan of the stored record
// (cdc.OpenRankRecord on every rank) and cdc.Replay. Every operation is
// checked — the replay must deliver the recorded messages in the recorded
// order and reproduce the application's order-sensitive result bit for bit
// — and a round with a failed operation contributes no timings. Reported
// figures are medians over the rounds.
//
// With -trace 1 every other round is traced: the benchmark times the
// calls into each layer from its own wrappers (a simmpi.MPI shim, a
// store.Store decorator and offline re-runs of single layers) and reports
// per-layer figures and a wall-time budget instead of the end-to-end
// metrics. See README.md.
//
//	go run . -workload mcb -seed 1 -seconds 20 -trace 0
//
// The last line of standard output is one JSON object:
// {"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/debug"
	"strings"
	"syscall"
	"time"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// setupReps is how many times a run sets up, so setup_s is a median.
const setupReps = 9

// setupScale is the problem size of the warm-up round each set-up runs.
const setupScale = 0.25

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run: mcb, exchange or halo-durable")
	seed := fs.Int64("seed", 1, "seed the workload inputs derive from")
	seconds := fs.Float64("seconds", 10, "how long to measure, in seconds")
	trace := fs.Int("trace", 0, "1 reports per-layer metrics from traced rounds, 0 the end-to-end metrics")
	scale := fs.Float64("scale", 1, "problem-size multiplier (tests use small values)")
	workdir := fs.String("workdir", ".bench_build", "directory for on-disk records, created if absent and cleaned up")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	wl := lookup(*name)
	switch {
	case wl == nil:
		fmt.Fprintf(stderr, "perfbench: unknown workload %q\n", *name)
		return 2
	case *trace != 0 && *trace != 1:
		fmt.Fprintf(stderr, "perfbench: -trace must be 0 or 1, got %d\n", *trace)
		return 2
	case *seconds <= 0 || *scale <= 0:
		fmt.Fprintln(stderr, "perfbench: -seconds and -scale must be positive")
		return 2
	}
	if err := os.MkdirAll(*workdir, 0o755); err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	dir, err := os.MkdirTemp(*workdir, "perfbench-")
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	defer os.RemoveAll(dir)

	b := &bench{wl: wl, seed: *seed, dir: dir, log: stderr}
	printEnv(stdout, b, *trace == 1)
	res := b.run(time.Duration(*seconds*float64(time.Second)), *trace == 1, *scale)
	if res == nil {
		fmt.Fprintln(stderr, "perfbench: no round completed without a failed operation")
		return 1
	}
	for _, m := range res.Metrics() {
		fmt.Fprintf(stdout, "%-36s %16.6g %s\n", m.name, m.value, m.unit)
	}
	out, err := json.Marshal(result{
		Correct:   b.failed == 0,
		Attempted: b.attempted,
		Failed:    b.failed,
		Metrics:   res.JSON(),
	})
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, string(out))
	return 0
}

type result struct {
	Correct   bool                  `json:"correct"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	Metrics   map[string]metricJSON `json:"metrics"`
}

type metricJSON struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// printEnv writes the environment block: one line starting "env ".
func printEnv(w io.Writer, b *bench, trace bool) {
	env := map[string]any{
		"workload":   b.wl.name,
		"seed":       b.seed,
		"trace":      trace,
		"ranks":      ranks,
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"nproc":      runtime.NumCPU(),
		"go":         runtime.Version(),
		"cpu":        cpuModel(),
		"commit":     commit(),
	}
	out, err := json.Marshal(env)
	if err != nil {
		return
	}
	fmt.Fprintf(w, "env %s\n", out)
}

func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	for _, line := range strings.Split(string(data), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return runtime.GOARCH
}

// commit is the source revision the binary was built from, when the build
// recorded one (builds outside a git checkout do not).
func commit() string {
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				return s.Value
			}
		}
	}
	return "unknown"
}

// meter is what one measured operation cost the process.
type meter struct {
	start   time.Time
	wall    time.Duration
	cpu     time.Duration
	alloc   uint64
	mallocs uint64
}

// measure runs f from a collected heap and reports its wall time, the
// process's user+system CPU time and its allocations.
func measure(f func() error) (meter, error) {
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	c0 := cpuTime()
	t0 := now()
	err := f()
	m := meter{start: t0, wall: now().Sub(t0)}
	m.cpu = cpuTime() - c0
	runtime.ReadMemStats(&m1)
	m.alloc = m1.TotalAlloc - m0.TotalAlloc
	m.mallocs = m1.Mallocs - m0.Mallocs
	return m, err
}

func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// bench is one benchmark run.
type bench struct {
	wl      *workload
	seed    int64
	appSeed int64
	dir     string
	log     io.Writer

	attempted, failed int
	rounds            int
}

// check counts one attempted operation and whether it failed.
func (b *bench) check(op string, err error) bool {
	b.attempted++
	if err != nil {
		b.failed++
		fmt.Fprintf(b.log, "perfbench: %s round %d: %s failed: %v\n", b.wl.name, b.rounds, op, err)
		return false
	}
	return true
}

// run sets up setupReps times, then measures rounds until d has passed
// (alternating untraced and traced rounds when trace is set, with at
// least one of each). It returns nil when no round succeeded.
func (b *bench) run(d time.Duration, trace bool, scale float64) *report {
	rep := &report{trace: trace}
	for i := 0; i < setupReps; i++ {
		w := watchSteal()
		b.round(false, scale*setupScale, 0)
		rep.setup.add(map[string]float64{"setup_s": w.elapsed().Seconds(), stealKey: w.share()})
	}
	minRounds := 1
	if trace {
		minRounds = 2
	}
	deadline := now().Add(d)
	for k := 0; k < minRounds || now().Before(deadline); k++ {
		traced := trace && k%2 == 1
		switch r := b.round(traced, scale, scanSpan); {
		case r == nil:
		case traced:
			rep.traced.add(r)
		default:
			rep.untraced.add(r)
		}
	}
	fmt.Fprintf(b.log, "perfbench: %s: %d untraced and %d traced rounds, %d and %d calm\n", b.wl.name,
		len(rep.untraced.rounds), len(rep.traced.rounds), len(rep.untraced.calm()), len(rep.traced.calm()))
	if len(rep.untraced.rounds) == 0 || (trace && len(rep.traced.rounds) == 0) {
		return nil
	}
	rep.rss = peakRSSMB()
	return rep
}
