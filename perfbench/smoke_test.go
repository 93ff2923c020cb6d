package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"strings"
	"testing"
)

// benchmarkSpec is the part of BENCHMARK.json the smoke test checks
// against.
type benchmarkSpec struct {
	Workloads []struct{ Name string } `json:"workloads"`
	EndToEnd  []struct {
		Name, Unit string
	} `json:"end_to_end"`
	PerLayer []struct {
		Name, Unit string
	} `json:"per_layer"`
}

func loadSpec(t *testing.T) benchmarkSpec {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	return spec
}

// smoke runs the benchmark command at tiny scale and returns its env
// block and result line.
func smoke(t *testing.T, args ...string) (map[string]any, result) {
	t.Helper()
	var stdout, stderr bytes.Buffer
	args = append(args, "--seconds", "0.05", "--scale", "0.02", "--workdir", t.TempDir())
	if code := run(args, &stdout, &stderr); code != 0 {
		t.Fatalf("%v: exit %d\n%s", args, code, stderr.String())
	}
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	var env map[string]any
	if err := json.Unmarshal([]byte(strings.TrimPrefix(lines[0], "env ")), &env); err != nil {
		t.Fatalf("env line %q: %v", lines[0], err)
	}
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("result line: %v", err)
	}
	return env, res
}

// TestSmoke runs every workload of BENCHMARK.json untraced and traced at
// tiny scale: every named metric must be emitted with its unit, the
// correctness gate must pass, and the seed argument must reach the run.
func TestSmoke(t *testing.T) {
	spec := loadSpec(t)
	if len(spec.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json names %d workloads, the benchmark runs %d", len(spec.Workloads), len(workloads))
	}
	for _, w := range spec.Workloads {
		for trace, defs := range [][]struct{ Name, Unit string }{spec.EndToEnd, spec.PerLayer} {
			t.Run(fmt.Sprintf("%s/trace=%d", w.Name, trace), func(t *testing.T) {
				env, res := smoke(t, "--workload", w.Name, "--seed", "17", "--trace", fmt.Sprint(trace))
				if env["seed"] != 17.0 || env["workload"] != w.Name {
					t.Errorf("env block %v does not carry the arguments", env)
				}
				for _, k := range []string{"gomaxprocs", "nproc", "go", "cpu", "commit"} {
					if _, ok := env[k]; !ok {
						t.Errorf("env block lacks %q", k)
					}
				}
				if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
					t.Errorf("correctness gate: correct=%v attempted=%d failed=%d", res.Correct, res.Attempted, res.Failed)
				}
				if len(res.Metrics) != len(defs) {
					t.Errorf("%d metrics emitted, BENCHMARK.json names %d", len(res.Metrics), len(defs))
				}
				for _, d := range defs {
					if got, ok := res.Metrics[d.Name]; !ok || got.Unit != d.Unit {
						t.Errorf("metric %s: got %+v (present %v), want unit %q", d.Name, got, ok, d.Unit)
					}
				}
				for _, suffix := range []string{".p50", ".p99"} {
					for name, m := range res.Metrics {
						if strings.HasSuffix(name, suffix) && !(m.Value > 0) {
							t.Errorf("%s = %v", name, m.Value)
						}
					}
				}
			})
		}
	}
}

// TestSeedDeterminesInputs checks that the same seed gives the same
// inputs and another seed other inputs: Exchange's per-rank send and
// receive counts are a function of its seed alone.
func TestSeedDeterminesInputs(t *testing.T) {
	counts := func(seed int64) [ranks]uint64 {
		b := &bench{wl: lookup("exchange"), seed: seed}
		b.appSeed = b.seed << 20
		s := &session{}
		if err := newWorld(seed, nil).RunRanked(s.app(b, 0.05, false, false)); err != nil {
			t.Fatal(err)
		}
		var out [ranks]uint64
		for r, rr := range s.ranks {
			out[r] = rr.res.digest
		}
		return out
	}
	a, again, other := counts(5), counts(5), counts(6)
	if a != again {
		t.Errorf("seed 5 gave different inputs twice: %v, %v", a, again)
	}
	if a == other {
		t.Errorf("seeds 5 and 6 gave the same inputs %v", a)
	}
}
