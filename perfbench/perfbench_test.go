package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"sort"
	"testing"
	"time"

	"mlckpt/internal/lint"
)

// benchmarkJSON is the subset of ../BENCHMARK.json the tests read.
type benchmarkJSON struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func readBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkJSON
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	return b
}

func testEnv(t *testing.T) env {
	return env{root: "..", out: t.TempDir()}
}

// TestGeneratorsArePureInTheSeed: every input is a function of (seed,
// index) alone, and another seed changes it.
func TestGeneratorsArePureInTheSeed(t *testing.T) {
	for _, i := range []int{0, 1, 7, tracedFirst + 3, warmFirst} {
		gens := map[string]func(seed uint64) string{
			"plan": func(seed uint64) string { return fmt.Sprintf("%+v", planSpec(seed, i)) },
			"grid": func(seed uint64) string { return fmt.Sprintf("%+v", gridCells(seed, i)) },
			"realrun": func(seed uint64) string {
				c := realConfig(seed, i)
				return fmt.Sprintf("%d %d %v", c.Seed, c.Inject.Seed(), c.Intervals)
			},
		}
		for name, gen := range gens {
			if a, b := gen(1), gen(1); a != b {
				t.Errorf("%s input %d differs between two calls with seed 1", name, i)
			}
			if a, b := gen(1), gen(2); a == b {
				t.Errorf("%s input %d is the same for seeds 1 and 2", name, i)
			}
		}
	}
}

// TestStrataCycle: input i of every workload lies in stratum i mod the
// stratum count, so any run covers the strata in equal proportions.
func TestStrataCycle(t *testing.T) {
	for _, seed := range []uint64{1, 99} {
		for i := 0; i < 64; i++ {
			spec := planSpec(seed, i)
			s := i % planStrata
			r4lo, r4hi := band(0.5, 8, s%4, 4)
			telo, tehi := band(1e6, 10e6, s/4, 2)
			r4 := spec.FailuresPerDay[3]
			if r4 < r4lo || r4 >= r4hi || spec.TeCoreDays < telo || spec.TeCoreDays >= tehi {
				t.Errorf("plan input %d: r4 %g, Te %g outside stratum %d", i, r4, spec.TeCoreDays, s)
			}
			lo, hi := band(gridTeLo, gridTeHi, i%gridStrata, gridStrata)
			if te := gridCells(seed, i)[0].Scenario.TeCoreDays; te < lo || te >= hi {
				t.Errorf("grid input %d: Te %g outside stratum %d", i, te, i%gridStrata)
			}
			if got, want := realConfig(seed, i).Intervals, fig4Intervals[i%len(fig4Intervals)]; got != want {
				t.Errorf("realrun input %d: intervals %v, want %v", i, got, want)
			}
		}
	}
}

// TestMetricNamesMatchBenchmarkJSON: the names and units the benchmark
// can print are exactly those BENCHMARK.json declares.
func TestMetricNamesMatchBenchmarkJSON(t *testing.T) {
	b := readBenchmarkJSON(t)
	var declared, printed []string
	for _, m := range b.EndToEnd {
		declared = append(declared, m.Name+" "+m.Unit)
	}
	for name, m := range endToEndMetrics(loopStats{lat: []float64{1}, busy: time.Second, attempted: 1}, 50, 1, 1) {
		printed = append(printed, name+" "+m.Unit)
	}
	sort.Strings(declared)
	sort.Strings(printed)
	if !slices.Equal(declared, printed) {
		t.Errorf("end_to_end: BENCHMARK.json %v, printed %v", declared, printed)
	}
	declared, printed = nil, nil
	for _, m := range b.PerLayer {
		declared = append(declared, m.Name+" "+m.Unit)
	}
	for _, m := range perLayer() {
		printed = append(printed, m[0]+" "+m[1])
	}
	sort.Strings(declared)
	sort.Strings(printed)
	if !slices.Equal(declared, printed) {
		t.Errorf("per_layer: BENCHMARK.json %v, printed %v", declared, printed)
	}
	var names []string
	for _, w := range b.Workloads {
		names = append(names, w.Name)
	}
	for _, w := range workloads {
		if !slices.Contains(names, w.name) {
			t.Errorf("workload %s missing from BENCHMARK.json", w.name)
		}
	}
}

// exactCounts are the per-layer counts that are pure functions of the
// seed. structural ones are fixed by the workload's shape, so they repeat
// across seeds as well.
var exactCounts = map[string][]string{
	"plan": {"core.outer_iters", "core.inner_iters", "core.bisect_iters"},
	"grid": {"core.batch_lanes", "sim.events_per_run", "sim.truncated",
		"sweep.solve_computed", "sweep.solve_hits", "sweep.post_computed"},
	"realrun": {"real.virtual_s", "real.failures", "real.from_scratch",
		"real.recoveries.l1", "real.recoveries.l2", "real.recoveries.l3", "real.recoveries.l4",
		"real.escalations", "real.pfs_retries", "real.ckpt_aborts", "real.injected_faults"},
}

var structural = []string{"core.batch_lanes", "sim.truncated", "sweep.solve_computed", "sweep.solve_hits", "sweep.post_computed"}

// TestTracedRuns runs every workload's traced run twice on one seed and
// once on another: every run prints exactly the per-layer metrics,
// checks pass, the CPU shares sum to 1, and every exact count repeats on
// the same seed and changes on the other.
func TestTracedRuns(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload's traced run three times")
	}
	want := map[string]bool{}
	for _, m := range perLayer() {
		want[m[0]] = true
	}
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			runs := make([]result, 3)
			for k, seed := range []uint64{1, 1, 2} {
				res, err := tracedRun(w, testEnv(t), seed, time.Second)
				if err != nil {
					t.Fatal(err)
				}
				if !res.Correct || res.Failed != 0 {
					t.Fatalf("seed %d: correct %v, %d of %d failed", seed, res.Correct, res.Failed, res.Attempted)
				}
				if len(res.Metrics) != len(want) {
					t.Errorf("seed %d: printed %d metrics, want %d", seed, len(res.Metrics), len(want))
				}
				for name, m := range res.Metrics {
					if !want[name] {
						t.Errorf("printed %s, which BENCHMARK.json does not declare", name)
					}
					if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
						t.Errorf("%s = %v", name, m.Value)
					}
				}
				share := 0.0
				for _, mod := range cpuModules {
					share += res.Metrics["cpu."+mod].Value
				}
				if math.Abs(share-1) > 1e-9 {
					t.Errorf("cpu shares sum to %v", share)
				}
				runs[k] = res
			}
			for _, name := range exactCounts[w.name] {
				a, b, c := runs[0].Metrics[name].Value, runs[1].Metrics[name].Value, runs[2].Metrics[name].Value
				if math.Float64bits(a) != math.Float64bits(b) {
					t.Errorf("%s: %v then %v on one seed", name, a, b)
				}
				if same := math.Float64bits(a) == math.Float64bits(c); same != slices.Contains(structural, name) {
					t.Errorf("%s: %v on seed 1, %v on seed 2", name, a, c)
				}
			}
		})
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{ID: 0, Parent: -1, Name: "op", Start: 0, End: 100},
		{ID: 1, Parent: 0, Name: "a", Start: 10, End: 40},
		{ID: 2, Parent: 0, Name: "b", Start: 30, End: 60},
		{ID: 3, Parent: 1, Name: "c", Start: 15, End: 20},
	}
	got := selfTimes(spans)
	want := map[string]float64{"op": 50e-9, "a": 25e-9, "b": 30e-9, "c": 5e-9}
	for name, v := range want {
		if math.Abs(got[name]-v) > 1e-15 {
			t.Errorf("self(%s) = %v, want %v", name, got[name], v)
		}
	}
}

func TestParseTraces(t *testing.T) {
	const text = `File: perfbench
Type: samples
-----------+-------------------------------------------------------
         3   runtime.memmove
             mlckpt/internal/enc.EncodeFloats (inline)
             mlckpt/internal/heat.(*Solver).Step
             main.main
-----------+-------------------------------------------------------
         2   runtime.gcBgMarkWorker
-----------+-------------------------------------------------------
         1   main.percentile
             main.main
-----------+-------------------------------------------------------
         4   mlckpt/internal/obs/attrib.FromTrace
-----------+-------------------------------------------------------
         5   mlckpt/internal/jacobi.Step
             mlckpt.Optimize
-----------+-------------------------------------------------------
`
	counts, total, err := parseTraces(text)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]int{"enc": 3, "runtime": 2, "bench": 1, "obs": 4, "other": 5}
	if total != 15 || fmt.Sprint(counts) != fmt.Sprint(want) {
		t.Errorf("got %v (total %d), want %v (total 15)", counts, total, want)
	}
}

// TestVetAndLint: the benchmark passes go vet and the repository's
// mlckptlint analyzers, loaded as the module-wide gate loads it.
func TestVetAndLint(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks the benchmark against the whole module")
	}
	if out, err := exec.Command("go", "vet", ".").CombinedOutput(); err != nil {
		t.Errorf("go vet: %v\n%s", err, out)
	}
	root, err := filepath.Abs("..")
	if err != nil {
		t.Fatal(err)
	}
	mod, err := lint.FindModule(root)
	if err != nil {
		t.Fatal(err)
	}
	units, err := mod.Load([]string{"perfbench"})
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range lint.Run(units, lint.Analyzers()) {
		t.Errorf("mlckptlint: %s", f)
	}
}

// TestWorkloadsJSON: workloads.json records each workload's load shape
// and tail exactly as the code runs them.
func TestWorkloadsJSON(t *testing.T) {
	data, err := os.ReadFile("workloads.json")
	if err != nil {
		t.Fatal(err)
	}
	var rec struct {
		DefaultSeed uint64 `json:"default_seed"`
		Seconds     int    `json:"seconds"`
		Threads     int    `json:"threads"`
		Workloads   []struct {
			Name     string  `json:"name"`
			Tail     float64 `json:"tail_percentile"`
			MinOps   int     `json:"min_ops"`
			ExactOps int     `json:"exact_ops"`
		} `json:"workloads"`
	}
	if err := json.Unmarshal(data, &rec); err != nil {
		t.Fatal(err)
	}
	var bench struct {
		RunSeconds int `json:"run_seconds"`
	}
	data, err = os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(data, &bench); err != nil {
		t.Fatal(err)
	}
	if rec.DefaultSeed != defaultSeed || rec.Seconds != bench.RunSeconds || rec.Threads != procs {
		t.Errorf("workloads.json seed %d, seconds %d, threads %d; code seed %d, BENCHMARK.json seconds %d, threads %d",
			rec.DefaultSeed, rec.Seconds, rec.Threads, defaultSeed, bench.RunSeconds, procs)
	}
	if len(rec.Workloads) != len(workloads) {
		t.Fatalf("workloads.json has %d workloads, code %d", len(rec.Workloads), len(workloads))
	}
	for i, w := range workloads {
		r := rec.Workloads[i]
		if r.Name != w.name || r.Tail != w.tail || r.MinOps != w.minOps || r.ExactOps != w.exactOps {
			t.Errorf("workloads.json %+v, code %s tail %v min ops %d exact ops %d", r, w.name, w.tail, w.minOps, w.exactOps)
		}
		if beyond := float64(w.minOps) * (100 - w.tail) / 100; beyond < 10 {
			t.Errorf("%s: p%v has %v samples beyond it at %d ops", w.name, w.tail, beyond, w.minOps)
		}
	}
}
