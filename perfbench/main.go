// Command perfbench is the repository's benchmark. It runs one seeded
// workload against the program's exported functions, checks every output,
// and prints one JSON result object as the last line of standard output.
//
//	bash perfbench/run.sh --workload plan --seed 1 --seconds 20 --trace 0
//
// With --trace 0 it prints the end-to-end metrics, measured with no
// telemetry attached. With --trace 1 it prints the per-layer metrics: half
// the time runs untraced under a CPU profile (for the per-module CPU
// shares and the untraced throughput), half runs traced with spans around
// every layer call and obs collectors attached, and probes then time
// single layers at the workload's shapes. See README.md in this directory.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"runtime/pprof"
	"slices"
	"sort"
	"strconv"
	"strings"
	"time"
)

// setupReps is how many times a run sets its workload up; setup_s is the
// median, and the last instance is the one measured.
const setupReps = 5

// procs is the benchmark's thread budget: every workload keeps at most
// this many threads busy, whatever the host's CPU count.
const procs = 2

// errIncorrect marks a failed output check: the run still measures and
// reports, but with correct = false.
var errIncorrect = errors.New("incorrect output")

// metric is one printed value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the object printed as the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// env locates the checkout and the benchmark's output directory.
type env struct {
	root string // checkout root (holds docs_results_reference.txt)
	out  string // directory for profiles and span dumps
}

// instance is one workload's prepared state. Inputs live in slots so a
// whole batch is built before any of it is timed.
type instance interface {
	// prepare builds input i into slot (untimed).
	prepare(slot, i int)
	// run performs the operation on slot (timed). An error is a failed
	// operation; a correct answer that the model marks divergent is not.
	run(slot int) error
	// check verifies slot's output after a successful run (untimed).
	check(slot int) error
	// traced performs the traced form of the operation on slot.
	traced(slot int, tr *tracer) error
	// layers returns the per-layer metrics after the traced phase, running
	// the workload's layer probes.
	layers(tr *tracer) (map[string]metric, error)
}

// workload describes one benchmark workload.
type workload struct {
	name string
	// tail is the percentile reported as op_tail_ms, and minOps the op
	// count at which that percentile has at least ten samples beyond it;
	// a run continues past its time budget until it has minOps ops.
	// Higher percentiles than tail have ten samples beyond them in a
	// full-length run, but host interference dominates them (see
	// workloads.json).
	tail   float64
	minOps int
	// exactOps is how many traced ops the exact per-layer counts average
	// over, so they are pure functions of the seed.
	exactOps int
	// batch is how many inputs are prepared ahead of timing.
	batch int
	// opSpan names the span whose duration is the traced form of one
	// untraced operation (for trace.overhead_share).
	opSpan string
	setup  func(e env, seed uint64) (inst instance, checkErr, err error)
}

var workloads = []workload{planWorkload, gridWorkload, realrunWorkload}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

func main() {
	os.Exit(mainErr(os.Args[1:], os.Stdout, os.Stderr))
}

func mainErr(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: plan, grid or realrun")
	seed := fs.Uint64("seed", defaultSeed, "input seed")
	seconds := fs.Int("seconds", 20, "measured seconds")
	trace := fs.Int("trace", 0, "1 prints per-layer metrics from a traced run")
	root := fs.String("root", ".", "checkout root")
	out := fs.String("out", "perfbench/.out", "directory for profiles and span dumps")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, ok := findWorkload(*name)
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(stderr, "perfbench: bad arguments: workload %q, seconds %d, trace %d\n", *name, *seconds, *trace)
		return 2
	}
	runtime.GOMAXPROCS(procs)
	e := env{root: *root, out: *out}
	budget := time.Duration(*seconds) * time.Second
	var res result
	var err error
	if *trace == 1 {
		res, err = tracedRun(w, e, *seed, budget)
	} else {
		res, err = endToEnd(w, e, *seed, budget)
	}
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	return 0
}

// setupMedian sets the workload up setupReps times and returns the last
// instance with the median set-up time.
func setupMedian(w workload, e env, seed uint64) (instance, float64, error, error) {
	times := make([]float64, setupReps)
	var inst instance
	var checkErr error
	for k := range times {
		runtime.GC()
		t0 := time.Now()
		var err error
		inst, checkErr, err = w.setup(e, seed)
		times[k] = time.Since(t0).Seconds()
		if err != nil {
			return nil, 0, nil, fmt.Errorf("%s setup: %w", w.name, err)
		}
	}
	return inst, median(times), checkErr, nil
}

// endToEnd is the untraced run: set-up, then a closed loop for budget.
func endToEnd(w workload, e env, seed uint64, budget time.Duration) (result, error) {
	inst, setupS, checkErr, err := setupMedian(w, e, seed)
	if err != nil {
		return result{}, err
	}
	st := measure(inst, w.batch, 0, budget, w.minOps, inst.run)
	if st.checkErr != nil && checkErr == nil {
		checkErr = st.checkErr
	}
	if checkErr != nil {
		fmt.Fprintln(os.Stderr, "perfbench: check failed:", checkErr)
	}
	if len(st.lat) == 0 {
		return result{}, fmt.Errorf("%s: no operation completed", w.name)
	}
	rss, err := peakRSSMB()
	if err != nil {
		return result{}, err
	}
	return result{
		Correct:   checkErr == nil,
		Attempted: st.attempted,
		Failed:    st.failed,
		Metrics:   endToEndMetrics(st, w.tail, setupS, rss),
	}, nil
}

// endToEndMetrics are the metrics of an untraced run.
func endToEndMetrics(st loopStats, tail, setupS, rssMB float64) map[string]metric {
	return map[string]metric{
		"ops_per_s":     {float64(len(st.lat)) / st.busy.Seconds(), "1/s"},
		"op_p50_ms":     {percentile(st.lat, 50) * 1e3, "ms"},
		"op_tail_ms":    {percentile(st.lat, tail) * 1e3, "ms"},
		"allocs_per_op": {float64(st.mallocs) / float64(st.attempted), "count"},
		"peak_rss_mb":   {rssMB, "MB"},
		"setup_s":       {setupS, "s"},
	}
}

// loopStats is what one closed loop measured.
type loopStats struct {
	lat       []float64 // seconds per completed operation
	busy      time.Duration
	mallocs   uint64 // heap allocations inside the timed operations
	attempted int
	failed    int
	checkErr  error // first failed output check
}

// measure runs a closed loop of op over inputs first, first+1, ... until
// the timed operations have taken budget and at least minOps completed.
// Inputs are prepared and outputs checked a batch at a time, outside both
// the timing and the allocation count.
func measure(inst instance, batch, first int, budget time.Duration, minOps int, op func(slot int) error) loopStats {
	var st loopStats
	ok := make([]bool, batch)
	next := first
	for st.busy < budget || len(st.lat) < minOps {
		untimed(func() {
			for s := 0; s < batch; s++ {
				inst.prepare(s, next+s)
			}
		})
		st.lat = slices.Grow(st.lat, batch)
		m0 := mallocs()
		done := 0
		for done < batch && (st.busy < budget || len(st.lat) < minOps) {
			t0 := time.Now()
			err := op(done)
			dt := time.Since(t0)
			st.busy += dt
			st.attempted++
			ok[done] = err == nil
			if err != nil {
				st.failed++
				fmt.Fprintf(os.Stderr, "perfbench: op %d failed: %v\n", next+done, err)
			} else {
				st.lat = append(st.lat, dt.Seconds())
			}
			done++
		}
		st.mallocs += mallocs() - m0
		untimed(func() {
			for s := 0; s < done; s++ {
				if !ok[s] {
					continue
				}
				if err := inst.check(s); err != nil && st.checkErr == nil {
					st.checkErr = fmt.Errorf("op %d: %w", next+s, err)
				}
			}
		})
		next += done
	}
	return st
}

// untimed runs fn under the profiler label untimedLabel, so the CPU
// profile of a traced run can leave out input preparation and output
// checks (and the goroutines they start).
func untimed(fn func()) {
	pprof.Do(context.Background(), pprof.Labels(untimedLabel[0], untimedLabel[1]), func(context.Context) { fn() })
}

var untimedLabel = [2]string{"perfbench", "untimed"}

func mallocs() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs
}

// percentile returns the p-th percentile (0 < p ≤ 100) of xs by the
// nearest-rank rule.
func percentile(xs []float64, p float64) float64 {
	s := slices.Clone(xs)
	sort.Float64s(s)
	k := int(math.Ceil(float64(len(s))*p/100)) - 1
	return s[min(max(k, 0), len(s)-1)]
}

func median(xs []float64) float64 {
	s := slices.Clone(xs)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// peakRSSMB returns the process's peak resident set (VmHWM) in MiB.
func peakRSSMB() (float64, error) {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("VmHWM %q: %w", rest, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, errors.New("no VmHWM in /proc/self/status")
}
