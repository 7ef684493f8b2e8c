// Command experiments regenerates the paper's tables and figures.
//
// Usage:
//
//	experiments [-runs N] [-quick] [-workers N] [-no-progress] <id>...
//	experiments -metrics-out m.json -trace-out t.json all
//
// IDs: fig1 fig2 fig3 fig4 tab2 fig5 tab3 fig6 fig7 tab4 conv ablate sens,
// plus chaos (the fault-injection grid of docs/FAULTS.md) and attrib (the
// waste-attribution breakdown of docs/OBSERVABILITY.md) — both excluded
// from "all" so the golden regression output never depends on them.
// -quick shrinks run counts and scales for a fast smoke pass; the default
// settings reproduce the paper's configuration (100-run means).
//
// -replay FILE is a standalone mode: it reads a recorded failure trace
// (the versioned JSONL format of internal/failure.WriteTrace), replays it
// deterministically through the simulator, and prints the run.
//
// The heavy experiments fan out across the internal/sweep worker pool.
// -workers bounds the pool (0 = all CPUs); results are bit-identical for
// every setting. All experiments in one invocation share a memoization
// cache, so e.g. "experiments fig5 tab3 fig7" pays for the te=3m
// evaluation sweep once.
//
// Observability (all off by default; see docs/OBSERVABILITY.md):
//
//	-metrics-out FILE  write a JSON metrics snapshot (solver convergence,
//	                   simulator event counts, cache effectiveness)
//	-trace-out FILE    write a Chrome trace-event timeline on virtual time,
//	                   byte-identical for every -workers setting
//	-pprof TARGET      addr ("localhost:6060") serves net/http/pprof;
//	                   anything else is a directory for cpu/heap profiles
//
// A failing experiment no longer aborts the invocation: the remaining ids
// still run, a summary lists the failures, and the exit status is 1.
// Telemetry artifacts are withheld when any experiment failed, so a file
// at -metrics-out/-trace-out always describes a complete run.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"time"

	"mlckpt/internal/cli"
	"mlckpt/internal/experiments"
	"mlckpt/internal/failure"
	"mlckpt/internal/obs"
	"mlckpt/internal/sweep"
)

// figStat is one experiment's host-side cost: wall-clock time and heap
// allocation count around its runExperiment call. Both are volatile
// (machine- and scheduling-dependent), so they go to stderr and to
// volatile counters — never into the deterministic stdout the golden
// regression pins.
type figStat struct {
	id     string
	wall   time.Duration
	allocs uint64
	failed bool
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is main behind testable seams — explicit args, explicit writers, an
// exit code instead of os.Exit — so the CLI contract is pinned by
// in-process tests (main_test.go).
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("experiments", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		runs       = fs.Int("runs", 0, "override simulation repetitions (0 = paper default)")
		quick      = fs.Bool("quick", false, "fast smoke settings")
		workers    = fs.Int("workers", 0, "sweep worker pool size (0 = all CPUs)")
		noProgress = fs.Bool("no-progress", false, "suppress progress reporting on stderr")
		metricsOut = fs.String("metrics-out", "", "write a JSON metrics snapshot to this file")
		traceOut   = fs.String("trace-out", "", "write a Chrome trace-event JSON timeline to this file")
		pprofFlag  = fs.String("pprof", "", "serve net/http/pprof on addr (host:port) or write cpu/heap profiles to a directory")
		replayFile = fs.String("replay", "", "replay a recorded failure trace (failure JSONL, docs/FAULTS.md) and exit")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	fail := func(format string, a ...any) int {
		fmt.Fprintf(stderr, "experiments: "+format+"\n", a...)
		return 1
	}
	if *replayFile != "" {
		f, err := os.Open(*replayFile)
		if err != nil {
			return fail("-replay: %v", err)
		}
		trace, err := failure.ReadTrace(f)
		f.Close()
		if err != nil {
			return fail("-replay %s: %v", *replayFile, err)
		}
		r, err := experiments.Replay(trace)
		if err != nil {
			return fail("-replay %s: %v", *replayFile, err)
		}
		fmt.Fprintln(stdout, r.Render())
		return 0
	}
	ids := fs.Args()
	if len(ids) == 0 {
		fs.Usage()
		fmt.Fprintln(stderr, "ids: fig1 fig2 fig3 fig4 tab2 fig5 tab3 fig6 fig7 tab4 conv ablate sens chaos attrib all")
		return 2
	}
	if len(ids) == 1 && ids[0] == "all" {
		ids = []string{"fig1", "fig2", "fig3", "fig4", "tab2", "fig5", "tab3", "fig6", "fig7", "tab4", "conv", "ablate", "sens"}
	}
	simRuns := *runs
	if *quick && simRuns == 0 {
		simRuns = 10
	}

	if *pprofFlag != "" {
		stop, err := cli.StartPprof(*pprofFlag)
		if err != nil {
			return fail("-pprof %s: %v", *pprofFlag, err)
		}
		defer stop()
	}

	// One collector and one cache for the whole invocation: fig5/tab3/
	// fig6/fig7 share their evaluation cells, and repeated ids are free
	// reruns. The collector's deterministic sections depend only on the id
	// list, never on -workers.
	collector := obs.NewCollector()
	cache := sweep.NewCache()

	grid := func(id string) experiments.Grid {
		g := experiments.Grid{
			Workers: *workers,
			Cache:   cache,
			Obs:     collector,
			Clock:   obs.WallClock,
		}
		if !*noProgress {
			g.Progress = cli.Progress(os.Stderr, id)
		}
		return g
	}

	var failures []string
	stats := make([]figStat, 0, len(ids))
	var ms runtime.MemStats
	for _, id := range ids {
		runtime.ReadMemStats(&ms)
		allocs0 := ms.Mallocs
		start := time.Now()
		out, err := runExperiment(id, simRuns, *quick, grid)
		wall := time.Since(start)
		runtime.ReadMemStats(&ms)
		st := figStat{id: id, wall: wall, allocs: ms.Mallocs - allocs0, failed: err != nil}
		stats = append(stats, st)
		collector.CountVolatile("experiments."+id+".wall_ms", wall.Milliseconds())
		collector.CountVolatile("experiments."+id+".allocs", int64(st.allocs))
		if err != nil {
			failures = append(failures, id)
			fmt.Fprintf(stderr, "experiments: %s: %v\n", id, err)
			continue
		}
		fmt.Fprintln(stdout, out)
	}

	// Fold the cache's own view into the registry: hits/misses are pure
	// functions of the job set (deterministic); how many of the hits
	// coalesced onto in-flight computations is scheduling (volatile).
	hits, misses := cache.Stats()
	collector.Count("sweep.cache.hits", int64(hits))
	collector.Count("sweep.cache.misses", int64(misses))
	collector.CountVolatile("sweep.cache.coalesced", int64(cache.Coalesced()))

	if !*noProgress {
		printSummary(stderr, collector, stats, len(ids)-len(failures), len(failures))
	}
	if len(failures) == 0 {
		if *metricsOut != "" {
			if err := cli.WriteMetrics(collector.Registry, *metricsOut); err != nil {
				return fail("-metrics-out %s: %v", *metricsOut, err)
			}
		}
		if *traceOut != "" {
			if err := cli.WriteTrace(collector.Trace, *traceOut); err != nil {
				return fail("-trace-out %s: %v", *traceOut, err)
			}
		}
		return 0
	}
	fmt.Fprintf(stderr, "experiments: %d of %d experiments failed: %v\n", len(failures), len(ids), failures)
	if *metricsOut != "" || *traceOut != "" {
		fmt.Fprintln(stderr, "experiments: telemetry artifacts withheld (incomplete run)")
	}
	return 1
}

// runExperiment renders one experiment id. Errors — including unknown ids
// — return to the caller so one bad id cannot abort the rest of the list.
func runExperiment(id string, simRuns int, quick bool, grid func(string) experiments.Grid) (string, error) {
	switch id {
	case "fig1":
		return experiments.Fig1(50).Render(), nil
	case "fig2":
		maxScale := 1024
		if quick {
			maxScale = 64
		}
		r, err := experiments.Fig2Grid(maxScale, grid(id))
		if err != nil {
			return "", err
		}
		return r.Render(), nil
	case "fig3":
		r, err := experiments.Fig3(9)
		if err != nil {
			return "", err
		}
		return r.Render(), nil
	case "fig4":
		ranks, real, sims := 32, 10, 400
		if quick {
			ranks, real, sims = 16, 3, 100
		}
		r, err := experiments.Fig4Grid(ranks, real, sims, grid(id))
		if err != nil {
			return "", err
		}
		return r.Render(), nil
	case "tab2":
		scales := []int{128, 256, 384, 512, 1024}
		if quick {
			scales = []int{128, 256, 512}
		}
		r, err := experiments.Tab2Grid(scales, grid(id))
		if err != nil {
			return "", err
		}
		return r.Render(), nil
	case "fig5":
		r, err := experiments.EvalGrid(3e6, simRuns, nil, grid(id))
		if err != nil {
			return "", err
		}
		return r.Render(), nil
	case "tab3":
		r, err := experiments.EvalGrid(3e6, simRuns, nil, grid(id))
		if err != nil {
			return "", err
		}
		return r.RenderTab3(), nil
	case "fig6":
		r, err := experiments.EvalGrid(10e6, simRuns, nil, grid(id))
		if err != nil {
			return "", err
		}
		return r.Render(), nil
	case "fig7":
		r3, err := experiments.EvalGrid(3e6, simRuns, nil, grid(id))
		if err != nil {
			return "", err
		}
		r10, err := experiments.EvalGrid(10e6, simRuns, nil, grid(id))
		if err != nil {
			return "", err
		}
		return r3.RenderFig7() + r10.RenderFig7(), nil
	case "tab4":
		r, err := experiments.Tab4Grid(simRuns, nil, grid(id))
		if err != nil {
			return "", err
		}
		return r.Render(), nil
	case "conv":
		r, err := experiments.ConvergenceGrid(nil, grid(id))
		if err != nil {
			return "", err
		}
		return r.Render(), nil
	case "ablate":
		r, err := experiments.Ablate("16-12-8-4", simRuns)
		if err != nil {
			return "", err
		}
		return r.Render(), nil
	case "sens":
		r, err := experiments.Sensitivity("16-12-8-4")
		if err != nil {
			return "", err
		}
		return r.Render(), nil
	case "attrib":
		// Not part of "all": the waste-attribution breakdown validates the
		// observability pipeline (docs/OBSERVABILITY.md) against Formula 21,
		// and the golden regression output must not depend on it.
		r, err := experiments.AttribGrid(3e6, quick, grid(id))
		if err != nil {
			return "", err
		}
		return r.Render(), nil
	case "chaos":
		// Not part of "all": the chaos grid validates the fault-injection
		// harness (docs/FAULTS.md), not a paper table, and the golden
		// regression output must not depend on it.
		r, err := experiments.ChaosGrid(16, grid(id))
		if err != nil {
			return "", err
		}
		return r.Render(), nil
	default:
		return "", fmt.Errorf("unknown experiment id %q", id)
	}
}

// printSummary replaces the old ad-hoc cache-stats line with a digest of
// the registry snapshot plus a per-experiment cost table (wall-clock and
// heap allocations, both host-side and volatile — they describe this run
// of this machine, not the reproduced results).
func printSummary(w io.Writer, c *obs.Collector, stats []figStat, succeeded, failed int) {
	for _, st := range stats {
		status := ""
		if st.failed {
			status = "  (failed)"
		}
		fmt.Fprintf(w, "experiments: %-7s %8.2fs  %12d allocs%s\n",
			st.id, st.wall.Seconds(), st.allocs, status)
	}
	snap := c.Registry.Snapshot()
	count := func(name string) int64 {
		v, _ := snap.Counter(name)
		return v
	}
	fmt.Fprintf(w,
		"experiments: %d ok, %d failed | sweep: %d jobs, cache %d hits / %d misses | solver: %d solves (%d converged) | sim: %d runs, %d failures injected | trace: %d events\n",
		succeeded, failed,
		count("sweep.jobs"),
		count("sweep.cache.hits"), count("sweep.cache.misses"),
		count("core.optimize.solves"), count("core.optimize.converged"),
		count("sim.runs"), count("sim.failures"),
		c.Trace.Len())
}
