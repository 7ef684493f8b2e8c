// Command ckptopt computes optimized multilevel checkpoint plans from a
// JSON problem specification or the paper's evaluation problem.
//
// Usage:
//
//	ckptopt -spec problem.json [-policy ml-opt-scale] [-json]
//	ckptopt -paper -te 3e6 -rates 16-12-8-4 [-policy ...] [-json]
//	ckptopt -paper -rates 16-12-8-4,8-6-4-2 -policy all -sim 100 [-workers N]
//
// With -paper, the spec is the paper's Section IV evaluation problem at
// the given workload (core-days) and failure case. Without -json the plan
// is printed as a human-readable summary.
//
// Sweep mode: -rates takes a comma-separated list of failure cases and
// -policy accepts "all"; every (case, policy) cell is solved concurrently
// through mlckpt.Sweep. -sim N additionally validates each plan with N
// stochastic simulation runs. Sweep results are independent of -workers.
//
// Observability (off by default; see docs/OBSERVABILITY.md): -metrics-out
// writes a JSON metrics snapshot, -trace-out a Chrome trace-event timeline
// on virtual time (byte-identical for every -workers setting), and -pprof
// serves net/http/pprof on an address or writes cpu/heap profiles to a
// directory. Both export flags cover the single-cell path too — a single
// ckptopt run is just a one-job sweep.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"
	"strings"

	"mlckpt"
	"mlckpt/internal/cli"
	"mlckpt/internal/obs"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("ckptopt: ")
	var (
		specPath   = flag.String("spec", "", "path to a JSON Spec")
		policy     = flag.String("policy", string(mlckpt.MLOptScale), "ml-opt-scale | sl-opt-scale | ml-ori-scale | sl-ori-scale | all")
		paper      = flag.Bool("paper", false, "use the paper's Section IV problem")
		te         = flag.Float64("te", 3e6, "workload in core-days (with -paper)")
		rates      = flag.String("rates", "16-12-8-4", "failure case(s) r1-r2-r3-r4, comma-separated (with -paper)")
		simRuns    = flag.Int("sim", 0, "validate each plan with N simulation runs (sweep mode)")
		seed       = flag.Uint64("seed", 0, "root seed for -sim (0 = default)")
		workers    = flag.Int("workers", 0, "sweep worker pool size (0 = all CPUs)")
		asJSON     = flag.Bool("json", false, "emit results as JSON")
		metricsOut = flag.String("metrics-out", "", "write a JSON metrics snapshot to this file")
		traceOut   = flag.String("trace-out", "", "write a Chrome trace-event JSON timeline to this file")
		pprofFlag  = flag.String("pprof", "", "serve net/http/pprof on addr (host:port) or write cpu/heap profiles to a directory")
	)
	flag.Parse()

	if *pprofFlag != "" {
		stop, err := cli.StartPprof(*pprofFlag)
		if err != nil {
			log.Fatalf("-pprof %s: %v", *pprofFlag, err)
		}
		defer stop()
	}
	collector := obs.NewCollector()
	writeArtifacts := func() {
		if *metricsOut != "" {
			if err := cli.WriteMetrics(collector.Registry, *metricsOut); err != nil {
				log.Fatalf("-metrics-out %s: %v", *metricsOut, err)
			}
		}
		if *traceOut != "" {
			if err := cli.WriteTrace(collector.Trace, *traceOut); err != nil {
				log.Fatalf("-trace-out %s: %v", *traceOut, err)
			}
		}
	}

	rateCases := strings.Split(*rates, ",")
	policies := []mlckpt.Policy{mlckpt.Policy(*policy)}
	if *policy == "all" {
		policies = mlckpt.Policies
	}

	// The classic single-cell path keeps its original plain-text report but
	// runs as a one-job sweep so -metrics-out/-trace-out see the solver.
	if len(rateCases) == 1 && len(policies) == 1 && *simRuns == 0 {
		spec, err := cli.ResolveSpec(*paper, *specPath, *te, rateCases[0])
		if err != nil {
			flag.Usage()
			log.Fatal(err)
		}
		outcomes := mlckpt.Sweep(
			[]mlckpt.SweepJob{{Spec: spec, Policy: policies[0]}},
			mlckpt.SweepOptions{Obs: collector, Clock: obs.WallClock},
		)
		if err := outcomes[0].Err; err != nil {
			log.Fatal(err)
		}
		plan := outcomes[0].Plan
		writeArtifacts()
		if *asJSON {
			emitJSON(plan)
			return
		}
		fmt.Printf("policy:               %s\n", plan.Policy)
		fmt.Printf("optimal scale:        %d cores\n", plan.Scale)
		fmt.Printf("checkpoint intervals: %v (per level; 1 = no checkpoints)\n", plan.Intervals)
		fmt.Printf("expected wall clock:  %.2f days\n", plan.ExpectedWallClockDays)
		fmt.Printf("algorithm-1 iters:    %d (converged: %v)\n", plan.OuterIterations, plan.Converged)
		return
	}

	// Sweep mode: one job per (failure case, policy).
	var jobs []mlckpt.SweepJob
	for _, rc := range rateCases {
		rc = strings.TrimSpace(rc)
		spec, err := cli.ResolveSpec(*paper, *specPath, *te, rc)
		if err != nil {
			flag.Usage()
			log.Fatal(err)
		}
		label := rc
		if !*paper {
			label = *specPath
		}
		for _, pol := range policies {
			job := mlckpt.SweepJob{
				Name:   fmt.Sprintf("%s/%s", label, pol),
				Spec:   spec,
				Policy: pol,
			}
			if *simRuns > 0 {
				job.Sim = &mlckpt.SimOptions{Runs: *simRuns}
			}
			jobs = append(jobs, job)
		}
	}
	outcomes := mlckpt.Sweep(jobs, mlckpt.SweepOptions{
		Workers:  *workers,
		RootSeed: *seed,
		Progress: cli.Progress(os.Stderr, "sweep"),
		Obs:      collector,
		Clock:    obs.WallClock,
	})
	failed := 0
	for _, o := range outcomes {
		if o.Err != nil {
			failed++
			fmt.Fprintf(os.Stderr, "%s: %v\n", o.Name, o.Err)
		}
	}
	if failed == 0 {
		writeArtifacts()
	} else if *metricsOut != "" || *traceOut != "" {
		fmt.Fprintln(os.Stderr, "telemetry artifacts withheld (incomplete sweep)")
	}
	if *asJSON {
		emitJSON(outcomes)
	} else {
		renderSweep(outcomes, *simRuns > 0)
	}
	if failed > 0 {
		log.Fatalf("%d of %d jobs failed", failed, len(outcomes))
	}
}

func renderSweep(outcomes []mlckpt.SweepOutcome, withSim bool) {
	if withSim {
		fmt.Printf("%-28s %-14s %8s %-18s %12s %14s %12s\n",
			"case/policy", "policy", "scale", "intervals", "E[WCT] days", "sim WCT days", "efficiency")
	} else {
		fmt.Printf("%-28s %-14s %8s %-18s %12s\n",
			"case/policy", "policy", "scale", "intervals", "E[WCT] days")
	}
	for _, o := range outcomes {
		if o.Err != nil {
			fmt.Printf("%-28s ERROR: %v\n", o.Name, o.Err)
			continue
		}
		iv := make([]string, len(o.Plan.Intervals))
		for i, v := range o.Plan.Intervals {
			iv[i] = fmt.Sprint(v)
		}
		row := fmt.Sprintf("%-28s %-14s %8d %-18s %12.2f",
			o.Name, o.Policy, o.Plan.Scale, strings.Join(iv, "-"), o.Plan.ExpectedWallClockDays)
		if withSim && o.Report != nil {
			row += fmt.Sprintf(" %14.2f %12.4f", o.Report.MeanWallClockDays, o.Report.Efficiency)
		}
		fmt.Println(row)
	}
}

func emitJSON(v any) {
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	if err := enc.Encode(v); err != nil {
		log.Fatal(err)
	}
}
