package main

import (
	"fmt"
	"syscall"
	"time"

	"mlckpt/internal/core"
	"mlckpt/internal/experiments"
	"mlckpt/internal/obs"
	"mlckpt/internal/sweep"
)

// gridWorkload: one experiments.RunGrid over a full evaluation grid with
// a fresh sweep.Cache, closed loop, Grid.Workers = procs — the paper's
// evaluation path (Figures 5–7, Table III).
var gridWorkload = workload{
	name:     "grid",
	tail:     90,
	minOps:   100,
	exactOps: gridExact,
	batch:    gridBatch,
	opSpan:   "experiments.RunGrid",
	setup:    setupGrid,
}

const (
	gridBatch = 4
	gridExact = 8
	// gridStrata: Te falls in one of four sub-bands by input index.
	gridStrata = 4
	// gridTeLo/gridTeHi bound Te in core-days: reduced from the paper's 3M
	// so a run holds enough grids for a tail percentile.
	gridTeLo, gridTeHi = 0.27e6, 0.33e6
	// gridWarmup is how many untimed grids set-up runs.
	gridWarmup = 2
	// gridReplayEvery: the untraced run replays every third grid (prime
	// to gridStrata, so every stratum is replayed); the traced run
	// replays all of them.
	gridReplayEvery = 3
)

// gridCells is input i of the grid workload: the six failure cases times
// the four policies at the paper's configuration (100 runs, ±30% jitter,
// exascale costs) with a drawn Te and a drawn simulator seed per cell,
// plus each case's ML(opt-scale) cell again under another seed — a
// repeat that shares its solve with the first through the cache.
func gridCells(seed uint64, i int) []experiments.Cell {
	r := newRNG(seed, "grid", i)
	te := r.logUniform(band(gridTeLo, gridTeHi, i%gridStrata, gridStrata))
	var cells []experiments.Cell
	add := func(c string, pol core.Policy) {
		sc := experiments.EvalScenario(te, c)
		sc.Seed = r.next()
		cells = append(cells, experiments.Cell{Scenario: sc, Policy: pol})
	}
	for _, c := range experiments.FailureCases {
		for _, pol := range core.Policies {
			add(c, pol)
		}
	}
	for _, c := range experiments.FailureCases {
		add(c, core.MLOptScale)
	}
	return cells
}

// gridRec is what one traced grid recorded.
type gridRec struct {
	lanes                                  int
	solveComputed, solveHits, postComputed int64
	failures, checkpoints, runs, truncated int64
	batch                                  time.Duration
	cells                                  []time.Duration
	cpu, wall                              time.Duration
}

type gridInst struct {
	seed     uint64
	idx      []int
	cells    [][]experiments.Cell
	outs     [][]experiments.PolicyOutcome
	mismatch []error
	replayed []bool // the traced form already replayed the grid
	recs     []gridRec
}

func setupGrid(e env, seed uint64) (instance, error, error) {
	g := &gridInst{seed: seed}
	g.idx, g.cells = make([]int, gridBatch), make([][]experiments.Cell, gridBatch)
	g.outs, g.mismatch = make([][]experiments.PolicyOutcome, gridBatch), make([]error, gridBatch)
	g.replayed = make([]bool, gridBatch)
	checkErr := checkFig5Row(e)
	for k := 0; k < gridWarmup; k++ {
		g.prepare(0, warmFirst+k)
		if err := g.run(0); err != nil {
			return nil, nil, fmt.Errorf("warm-up grid %d: %w", k, err)
		}
		if err := g.check(0); err != nil && checkErr == nil {
			checkErr = err
		}
	}
	return g, checkErr, nil
}

func (g *gridInst) prepare(slot, i int) {
	g.idx[slot] = i
	g.cells[slot] = gridCells(g.seed, i)
	g.mismatch[slot], g.replayed[slot] = nil, false
}

// run is the operation: one evaluation grid through the sweep engine.
func (g *gridInst) run(slot int) error {
	outs, err := experiments.RunGrid(g.cells[slot], experiments.Grid{Workers: procs, Cache: sweep.NewCache()})
	g.outs[slot] = outs
	return err
}

// check requires every repeat cell to carry its original's solve, and
// for every gridReplayEvery-th grid replays it as its two halves and
// requires RunGrid's outcomes bit for bit.
func (g *gridInst) check(slot int) error {
	if g.mismatch[slot] != nil {
		return g.mismatch[slot]
	}
	outs := g.outs[slot]
	cases := len(experiments.FailureCases)
	for k := 0; k < cases; k++ {
		orig, rep := outs[k*len(core.Policies)], outs[len(outs)-cases+k]
		if a, b := fmt.Sprintf("%+v", orig.Solution), fmt.Sprintf("%+v", rep.Solution); a != b {
			return fmt.Errorf("%w: grid %d: repeat of case %d solved %s, original %s", errIncorrect, g.idx[slot], k, b, a)
		}
	}
	if g.replayed[slot] || g.idx[slot]%gridReplayEvery != 0 {
		return nil
	}
	want, _, err := replayGrid(g.cells[slot], nil)
	if err != nil {
		return err
	}
	return sameOutcomes(g.idx[slot], g.outs[slot], want)
}

// replayGrid computes a grid without the sweep engine: one
// core.OptimizeBatch over the distinct solve lanes (built with
// Policy.BatchProblem, first appearance first), then
// experiments.SimulatePolicy per cell with the cell's own seed.
func replayGrid(cells []experiments.Cell, tr *tracer) ([]experiments.PolicyOutcome, int, error) {
	type solveID struct {
		spec string
		te   float64
		pol  core.Policy
	}
	lane := map[solveID]int{}
	laneOf := make([]int, len(cells))
	var probs []core.Problem
	for i, c := range cells {
		id := solveID{c.Scenario.Spec, c.Scenario.TeCoreDays, c.Policy}
		k, ok := lane[id]
		if !ok {
			prob, err := c.Policy.BatchProblem(c.Scenario.Params(), core.Options{})
			if err != nil {
				return nil, 0, err
			}
			k = len(probs)
			lane[id] = k
			probs = append(probs, prob)
		}
		laneOf[i] = k
	}
	tr.begin("core.OptimizeBatch")
	sols := core.OptimizeBatch(probs)
	tr.end()
	outs := make([]experiments.PolicyOutcome, len(cells))
	for i, c := range cells {
		sol := sols[laneOf[i]]
		if sol.Err != nil {
			return nil, 0, fmt.Errorf("%s/%v: %w", c.Scenario.Spec, c.Policy, sol.Err)
		}
		x := c.Policy.ExpandX(c.Scenario.Params(), sol.Solution)
		tr.begin("experiments.SimulatePolicy")
		out, err := experiments.SimulatePolicy(c.Scenario, c.Policy, sol.Solution, x, c.Scenario.SimSeed(c.Policy))
		tr.end()
		if err != nil {
			return nil, 0, fmt.Errorf("%s/%v: %w", c.Scenario.Spec, c.Policy, err)
		}
		outs[i] = out
	}
	return outs, len(probs), nil
}

// sameOutcomes compares two grids' outcomes bit for bit: %v prints every
// float64 in its shortest round-trip form.
func sameOutcomes(op int, got, want []experiments.PolicyOutcome) error {
	if len(got) != len(want) {
		return fmt.Errorf("%w: grid %d: %d outcomes, replay has %d", errIncorrect, op, len(got), len(want))
	}
	for i := range got {
		if a, b := fmt.Sprintf("%+v", got[i]), fmt.Sprintf("%+v", want[i]); a != b {
			return fmt.Errorf("%w: grid %d cell %d: RunGrid %s, replay %s", errIncorrect, op, i, a, b)
		}
	}
	return nil
}

// traced runs the grid through RunGrid with an obs collector, then
// replays it as its two halves under spans, and checks the two agree.
func (g *gridInst) traced(slot int, tr *tracer) error {
	cells := g.cells[slot]
	col := obs.NewCollector()
	var rec gridRec
	tr.beginOp(g.idx[slot])
	cpu0 := cpuTime()
	tr.begin("experiments.RunGrid")
	outs, err := experiments.RunGrid(cells, experiments.Grid{Workers: procs, Cache: sweep.NewCache(), Obs: col})
	rec.wall = tr.end()
	rec.cpu = cpuTime() - cpu0
	if err != nil {
		tr.end()
		return err
	}
	n0 := len(tr.spans)
	replay, lanes, err := replayGrid(cells, tr)
	tr.end()
	if err != nil {
		return err
	}
	g.outs[slot], g.replayed[slot] = outs, true
	g.mismatch[slot] = sameOutcomes(g.idx[slot], outs, replay)
	for _, s := range tr.spans[n0:] {
		d := time.Duration(s.End - s.Start)
		switch s.Name {
		case "core.OptimizeBatch":
			rec.batch = d
		case "experiments.SimulatePolicy":
			rec.cells = append(rec.cells, d)
		}
	}
	snap := col.Registry.Snapshot()
	counter := func(name string) int64 {
		v, _ := snap.Counter(name)
		return v
	}
	rec.lanes = lanes
	rec.solveComputed, rec.solveHits = counter("sweep.solve.computed"), counter("sweep.solve.cache_hits")
	rec.postComputed = counter("sweep.post.computed")
	rec.failures, rec.checkpoints = counter("sim.failures"), counter("sim.checkpoints")
	rec.runs, rec.truncated = counter("sim.runs"), counter("sim.truncated")
	g.recs = append(g.recs, rec)
	return nil
}

func (g *gridInst) layers(tr *tracer) (map[string]metric, error) {
	if len(g.recs) < gridExact {
		return nil, fmt.Errorf("grid: %d traced ops, need %d", len(g.recs), gridExact)
	}
	var batch, cells []float64
	var simHost time.Duration
	var events int64
	var cpu, wall time.Duration
	for _, r := range g.recs {
		batch = append(batch, r.batch.Seconds()*1e3)
		for _, d := range r.cells {
			cells = append(cells, d.Seconds()*1e3)
			simHost += d
		}
		events += r.failures + r.checkpoints
		cpu += r.cpu
		wall += r.wall
	}
	var ex gridRec
	for _, r := range g.recs[:gridExact] {
		ex.lanes += r.lanes
		ex.solveComputed += r.solveComputed
		ex.solveHits += r.solveHits
		ex.postComputed += r.postComputed
		ex.failures += r.failures
		ex.checkpoints += r.checkpoints
		ex.runs += r.runs
		ex.truncated += r.truncated
	}
	n := float64(gridExact)
	m := spanMetrics(tr, gridSpans)
	m["core.batch_ms"] = metric{median(batch), "ms"}
	m["core.batch_lanes"] = metric{float64(ex.lanes) / n, "count"}
	m["sim.cell_ms"] = metric{median(cells), "ms"}
	m["sim.event_ns"] = metric{float64(simHost.Nanoseconds()) / float64(events), "ns"}
	m["sim.events_per_run"] = metric{float64(ex.failures+ex.checkpoints) / float64(ex.runs), "count"}
	m["sim.truncated"] = metric{float64(ex.truncated) / n, "count"}
	m["sweep.solve_computed"] = metric{float64(ex.solveComputed) / n, "count"}
	m["sweep.solve_hits"] = metric{float64(ex.solveHits) / n, "count"}
	m["sweep.post_computed"] = metric{float64(ex.postComputed) / n, "count"}
	m["sweep.cpu_util"] = metric{cpu.Seconds() / (procs * wall.Seconds()), "ratio"}
	return m, nil
}

// gridSpans are the span names of a traced grid.
var gridSpans = []string{rootSpan, "experiments.RunGrid", "core.OptimizeBatch", "experiments.SimulatePolicy"}

// checkFig5Row runs one Figure 5 row (the 4-2-1-0.5 case, all four
// policies) at the paper's configuration and requires its rendering
// verbatim in docs_results_reference.txt.
func checkFig5Row(e env) error {
	res, err := experiments.EvalGrid(3e6, 0, []string{"4-2-1-0.5"}, experiments.Grid{Workers: procs})
	if err != nil {
		return fmt.Errorf("%w: Figure 5 row: %v", errIncorrect, err)
	}
	return inReference(e, res.Render())
}

// cpuTime returns the process's user plus system CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}
