package sim

import (
	"fmt"
	"runtime"
	"sync"

	"mlckpt/internal/stats"
)

// Aggregate summarizes a batch of runs (the paper reports means over 100
// runs per configuration).
type Aggregate struct {
	Runs       int
	WallClock  stats.Summary
	Productive stats.Summary
	Checkpoint stats.Summary
	Restart    stats.Summary
	Rollback   stats.Summary
	Failures   stats.Summary // total failures per run
	Truncated  int           // runs cut off at MaxWallClock
}

// RunMany executes runs independent simulations in parallel (one RNG stream
// per run, all derived deterministically from seed) and returns the
// per-run results in run order.
func RunMany(cfg Config, runs int, seed uint64) ([]Result, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if runs <= 0 {
		return nil, fmt.Errorf("%w: runs = %d", ErrConfig, runs)
	}
	P, err := productiveTime(&cfg)
	if err != nil {
		return nil, err
	}
	// The failure-free checkpoint schedule is a function of P and x alone:
	// build it once, and let every run walk it read-only.
	sched := newSchedule(P, cfg.X)
	// Derive one independent RNG state per run up front so results do not
	// depend on goroutine scheduling. Each run's generator is allocated by
	// the worker that draws from it: allocated here, back to back, eight
	// of them would share a cache line that neighbouring runs write on
	// every draw.
	root := stats.NewRNG(seed)
	states := make([]stats.RNG, runs)
	for i := range states {
		states[i] = *root.Split()
	}

	results := make([]Result, runs)
	errs := make([]error, runs)
	workers := runtime.GOMAXPROCS(0)
	if workers > runs {
		workers = runs
	}
	// Only the batch's first run keeps its trace track: a 100-run batch
	// emitting spans for every run would swamp the timeline without adding
	// information (run 0 is representative, and its seed is fixed), while
	// counters — integer sums, order-independent — record for all runs.
	quiet := cfg
	quiet.ObsTrack = ""

	var wg sync.WaitGroup
	next := make(chan int)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				c := quiet
				if i == 0 {
					c = cfg
				}
				rng := states[i]
				var r runner
				if errs[i] = r.bind(c, &rng); errs[i] == nil {
					r.run(sched)
					results[i] = r.res
				}
			}
		}()
	}
	for i := 0; i < runs; i++ {
		next <- i
	}
	close(next)
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return results, nil
}

// Summarize aggregates a batch of results.
func Summarize(results []Result) Aggregate {
	agg := Aggregate{Runs: len(results)}
	n := len(results)
	slab := make([]float64, 6*n) // one backing array for the six metric columns
	wct := slab[0*n : 1*n]
	prod := slab[1*n : 2*n]
	ckpt := slab[2*n : 3*n]
	rst := slab[3*n : 4*n]
	rb := slab[4*n : 5*n]
	fl := slab[5*n : 6*n]
	for i, r := range results {
		wct[i] = r.WallClock
		prod[i] = r.Productive
		ckpt[i] = r.Checkpoint
		rst[i] = r.Restart
		rb[i] = r.Rollback
		fl[i] = float64(r.TotalFailures())
		if r.Truncated {
			agg.Truncated++
		}
	}
	agg.WallClock = stats.Summarize(wct)
	agg.Productive = stats.Summarize(prod)
	agg.Checkpoint = stats.Summarize(ckpt)
	agg.Restart = stats.Summarize(rst)
	agg.Rollback = stats.Summarize(rb)
	agg.Failures = stats.Summarize(fl)
	return agg
}

// Simulate is the convenience composition of RunMany and Summarize.
func Simulate(cfg Config, runs int, seed uint64) (Aggregate, error) {
	results, err := RunMany(cfg, runs, seed)
	if err != nil {
		return Aggregate{}, err
	}
	return Summarize(results), nil
}
