package main

import (
	"fmt"
	"time"

	"mlckpt/internal/erasure"
	"mlckpt/internal/experiments"
	"mlckpt/internal/failure"
	"mlckpt/internal/fti"
	"mlckpt/internal/heat"
	"mlckpt/internal/inject"
	"mlckpt/internal/mpisim"
	"mlckpt/internal/obs"
)

// realrunWorkload: one experiments.RunReal of Figure 4's application
// (heat on the mpisim cluster, FTI at all four levels) under raised
// failure rates and a moderate fault-injection plan, closed loop, one run
// at a time — the paper's cluster experiment.
var realrunWorkload = workload{
	name:     "realrun",
	tail:     95,
	minOps:   200,
	exactOps: realExact,
	batch:    realBatch,
	opSpan:   "experiments.RunReal",
	setup:    setupRealrun,
}

const (
	realBatch = 16
	realExact = 32
	// realRanks and the heat problem are the Figure 4 scale.
	realRanks = 32
	// realRates raises Figure 4's 48-24-12-6 failures/day so a run sees
	// one to three failures and recovers from every level.
	realRates = "1000-500-100-50"
	// realAlloc is the allocation period A in seconds (Figure 4's).
	realAlloc = 5.0
	// realWarmup is how many untimed runs set-up performs.
	realWarmup = 8
)

// fig4Intervals are Figure 4's four interval vectors; input i uses
// vector i mod 4.
var fig4Intervals = [][fti.Levels]int{{16, 8, 4, 2}, {32, 16, 8, 4}, {64, 32, 16, 8}, {24, 6, 3, 2}}

func realHeat() heat.Config {
	return heat.Config{GridX: 256, GridY: 256, Iterations: 400, CellTime: 4e-5, TopTemp: 100}
}

func realFTI() fti.Config {
	c := fti.DefaultConfig()
	c.GroupSize, c.Parity = 8, 2
	return c
}

// realInject is the moderate fault plan: at-rest snapshot corruption at
// every level, correlated crashes, checkpoint aborts, crashes during
// recovery and transient PFS faults.
func realInject() inject.Spec {
	return inject.Spec{
		CorruptRate:       []float64{0.01, 0.01, 0.01, 0.01},
		TruncateFrac:      0.25,
		PartnerPairRate:   0.1,
		ParityHolderRate:  0.1,
		CkptAbortRate:     0.01,
		RecoveryCrashRate: 0.05,
		PFSWriteFailRate:  0.02,
		PFSReadFailRate:   0.02,
	}
}

// realConfig is input i of the realrun workload. From-scratch restarts
// stay allowed, so an exhausted escalation is a slow run, not an error.
func realConfig(seed uint64, i int) experiments.RealConfig {
	r := newRNG(seed, "realrun", i)
	return experiments.RealConfig{
		Ranks:     realRanks,
		Heat:      realHeat(),
		FTI:       realFTI(),
		Intervals: fig4Intervals[i%len(fig4Intervals)],
		Rates:     failure.MustParseRates(realRates, realRanks),
		Alloc:     realAlloc,
		Cost:      mpisim.DefaultCostModel(),
		Seed:      r.next(),
		Inject:    inject.MustCompile(realInject(), r.next(), "perfbench/realrun"),
	}
}

type realInst struct {
	seed   uint64
	golden []uint64 // fault-free final-state digest per interval vector
	idx    []int
	cfgs   []experiments.RealConfig
	res    []experiments.RealResult
	recs   []experiments.RealResult
}

func setupRealrun(e env, seed uint64) (instance, error, error) {
	r := &realInst{seed: seed}
	r.idx, r.cfgs, r.res = make([]int, realBatch), make([]experiments.RealConfig, realBatch), make([]experiments.RealResult, realBatch)
	for k := range fig4Intervals {
		cfg := realConfig(seed, k)
		cfg.Rates = failure.MustParseRates("0-0-0-0", realRanks)
		cfg.Inject = inject.MustCompile(inject.Spec{}, 0, "perfbench/golden")
		res, err := experiments.RunReal(cfg)
		if err != nil {
			return nil, nil, fmt.Errorf("fault-free run %v: %w", cfg.Intervals, err)
		}
		if !res.Completed {
			return nil, nil, fmt.Errorf("fault-free run %v did not complete", cfg.Intervals)
		}
		r.golden = append(r.golden, res.StateDigest)
	}
	var checkErr error
	for k := 0; k < realWarmup; k++ {
		r.prepare(0, warmFirst+k)
		if err := r.run(0); err != nil {
			return nil, nil, fmt.Errorf("warm-up run %d: %w", k, err)
		}
		if err := r.check(0); err != nil && checkErr == nil {
			checkErr = err
		}
	}
	return r, checkErr, nil
}

func (r *realInst) prepare(slot, i int) {
	r.idx[slot] = i
	r.cfgs[slot] = realConfig(r.seed, i)
}

// run is the operation: one checkpointed execution to completion.
func (r *realInst) run(slot int) error {
	res, err := experiments.RunReal(r.cfgs[slot])
	r.res[slot] = res
	return err
}

// check requires the chaos invariant: a completed run ends in the
// fault-free run's final state.
func (r *realInst) check(slot int) error {
	res, i := r.res[slot], r.idx[slot]
	if !res.Completed {
		return fmt.Errorf("%w: run %d did not complete", errIncorrect, i)
	}
	if want := r.golden[i%len(fig4Intervals)]; res.StateDigest != want {
		return fmt.Errorf("%w: run %d: state digest %#x, fault-free run %#x", errIncorrect, i, res.StateDigest, want)
	}
	return nil
}

// traced runs the execution with an obs collector attached.
func (r *realInst) traced(slot int, tr *tracer) error {
	cfg := r.cfgs[slot]
	cfg.Obs = obs.NewCollector()
	tr.beginOp(r.idx[slot])
	tr.begin("experiments.RunReal")
	res, err := experiments.RunReal(cfg)
	tr.end()
	tr.end()
	r.res[slot] = res
	if err != nil {
		return err
	}
	r.recs = append(r.recs, res)
	return nil
}

func (r *realInst) layers(tr *tracer) (map[string]metric, error) {
	if len(r.recs) < realExact {
		return nil, fmt.Errorf("realrun: %d traced ops, need %d", len(r.recs), realExact)
	}
	var virt float64
	var fails, scratch, esc, retries, aborts, faults int
	var recov [fti.Levels]int
	for _, res := range r.recs[:realExact] {
		virt += res.WallClock
		for _, f := range res.Failures {
			fails += f
		}
		for l, n := range res.Recoveries {
			recov[l] += n
		}
		scratch += res.FromScratch
		esc += res.Escalations
		retries += res.PFSRetries
		aborts += res.CkptAborts
		faults += res.InjectedFaults
	}
	n := float64(realExact)
	m := spanMetrics(tr, realSpans)
	m["real.virtual_s"] = metric{virt / n, "s"}
	m["real.failures"] = metric{float64(fails) / n, "count"}
	m["real.from_scratch"] = metric{float64(scratch) / n, "count"}
	for l := range recov {
		m[fmt.Sprintf("real.recoveries.l%d", l+1)] = metric{float64(recov[l]) / n, "count"}
	}
	m["real.escalations"] = metric{float64(esc) / n, "count"}
	m["real.pfs_retries"] = metric{float64(retries) / n, "count"}
	m["real.ckpt_aborts"] = metric{float64(aborts) / n, "count"}
	m["real.injected_faults"] = metric{float64(faults) / n, "count"}
	probes, err := realProbes()
	if err != nil {
		return nil, err
	}
	for k, v := range probes {
		m[k] = v
	}
	return m, nil
}

// realSpans are the span names of a traced real run.
var realSpans = []string{rootSpan, "experiments.RunReal"}

// probeReps is how many times each probe repeats; it reports the median.
const probeReps = 5

// realProbes drive single layers' exported functions at the workload's
// shapes: heat's stencil, the mpisim scheduler, FTI checkpoints and
// escalating restores per level, and the 8+2 erasure code.
func realProbes() (map[string]metric, error) {
	hcfg := realHeat()
	cost := mpisim.DefaultCostModel()
	cells := float64(hcfg.GridX * hcfg.GridY * hcfg.Iterations)
	heatRun := func(ranks int) (time.Duration, error) {
		t0 := time.Now()
		_, err := mpisim.Run(ranks, cost, func(rk *mpisim.Rank) {
			s, err := heat.NewSolver(rk, hcfg)
			if err != nil {
				panic(err)
			}
			s.Run(nil)
		})
		return time.Since(t0), err
	}
	one, err := repeatMedian(func() (time.Duration, error) { return heatRun(1) })
	if err != nil {
		return nil, err
	}
	full, err := repeatMedian(func() (time.Duration, error) { return heatRun(realRanks) })
	if err != nil {
		return nil, err
	}
	cellNS := float64(one.Nanoseconds()) / cells
	iterUS := (float64(full.Nanoseconds()) - cellNS*cells) / float64(hcfg.Iterations) / 1e3
	m := map[string]metric{
		"heat.cell_ns":   {cellNS, "ns"},
		"mpisim.iter_us": {iterUS, "us"},
	}
	size, err := snapshotSize(hcfg)
	if err != nil {
		return nil, err
	}
	for lvl := 1; lvl <= fti.Levels; lvl++ {
		us, err := ckptProbe(lvl, size)
		if err != nil {
			return nil, err
		}
		m[fmt.Sprintf("fti.ckpt_us.l%d", lvl)] = metric{us, "us"}
		ms, err := restoreProbe(lvl, size)
		if err != nil {
			return nil, err
		}
		m[fmt.Sprintf("fti.restore_ms.l%d", lvl)] = metric{ms, "ms"}
	}
	enc, rec, err := erasureProbe(size)
	if err != nil {
		return nil, err
	}
	m["erasure.encode_mb_s"] = metric{enc, "MB/s"}
	m["erasure.reconstruct_mb_s"] = metric{rec, "MB/s"}
	return m, nil
}

func repeatMedian(fn func() (time.Duration, error)) (time.Duration, error) {
	ts := make([]float64, probeReps)
	for k := range ts {
		d, err := fn()
		if err != nil {
			return 0, err
		}
		ts[k] = float64(d)
	}
	return time.Duration(median(ts)), nil
}

// snapshotSize is the per-rank checkpoint payload of the workload's heat
// problem at realRanks ranks.
func snapshotSize(hcfg heat.Config) (int, error) {
	size := 0
	_, err := mpisim.Run(realRanks, mpisim.DefaultCostModel(), func(rk *mpisim.Rank) {
		s, err := heat.NewSolver(rk, hcfg)
		if err != nil {
			panic(err)
		}
		if rk.ID() == 0 {
			size = len(s.Serialize())
		}
	})
	return size, err
}

// ckptRounds is how many collective checkpoints one ckptProbe run takes.
const ckptRounds = 8

// ckptProbe returns host µs per Agent.CheckpointOwned call at the given
// level: a realRanks run taking ckptRounds collective checkpoints, minus
// the same run building the snapshots without checkpointing, divided by
// the number of calls.
func ckptProbe(level, size int) (float64, error) {
	probe := func(ckpt bool) (time.Duration, error) {
		cluster, err := fti.NewCluster(realRanks, realFTI())
		if err != nil {
			return 0, err
		}
		t0 := time.Now()
		_, err = mpisim.Run(realRanks, mpisim.DefaultCostModel(), func(rk *mpisim.Rank) {
			agent := cluster.Attach(rk)
			var buf []byte
			for k := 0; k < ckptRounds; k++ {
				data := fillSnapshot(buf, size, rk.ID(), k)
				if !ckpt {
					buf = data
					continue
				}
				recycled, _, err := agent.CheckpointOwned(level, data)
				if err != nil {
					panic(err)
				}
				buf = recycled
			}
		})
		return time.Since(t0), err
	}
	with, err := repeatMedian(func() (time.Duration, error) { return probe(true) })
	if err != nil {
		return 0, err
	}
	without, err := repeatMedian(func() (time.Duration, error) { return probe(false) })
	if err != nil {
		return 0, err
	}
	return float64((with - without).Nanoseconds()) / 1e3 / (ckptRounds * realRanks), nil
}

// fillSnapshot builds a size-byte payload for a rank and round in buf.
func fillSnapshot(buf []byte, size, rank, round int) []byte {
	if cap(buf) < size {
		buf = make([]byte, size)
	}
	buf = buf[:size]
	for i := range buf {
		buf[i] = byte(i*31 + rank*7 + round)
	}
	return buf
}

// crashFor is the crash pattern that leaves level the cheapest
// restorable rung once every level holds a checkpoint: nothing lost
// (level 1), one node (2), a node and its partner (3), or parity+1 nodes
// of one encoding group (4).
var crashFor = [fti.Levels + 1][]int{1: nil, 2: {0}, 3: {0, 1}, 4: {0, 1, 2}}

// restoreProbe returns host ms per Cluster.RestoreEscalating after the
// crash pattern that forces the given level, checking the level held.
func restoreProbe(level, size int) (float64, error) {
	d, err := repeatMedian(func() (time.Duration, error) {
		cluster, err := fti.NewCluster(realRanks, realFTI())
		if err != nil {
			return 0, err
		}
		// Levels 1 and 2 share the node-local store, so level 2 goes last:
		// its partner copies then match the newest local version.
		_, err = mpisim.Run(realRanks, mpisim.DefaultCostModel(), func(rk *mpisim.Rank) {
			agent := cluster.Attach(rk)
			for _, l := range []int{4, 3, 1, 2} {
				if _, _, err := agent.CheckpointOwned(l, fillSnapshot(nil, size, rk.ID(), l)); err != nil {
					panic(err)
				}
			}
		})
		if err != nil {
			return 0, err
		}
		if err := cluster.Crash(crashFor[level]); err != nil {
			return 0, err
		}
		t0 := time.Now()
		_, out, err := cluster.RestoreEscalating()
		d := time.Since(t0)
		if err != nil {
			return 0, err
		}
		if out.Level != level {
			return 0, fmt.Errorf("restore probe: crash pattern %v restored level %d, want %d", crashFor[level], out.Level, level)
		}
		return d, nil
	})
	return float64(d.Nanoseconds()) / 1e6, err
}

// erasureRounds is how many encodes or reconstructions one timing takes.
const erasureRounds = 64

// erasureProbe returns EncodeInto and ReconstructInto throughput in MB/s
// of group data on the 8+2 code at the workload's snapshot size.
func erasureProbe(size int) (float64, float64, error) {
	fc := realFTI()
	code, err := erasure.New(fc.GroupSize, fc.Parity)
	if err != nil {
		return 0, 0, err
	}
	data := make([][]byte, fc.GroupSize)
	for i := range data {
		data[i] = fillSnapshot(nil, size, i, 0)
	}
	parity := make([][]byte, fc.Parity)
	for i := range parity {
		parity[i] = make([]byte, size)
	}
	bytes := float64(fc.GroupSize*size) * erasureRounds
	enc, err := repeatMedian(func() (time.Duration, error) {
		t0 := time.Now()
		for k := 0; k < erasureRounds; k++ {
			if err := code.EncodeInto(data, parity); err != nil {
				return 0, err
			}
		}
		return time.Since(t0), nil
	})
	if err != nil {
		return 0, 0, err
	}
	var arena erasure.Arena
	shards := make([][]byte, fc.GroupSize+fc.Parity)
	rec, err := repeatMedian(func() (time.Duration, error) {
		t0 := time.Now()
		for k := 0; k < erasureRounds; k++ {
			copy(shards, data)
			copy(shards[fc.GroupSize:], parity)
			shards[0], shards[1] = nil, nil
			arena.Reset()
			if err := code.ReconstructInto(shards, &arena); err != nil {
				return 0, err
			}
		}
		return time.Since(t0), nil
	})
	if err != nil {
		return 0, 0, err
	}
	return bytes / enc.Seconds() / 1e6, bytes / rec.Seconds() / 1e6, nil
}
