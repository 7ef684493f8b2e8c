package experiments

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/fnv"
	"math"

	"mlckpt/internal/failure"
	"mlckpt/internal/fti"
	"mlckpt/internal/heat"
	"mlckpt/internal/inject"
	"mlckpt/internal/mpisim"
	"mlckpt/internal/obs"
	"mlckpt/internal/stats"
	"mlckpt/internal/storage"
)

// ErrReal is returned by the real-execution driver.
var ErrReal = errors.New("experiments: real run failed")

// RealConfig drives one "real" execution: the Heat Distribution program on
// the mpisim cluster, checkpointed with the FTI toolkit at all four levels
// and struck by injected failures. It is the stand-in for the paper's
// Fusion-cluster experiments that validate the exascale simulator
// (Figure 4).
type RealConfig struct {
	Ranks     int
	Heat      heat.Config
	FTI       fti.Config
	Intervals [fti.Levels]int // x_i: interval counts per level over the run
	Rates     failure.Rates   // per-level failures/day (baseline = Ranks)
	Alloc     float64         // allocation period A, seconds
	Cost      mpisim.CostModel
	MaxWall   float64 // truncation horizon, seconds
	Seed      uint64
	// Engine selects the mpisim execution engine. The zero value is the
	// event scheduler; GoroutineEngine recovers the legacy runtime, kept
	// for differential testing (TestChaosEngineIndependence asserts the
	// choice is unobservable in results).
	Engine mpisim.Engine

	// Inject, when non-nil, arms the deterministic chaos harness: committed
	// snapshots corrupt at rest (caught by fti's verify-on-restore, which
	// escalates through the hierarchy), failures land inside checkpoint and
	// recovery windows, and transient PFS errors are retried with
	// storage.DefaultRetryPolicy's deterministic backoff on the virtual
	// clock. Every decision is a pure function of the compiled plan, so a
	// chaos run is byte-reproducible at any worker count. Nil disables all
	// of it — a nil-Inject run is byte-identical to one without the harness.
	Inject *inject.Plan
	// DisableScratch turns an exhausted recovery escalation into a loud
	// error (wrapping fti.ErrExhausted, naming the last rung tried) instead
	// of a silent from-scratch restart — the chaos-grid invariant.
	DisableScratch bool

	// Obs receives chaos counters (injected faults, escalations, PFS
	// retries, detection latency). All values are deterministic functions
	// of (config, plan); nil disables instrumentation.
	Obs obs.Recorder `json:"-"`
	// ObsTrack, when set alongside Obs, names the trace track receiving
	// the run's waste-attribution spans: one "segment" span per execution
	// attempt (with measured redo / per-level checkpoint / auxiliary
	// sub-splits as args), plus alloc/recovery spans and failure/complete
	// instants — the real-run counterpart of sim.Config.ObsTrack, consumed
	// by internal/obs/attrib. All timestamps are the run's virtual clock,
	// and every value is rank-0's deterministic measurement, so the track
	// is byte-identical across worker counts and engines. Empty suppresses
	// spans while keeping counters.
	ObsTrack string `json:"-"`
}

// RealResult is the outcome of one real execution.
type RealResult struct {
	WallClock    float64
	Failures     []int               // per class
	Recoveries   []int               // recoveries per level that finally held
	FromScratch  int                 // restarts with no usable checkpoint
	CkptDuration [fti.Levels]float64 // last observed per-level checkpoint cost
	Completed    bool

	// Chaos telemetry, populated only when RealConfig.Inject is non-nil.
	StateDigest       uint64  // FNV-1a of the final per-rank states
	InjectedFaults    int     // snapshot corruptions applied at rest
	Escalations       int     // recoveries that fell past at least one rung
	DetectionLatency  float64 // seconds spent reading rungs that failed verification
	PFSRetries        int     // extra PFS attempts caused by transient faults
	CkptAborts        int     // checkpoints aborted by a failure inside the write window
	RecoveryCrashes   int     // failures injected inside recovery windows
	CorrelatedCrashes int     // single-node failures upgraded to correlated crash sets
}

// victims returns the crash pattern of a failure class (0-based level):
// class 0 is transient (no storage damage); class 1 kills one node; class
// 2 kills two partner-adjacent nodes (breaking level 2); class 3 kills
// parity+1 nodes of one group (breaking level 3).
func victims(class int, cfg RealConfig, rng *stats.RNG) []int {
	switch class {
	case 0:
		return nil
	case 1:
		// Avoid adjacency concerns: a single node always leaves level 2
		// recoverable.
		return []int{rng.Intn(cfg.Ranks)}
	case 2:
		n := rng.Intn(cfg.Ranks - 1)
		return []int{n, n + 1}
	default:
		// Enough losses inside one group to exceed its parity.
		g := rng.Intn(cfg.Ranks / cfg.FTI.GroupSize)
		base := g * cfg.FTI.GroupSize
		count := cfg.FTI.Parity + 1
		if count > cfg.FTI.GroupSize {
			count = cfg.FTI.GroupSize
		}
		out := make([]int, count)
		for i := range out {
			out[i] = base + i
		}
		return out
	}
}

// maxRecoveryCrashes caps injected failures per recovery episode so a
// rate-1 plan cannot loop forever; the cap is part of the deterministic
// semantics (crash decisions are indexed by attempt number).
const maxRecoveryCrashes = 4

// RunReal executes the application to completion under injected failures
// and multilevel recovery, returning the accumulated virtual wall clock.
func RunReal(cfg RealConfig) (RealResult, error) {
	if cfg.Ranks <= 0 || cfg.Ranks%cfg.FTI.GroupSize != 0 {
		return RealResult{}, fmt.Errorf("%w: ranks %d must be a positive multiple of the group size %d",
			ErrReal, cfg.Ranks, cfg.FTI.GroupSize)
	}
	if cfg.MaxWall <= 0 {
		cfg.MaxWall = 30 * failure.SecondsPerDay
	}
	res := RealResult{
		Failures:   make([]int, cfg.Rates.Levels()),
		Recoveries: make([]int, fti.Levels),
	}
	cluster, err := fti.NewCluster(cfg.Ranks, cfg.FTI)
	if err != nil {
		return res, err
	}
	plan := cfg.Inject
	retry := storage.DefaultRetryPolicy()
	if plan != nil {
		cluster.SetInjector(plan)
	}
	rec := obs.OrNop(cfg.Obs)
	finish := func() {
		if plan == nil {
			return
		}
		res.InjectedFaults = cluster.InjectedFaults()
		counts := []struct {
			name string
			v    int
		}{
			{"real.injected_faults", res.InjectedFaults},
			{"real.escalations", res.Escalations},
			{"real.pfs_retries", res.PFSRetries},
			{"real.ckpt_aborts", res.CkptAborts},
			{"real.recovery_crashes", res.RecoveryCrashes},
			{"real.correlated_crashes", res.CorrelatedCrashes},
		}
		for _, c := range counts {
			if c.v > 0 {
				rec.Count(c.name, int64(c.v))
			}
		}
		if res.DetectionLatency > 0 {
			rec.Observe("real.detection_latency_s", res.DetectionLatency)
		}
	}
	rng := stats.NewRNG(cfg.Seed)
	proc := failure.NewProcess(cfg.Rates, float64(cfg.Ranks), failure.Exponential, 0, rng.Split())

	// Per-level checkpoint iteration steps; level i checkpoints at
	// iterations k·step_i (k ≥ 1), the highest due level winning ties.
	var steps [fti.Levels]int
	for i, x := range cfg.Intervals {
		if x < 1 {
			x = 1
		}
		steps[i] = int(math.Ceil(float64(cfg.Heat.Iterations) / float64(x)))
	}
	dueLevel := func(iter int) int {
		if iter <= 0 || iter >= cfg.Heat.Iterations {
			return 0
		}
		for lvl := fti.Levels; lvl >= 1; lvl-- {
			if cfg.Intervals[lvl-1] > 1 && iter%steps[lvl-1] == 0 {
				return lvl
			}
		}
		return 0
	}
	perNode := 8 * cfg.Heat.GridX * cfg.Heat.GridY / cfg.Ranks

	wall := 0.0
	episode := 0       // failure ordinal, keys recovery-window injections
	ckptSeqBase := 0   // checkpoint attempts in completed segments
	furthestIter := 0  // furthest completed iteration across segments
	var snaps [][]byte // recovered per-rank states; nil = fresh start
	nextFail, haveFail := proc.Next(0)

	tracing := cfg.Obs != nil && cfg.ObsTrack != ""
	span := func(name string, start, dur float64, args map[string]float64) {
		if tracing {
			rec.Span(cfg.ObsTrack, name, start, dur, args)
		}
	}
	instant := func(name string, ts float64, args map[string]float64) {
		if tracing {
			rec.Instant(cfg.ObsTrack, name, ts, args)
		}
	}

	for {
		if wall > cfg.MaxWall {
			res.WallClock = wall
			instant("complete", wall, map[string]float64{"truncated": 1})
			finish()
			return res, nil
		}
		type segOut struct {
			completed    bool
			failClass    int
			ckptAborted  bool
			pfsRetries   int
			ckptAttempts int
			wallLocal    float64
			digest       uint64
			loudErr      error // typed policy failure; ends the run loudly

			// Rank-0 measurements for the segment's attribution span: the
			// clock spent re-executing iterations already completed in an
			// earlier segment, first-time per-level checkpoint seconds, and
			// auxiliary overheads (aborted-write fractions, PFS retry
			// backoff) — all deterministic functions of (config, plan).
			endIter int
			redone  float64
			aux     float64
			segCkpt [fti.Levels]float64
		}
		out := segOut{failClass: -1}
		prevFurthest := furthestIter
		_, err := mpisim.RunOn(cfg.Engine, cfg.Ranks, cfg.Cost, func(r *mpisim.Rank) {
			s, err := heat.NewSolver(r, cfg.Heat)
			if err != nil {
				panic(err)
			}
			if snaps != nil {
				if err := s.Restore(snaps[r.ID()]); err != nil {
					panic(err)
				}
			}
			agent := cluster.Attach(r)
			stopped := false
			// Everything executed before the furthest previously completed
			// iteration is re-execution (the sim's Rollback portion); the
			// clocks are rank-synchronized, so the crossing is observed at
			// the same instant everywhere.
			crossed := s.Iteration() >= prevFurthest
			// Checkpoint-attempt ordinal, counted identically on every rank
			// and carried across segments via ckptSeqBase. Injection keys on
			// the ordinal, not the iteration: after a rollback the run
			// re-crosses the same iterations, and an iteration-keyed abort
			// would deterministically re-fire forever.
			seq := 0
			// One snapshot buffer per rank, circulating between the app and
			// the cluster: CheckpointOwned takes the filled buffer and hands
			// back a recycled one for the next round — no payload copy.
			var snapBuf []byte
			result := s.Run(func(*heat.Solver) bool {
				if !crossed && s.Iteration() >= prevFurthest {
					crossed = true
					if r.ID() == 0 {
						out.redone = r.Clock()
					}
				}
				// Clocks are synchronized by the per-iteration Allreduce,
				// so every rank sees the same wall time and failure
				// decision.
				if haveFail && wall+r.Clock() >= nextFail.Time {
					stopped = true
					if r.ID() == 0 {
						out.failClass = nextFail.Level
						out.wallLocal = r.Clock()
					}
					return false
				}
				if lvl := dueLevel(s.Iteration()); lvl > 0 {
					data := s.SerializeInto(snapBuf)
					ord := ckptSeqBase + seq
					seq++
					if r.ID() == 0 {
						out.ckptAttempts = seq
					}
					if plan != nil {
						if frac, abort := plan.CkptAbort(lvl, ord); abort {
							// Injected failure inside the write window: the
							// partial checkpoint is discarded, its elapsed
							// fraction wasted, and a transient (class-0)
							// failure strikes — no storage damage, but the
							// run must restore, exercising verification of
							// whatever corruption is already at rest.
							dur, cerr := cluster.CheckpointCost(lvl, len(data))
							if cerr != nil {
								panic(cerr)
							}
							r.Compute(frac * dur)
							stopped = true
							if r.ID() == 0 {
								out.failClass = 0
								out.ckptAborted = true
								out.wallLocal = r.Clock()
								if crossed {
									out.aux += frac * dur
								}
							}
							return false
						}
					}
					recycled, d, err := agent.CheckpointOwned(lvl, data)
					if err != nil {
						panic(err)
					}
					snapBuf = recycled
					if plan != nil && lvl == fti.Levels {
						// Transient PFS write faults: the data is intact
						// (the commit above is the eventual success); only
						// the virtual-time cost of the wasted attempts and
						// backoff is charged. Exhausting the budget means
						// the checkpoint never landed — fail loudly.
						elapsed, attempts, ok := retry.Retry(d, func(attempt int) bool {
							return plan.PFSWriteFails(ord, attempt)
						})
						if !ok {
							// Every rank stops here (the plan decision is
							// rank-uniform); the typed error must cross the
							// segment boundary intact, so it travels via out
							// rather than a panic mpisim would re-wrap.
							stopped = true
							if r.ID() == 0 {
								out.loudErr = fmt.Errorf("%w: level-4 checkpoint at iteration %d failed after %d attempts (transient PFS writes)",
									ErrReal, s.Iteration(), attempts)
								out.wallLocal = r.Clock()
							}
							return false
						}
						r.Compute(elapsed - d)
						if r.ID() == 0 {
							out.pfsRetries += attempts - 1
							if crossed {
								out.aux += elapsed - d
							}
						}
						// The retry cost scales with this rank's snapshot
						// size; on uneven decompositions that would drift
						// rank clocks apart and desynchronize the shared
						// failure decision above. Every rank takes this
						// branch (the plan is keyed on iteration, not rank),
						// so a barrier is safe.
						r.Barrier()
					}
					if r.ID() == 0 {
						res.CkptDuration[lvl-1] = d
						if crossed {
							out.segCkpt[lvl-1] += d
						}
					}
				}
				return true
			})
			if plan != nil && !stopped {
				// Digest the final application state (for the chaos-grid
				// invariant: a faulty run must finish byte-identical to the
				// fault-free golden run). The gather happens after the
				// run's wall clock is read, so it never perturbs timing.
				all := r.Gather(s.Serialize())
				if r.ID() == 0 {
					h := fnv.New64a()
					var lenBuf [8]byte
					for _, b := range all {
						binary.LittleEndian.PutUint64(lenBuf[:], uint64(len(b)))
						h.Write(lenBuf[:])
						h.Write(b)
					}
					out.digest = h.Sum64()
				}
			}
			if r.ID() == 0 && out.failClass < 0 {
				out.completed = true
				out.wallLocal = result.WallClock
			}
			if r.ID() == 0 {
				out.endIter = s.Iteration()
				if !crossed {
					// The segment ended before reaching old ground: every
					// second of it was re-execution.
					out.redone = out.wallLocal
				}
			}
		})
		if err != nil {
			return res, err
		}
		if tracing && out.wallLocal > 0 {
			args := map[string]float64{"iters": float64(out.endIter)}
			if out.redone > 0 {
				args["redo"] = out.redone
			}
			for i, d := range out.segCkpt {
				if d > 0 {
					args[fmt.Sprintf("ckpt_l%d", i+1)] = d
				}
			}
			if out.aux > 0 {
				args["aux"] = out.aux
			}
			span("segment", wall, out.wallLocal, args)
		}
		wall += out.wallLocal
		if out.endIter > furthestIter {
			furthestIter = out.endIter
		}
		res.PFSRetries += out.pfsRetries
		ckptSeqBase += out.ckptAttempts
		if out.loudErr != nil {
			res.WallClock = wall
			finish()
			return res, out.loudErr
		}
		if out.completed {
			res.WallClock = wall
			res.Completed = true
			res.StateDigest = out.digest
			instant("complete", wall, map[string]float64{"iters": float64(out.endIter)})
			finish()
			return res, nil
		}

		// Failure handling: storage damage, recovery, resume.
		res.Failures[out.failClass]++
		instant("failure", wall, map[string]float64{"class": float64(out.failClass + 1)})
		if out.ckptAborted {
			res.CkptAborts++
		}
		vict := victims(out.failClass, cfg, rng)
		if plan != nil && out.failClass == 1 && len(vict) == 1 {
			// Correlated crash patterns: a single-node loss may take its
			// partner (breaking the level-2 copy) and/or the node holding
			// its group's first parity shard (eroding level 3) down with
			// it — the paper's footnote-1 correlated events, aimed at the
			// exact nodes whose redundancy protects the victim.
			n := vict[0]
			upgraded := false
			if plan.PairCrash(episode) {
				vict = append(vict, cluster.PartnerOf(n))
				upgraded = true
			}
			if plan.ParityCrash(episode) {
				if p := cluster.ParityHolderOf(n, 0); p != n && p != vict[len(vict)-1] {
					vict = append(vict, p)
				}
				upgraded = true
			}
			if upgraded {
				res.CorrelatedCrashes++
			}
		}
		if err := cluster.Crash(vict); err != nil {
			return res, err
		}
		span("alloc", wall, cfg.Alloc, nil)
		wall += cfg.Alloc
		if plan == nil {
			lvl, _, ok := cluster.BestRecovery()
			if ok {
				rc, err := cluster.RecoveryCost(lvl, perNode)
				if err != nil {
					return res, err
				}
				span("recovery", wall, rc, map[string]float64{"level": float64(lvl), "ok": 1})
				wall += rc
				snaps, err = cluster.Restore(lvl)
				if err != nil {
					return res, err
				}
				res.Recoveries[lvl-1]++
			} else {
				snaps = nil
				res.FromScratch++
			}
		} else {
			// Escalating recovery under injection: walk the hierarchy until
			// a rung verifies, charging every failed rung's read as
			// detection latency, with further failures landing inside the
			// recovery window itself.
			for recAttempt := 0; ; recAttempt++ {
				data, outcome, rerr := cluster.RestoreEscalating()
				for _, at := range outcome.Attempts {
					rc, cerr := cluster.RecoveryCost(at.Level, perNode)
					if cerr != nil {
						return res, cerr
					}
					if at.Level == fti.Levels {
						// Transient PFS read faults on the level-4 rung.
						elapsed, attempts, ok := retry.Retry(rc, func(attempt int) bool {
							return plan.PFSReadFails(episode*(maxRecoveryCrashes+1)+recAttempt, attempt)
						})
						if !ok {
							finish()
							return res, fmt.Errorf("%w: level-4 recovery read failed after %d attempts (transient PFS reads)",
								ErrReal, attempts)
						}
						res.PFSRetries += attempts - 1
						rc = elapsed
					}
					okArg := 0.0
					if at.OK {
						okArg = 1
					}
					span("recovery", wall, rc, map[string]float64{"level": float64(at.Level), "ok": okArg})
					wall += rc
					if !at.OK {
						res.DetectionLatency += rc
					}
				}
				if class, ok := plan.RecoveryCrash(episode, recAttempt); ok && recAttempt < maxRecoveryCrashes {
					// A further failure strikes before the restored state
					// is handed back: the read bytes are discarded, more
					// storage dies, and recovery restarts after a new
					// allocation period.
					res.RecoveryCrashes++
					res.Failures[class]++
					instant("failure", wall, map[string]float64{"class": float64(class + 1)})
					if err := cluster.Crash(victims(class, cfg, rng)); err != nil {
						return res, err
					}
					span("alloc", wall, cfg.Alloc, nil)
					wall += cfg.Alloc
					continue
				}
				if rerr != nil {
					// A from-scratch restart is always legitimate before the
					// first checkpoint ever committed — there is nothing the
					// hierarchy could have protected yet, so exhaustion there
					// says nothing about recovery integrity.
					if errors.Is(rerr, fti.ErrExhausted) && (!cfg.DisableScratch || !cluster.Committed()) {
						snaps = nil
						res.FromScratch++
						break
					}
					finish()
					return res, rerr
				}
				snaps = data
				res.Recoveries[outcome.Level-1]++
				if outcome.Escalated() {
					res.Escalations++
				}
				break
			}
		}
		episode++
		nextFail, haveFail = proc.Next(wall)
	}
}
