package sim

import (
	"math"
	"testing"

	"mlckpt/internal/core"
	"mlckpt/internal/failure"
	"mlckpt/internal/model"
	"mlckpt/internal/obs"
	"mlckpt/internal/overhead"
	"mlckpt/internal/speedup"
	"mlckpt/internal/stats"
)

// chainPaths counts the schedule transitions of recorded runs.
type chainPaths struct {
	steps     int // checkpoints taken on the chain
	offEnd    int // checkpoints at the last state of an incomplete chain
	restores  int // restores onto the chain
	leaves    int // restores to a chain checkpoint whose derived marks leave the chain
	restarts  int // restarts from scratch onto the chain
	reentries int // of which the run was on the machine before the failure
	offChain  int // checkpoints taken on the machine
}

// walk replays a run's trace track against the schedule, following the
// chain the way the runner does, and counts the transitions taken. It
// fails the test where a checkpoint taken on the chain is not the state's
// due mark and level, bit for bit.
func (c *chainPaths) walk(t *testing.T, s schedule, L int, events []obs.TrackEvent) {
	t.Helper()
	pos := -1
	if len(s.mark) > 0 {
		pos = 0
	}
	last := make([]int, L) // chain state of each level's newest checkpoint
	for _, ev := range events {
		switch ev.Name {
		case "checkpoint":
			level, progress := int(ev.Arg("level"))-1, ev.Arg("progress")
			if pos < 0 {
				c.offChain++
				last[level] = -1
				continue
			}
			if math.Float64bits(progress) != math.Float64bits(s.mark[pos]) || level != s.level[pos] {
				t.Fatalf("checkpoint L%d at %v on chain state %d, whose due mark is L%d at %v",
					level+1, progress, pos, s.level[pos]+1, s.mark[pos])
			}
			c.steps++
			last[level] = pos
			if pos++; pos == len(s.mark) {
				c.offEnd++
				pos = -1
			}
		case "recovery":
			level := int(ev.Arg("restore_level")) - 1
			if level < 0 {
				if s.enter[0] < 0 {
					pos = -1
					continue
				}
				c.restarts++
				if pos < 0 {
					c.reentries++
				}
				pos = 0
				continue
			}
			j := last[level]
			switch {
			case j >= 0 && s.enter[j+1] >= 0:
				c.restores++
				pos = j + 1
			case j >= 0:
				c.leaves++
				pos = -1
			default:
				pos = -1
			}
		}
	}
}

// chainConfig is a run of P = 10⁴ s at N = 1000 with constant checkpoint
// and recovery costs per level, perDay failures per day per level, and
// ±30% jitter.
func chainConfig(x, ckpt, perDay []float64) Config {
	const n, P = 1000.0, 1e4
	levels := make([]overhead.Level, len(x))
	for i := range levels {
		levels[i] = overhead.Level{Checkpoint: overhead.Constant(ckpt[i]), Recovery: overhead.Constant(ckpt[i])}
	}
	return Config{
		Params: &model.Params{
			Te:      P * n,
			Speedup: speedup.Linear{Kappa: 1, MaxScale: 1e6},
			Levels:  levels,
			Alloc:   10,
			Rates:   failure.Rates{PerDay: perDay, Baseline: n},
		},
		N: n, X: x, JitterRatio: 0.3,
	}
}

// TestScheduleTransitionsMatchReference drives runs through every way on
// and off the chain and holds each run to runRef by float64 bits:
//
//   - "coincident": x = (15, 18 − 1e-9, 1). Level 1 and level 2 marks
//     meet at P/3 and 2P/3 but for 1.9e-7 s. That is more than the
//     machine's 1e-9 s skip tolerance, so level 1 checkpoints and level 2
//     follows; but it is less than 1e-9 level-2 periods (5.6e-7 s), the
//     tolerance of strike's derivation, which from the level-1
//     checkpoint counts level 2's mark as passed. A class-1 failure
//     during that level-2 checkpoint restores to the level-1 one and
//     leaves the chain; class-3 failures, with no level-3 checkpoint,
//     restart from scratch, some of them from the machine.
//   - "capped": x = (1.5 scheduleCap, 1). The chain stops at the cap,
//     runs walk past it onto the machine, and class-2 failures restart
//     them onto the chain.
//
// Both see ordinary restores onto the chain from class-1 failures.
func TestScheduleTransitionsMatchReference(t *testing.T) {
	const perSec = failure.SecondsPerDay // per-day rate of one failure per second at N = N_b
	for _, tc := range []struct {
		name   string
		cfg    Config
		runs   int
		capped bool
	}{
		{"coincident", chainConfig(
			[]float64{15, 18 - 1e-9, 1},
			[]float64{10, 100, 50},
			[]float64{1e-3 * perSec, 2e-4 * perSec, 1e-4 * perSec}), 60, false},
		{"capped", chainConfig(
			[]float64{scheduleCap * 1.5, 1},
			[]float64{0.01, 50},
			[]float64{2e-4 * perSec, 1.5e-4 * perSec}), 12, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			P, err := productiveTime(&tc.cfg)
			if err != nil {
				t.Fatal(err)
			}
			s := newSchedule(P, tc.cfg.X)
			if got := len(s.mark) == scheduleCap; got != tc.capped {
				t.Fatalf("%d chain states: capped %t, want %t", len(s.mark), got, tc.capped)
			}
			var paths chainPaths
			g := stats.NewRNG(20261019)
			for k := 0; k < tc.runs; k++ {
				seed := g.Uint64()
				if d := diffRun(tc.cfg, seed, k%4 == 0); d != "" {
					t.Fatalf("run %d (seed %#x): %s", k, seed, d)
				}
				_, track, err := runTrack(tc.cfg, stats.NewRNG(seed))
				if err != nil {
					t.Fatal(err)
				}
				paths.walk(t, s, tc.cfg.Params.L(), track)
			}
			t.Logf("%+v", paths)
			if paths.steps == 0 || paths.restores == 0 || paths.restarts == 0 || paths.reentries == 0 {
				t.Errorf("paths %+v: want chain steps, restores, restarts and re-entries from the machine", paths)
			}
			if !tc.capped && paths.leaves == 0 {
				t.Errorf("paths %+v: no restore left the chain", paths)
			}
			if tc.capped && paths.offEnd == 0 {
				t.Errorf("paths %+v: no run walked past the cap", paths)
			}
		})
	}
}

// TestEvaluationPlansStayOnChain pins the traffic the runner is built
// for: the plans of the paper's evaluation grid at T_e = 0.3M core-days,
// the middle of perfbench's grid band, take every checkpoint, restore and
// restart on the shared chain, with none left for the mark machine. It
// solves cases 16-12-8-4 and 4-2-1-0.5 under all four policies with the
// Section IV parameters (quadratic speedup, κ = 0.46, N^(*) = N_b = 10⁶,
// exascale Table II costs, R = C/2, A = 60 s) and walks 20 jittered runs
// of each plan along its schedule. A change that moves such runs onto the
// machine, which is the exact fallback and not the fast path, fails here.
func TestEvaluationPlansStayOnChain(t *testing.T) {
	const runs = 20
	for _, spec := range []string{"16-12-8-4", "4-2-1-0.5"} {
		p := &model.Params{
			Te:      0.3e6 * failure.SecondsPerDay,
			Speedup: speedup.Quadratic{Kappa: 0.46, NStar: 1e6},
			Levels:  overhead.SymmetricLevels(overhead.ExascaleCosts(), 0.5),
			Alloc:   60,
			Rates:   failure.MustParseRates(spec, 1e6),
		}
		for _, pol := range core.Policies {
			t.Run(spec+"/"+pol.String(), func(t *testing.T) {
				sol, err := pol.Solve(p, core.Options{})
				if err != nil {
					t.Fatal(err)
				}
				cfg := Config{
					Params: p, N: sol.N, X: pol.ExpandX(p, sol), JitterRatio: 0.3,
					MaxWallClock: 3000 * failure.SecondsPerDay,
				}
				P, err := productiveTime(&cfg)
				if err != nil {
					t.Fatal(err)
				}
				s := newSchedule(P, cfg.X)
				// RunMany traces only run 0, so each run plays through Run
				// with its own track, on the generator RunMany would give
				// it: split from the seed in run order.
				root := stats.NewRNG(20140701)
				var paths chainPaths
				for k := 0; k < runs; k++ {
					_, track, err := runTrack(cfg, root.Split())
					if err != nil {
						t.Fatal(err)
					}
					paths.walk(t, s, p.L(), track)
				}
				t.Logf("x = %v, %d states: %+v", cfg.X, len(s.mark), paths)
				if paths.steps == 0 || paths.offChain != 0 || paths.leaves != 0 || paths.offEnd != 0 || paths.reentries != 0 {
					t.Errorf("paths %+v: want chain steps and nothing on the machine", paths)
				}
				if !pol.Multilevel() && paths.restores+paths.restarts == 0 {
					t.Errorf("paths %+v: no restore or restart onto the chain", paths)
				}
			})
		}
	}
}

// TestScheduleShape checks the built chain's invariants on small plans
// and on the edge cases: strictly increasing marks from mark[0] > 0, one
// enter entry per state plus the off-chain one, states whose restore point
// derives to another state where marks meet but for a hair, a complete
// chain's last mark at or past P, and a state count bounded by scheduleCap
// however large x is.
func TestScheduleShape(t *testing.T) {
	const P = 1e4
	for _, tc := range []struct {
		name     string
		x        []float64
		states   int  // -1: do not check
		complete bool // the last state's due mark is at or past P
		left     bool // some state's restore point derives off the chain
	}{
		{"no checkpointing level", []float64{1, 1}, 1, true, false},
		{"single level", []float64{1, 40}, 40, true, false},
		{"coincident levels", []float64{16, 8, 4, 2}, 16, true, false},
		{"marks 1.9e-7 s apart", []float64{15, 18 - 1e-9, 1}, -1, true, true},
		{"x beyond the cap", []float64{1e9}, scheduleCap, false, false},
		{"every level beyond the cap", []float64{1e300, 3e12, 1e9, 7e6}, scheduleCap, false, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s := newSchedule(P, tc.x)
			n := len(s.mark)
			if tc.states >= 0 && n != tc.states {
				t.Errorf("%d states, want %d", n, tc.states)
			}
			if cap(s.mark) > scheduleCap || cap(s.level) > scheduleCap || cap(s.enter) > scheduleCap+1 || len(s.end) > len(tc.x) {
				t.Errorf("capacities %d/%d/%d exceed the cap %d", cap(s.mark), cap(s.level), cap(s.enter), scheduleCap)
			}
			if len(s.level) != n || len(s.enter) != n+1 || s.enter[n] != -1 {
				t.Fatalf("%d levels, %d enter entries (last %d) for %d states", len(s.level), len(s.enter), s.enter[n], n)
			}
			left := false
			for j := 0; j < n; j++ {
				if prev := 0.0; j > 0 {
					prev = s.mark[j-1]
					if !(s.mark[j] > prev) {
						t.Fatalf("mark[%d] = %v after %v", j, s.mark[j], prev)
					}
				} else if !(s.mark[0] > 0) {
					t.Fatalf("mark[0] = %v", s.mark[0])
				}
				if e := s.enter[j]; e != j && e != -1 {
					t.Fatalf("enter[%d] = %d", j, e)
				}
				left = left || s.enter[j] < 0
			}
			if left != tc.left {
				t.Errorf("a restore point derives off the chain: %t, want %t", left, tc.left)
			}
			if complete := s.mark[n-1] >= P; complete != tc.complete {
				t.Errorf("last mark %v: complete %t, want %t", s.mark[n-1], complete, tc.complete)
			}
		})
	}
}
