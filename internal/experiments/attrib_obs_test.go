package experiments

import (
	"math"
	"strings"
	"testing"

	"mlckpt/internal/failure"
	"mlckpt/internal/inject"
	"mlckpt/internal/mpisim"
	"mlckpt/internal/obs"
	"mlckpt/internal/obs/attrib"
	"mlckpt/internal/sweep"
)

// chaosAttribution runs the chaos grid with telemetry and attributes every
// real-run track, returning track -> rendered report (or error text — the
// failure mode must be as deterministic as the success mode).
func chaosAttribution(t *testing.T, workers int) map[string]string {
	t.Helper()
	col := obs.NewCollector()
	if _, err := ChaosGrid(16, Grid{Workers: workers, Cache: sweep.NewCache(), Obs: col, Clock: fakeClock()}); err != nil {
		t.Fatalf("ChaosGrid(workers=%d): %v", workers, err)
	}
	out := map[string]string{}
	for _, track := range col.Trace.Tracks() {
		if !strings.HasPrefix(track, "real/") {
			continue
		}
		rep, err := attrib.FromTrace(col.Trace, track)
		if err != nil {
			out[track] = "error: " + err.Error()
			continue
		}
		if !rep.Exact {
			t.Errorf("workers=%d %s: attribution identity not exact (clipped %g)", workers, track, rep.Clipped)
		}
		out[track] = rep.Render()
	}
	if len(out) == 0 {
		t.Fatalf("workers=%d: no real-run tracks found in %v", workers, col.Trace.Tracks())
	}
	return out
}

// TestChaosAttributionWorkerDeterminism: the waste-attribution reports of
// every chaos cell (fault injection active) are byte-identical no matter
// how many workers race over the grid — the reports are pure functions of
// the trace bytes, which are pure functions of the cell content.
func TestChaosAttributionWorkerDeterminism(t *testing.T) {
	r1 := chaosAttribution(t, 1)
	r8 := chaosAttribution(t, 8)
	if len(r1) != len(r8) {
		t.Fatalf("track sets differ: %d vs %d", len(r1), len(r8))
	}
	for track, rep := range r1 {
		if r8[track] != rep {
			t.Errorf("%s: reports differ between workers=1 and workers=8:\n--- w1 ---\n%s\n--- w8 ---\n%s", track, rep, r8[track])
		}
	}
}

// TestChaosAttributionEngineIndependence: the attribution report of a
// fault-injected real run is byte-identical under the event-scheduler and
// goroutine mpisim engines.
func TestChaosAttributionEngineIndependence(t *testing.T) {
	run := func(engine mpisim.Engine) string {
		col := obs.NewCollector()
		cfg := chaosConfig(16, 4) // a seed with many failures and scratch restarts
		cfg.DisableScratch = false
		cfg.Engine = engine
		cfg.Inject = inject.MustCompile(chaosSpec(0.1, 0.5), chaosRootSeed, "chaos/engine-attrib")
		cfg.Obs = col
		cfg.ObsTrack = "real/engine-attrib"
		rr, err := RunReal(cfg)
		if err != nil {
			t.Fatalf("engine %v: %v", engine, err)
		}
		if !rr.Completed {
			t.Fatalf("engine %v: run did not complete", engine)
		}
		rep, err := attrib.FromTrace(col.Trace, "real/engine-attrib")
		if err != nil {
			t.Fatalf("engine %v: %v", engine, err)
		}
		if !rep.Exact {
			t.Fatalf("engine %v: identity not exact (clipped %g)", engine, rep.Clipped)
		}
		// Real runs are the only source of detection spans: verify-on-restore
		// rejections must land in the detection bucket, second for second.
		if rep.Detection <= 0 || math.Abs(rep.Detection-rr.DetectionLatency) > 1e-9*rr.DetectionLatency {
			t.Fatalf("engine %v: detection bucket %v, run measured %v (%d escalations)",
				engine, rep.Detection, rr.DetectionLatency, rr.Escalations)
		}
		return rep.Render()
	}
	ev, gr := run(mpisim.EventEngine), run(mpisim.GoroutineEngine)
	if ev != gr {
		t.Errorf("attribution differs across engines:\n--- event ---\n%s\n--- goroutine ---\n%s", ev, gr)
	}
}

// TestRealRunAttributionZeroFailure: with no failures injected and zero
// rates, only the work and checkpoint buckets are populated.
func TestRealRunAttributionZeroFailure(t *testing.T) {
	col := obs.NewCollector()
	cfg := chaosConfig(16, 777)
	cfg.Rates = failure.MustParseRates("0-0-0-0", 16)
	cfg.Obs = col
	cfg.ObsTrack = "real/quiet"
	rr, err := RunReal(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !rr.Completed {
		t.Fatal("zero-rate run did not complete")
	}
	rep, err := attrib.FromTrace(col.Trace, "real/quiet")
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Exact {
		t.Fatalf("identity not exact (clipped %g)", rep.Clipped)
	}
	if rep.Redo != 0 || rep.Alloc != 0 || rep.Detection != 0 || len(rep.Recovery) != 0 ||
		rep.RecoveryAborted != 0 || rep.CkptAborted != 0 || rep.TotalFailures() != 0 {
		t.Fatalf("failure-free run has waste buckets: %+v", rep)
	}
	if rep.Work <= 0 || len(rep.Ckpt) == 0 {
		t.Fatalf("work %g, ckpt levels %d — expected both nonzero", rep.Work, len(rep.Ckpt))
	}
}
