package main

import (
	"fmt"

	"mlckpt/internal/fti"
)

// defaultSeed is the seed a run uses when --seed is absent.
const defaultSeed = 1

// perLayer lists every per-layer metric with its unit. A traced run
// prints all of them; one that belongs to another workload's layers
// reads 0.
func perLayer() [][2]string {
	out := [][2]string{
		{"cpu.samples", "count"},
		{"trace.overhead_share", "ratio"},
		{"trace.unattributed_share", "ratio"},
	}
	for _, mod := range cpuModules {
		out = append(out, [2]string{"cpu." + mod, "share"})
	}
	seen := map[string]bool{}
	for _, spans := range [][]string{planSpans, gridSpans, realSpans} {
		for _, s := range spans {
			if !seen[s] {
				seen[s] = true
				out = append(out, [2]string{"self_ms." + s, "ms"})
			}
		}
	}
	out = append(out,
		// plan
		[2]string{"mlckpt.params_us", "us"},
		[2]string{"core.solve_us", "us"},
		[2]string{"core.expand_us", "us"},
		[2]string{"core.outer_iters", "count"},
		[2]string{"core.inner_iters", "count"},
		[2]string{"core.bisect_iters", "count"},
		[2]string{"model.wallclock_ns", "ns"},
		// grid
		[2]string{"core.batch_ms", "ms"},
		[2]string{"core.batch_lanes", "count"},
		[2]string{"sim.cell_ms", "ms"},
		[2]string{"sim.event_ns", "ns"},
		[2]string{"sim.events_per_run", "count"},
		[2]string{"sim.truncated", "count"},
		[2]string{"sweep.solve_computed", "count"},
		[2]string{"sweep.solve_hits", "count"},
		[2]string{"sweep.post_computed", "count"},
		[2]string{"sweep.cpu_util", "ratio"},
		// realrun
		[2]string{"real.virtual_s", "s"},
		[2]string{"real.failures", "count"},
		[2]string{"real.from_scratch", "count"},
	)
	for l := 1; l <= fti.Levels; l++ {
		out = append(out, [2]string{fmt.Sprintf("real.recoveries.l%d", l), "count"})
	}
	out = append(out,
		[2]string{"real.escalations", "count"},
		[2]string{"real.pfs_retries", "count"},
		[2]string{"real.ckpt_aborts", "count"},
		[2]string{"real.injected_faults", "count"},
		[2]string{"heat.cell_ns", "ns"},
		[2]string{"mpisim.iter_us", "us"},
	)
	for l := 1; l <= fti.Levels; l++ {
		out = append(out, [2]string{fmt.Sprintf("fti.ckpt_us.l%d", l), "us"})
	}
	for l := 1; l <= fti.Levels; l++ {
		out = append(out, [2]string{fmt.Sprintf("fti.restore_ms.l%d", l), "ms"})
	}
	return append(out,
		[2]string{"erasure.encode_mb_s", "MB/s"},
		[2]string{"erasure.reconstruct_mb_s", "MB/s"},
	)
}
