package mlckpt

// PaperSpec returns the Section IV evaluation problem as a Spec: the
// workload in core-days, the exascale Table II cost models (level-4 PFS
// cost saturating at 256Ki clients; see DESIGN.md), allocation period 60 s,
// and a failure case in the paper's "r1-r2-r3-r4" notation.
func PaperSpec(teCoreDays float64, failuresPerDay []float64) Spec {
	return Spec{
		TeCoreDays: teCoreDays,
		Speedup:    SpeedupSpec{Kind: "quadratic", Kappa: 0.46, IdealScale: 1e6},
		Levels: []LevelSpec{
			{CheckpointConst: 0.866},
			{CheckpointConst: 2.586},
			{CheckpointConst: 3.886},
			{CheckpointConst: 5.5, CheckpointSlope: 0.0212, SaturationCap: 262144},
		},
		AllocSeconds:   60,
		FailuresPerDay: failuresPerDay,
	}
}
