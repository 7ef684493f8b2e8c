package experiments

import (
	"fmt"

	"mlckpt/internal/core"
	"mlckpt/internal/failure"
)

// EvalRow is one (failure case, policy) cell of the Figure 5/6 time
// analysis: the four wall-clock portions in days, plus the solved plan.
type EvalRow struct {
	Spec    string
	Outcome PolicyOutcome
}

// Portions returns productive, checkpoint, restart, and rollback means in
// days.
func (r EvalRow) Portions() [4]float64 {
	a := r.Outcome.Aggregate
	d := failure.SecondsPerDay
	return [4]float64{
		a.Productive.Mean / d,
		a.Checkpoint.Mean / d,
		a.Restart.Mean / d,
		a.Rollback.Mean / d,
	}
}

// EvalResult is the full sweep for one workload: Figure 5 (Te = 3M
// core-days) or Figure 6 (Te = 10M core-days), which also yields Table III
// (optimized scales) and Figure 7 (efficiencies).
type EvalResult struct {
	TeCoreDays float64
	Rows       []EvalRow // len = cases × policies, grouped by case
	Runs       int
}

// EvalGrid runs the sweep through the sweep grid g (worker count, shared
// cache, progress). Overrides with runs > 0 reduce the repetition count
// (tests); specs defaults to the paper's six cases. Results are identical
// for every Workers setting: each cell's simulator stream is a pure
// function of the scenario and policy.
func EvalGrid(teCoreDays float64, runs int, specs []string, g Grid) (EvalResult, error) {
	if len(specs) == 0 {
		specs = FailureCases
	}
	res := EvalResult{TeCoreDays: teCoreDays}
	var cells []Cell
	for _, spec := range specs {
		sc := EvalScenario(teCoreDays, spec)
		if runs > 0 {
			sc.Runs = runs
		}
		res.Runs = sc.Runs
		for _, pol := range core.Policies {
			cells = append(cells, Cell{Scenario: sc, Policy: pol})
		}
	}
	outs, err := RunGrid(cells, g)
	if err != nil {
		return res, fmt.Errorf("eval: %w", err)
	}
	for i, out := range outs {
		res.Rows = append(res.Rows, EvalRow{Spec: cells[i].Scenario.Spec, Outcome: out})
	}
	return res, nil
}

// Render prints the Figure 5/6 time analysis.
func (r EvalResult) Render() string {
	t := NewTable(fmt.Sprintf("Figure 5/6: time analysis (Te=%.3gm core-days, N^(*)=1m cores, mean of %d runs, days)",
		r.TeCoreDays/1e6, r.Runs),
		"case", "solution", "productive", "checkpoint", "restart", "rollback", "wall-clock", "trunc")
	for _, row := range r.Rows {
		p := row.Portions()
		t.Add(row.Spec, row.Outcome.Policy.String(), p[0], p[1], p[2], p[3],
			row.Outcome.WallClockDays(), row.Outcome.Aggregate.Truncated)
	}
	return t.String()
}

// RenderTab3 prints Table III: the optimized execution scales.
func (r EvalResult) RenderTab3() string {
	t := NewTable(fmt.Sprintf("Table III: optimized execution scales (Te=%.3gm core-days)", r.TeCoreDays/1e6),
		"solution", "case", "N* (k cores)", "x per level")
	for _, row := range r.Rows {
		if !row.Outcome.Policy.OptimizesScale() {
			continue
		}
		t.Add(row.Outcome.Policy.String(), row.Spec,
			row.Outcome.Solution.N/1000, fmt.Sprintf("%v", row.Outcome.Solution.Intervals()))
	}
	return t.String()
}

// RenderFig7 prints Figure 7: the efficiency of every solution.
func (r EvalResult) RenderFig7() string {
	t := NewTable(fmt.Sprintf("Figure 7: efficiency (Te=%.3gm core-days)", r.TeCoreDays/1e6),
		"case", "solution", "N (k cores)", "efficiency")
	for _, row := range r.Rows {
		t.Add(row.Spec, row.Outcome.Policy.String(),
			row.Outcome.Solution.N/1000, row.Outcome.Efficiency(r.TeCoreDays))
	}
	return t.String()
}
