package experiments

import (
	"fmt"

	"mlckpt/internal/core"
)

// Tab4Row is one (block, case, policy) cell of Table IV.
type Tab4Row struct {
	RecFactor float64
	Spec      string
	Outcome   PolicyOutcome
	WCTDays   float64
	Eff       float64
}

// Tab4Result reproduces Table IV: the constant-PFS-cost study (levels cost
// 50/100/200/2000 s, Te = 2M core-days) with wall-clock time in days and
// efficiency per solution, in two blocks (recovery factor 1.0 and 0.5 —
// the paper prints two blocks without naming the knob; see EXPERIMENTS.md).
type Tab4Result struct {
	Rows []Tab4Row
	Runs int
}

// Tab4Grid runs the study through the sweep grid g. runs > 0 overrides
// the 100-run default.
func Tab4Grid(runs int, specs []string, g Grid) (Tab4Result, error) {
	if len(specs) == 0 {
		specs = Tab4Cases
	}
	res := Tab4Result{}
	var cells []Cell
	for _, recFactor := range []float64{1.0, 0.5} {
		for _, spec := range specs {
			sc := Tab4Scenario(spec, recFactor)
			if runs > 0 {
				sc.Runs = runs
			}
			res.Runs = sc.Runs
			for _, pol := range core.Policies {
				cells = append(cells, Cell{Scenario: sc, Policy: pol})
			}
		}
	}
	outs, err := RunGrid(cells, g)
	if err != nil {
		return res, fmt.Errorf("tab4: %w", err)
	}
	for i, out := range outs {
		sc := cells[i].Scenario
		res.Rows = append(res.Rows, Tab4Row{
			RecFactor: sc.RecFactor,
			Spec:      sc.Spec,
			Outcome:   out,
			WCTDays:   out.WallClockDays(),
			Eff:       out.Efficiency(sc.TeCoreDays),
		})
	}
	return res, nil
}

// Render prints the table in the paper's two-block layout.
func (r Tab4Result) Render() string {
	t := NewTable(fmt.Sprintf("Table IV: constant PFS cost (50/100/200/2000 s), Te=2m core-days, %d runs", r.Runs),
		"block", "case", "solution", "WCT (days)", "efficiency", "N (k)")
	for _, row := range r.Rows {
		t.Add(fmt.Sprintf("R=%.1fC", row.RecFactor), row.Spec,
			row.Outcome.Policy.String(), row.WCTDays, row.Eff, row.Outcome.Solution.N/1000)
	}
	return t.String()
}
