package experiments

import (
	"reflect"
	"testing"

	"mlckpt/internal/core"
	"mlckpt/internal/sweep"
)

// SolvePolicy is SolvePolicyObs without telemetry.
func SolvePolicy(s Scenario, pol core.Policy) (core.Solution, []float64, error) {
	return SolvePolicyObs(s, pol, nil, "")
}

// RunPolicy solves the policy on the scenario and simulates its schedule.
func RunPolicy(s Scenario, pol core.Policy) (PolicyOutcome, error) {
	sol, x, err := SolvePolicy(s, pol)
	if err != nil {
		return PolicyOutcome{}, err
	}
	return SimulatePolicy(s, pol, sol, x, s.SimSeed(pol))
}

// TestGridBatchMatchesSequentialPolicies: running cells through RunGrid's
// sweep engine must be invisible in the results — every outcome equals
// what the cell-at-a-time RunPolicy path computes, bit for bit, across all
// four policies.
func TestGridBatchMatchesSequentialPolicies(t *testing.T) {
	sc := EvalScenario(3e6, "8-4-2-1")
	sc.Runs = 3
	var cells []Cell
	for _, pol := range core.Policies {
		cells = append(cells, Cell{Scenario: sc, Policy: pol})
	}
	got, err := RunGrid(cells, Grid{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	for i, c := range cells {
		want, err := RunPolicy(c.Scenario, c.Policy)
		if err != nil {
			t.Fatalf("RunPolicy(%v): %v", c.Policy, err)
		}
		if !reflect.DeepEqual(got[i], want) {
			t.Errorf("policy %v: grid outcome differs from sequential RunPolicy", c.Policy)
		}
	}
}

// TestGridBatchSkipsWarmCache: a grid whose every solve key is already
// cached must not re-solve anything, so the second run's misses only cover
// the simulate stages' keys (which Tab4-vs-Eval style reuse shares too;
// here the grids are identical, so there are no new misses at all).
func TestGridBatchSkipsWarmCache(t *testing.T) {
	sc := EvalScenario(3e6, "4-3-2-1")
	sc.Runs = 3
	cells := []Cell{{Scenario: sc, Policy: core.MLOptScale}, {Scenario: sc, Policy: core.SLOriScale}}
	cache := sweep.NewCache()
	first, err := RunGrid(cells, Grid{Workers: 1, Cache: cache})
	if err != nil {
		t.Fatal(err)
	}
	_, misses := cache.Stats()
	second, err := RunGrid(cells, Grid{Workers: 1, Cache: cache})
	if err != nil {
		t.Fatal(err)
	}
	if _, m := cache.Stats(); m != misses {
		t.Errorf("warm-cache grid recomputed: misses %d -> %d", misses, m)
	}
	if !reflect.DeepEqual(first, second) {
		t.Error("warm-cache grid outcomes differ from the first run")
	}
}
