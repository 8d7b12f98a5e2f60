package core

import (
	"testing"

	"libbat/internal/perf"
)

// TestDistPlanThresholdIsModeledCrossover pins DefaultDistPlanThreshold to
// the world size at which the modeled distributed plan overtakes the
// centralized one, on both system profiles.
func TestDistPlanThresholdIsModeledCrossover(t *testing.T) {
	for _, p := range []perf.Profile{perf.Stampede2(), perf.Summit()} {
		if x := p.PlanCrossover(perf.DefaultPlanParams(), 0.25, 1<<10, 1<<22); x != DefaultDistPlanThreshold {
			t.Errorf("%s: modeled plan crossover %d != DefaultDistPlanThreshold %d",
				p.Name, x, DefaultDistPlanThreshold)
		}
	}
}
