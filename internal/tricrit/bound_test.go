package tricrit_test

import (
	"math"
	"testing"

	"energysched/internal/tricrit"
)

// TestDualBoundSound holds the certified bound the heuristics prune
// with to what the solver computes on the corpus: no configuration a
// heuristic evaluates comes out below the bound it was admitted under,
// and on the instances with n ≤ 12 no configuration one re-execution
// flip away from the all-single start or from BestOf's pick, pruned or
// not, comes out below the bound that configuration's prices give it.
// A configuration's bound on itself must also be tight, within the
// barrier's own accuracy (its iterate's duality gap), or the pruning
// would be vacuous.
func TestDualBoundSound(t *testing.T) {
	evals, flips := 0, 0
	for _, c := range corpus(t) {
		best, err := tricrit.BestOfObserved(c.g, c.mp, c.in, func(bound float64, cfg *tricrit.Config) {
			evals++
			if cfg.Energy < bound {
				t.Errorf("%s: evaluated energy %v below its bound %v", c.name, cfg.Energy, bound)
			}
		})
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if c.g.N() > 12 {
			continue
		}
		for _, reexec := range [][]bool{make([]bool, c.g.N()), best.ReExec} {
			energy, bound, nb, err := tricrit.Neighbours(c.g, c.mp, c.in, reexec)
			if err != nil {
				t.Fatalf("%s: %v", c.name, err)
			}
			if bound > energy || bound < energy*(1-1e-4) {
				t.Errorf("%s: bound %v on own energy %v is unsound or loose", c.name, bound, energy)
			}
			for _, x := range nb {
				if math.IsNaN(x.Energy) {
					continue
				}
				flips++
				if x.Energy < x.Bound {
					t.Errorf("%s: flipping task %d gives energy %v below its bound %v", c.name, x.Task, x.Energy, x.Bound)
				}
			}
		}
	}
	if evals == 0 || flips == 0 {
		t.Fatalf("checked %d evaluations and %d flips", evals, flips)
	}
}
