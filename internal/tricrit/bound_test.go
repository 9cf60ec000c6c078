package tricrit_test

import (
	"context"
	"math"
	"testing"

	"energysched/internal/closedform"
	"energysched/internal/core"
	"energysched/internal/dag"
	"energysched/internal/model"
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

// TestBiCritLowerBoundExactOnSP checks the bi-crit relaxation bound on
// the corpus instances whose constraint graph is series-parallel with
// closed-form speeds in [fmin, fmax]: BiCritLowerBound is the closed
// form, bit for bit, and a WithLowerBound(true) tricrit-best-of answer
// through core.Solve reports it at or below its own energy.
func TestBiCritLowerBoundExactOnSP(t *testing.T) {
	checked := 0
	for _, c := range corpus(t) {
		cg, err := c.mp.ConstraintGraph(c.g)
		if err != nil {
			t.Fatal(err)
		}
		sp, err := dag.Decompose(cg)
		if err != nil {
			continue
		}
		cf, err := closedform.SolveSPBounded(sp, c.in.Deadline, c.in.FMin, c.in.FMax)
		if err != nil {
			continue
		}
		lb, err := tricrit.BiCritLowerBound(c.g, c.mp, c.in)
		if err != nil {
			t.Fatal(err)
		}
		if lb != cf.Energy {
			t.Errorf("%s: bound %v, closed-form optimum %v", c.name, lb, cf.Energy)
		}
		sm, err := model.NewContinuous(c.in.FMin, c.in.FMax)
		if err != nil {
			t.Fatal(err)
		}
		in := &core.Instance{Graph: c.g, Mapping: c.mp, Speed: sm, Deadline: c.in.Deadline, Rel: &c.in.Rel, FRel: c.in.FRel}
		res, err := core.Solve(context.Background(), in, core.WithStrategy(core.StrategyBestOf), core.WithLowerBound(true))
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if res.LowerBound != cf.Energy || res.LowerBound > res.Energy {
			t.Errorf("%s: lowerBound %v, energy %v, closed-form optimum %v", c.name, res.LowerBound, res.Energy, cf.Energy)
		}
		checked++
	}
	if checked < 40 {
		t.Fatalf("only %d series-parallel instances in bounds", checked)
	}
	t.Logf("%d series-parallel instances", checked)
}
