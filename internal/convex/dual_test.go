package convex_test

import (
	"errors"
	"math"
	"testing"

	"energysched/internal/closedform"
	"energysched/internal/convex"
	"energysched/internal/core"
	"energysched/internal/dag"
	"energysched/internal/loadgen"
	"energysched/internal/rng"
)

// TestDualBoundBelowSPOptimum holds the certified bound to the exact
// optimum on the bi-crit instances of svcbench's cold-single pool
// streams at seed 91 (tags 1 and 2) whose constraint graph is
// series-parallel with closed-form speeds under fmax: there
// closedform.SolveSPBounded is the optimum of the program the barrier
// solves with no lower speed bound. The bound must lie below that
// optimum and within the barrier's accuracy of it.
func TestDualBoundBelowSPOptimum(t *testing.T) {
	ws := convex.NewWorkspace()
	var dual convex.Dual
	st := rng.New(91) // svcbench mixes -seed into its base seed
	seed := int64(st.Uint64())
	checked := 0
	for _, spec := range []loadgen.Spec{
		{Seed: loadgen.PoolSeed(seed, 1), N: 24},
		{Seed: loadgen.PoolSeed(seed, 2), N: 12},
	} {
		for i := 0; i < 100; i++ {
			raw, err := loadgen.PoolInstance(spec, i)
			if err != nil {
				t.Fatal(err)
			}
			in, err := core.UnmarshalInstance(raw)
			if err != nil {
				t.Fatal(err)
			}
			cg, err := in.Mapping.ConstraintGraph(in.Graph)
			if err != nil {
				t.Fatal(err)
			}
			sp, err := dag.Decompose(cg)
			if errors.Is(err, dag.ErrNotSeriesParallel) {
				continue
			}
			if err != nil {
				t.Fatal(err)
			}
			cf, err := closedform.SolveSPBounded(sp, in.Deadline, in.Speed.FMax)
			if errors.Is(err, closedform.ErrExceedsFMax) {
				continue
			}
			if err != nil {
				t.Fatal(err)
			}
			n := cg.N()
			lo, hi := make([]float64, n), make([]float64, n)
			for k := range hi {
				hi[k] = in.Speed.FMax
			}
			if _, err := convex.MinimizeEnergyWS(ws, cg, in.Deadline, cg.Weights(), lo, hi, convex.Options{}); err != nil {
				t.Fatal(err)
			}
			if !ws.Dual(cg, cg.Weights(), &dual) {
				t.Fatalf("instance %d: barrier solve yields no dual", i)
			}
			if b := dual.Bound(); b > cf.Energy || b < cf.Energy*(1-1e-4) {
				t.Errorf("instance %d: bound %v against the closed-form optimum %v", i, b, cf.Energy)
			}
			checked++
		}
	}
	if checked < 100 {
		t.Fatalf("only %d series-parallel instances in bounds", checked)
	}
}

// TestDualAbsentWithoutIterate checks that a solve with no barrier
// iterate — a deadline at the fmax critical path, or an infeasible one
// — certifies nothing, even on a workspace whose previous solve did.
func TestDualAbsentWithoutIterate(t *testing.T) {
	g := dag.ChainGraph(2, 3)
	lo, hi := []float64{0, 0}, []float64{1, 1}
	ws := convex.NewWorkspace()
	var dual convex.Dual
	if _, err := convex.MinimizeEnergyWS(ws, g, 10, g.Weights(), lo, hi, convex.Options{}); err != nil {
		t.Fatal(err)
	}
	if !ws.Dual(g, g.Weights(), &dual) || math.IsInf(dual.Bound(), -1) {
		t.Fatal("loose deadline: no dual")
	}
	for _, deadline := range []float64{5, 4} {
		_, err := convex.MinimizeEnergyWS(ws, g, deadline, g.Weights(), lo, hi, convex.Options{})
		if deadline == 4 && err != convex.ErrInfeasible {
			t.Fatalf("deadline 4: err %v, want ErrInfeasible", err)
		}
		if ws.Dual(g, g.Weights(), &dual) {
			t.Errorf("deadline %v: dual read without an iterate", deadline)
		}
		if b, bw := dual.Bound(), dual.BoundWith(0, 4, 0, 1); !math.IsInf(b, -1) || !math.IsInf(bw, -1) {
			t.Errorf("deadline %v: bounds %v, %v, want -Inf", deadline, b, bw)
		}
	}
}
