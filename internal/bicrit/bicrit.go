// Package bicrit is the exact CONTINUOUS BI-CRIT solve shared by the
// continuous-convex solver and the TRI-CRIT lower bound: the paper's
// series-parallel closed form (Section III) where it applies, the
// convex barrier everywhere else.
package bicrit

import (
	"energysched/internal/closedform"
	"energysched/internal/convex"
	"energysched/internal/dag"
)

// Solve minimizes Σ wᵢfᵢ² over the constraint graph cg, with task
// weights from cg, every speed in [fmin, fmax] and the deadline.
//
// When cg is series-parallel and the closed-form speeds lie in
// [fmin, fmax], the closed form is the optimum: it solves the program
// without speed bounds and is feasible with them. Solve then returns it
// with closedForm set and Iterations 0. On any other instance it falls
// back to convex.MinimizeEnergy, whose errors it returns unchanged.
func Solve(cg *dag.Graph, deadline, fmin, fmax float64) (res *convex.Result, closedForm bool, err error) {
	if res := solveSP(cg, deadline, fmin, fmax); res != nil {
		return res, true, nil
	}
	n := cg.N()
	lo, hi := make([]float64, n), make([]float64, n)
	for i := range lo {
		lo[i], hi[i] = fmin, fmax
	}
	res, err = convex.MinimizeEnergy(cg, deadline, cg.Weights(), lo, hi, convex.Options{})
	return res, false, err
}

// solveSP returns the closed-form optimum, or nil when cg is not
// series-parallel, a closed-form speed leaves [fmin, fmax], or its
// ASAP schedule overruns the deadline by more than the barrier's own
// 1e-9 relative slack.
func solveSP(cg *dag.Graph, deadline, fmin, fmax float64) *convex.Result {
	sp, err := dag.Decompose(cg)
	if err != nil {
		return nil
	}
	cf, err := closedform.SolveSPBounded(sp, deadline, fmin, fmax)
	if err != nil {
		return nil
	}
	n := cg.N()
	res := &convex.Result{Durations: make([]float64, n), Speeds: make([]float64, n), Starts: make([]float64, n), Energy: cf.Energy}
	for k, lf := range cf.Leaves {
		res.Durations[lf.TaskID] = cf.Durations[k]
		res.Speeds[lf.TaskID] = cf.Speeds[k]
	}
	finish, makespan, err := cg.LongestPath(res.Durations)
	if err != nil || makespan > deadline*(1+1e-9) {
		return nil
	}
	for i, f := range finish {
		res.Starts[i] = f - res.Durations[i]
	}
	return res
}
