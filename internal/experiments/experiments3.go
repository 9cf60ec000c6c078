package experiments

import (
	"math"
	"math/rand"
	"time"

	"energysched/internal/dag"
	"energysched/internal/discrete"
	"energysched/internal/model"
	"energysched/internal/platform"
	"energysched/internal/tabulate"
	"energysched/internal/tricrit"
	"energysched/internal/workload"
)

// E16ReplicationVsReexec explores the paper's Section V research
// direction: "the best trade-offs that can be achieved between these
// techniques [replication and re-execution] that both increase
// reliability, but whose impact on execution time and energy
// consumption is very different." On a fork with a spare processor per
// replica, the polynomial algorithm is run three times — re-execution
// only, replication only, both — across deadline slacks.
//
// Expected shape (and what the table shows): at tight deadlines
// replication wins (it buys reliability with processors, not time); at
// loose deadlines the two techniques tie in energy and differ only in
// processor-time; allowing both never hurts.
func E16ReplicationVsReexec() *Report {
	t := tabulate.New("E16 (extension, §V) — replication vs re-execution on a fork",
		"slack", "E_reexec", "E_replicate", "E_both", "rep_wins_by_%", "proc_time_re", "proc_time_rep")
	rep := newReport(t)
	rng := rand.New(rand.NewSource(116))
	w0 := 1.0
	br := workload.UniformWeights.Weights(rng, 6)
	cpWeight := w0
	maxBr := 0.0
	for _, w := range br {
		if w > maxBr {
			maxBr = w
		}
	}
	cpWeight += maxBr // critical path at fmax = (w0 + max branch)/fmax
	in := tricrit.Instance{FMin: 0.1, FMax: 1, FRel: 0.8,
		Rel: model.Reliability{Lambda0: 1e-5, Sensitivity: 3, FMin: 0.1, FMax: 1}}
	tightAdvantage := 0.0
	looseTie := math.Inf(1)
	bothSafe := true
	for _, slack := range []float64{1.15, 1.5, 2.5, 6, 20} {
		in.Deadline = cpWeight * slack
		re, err := tricrit.SolveForkTechniques(w0, br, in, true, false)
		if err != nil {
			panic(err)
		}
		rp, err := tricrit.SolveForkTechniques(w0, br, in, false, true)
		if err != nil {
			panic(err)
		}
		both, err := tricrit.SolveForkTechniques(w0, br, in, true, true)
		if err != nil {
			panic(err)
		}
		adv := 100 * (re.Energy/rp.Energy - 1)
		if slack <= 1.5 && adv > tightAdvantage {
			tightAdvantage = adv
		}
		if slack >= 6 && math.Abs(adv) < looseTie {
			looseTie = math.Abs(adv)
		}
		if both.Energy > math.Min(re.Energy, rp.Energy)*(1+1e-9) {
			bothSafe = false
		}
		t.AddRow(slack, re.Energy, rp.Energy, both.Energy, adv, re.ProcessorTime, rp.ProcessorTime)
	}
	rep.Metrics["tight_replication_advantage_pct"] = tightAdvantage
	rep.Metrics["loose_tie_gap_pct"] = looseTie
	rep.Metrics["both_never_worse"] = b2f(bothSafe)
	t.AddNote("replication buys reliability with processor-time instead of wall-clock time: it wins up to %.1f%% at tight deadlines and ties re-execution at loose ones", tightAdvantage)
	return rep
}

// E17DPvsBranchAndBound is the solver ablation for the NP-complete
// DISCRETE chain problem: the exponential exact branch-and-bound
// against the pseudo-polynomial round-up DP at several resolutions.
// The DP's energy converges to the optimum from above while its cost
// scales linearly in n·resolution instead of exponentially in n.
func E17DPvsBranchAndBound() *Report {
	t := tabulate.New("E17 (ablation) — exact B&B vs pseudo-polynomial DP on chains",
		"n", "bb_nodes", "dp_res", "dp_gap_%")
	rep := newReport(t)
	rng := rand.New(rand.NewSource(117))
	sm, _ := model.NewDiscrete(model.XScaleLevels())
	worstGap := 0.0
	for _, n := range []int{8, 12, 16} {
		ws := workload.UniformWeights.Weights(rng, n)
		sum := 0.0
		for _, w := range ws {
			sum += w
		}
		D := sum * 2.1
		g := dag.ChainGraph(ws...)
		mp, err := platform.SingleProcessor(g)
		if err != nil {
			panic(err)
		}
		startBB := time.Now()
		exact, err := discrete.SolveExact(g, mp, sm, D)
		if err != nil {
			panic(err)
		}
		rep.timef("n=%d bb_ms %.3f", n, float64(time.Since(startBB).Microseconds())/1000)
		for _, res := range []int{200, 4000} {
			startDP := time.Now()
			dp, err := discrete.SolveChainDP(ws, sm, D, res)
			if err != nil {
				panic(err)
			}
			rep.timef("n=%d res=%d dp_ms %.3f", n, res, float64(time.Since(startDP).Microseconds())/1000)
			gap := 100 * (dp.Energy/exact.Energy - 1)
			if gap > worstGap && res >= 4000 {
				worstGap = gap
			}
			t.AddRow(n, exact.Nodes, res, gap)
		}
	}
	rep.Metrics["worst_highres_gap_pct"] = worstGap
	t.AddNote("the DP trades the B&B's exponential node growth for a linear n·resolution cost; at resolution 4000 its gap stays ≤ %.2f%%", worstGap)
	return rep
}
