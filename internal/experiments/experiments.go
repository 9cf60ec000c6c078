// Package experiments contains one driver per claim of the paper
// (C1–C15; see "Claim drivers" in the README). Every driver is
// deterministic (fixed seeds) and returns a printable table plus a map
// of scalar metrics that the test suite asserts on; wall-clock
// measurements go to a separate timing line. Each driver is also
// regenerated by a bench in bench_test.go.
package experiments

import (
	"fmt"
	"math"
	"math/rand"
	"time"

	"energysched/internal/closedform"
	"energysched/internal/convex"
	"energysched/internal/dag"
	"energysched/internal/discrete"
	"energysched/internal/model"
	"energysched/internal/platform"
	"energysched/internal/tabulate"
	"energysched/internal/tricrit"
	"energysched/internal/vdd"
	"energysched/internal/workload"
)

// Report is a driver result: a human-readable table and scalar metrics
// for assertions, both byte-identical across runs, plus Timing, the
// driver's wall-clock measurements ("" when it takes none).
type Report struct {
	Table   *tabulate.Table
	Metrics map[string]float64
	Timing  string
}

// timef appends one wall-clock measurement to the report's Timing.
func (r *Report) timef(format string, args ...any) {
	if r.Timing != "" {
		r.Timing += "; "
	}
	r.Timing += fmt.Sprintf(format, args...)
}

func newReport(t *tabulate.Table) *Report {
	return &Report{Table: t, Metrics: make(map[string]float64)}
}

// relErr returns |a−b|/max(|b|, tiny).
func relErr(a, b float64) float64 {
	den := math.Abs(b)
	if den < 1e-300 {
		den = 1e-300
	}
	return math.Abs(a-b) / den
}

// uniformSpeedBounds builds per-task [lo, hi] vectors.
func uniformSpeedBounds(n int, lo, hi float64) ([]float64, []float64) {
	l := make([]float64, n)
	h := make([]float64, n)
	for i := range l {
		l[i] = lo
		h[i] = hi
	}
	return l, h
}

// E01ForkClosedForm reproduces claim C1: the fork theorem's closed-form
// speeds and energy match the numerical geometric-programming solver
// for growing fork sizes and both weight distributions.
func E01ForkClosedForm() *Report {
	t := tabulate.New("E01 (C1) — fork closed form vs numerical solver",
		"n", "weights", "E_analytic", "E_numeric", "rel_err", "f0_analytic")
	rep := newReport(t)
	rng := rand.New(rand.NewSource(101))
	worst := 0.0
	for _, n := range []int{2, 4, 8, 16, 32, 64} {
		for _, dist := range []workload.WeightDist{workload.UniformWeights, workload.HeavyTailWeights} {
			w0 := dist.Weight(rng)
			br := dist.Weights(rng, n)
			total := w0
			for _, w := range br {
				total += w
			}
			D := total * 1.5
			cf, err := closedform.SolveFork(w0, br, D, 1e9)
			if err != nil {
				panic(err)
			}
			g := dag.ForkGraph(w0, br...)
			lo, hi := uniformSpeedBounds(g.N(), 0, 1e9)
			num, err := convex.MinimizeEnergy(g, D, g.Weights(), lo, hi, convex.Options{})
			if err != nil {
				panic(err)
			}
			re := relErr(num.Energy, cf.Energy)
			if re > worst {
				worst = re
			}
			t.AddRow(n, dist.String(), cf.Energy, num.Energy, re, cf.F0)
		}
	}
	rep.Metrics["worst_rel_err"] = worst
	t.AddNote("worst relative error %.2e — theorem formulas reproduced", worst)
	return rep
}

// E02SeriesParallel reproduces claim C2: the closed forms extend to
// trees and series-parallel graphs via the equivalent-weight
// recursion; energy always equals W_eq³/D² and matches the numerical
// solver.
func E02SeriesParallel() *Report {
	t := tabulate.New("E02 (C2) — trees & series-parallel closed forms",
		"class", "n", "W_eq", "E_closed", "E_formula", "E_numeric", "rel_err")
	rep := newReport(t)
	rng := rand.New(rand.NewSource(102))
	worst := 0.0
	for _, n := range []int{8, 32, 128, 256} {
		// Random series-parallel graph.
		g, sp := workload.SeriesParallel(rng, n, workload.UniformWeights)
		D := g.TotalWeight() * 0.8
		res, err := closedform.SolveSP(sp, D)
		if err != nil {
			panic(err)
		}
		weq := res.EquivalentWeight
		formula := weq * weq * weq / (D * D)
		numeric := math.NaN()
		re := relErr(res.Energy, formula)
		if n <= 64 {
			lo, hi := uniformSpeedBounds(g.N(), 0, 1e9)
			num, err := convex.MinimizeEnergy(g, D, g.Weights(), lo, hi, convex.Options{})
			if err != nil {
				panic(err)
			}
			numeric = num.Energy
			if r2 := relErr(numeric, res.Energy); r2 > re {
				re = r2
			}
		}
		if re > worst {
			worst = re
		}
		t.AddRow("series-parallel", n, weq, res.Energy, formula, numeric, re)

		// Random out-tree, via its SP decomposition.
		parent := make([]int, n)
		weights := make([]float64, n)
		parent[0] = -1
		weights[0] = workload.UniformWeights.Weight(rng)
		for i := 1; i < n; i++ {
			parent[i] = rng.Intn(i)
			weights[i] = workload.UniformWeights.Weight(rng)
		}
		tsp, err := closedform.TreeToSP(parent, weights)
		if err != nil {
			panic(err)
		}
		wTree, err := closedform.TreeEquivalentWeight(parent, weights)
		if err != nil {
			panic(err)
		}
		Dt := wTree * 1.2
		tres, err := closedform.SolveSP(tsp, Dt)
		if err != nil {
			panic(err)
		}
		formulaT := wTree * wTree * wTree / (Dt * Dt)
		reT := relErr(tres.Energy, formulaT)
		if reT > worst {
			worst = reT
		}
		t.AddRow("tree", n, wTree, tres.Energy, formulaT, math.NaN(), reT)
	}
	rep.Metrics["worst_rel_err"] = worst
	t.AddNote("energy = W_eq³/D² on every instance (worst deviation %.2e)", worst)
	return rep
}

// E03ContinuousDAG reproduces claim C3: general DAGs mapped on p
// processors are solved by the convex program; the table shows the
// energy reclaimed relative to running everything at fmax.
func E03ContinuousDAG() *Report {
	t := tabulate.New("E03 (C3) — continuous BI-CRIT on general DAGs (geometric program)",
		"n", "p", "deadline/cp", "E_fmax", "E_opt", "saved_%")
	rep := newReport(t)
	rng := rand.New(rand.NewSource(103))
	minSave := math.Inf(1)
	for _, n := range []int{10, 20, 40} {
		for _, p := range []int{2, 4} {
			g := workload.Layered(rng, n, 4, 0.3, workload.UniformWeights)
			mp := mustListSchedule(g, p)
			cg, err := mp.ConstraintGraph(g)
			if err != nil {
				panic(err)
			}
			fmax := 1.0
			durs := make([]float64, n)
			for i := range durs {
				durs[i] = g.Weight(i) / fmax
			}
			_, cp, err := cg.LongestPath(durs)
			if err != nil {
				panic(err)
			}
			factor := 1.8
			D := cp * factor
			eFmax := 0.0
			for i := 0; i < n; i++ {
				eFmax += model.Energy(g.Weight(i), fmax)
			}
			lo, hi := uniformSpeedBounds(n, 0, fmax)
			res, err := convex.MinimizeEnergy(cg, D, g.Weights(), lo, hi, convex.Options{})
			if err != nil {
				panic(err)
			}
			saved := 100 * (1 - res.Energy/eFmax)
			if saved < minSave {
				minSave = saved
			}
			t.AddRow(n, p, factor, eFmax, res.Energy, saved)
		}
	}
	rep.Metrics["min_saved_pct"] = minSave
	t.AddNote("slack ×1.8 over the critical path reclaims ≥%.0f%% of the fmax energy", minSave)
	return rep
}

// E04ChainTriCrit reproduces claim C4: TRI-CRIT on a chain — exact
// (exponential, the problem is NP-hard) vs the ChainFirst strategy the
// paper derives ("slow all tasks equally, then choose re-executions").
func E04ChainTriCrit() *Report {
	t := tabulate.New("E04 (C4) — TRI-CRIT on linear chains: exact vs heuristics",
		"slack", "E_exact", "E_chainfirst", "gap_cf_%", "E_parallelfirst", "gap_pf_%", "#reexec")
	rep := newReport(t)
	rng := rand.New(rand.NewSource(104))
	n := 10
	ws := workload.UniformWeights.Weights(rng, n)
	sum := 0.0
	for _, w := range ws {
		sum += w
	}
	in := tricrit.Instance{FMin: 0.1, FMax: 1, FRel: 0.8,
		Rel: model.Reliability{Lambda0: 1e-5, Sensitivity: 3, FMin: 0.1, FMax: 1}}
	worstCF := 0.0
	for _, slack := range []float64{1.2, 2, 4, 8, 16} {
		in.Deadline = sum * slack
		exact, err := tricrit.SolveChainExact(ws, in)
		if err != nil {
			panic(err)
		}
		cf, err := tricrit.ChainFirst(ws, in)
		if err != nil {
			panic(err)
		}
		g := dag.ChainGraph(ws...)
		mp, err := platform.SingleProcessor(g)
		if err != nil {
			panic(err)
		}
		pf, err := tricrit.DAGParallelFirst(g, mp, in)
		if err != nil {
			panic(err)
		}
		gapCF := 100 * tricrit.Gap(cf.Energy, exact.Energy)
		gapPF := 100 * tricrit.Gap(pf.Energy, exact.Energy)
		if gapCF > worstCF {
			worstCF = gapCF
		}
		t.AddRow(slack, exact.Energy, cf.Energy, gapCF, pf.Energy, gapPF, exact.NumReExec())
	}
	rep.Metrics["worst_chainfirst_gap_pct"] = worstCF
	t.AddNote("ChainFirst stays within %.2f%% of the exponential exact solver on chains", worstCF)
	return rep
}

// E05ForkTriCrit reproduces claim C5: the polynomial fork algorithm
// matches the exact optimum and prefers re-executing the highly
// parallelizable branch tasks.
func E05ForkTriCrit() *Report {
	t := tabulate.New("E05 (C5) — TRI-CRIT on forks: polynomial algorithm",
		"slack", "E_poly", "E_exact", "rel_err", "reexec_branches", "reexec_source")
	rep := newReport(t)
	rng := rand.New(rand.NewSource(105))
	w0 := 1.5
	br := workload.UniformWeights.Weights(rng, 8)
	total := w0
	for _, w := range br {
		total += w
	}
	in := tricrit.Instance{FMin: 0.1, FMax: 1, FRel: 0.8,
		Rel: model.Reliability{Lambda0: 1e-5, Sensitivity: 3, FMin: 0.1, FMax: 1}}
	worst := 0.0
	branchReTotal := 0
	sourceReTotal := 0
	g := dag.ForkGraph(w0, br...)
	mp := platform.OneTaskPerProcessor(g)
	for _, slack := range []float64{2, 4, 8, 16} {
		in.Deadline = total * slack
		poly, err := tricrit.SolveForkPoly(w0, br, in)
		if err != nil {
			panic(err)
		}
		// Exact enumeration is 2^9 convex solves: cheap enough here.
		exact, err := tricrit.SolveDAGExact(g, mp, in)
		if err != nil {
			panic(err)
		}
		re := relErr(poly.Energy, exact.Energy)
		if re > worst {
			worst = re
		}
		branchRe := 0
		for i := 1; i < len(poly.ReExec); i++ {
			if poly.ReExec[i] {
				branchRe++
			}
		}
		srcRe := 0
		if poly.ReExec[0] {
			srcRe = 1
		}
		branchReTotal += branchRe
		sourceReTotal += srcRe
		t.AddRow(slack, poly.Energy, exact.Energy, re, branchRe, srcRe)
	}
	rep.Metrics["worst_rel_err"] = worst
	rep.Metrics["branch_reexec_total"] = float64(branchReTotal)
	rep.Metrics["source_reexec_total"] = float64(sourceReTotal)
	t.AddNote("polynomial algorithm within %.1e of exact; re-execution goes to the parallel branches", worst)
	return rep
}

// E06VddLP reproduces claim C6: BI-CRIT under VDD-HOPPING is solved in
// polynomial time by LP; the optimum sits between the continuous lower
// bound and the DISCRETE optimum on the same ladder.
func E06VddLP() *Report {
	t := tabulate.New("E06 (C6) — VDD-HOPPING BI-CRIT via LP",
		"class", "n", "E_cont", "E_vdd", "E_disc", "vdd_gap_%", "disc_gap_%")
	rep := newReport(t)
	rng := rand.New(rand.NewSource(106))
	levels := model.XScaleLevels()
	smV, _ := model.NewVddHopping(levels)
	smD, _ := model.NewDiscrete(levels)
	worstOrder := 0.0
	for _, class := range []workload.Class{workload.ClassChain, workload.ClassFork, workload.ClassLayered} {
		n := 8
		g := class.Generate(rng, n, workload.UniformWeights)
		mp := mustListSchedule(g, 2)
		cg, err := mp.ConstraintGraph(g)
		if err != nil {
			panic(err)
		}
		durs := make([]float64, g.N())
		for i := range durs {
			durs[i] = g.Weight(i) / smV.FMax
		}
		_, cp, err := cg.LongestPath(durs)
		if err != nil {
			panic(err)
		}
		D := cp * 2
		lo, hi := uniformSpeedBounds(g.N(), 0, smV.FMax)
		cont, err := convex.MinimizeEnergy(cg, D, g.Weights(), lo, hi, convex.Options{})
		if err != nil {
			panic(err)
		}
		start := time.Now()
		vres, err := vdd.SolveBiCrit(g, mp, smV, D)
		if err != nil {
			panic(err)
		}
		rep.timef("%s lp_ms %.3f", class, float64(time.Since(start).Microseconds())/1000)
		dres, err := discrete.SolveExact(g, mp, smD, D)
		if err != nil {
			panic(err)
		}
		// Hierarchy violations would show as negative gaps.
		vGap := 100 * (vres.Energy/cont.Energy - 1)
		dGap := 100 * (dres.Energy/vres.Energy - 1)
		if -vGap > worstOrder {
			worstOrder = -vGap
		}
		if -dGap > worstOrder {
			worstOrder = -dGap
		}
		t.AddRow(class.String(), g.N(), cont.Energy, vres.Energy, dres.Energy, vGap, dGap)
	}
	rep.Metrics["worst_hierarchy_violation_pct"] = worstOrder
	t.AddNote("E_cont ≤ E_vdd ≤ E_disc holds on every instance (worst violation %.2e%%)", worstOrder)
	return rep
}

// E07DiscreteHardness reproduces claim C7: BI-CRIT with one speed per
// task is NP-complete. SUBSET-SUM gadgets drive the exact solver into
// exponential node counts while the decision answer always matches the
// SUBSET-SUM truth.
func E07DiscreteHardness() *Report {
	t := tabulate.New("E07 (C7) — NP-completeness: SUBSET-SUM gadget vs branch-and-bound",
		"n", "nodes", "growth", "decision_ok")
	rep := newReport(t)
	rng := rand.New(rand.NewSource(107))
	var prev int64
	agree := true
	var lastGrowth float64
	for _, n := range []int{6, 8, 10, 12, 14} {
		a := make([]int64, n)
		var sum int64
		for i := range a {
			a[i] = int64(rng.Intn(40) + 10)
			if a[i]%2 == 0 {
				a[i]++ // odd items make half-sums unreachable more often
			}
			sum += a[i]
		}
		b := sum / 2
		g, mp, sm, D, yes, err := discrete.SubsetSumGadget(a, b)
		if err != nil {
			panic(err)
		}
		res, err := discrete.SolveExact(g, mp, sm, D)
		if err != nil {
			panic(err)
		}
		gadgetYes := res.Energy <= yes+1e-6
		truth := discrete.HasSubsetSum(a, b)
		if gadgetYes != truth {
			agree = false
		}
		growth := math.NaN()
		if prev > 0 {
			growth = float64(res.Nodes) / float64(prev)
			lastGrowth = growth
		}
		prev = res.Nodes
		t.AddRow(n, res.Nodes, growth, fmt.Sprintf("%v", gadgetYes == truth))
	}
	rep.Metrics["decisions_agree"] = b2f(agree)
	rep.Metrics["last_growth"] = lastGrowth
	t.AddNote("node counts grow multiplicatively with n; every gadget decision matches SUBSET-SUM")
	return rep
}

// E08IncrementalApprox reproduces claim C8: the round-up approximation
// stays within (1+δ/fmin)²(1+1/K)² of the optimum across δ and K.
func E08IncrementalApprox() *Report {
	t := tabulate.New("E08 (C8) — INCREMENTAL approximation ratio vs guarantee",
		"delta", "K", "measured_ratio", "bound", "within")
	rep := newReport(t)
	rng := rand.New(rand.NewSource(108))
	fmin := 0.2
	ok := true
	worstSlack := math.Inf(1)
	for _, delta := range []float64{0.4, 0.2, 0.1, 0.05} {
		for _, k := range []int{1, 10} {
			sm, err := model.NewIncremental(fmin, 1.0, delta)
			if err != nil {
				panic(err)
			}
			n := 8
			g := workload.Chain(rng, n, workload.UniformWeights)
			mp, err := platform.SingleProcessor(g)
			if err != nil {
				panic(err)
			}
			D := g.TotalWeight() * 2.5
			res, err := discrete.Approximate(g, mp, sm, D, k)
			if err != nil {
				panic(err)
			}
			bound := discrete.Bound(delta, fmin, k)
			within := res.Ratio <= bound
			if !within {
				ok = false
			}
			if bound-res.Ratio < worstSlack {
				worstSlack = bound - res.Ratio
			}
			t.AddRow(delta, k, res.Ratio, bound, fmt.Sprintf("%v", within))
		}
	}
	rep.Metrics["all_within_bound"] = b2f(ok)
	rep.Metrics["min_bound_slack"] = worstSlack
	t.AddNote("every measured ratio respects the proved guarantee; the bound tightens as δ→0, K→∞")
	return rep
}

func b2f(b bool) float64 {
	if b {
		return 1
	}
	return 0
}
