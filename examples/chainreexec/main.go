// Chain re-execution: the TRI-CRIT problem on a linear chain.
//
// The paper proves TRI-CRIT is NP-hard already for a chain on one
// processor, and derives the optimal strategy "first slow the
// execution of all tasks equally, then choose the tasks to be
// re-executed". This example compares, across deadlines:
//
//   - the exact exponential solver (core.Solve with StrategyExact:
//     subset enumeration + KKT water-filling),
//   - the ChainFirst heuristic implementing the paper's strategy
//     (core.Solve with StrategyChainFirst),
//   - a no-re-execution baseline (every task at frel or faster),
//
// then replays the schedule under injected faults on the
// discrete-event simulator (internal/sim) to show each task's
// reliability constraint is really met, and finally *executes* it with
// live recovery to compare the solver's predictions with observed
// energy, makespan and success rate.
//
// Run: go run ./examples/chainreexec
package main

import (
	"context"
	"fmt"
	"log"

	"energysched/internal/core"
	"energysched/internal/dag"
	"energysched/internal/model"
	"energysched/internal/platform"
	"energysched/internal/sim"
	"energysched/internal/tabulate"
)

func main() {
	weights := []float64{2, 1, 3, 1.5, 2.5, 1, 2}
	sum := 0.0
	for _, w := range weights {
		sum += w
	}
	// A deliberately hot fault rate (λ0 = 1e-3) so that the Monte-Carlo
	// section below shows visible failures; the schedule is optimized
	// for the same rate, so the reliability threshold is still met.
	rel := model.Reliability{Lambda0: 1e-3, Sensitivity: 3, FMin: 0.1, FMax: 1}
	const frel = 0.8
	g := dag.ChainGraph(weights...)
	mp, err := platform.SingleProcessor(g)
	if err != nil {
		log.Fatal(err)
	}
	sm, err := model.NewContinuous(0.1, 1)
	if err != nil {
		log.Fatal(err)
	}
	ctx := context.Background()
	instance := func(deadline float64) *core.Instance {
		return &core.Instance{Graph: g, Mapping: mp, Speed: sm, Deadline: deadline, Rel: &rel, FRel: frel}
	}

	t := tabulate.New("TRI-CRIT on a 7-task chain (1 processor)",
		"deadline/Σw", "E_exact", "E_chainfirst", "E_no_reexec", "reexec_tasks", "saving_vs_no_reexec_%")
	for _, slack := range []float64{1.5, 2, 4, 8, 16} {
		exact, err := core.Solve(ctx, instance(sum*slack), core.WithStrategy(core.StrategyExact))
		if err != nil {
			log.Fatal(err)
		}
		heur, err := core.Solve(ctx, instance(sum*slack), core.WithStrategy(core.StrategyChainFirst))
		if err != nil {
			log.Fatal(err)
		}
		// Baseline: no re-execution allowed (the BI-CRIT solution
		// clamped at frel).
		base := 0.0
		for _, w := range weights {
			f := maxf(1/slack, frel)
			base += model.Energy(w, f)
		}
		saving := 100 * (1 - exact.Energy/base)
		t.AddRow(slack, exact.Energy, heur.Energy, base, exact.Schedule.NumReExecuted(), saving)
	}
	fmt.Println(t)

	// Fault injection on the loosest-deadline exact schedule, replayed
	// exactly as the solver accounted it (every scheduled execution
	// runs): the recorded traces give, per task, the first-execution
	// failures and the trials in which some execution succeeded.
	res, err := core.Solve(ctx, instance(sum*16), core.WithStrategy(core.StrategyExact))
	if err != nil {
		log.Fatal(err)
	}
	const trials = 100000
	replay, err := sim.NewRunner(instance(sum*16), res.Schedule, sim.Options{Seed: 42, WorstCase: true, Record: true})
	if err != nil {
		log.Fatal(err)
	}
	n := len(weights)
	succeeded, firstFailures := make([]int, n), make([]int, n)
	done := make([]bool, n)
	var tr sim.Trace
	for trial := 0; trial < trials; trial++ {
		replay.Run(trial, &tr)
		clear(done)
		for _, ev := range tr.Events {
			if ev.Kind != sim.EventFinish.String() {
				continue
			}
			switch {
			case ev.Failed && ev.Attempt == 0:
				firstFailures[ev.Task]++
			case !ev.Failed && !done[ev.Task]:
				done[ev.Task] = true
				succeeded[ev.Task]++
			}
		}
	}
	fmt.Printf("fault injection (%d trials at the instance's own rate):\n", trials)
	for i := range weights {
		mark := " "
		if res.Schedule.Tasks[i].ReExecuted() {
			mark = "re-executed"
		}
		threshold := 1 - rel.FailureProb(weights[i], frel)
		fmt.Printf("  task %d: success %.4f (threshold %.4f), first-exec failures %d %s\n",
			i, float64(succeeded[i])/trials, threshold, firstFailures[i], mark)
	}

	// Discrete-event execution: run the same schedule 100k times on the
	// simulated platform. Recovery only happens on actual failure, so
	// the observed mean energy sits below the solver's worst-case
	// accounting (which charges every re-execution), while the success
	// rate must still match the closed-form reliability.
	camp, err := sim.RunCampaign(ctx, instance(sum*16), res.Schedule,
		sim.CampaignOptions{Trials: 100000, Seed: 42})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\ndiscrete-event execution (%d trials, same-speed recovery):\n", camp.Trials)
	fmt.Printf("  energy:   predicted worst-case %.4f, expected %.4f, observed mean %.4f\n",
		camp.Predicted.Energy, camp.Predicted.ExpectedEnergy, camp.Energy.Mean)
	fmt.Printf("  makespan: predicted %.4f, observed mean %.4f (max %.4f)\n",
		camp.Predicted.Makespan, camp.Makespan.Mean, camp.Makespan.Max)
	fmt.Printf("  success:  closed-form %.6f, observed %.6f (%d re-executions, %d faults)\n",
		camp.Predicted.Reliability, camp.SuccessRate, camp.Reexecutions, camp.Faults)
}

func maxf(a, b float64) float64 {
	if a > b {
		return a
	}
	return b
}
