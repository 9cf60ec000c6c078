package sim

import (
	"context"
	"math"
	"math/rand"
	"testing"

	"energysched/internal/core"
	"energysched/internal/listsched"
	"energysched/internal/model"
	"energysched/internal/workload"
)

// speedModels builds one instance of each of the paper's four speed
// models (the E09 hierarchy).
func speedModels(t *testing.T) []model.SpeedModel {
	t.Helper()
	cont, err := model.NewContinuous(0.1, 1.0)
	if err != nil {
		t.Fatal(err)
	}
	disc, err := model.NewDiscrete(model.XScaleLevels())
	if err != nil {
		t.Fatal(err)
	}
	vdd, err := model.NewVddHopping(model.XScaleLevels())
	if err != nil {
		t.Fatal(err)
	}
	inc, err := model.NewIncremental(0.1, 1.0, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	return []model.SpeedModel{cont, disc, vdd, inc}
}

// TestFaultFreeSimulationReproducesPrediction is the closing-the-loop
// property: for random instances across workload classes and all four
// speed models, the fault-free simulation of the solver's schedule
// observes exactly the energy and makespan the solver predicted, to
// 1e-9 relative. BI-CRIT schedules replay as-is; TRI-CRIT schedules
// replay in worst-case mode, where every provisioned re-execution
// runs, matching the solver's worst-case accounting.
func TestFaultFreeSimulationReproducesPrediction(t *testing.T) {
	classes := []workload.Class{workload.ClassChain, workload.ClassForkJoin, workload.ClassLayered}
	for seed := int64(1); seed <= 4; seed++ {
		for _, sm := range speedModels(t) {
			for _, cls := range classes {
				for _, tricrit := range []bool{false, true} {
					if tricrit && sm.Kind != model.Continuous && sm.Kind != model.VddHopping {
						// The paper has no TRI-CRIT algorithm for
						// DISCRETE/INCREMENTAL; the registry rejects them.
						continue
					}
					rng := rand.New(rand.NewSource(seed))
					g := cls.Generate(rng, 14, workload.UniformWeights)
					ls, err := listsched.CriticalPath(g, 3)
					if err != nil {
						t.Fatal(err)
					}
					in := &core.Instance{
						Graph:    g,
						Mapping:  ls.Mapping,
						Speed:    sm,
						Deadline: ls.Makespan / sm.FMax * 3.0,
					}
					if tricrit {
						rel := model.DefaultReliability(sm.FMin, sm.FMax)
						in.Rel = &rel
						in.FRel = 0.8 * sm.FMax
					}
					res, err := core.Solve(context.Background(), in)
					if err != nil {
						t.Fatalf("seed %d %v %s tricrit=%v: %v", seed, sm.Kind, cls, tricrit, err)
					}
					tr, err := Simulate(in, res.Schedule, Options{WorstCase: tricrit, DisableFaults: true})
					if err != nil {
						t.Fatal(err)
					}
					wantE, wantM := res.Energy, res.Schedule.Makespan()
					if !tricrit {
						// BI-CRIT: predicted energy is the single
						// execution's — identical either way.
						wantE = res.Schedule.Energy()
					}
					if d := math.Abs(tr.Outcome.Energy - wantE); d > 1e-9*math.Max(1, wantE) {
						t.Errorf("seed %d %v %s tricrit=%v: observed energy %v, predicted %v (Δ %g)",
							seed, sm.Kind, cls, tricrit, tr.Outcome.Energy, wantE, d)
					}
					if d := math.Abs(tr.Outcome.Makespan - wantM); d > 1e-9*math.Max(1, wantM) {
						t.Errorf("seed %d %v %s tricrit=%v: observed makespan %v, predicted %v (Δ %g)",
							seed, sm.Kind, cls, tricrit, tr.Outcome.Makespan, wantM, d)
					}
					if !tr.Outcome.Succeeded || tr.Outcome.Faults != 0 {
						t.Errorf("fault-free run failed or counted faults: %+v", tr.Outcome)
					}
					if !tr.Outcome.DeadlineMet {
						t.Errorf("fault-free replay of a valid schedule missed the deadline: %+v", tr.Outcome)
					}
				}
			}
		}
	}
}

// TestCampaignSuccessRateWithinBinomialCI is the Monte-Carlo half of
// the loop: a seeded 10k-trial campaign's observed success rate must
// fall within the 99% binomial confidence interval of the closed-form
// schedule reliability Π(1 − p₁·p₂).
func TestCampaignSuccessRateWithinBinomialCI(t *testing.T) {
	if testing.Short() {
		t.Skip("10k-trial campaign")
	}
	in := triChain(t, 12, 0.02)
	res := solve(t, in)
	const trials = 10000
	camp, err := RunCampaign(context.Background(), in, res.Schedule,
		CampaignOptions{Trials: trials, Seed: 17})
	if err != nil {
		t.Fatal(err)
	}
	r := camp.Predicted.Reliability
	if r <= 0 || r >= 1 {
		t.Fatalf("degenerate closed-form reliability %v — the test needs real fault pressure", r)
	}
	if camp.Faults == 0 {
		t.Fatal("campaign observed no faults at λ0=0.02")
	}
	// 99% normal-approximation binomial CI with continuity correction.
	const z = 2.5758
	halfWidth := z*math.Sqrt(r*(1-r)/trials) + 0.5/trials
	if d := math.Abs(camp.SuccessRate - r); d > halfWidth {
		t.Fatalf("success rate %v outside 99%% CI of closed-form reliability %v (Δ %v > %v)",
			camp.SuccessRate, r, d, halfWidth)
	}
	// The unconditional expectation ignores abort pruning, so it upper
	// bounds the observed mean...
	if camp.Energy.Mean > camp.Predicted.ExpectedEnergy*(1+1e-9) {
		t.Fatalf("mean energy %v above unconditional expectation %v", camp.Energy.Mean, camp.Predicted.ExpectedEnergy)
	}
	// ...while for a single-processor chain the pruning-aware
	// expectation is exact: task i runs iff every earlier task
	// recovered, so E[energy] = Σ reachᵢ·(e₁ᵢ + p₁ᵢ·e₂ᵢ) with
	// reachᵢ = Π_{j<i}(1 − p₁ⱼ·p₂ⱼ). The empirical mean must track it.
	reach, wantMean := 1.0, 0.0
	for i := 0; i < in.Graph.N(); i++ {
		ts := res.Schedule.Tasks[i]
		e1 := ts.Execs[0].Energy()
		p1 := ts.Execs[0].FailureProb(*in.Rel)
		e2, p2 := e1, p1 // same-speed recovery without a slot repeats exec 1
		if ts.ReExecuted() {
			e2 = ts.Execs[1].Energy()
			p2 = ts.Execs[1].FailureProb(*in.Rel)
		}
		wantMean += reach * (e1 + p1*e2)
		reach *= 1 - p1*p2
	}
	if camp.Energy.Mean < wantMean*0.98 || camp.Energy.Mean > wantMean*1.02 {
		t.Fatalf("mean energy %v far from chain-exact expectation %v", camp.Energy.Mean, wantMean)
	}
}

// TestPredictionMatchesIndependentClosedForm cross-checks sim's
// closed-form reliability against the per-task Eq. (1) algebra
// recomputed here from the schedule's executions.
func TestPredictionMatchesIndependentClosedForm(t *testing.T) {
	in := triChain(t, 9, 0.02)
	res := solve(t, in)
	r, err := NewRunner(in, res.Schedule, Options{})
	if err != nil {
		t.Fatal(err)
	}
	pred := r.Predict()
	want := 1.0
	for i := 0; i < in.Graph.N(); i++ {
		ts := res.Schedule.Tasks[i]
		p1 := ts.Execs[0].FailureProb(*in.Rel)
		if ts.ReExecuted() {
			want *= 1 - p1*ts.Execs[1].FailureProb(*in.Rel)
		} else {
			// Same-speed recovery without a slot repeats the first
			// execution.
			want *= 1 - p1*p1
		}
	}
	if math.Abs(pred.Reliability-want) > 1e-12 {
		t.Fatalf("prediction %v != independent closed form %v", pred.Reliability, want)
	}
}
