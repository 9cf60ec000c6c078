package sim

import (
	"context"
	"encoding/json"
	"math/rand"
	"testing"

	"energysched/internal/core"
	"energysched/internal/listsched"
	"energysched/internal/model"
	"energysched/internal/workload"
)

// fastEqInstance builds a solved TRI-CRIT instance of the class with
// real fault pressure (λ0 high enough that a few-hundred-trial
// campaign mixes fault-free and faulty trials, so both the fast path
// and the event heap are exercised).
func fastEqInstance(t *testing.T, cls workload.Class, seed int64) (*core.Instance, *core.Result) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed + int64(cls)*1_000_003))
	g := cls.Generate(rng, 16, workload.UniformWeights)
	ls, err := listsched.CriticalPath(g, 3)
	if err != nil {
		t.Fatal(err)
	}
	sm, err := model.NewContinuous(0.1, 1.0)
	if err != nil {
		t.Fatal(err)
	}
	rel := model.Reliability{Lambda0: 0.02, Sensitivity: 3, FMin: sm.FMin, FMax: sm.FMax}
	in := &core.Instance{
		Graph:    g,
		Mapping:  ls.Mapping,
		Speed:    sm,
		Deadline: ls.Makespan / sm.FMax * 2.2,
		Rel:      &rel,
		FRel:     0.8 * sm.FMax,
	}
	return in, solve(t, in)
}

// TestFastPathEquivalence is the gate on the tentpole invariant: a
// campaign run with the fault-free fast path enabled must be
// bit-identical — whole Campaign JSON, so energy, makespan, flags,
// fault counts and histograms alike — to a campaign forced through
// the event heap for every trial, across seeds × recovery policies ×
// workload classes × worst-case replay.
func TestFastPathEquivalence(t *testing.T) {
	classes := []workload.Class{workload.ClassChain, workload.ClassForkJoin, workload.ClassLayered}
	modes := []struct {
		name      string
		policy    Policy
		worstCase bool
	}{
		{"same-speed", PolicySameSpeed, false},
		{"max-speed", PolicyMaxSpeed, false},
		{"abort", PolicyAbort, false},
		{"worst-case", PolicySameSpeed, true},
	}
	for _, cls := range classes {
		for _, seed := range []int64{1, 2, 3} {
			in, res := fastEqInstance(t, cls, seed)
			for _, m := range modes {
				opts := CampaignOptions{
					Trials:    400,
					Seed:      seed,
					Policy:    m.policy,
					WorstCase: m.worstCase,
				}
				fast, err := RunCampaign(context.Background(), in, res.Schedule, opts)
				if err != nil {
					t.Fatalf("%s/%s seed %d: %v", cls, m.name, seed, err)
				}
				opts.DisableFastPath = true
				slow, err := RunCampaign(context.Background(), in, res.Schedule, opts)
				if err != nil {
					t.Fatalf("%s/%s seed %d (heap-only): %v", cls, m.name, seed, err)
				}
				fastJSON, err := json.Marshal(fast)
				if err != nil {
					t.Fatal(err)
				}
				slowJSON, err := json.Marshal(slow)
				if err != nil {
					t.Fatal(err)
				}
				if string(fastJSON) != string(slowJSON) {
					t.Fatalf("%s/%s seed %d: fast-path campaign differs from event-heap campaign\nfast: %s\nheap: %s",
						cls, m.name, seed, fastJSON, slowJSON)
				}
				// The matrix must actually exercise both paths: a
				// campaign that is all-faulty or all-clean would prove
				// nothing about the boundary.
				if !m.worstCase && (fast.FaultFreeTrials == 0 || fast.FaultFreeTrials == fast.Trials) {
					t.Fatalf("%s/%s seed %d: degenerate mix, %d/%d fault-free",
						cls, m.name, seed, fast.FaultFreeTrials, fast.Trials)
				}
			}
		}
	}
}

// TestFastPathEnvForcesHeap: setting the NoFastPathEnv variable must
// force Runners built afterwards through the event heap — and the
// campaign must still be bit-identical, which doubles as the
// env-forced leg of the equivalence gate.
func TestFastPathEnvForcesHeap(t *testing.T) {
	in, res := fastEqInstance(t, workload.ClassChain, 7)
	opts := CampaignOptions{Trials: 300, Seed: 7}
	fast, err := RunCampaign(context.Background(), in, res.Schedule, opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Setenv(NoFastPathEnv, "1")
	r, err := NewRunner(in, res.Schedule, Options{Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if !r.noFast {
		t.Fatalf("%s did not disable the fast path", NoFastPathEnv)
	}
	slow, err := r.RunCampaign(context.Background(), opts.Trials, 0)
	if err != nil {
		t.Fatal(err)
	}
	fastJSON, _ := json.Marshal(fast)
	slowJSON, _ := json.Marshal(slow)
	if string(fastJSON) != string(slowJSON) {
		t.Fatalf("env-forced heap campaign differs:\nfast: %s\nheap: %s", fastJSON, slowJSON)
	}
}

// TestFastPathActuallyEngages plants a sentinel in the precomputed
// fault-free outcome and checks a fault-free trial emits it — i.e.
// the fast path really short-circuits instead of re-running the heap
// to the same numbers.
func TestFastPathActuallyEngages(t *testing.T) {
	in := triChain(t, 8, 1e-9) // effectively fault-free at this λ0
	res := solve(t, in)
	r, err := NewRunner(in, res.Schedule, Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	const sentinel = -12345.0
	r.ff.Energy = sentinel
	var tr Trace
	r.Run(0, &tr)
	if tr.Outcome.Energy != sentinel {
		t.Fatalf("fault-free trial did not take the fast path: energy %v", tr.Outcome.Energy)
	}
	// A recording run must bypass the fast path (events are wanted).
	r.opts.Record = true
	r.Run(0, &tr)
	if tr.Outcome.Energy == sentinel {
		t.Fatal("recording run took the fast path")
	}
	if len(tr.Events) == 0 {
		t.Fatal("recording run produced no events")
	}
}

// TestFaultFreeOutcomeMatchesDisabledFaults: the precomputed outcome
// the fast path emits must equal a fault-disabled heap execution.
func TestFaultFreeOutcomeMatchesDisabledFaults(t *testing.T) {
	in := triChain(t, 12, 0.02)
	res := solve(t, in)
	for _, wc := range []bool{false, true} {
		r, err := NewRunner(in, res.Schedule, Options{Seed: 3, WorstCase: wc, DisableFaults: true, DisableFastPath: true})
		if err != nil {
			t.Fatal(err)
		}
		var tr Trace
		r.Run(0, &tr)
		if tr.Outcome != r.ff {
			t.Fatalf("worstCase=%t: fault-disabled heap outcome %+v != precomputed %+v", wc, tr.Outcome, r.ff)
		}
	}
}

// TestClone checks the sharing contract: immutable tables shared,
// scratch distinct, outcomes identical to the source runner's.
func TestClone(t *testing.T) {
	in := triChain(t, 10, 0.03)
	res := solve(t, in)
	r, err := NewRunner(in, res.Schedule, Options{Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	c := r.Clone()
	if &r.first[0] != &c.first[0] || &r.second[0] != &c.second[0] || r.cg != c.cg {
		t.Fatal("clone does not share the immutable attempt tables")
	}
	if &r.x[0] == &c.x[0] || &r.indeg[0] == &c.indeg[0] {
		t.Fatal("clone shares per-trial scratch with its source")
	}
	if c.ff != r.ff {
		t.Fatal("clone lost the precomputed fault-free outcome")
	}
	var trR, trC Trace
	for trial := 0; trial < 50; trial++ {
		r.Run(trial, &trR)
		c.Run(trial, &trC)
		if trR.Outcome != trC.Outcome {
			t.Fatalf("trial %d: clone outcome %+v != source %+v", trial, trC.Outcome, trR.Outcome)
		}
	}
}

// TestCampaignFaultFreeCounters: the fault-free trial count must equal
// the number of zero-fault slots and the rate must normalize it.
func TestCampaignFaultFreeCounters(t *testing.T) {
	in := triChain(t, 10, 0.03)
	res := solve(t, in)
	c, err := RunCampaign(context.Background(), in, res.Schedule, CampaignOptions{Trials: 1000, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	if c.FaultFreeTrials <= 0 || c.FaultFreeTrials >= c.Trials {
		t.Fatalf("degenerate fault-free count %d/%d at λ0=0.03", c.FaultFreeTrials, c.Trials)
	}
	if got, want := c.FaultFreeRate, float64(c.FaultFreeTrials)/float64(c.Trials); got != want {
		t.Fatalf("fault-free rate %v, want %v", got, want)
	}
	if c.EnergyHist == nil || c.MakespanHist == nil {
		t.Fatal("campaign histograms missing")
	}
	if c.EnergyHist.Count != int64(c.Trials) || c.MakespanHist.Count != int64(c.Trials) {
		t.Fatalf("histogram counts %d/%d, want %d", c.EnergyHist.Count, c.MakespanHist.Count, c.Trials)
	}
	var sum int64
	for _, b := range c.EnergyHist.Buckets {
		sum += b.Count
	}
	if sum != c.EnergyHist.Count {
		t.Fatalf("energy histogram buckets sum to %d, want %d", sum, c.EnergyHist.Count)
	}
	// No faults disables the injector entirely: every trial is
	// fault-free and the histogram collapses to the fault-free point.
	nf, err := RunCampaign(context.Background(), in, res.Schedule, CampaignOptions{Trials: 100, Seed: 2, DisableFaults: true})
	if err != nil {
		t.Fatal(err)
	}
	if nf.FaultFreeTrials != 100 || nf.FaultFreeRate != 1 {
		t.Fatalf("fault-disabled campaign reports %d fault-free (rate %v)", nf.FaultFreeTrials, nf.FaultFreeRate)
	}
	if len(nf.EnergyHist.Buckets) != 1 {
		t.Fatalf("fault-disabled energy histogram has %d buckets, want 1", len(nf.EnergyHist.Buckets))
	}
}

// TestRunnerCampaignSteadyStateAllocs pins the campaign-level
// allocation contract behind BenchmarkCampaignFaultFree1k: with a
// warmed Runner, a whole 1k-trial campaign must stay within a
// handful of allocations (the Campaign struct, two histogram
// snapshots, and the worker-pool launch).
func TestRunnerCampaignSteadyStateAllocs(t *testing.T) {
	in := triChain(t, 32, 1e-6)
	res := solve(t, in)
	r, err := NewRunner(in, res.Schedule, Options{Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	if _, err := r.RunCampaign(ctx, 1000, 4); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(20, func() {
		if _, err := r.RunCampaign(ctx, 1000, 4); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 16 {
		t.Fatalf("steady-state campaign allocates %.1f objects, want <= 16", allocs)
	}
}
