package bicrit_test

import (
	"context"
	"fmt"
	"math"
	"testing"

	"energysched/internal/bicrit"
	"energysched/internal/convex"
	"energysched/internal/core"
	"energysched/internal/dag"
	"energysched/internal/loadgen"
	"energysched/internal/model"
	"energysched/internal/platform"
	"energysched/internal/rng"
	"energysched/internal/schedule"
	"energysched/internal/workload"
)

type corpusCase struct {
	name string
	in   *core.Instance
}

// corpus is every workload class at n ∈ {8, 12, 24} on 1–4
// processors, as cmd/dagen builds them, and the first 150 instances of
// svcbench's cold-single bi-crit pool streams at seed 91 (tag 1,
// n = 24; tag 2, n = 12).
func corpus(t *testing.T) []corpusCase {
	t.Helper()
	var out []corpusCase
	add := func(name string, spec loadgen.Spec, idx int) {
		raw, err := loadgen.PoolInstance(spec, idx)
		if err != nil {
			t.Fatal(err)
		}
		in, err := core.UnmarshalInstance(raw)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, corpusCase{name, in})
	}
	for _, cls := range workload.AllClasses() {
		for _, n := range []int{8, 12, 24} {
			for procs := 1; procs <= 4; procs++ {
				add(fmt.Sprintf("%s/n%d/p%d", cls, n, procs), loadgen.Spec{Seed: 27, Classes: []string{cls.String()}, N: n, Procs: procs}, procs)
			}
		}
	}
	st := rng.New(91) // svcbench mixes -seed into its base seed
	seed := int64(st.Uint64())
	for _, s := range []struct{ tag, n int }{{1, 24}, {2, 12}} {
		for i := 0; i < 150; i++ {
			add(fmt.Sprintf("cold/tag%d/%d", s.tag, i), loadgen.Spec{Seed: loadgen.PoolSeed(seed, s.tag), N: s.n}, i)
		}
	}
	return out
}

func barrier(t *testing.T, cg *dag.Graph, deadline, fmin, fmax float64) (*convex.Result, error) {
	t.Helper()
	n := cg.N()
	lo, hi := make([]float64, n), make([]float64, n)
	for i := range lo {
		lo[i], hi[i] = fmin, fmax
	}
	return convex.MinimizeEnergy(cg, deadline, cg.Weights(), lo, hi, convex.Options{})
}

// TestClosedFormAgainstBarrier checks every closed-form answer of the
// corpus: its schedule validates, its energy is at most the barrier's
// and within 1e-8 of it, it took no iterations, and core.Solve
// reports it with LowerBound = Energy. Every fallback answer is the
// barrier's, bit for bit.
func TestClosedFormAgainstBarrier(t *testing.T) {
	closed, fallback := 0, 0
	for _, c := range corpus(t) {
		in := c.in
		cg, err := in.Mapping.ConstraintGraph(in.Graph)
		if err != nil {
			t.Fatal(err)
		}
		got, exact, err := bicrit.Solve(cg, in.Deadline, in.Speed.FMin, in.Speed.FMax)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		want, err := barrier(t, cg, in.Deadline, in.Speed.FMin, in.Speed.FMax)
		if err != nil {
			t.Fatalf("%s: barrier: %v", c.name, err)
		}
		if !exact {
			fallback++
			if got.Energy != want.Energy || fmt.Sprint(got.Durations) != fmt.Sprint(want.Durations) || got.Iterations != want.Iterations {
				t.Errorf("%s: fallback differs from the barrier", c.name)
			}
			continue
		}
		closed++
		if got.Iterations != 0 {
			t.Errorf("%s: closed form reports %d iterations", c.name, got.Iterations)
		}
		if got.Energy > want.Energy || got.Energy < want.Energy*(1-1e-8) {
			t.Errorf("%s: closed form %v against barrier %v", c.name, got.Energy, want.Energy)
		}
		s, err := schedule.FromDurations(in.Graph, in.Mapping, got.Durations)
		if err != nil {
			t.Fatal(err)
		}
		if err := s.Validate(in.Constraints()); err != nil {
			t.Errorf("%s: closed-form schedule invalid: %v", c.name, err)
		}
		for i, st := range got.Starts {
			if math.Abs(st-s.Tasks[i].Execs[0].Start) > 1e-12*in.Deadline {
				t.Errorf("%s: task %d starts at %v, the ASAP schedule at %v", c.name, i, st, s.Tasks[i].Execs[0].Start)
				break
			}
		}
		res, err := core.Solve(context.Background(), in)
		if err != nil {
			t.Fatal(err)
		}
		if res.Energy != got.Energy || res.LowerBound != res.Energy || res.Iterations != 0 || !res.Exact {
			t.Errorf("%s: core.Solve energy %v, lowerBound %v, iterations %d, exact %v; closed form %v",
				c.name, res.Energy, res.LowerBound, res.Iterations, res.Exact, got.Energy)
		}
	}
	t.Logf("%d closed-form answers, %d barrier fallbacks", closed, fallback)
	if closed < 150 || fallback < 100 {
		t.Fatalf("corpus too one-sided: %d closed form, %d fallback", closed, fallback)
	}
}

// TestFallback drives each reason for leaving the closed form: a
// graph that is not series-parallel, a deadline so tight that the
// closed form would run a task above fmax, and one so loose that it
// would run a task below fmin. Each answer is the barrier's, bit for
// bit, and the bound that made the closed form fail binds in it.
func TestFallback(t *testing.T) {
	nShape := dag.New()
	a, b, c, d := nShape.AddTask("a", 1), nShape.AddTask("b", 2), nShape.AddTask("c", 3), nShape.AddTask("d", 1)
	nShape.MustEdge(a, c)
	nShape.MustEdge(b, c)
	nShape.MustEdge(b, d)
	// Both forks have an fmax critical path of 8 at fmax = 1. The
	// closed form runs the first one's source at 9.04/D and the second
	// one's light branch at about 1/D.
	even, light := dag.ForkGraph(4, 4, 4), dag.ForkGraph(4, 4, 0.5)
	for _, tc := range []struct {
		name             string
		cg               *dag.Graph
		deadline         float64
		fmin, fmax, bind float64
	}{
		{"not series-parallel", nShape, 8, 0.05, 1, 0},
		{"fmax binds", even, 8.5, 0.1, 1, 1},
		{"fmin binds", light, 40, 0.1, 1, 0.1},
	} {
		got, exact, err := bicrit.Solve(tc.cg, tc.deadline, tc.fmin, tc.fmax)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if exact {
			t.Errorf("%s: answered in closed form", tc.name)
			continue
		}
		want, err := barrier(t, tc.cg, tc.deadline, tc.fmin, tc.fmax)
		if err != nil {
			t.Fatal(err)
		}
		if got.Energy != want.Energy || fmt.Sprint(got.Speeds) != fmt.Sprint(want.Speeds) {
			t.Errorf("%s: fallback differs from the barrier", tc.name)
		}
		if got.Iterations == 0 {
			t.Errorf("%s: barrier took no iterations", tc.name)
		}
		if tc.bind > 0 {
			binds := false
			for _, f := range got.Speeds {
				binds = binds || math.Abs(f-tc.bind) < 1e-6*tc.bind
			}
			if !binds {
				t.Errorf("%s: no speed at %v in %v", tc.name, tc.bind, got.Speeds)
			}
		}
	}
}

// TestInfeasibleDeadline checks that a series-parallel instance whose
// deadline is below the fmax critical path still reports the barrier's
// convex.ErrInfeasible.
func TestInfeasibleDeadline(t *testing.T) {
	g := dag.ChainGraph(1, 2, 3)
	if _, _, err := bicrit.Solve(g, 5, 0.1, 1); err != convex.ErrInfeasible {
		t.Fatalf("err = %v, want convex.ErrInfeasible", err)
	}
	mp, err := platform.SingleProcessor(g)
	if err != nil {
		t.Fatal(err)
	}
	sm, _ := model.NewContinuous(0.1, 1)
	if _, err := core.Solve(context.Background(), &core.Instance{Graph: g, Mapping: mp, Speed: sm, Deadline: 5}); err != core.ErrInfeasible {
		t.Fatalf("core.Solve err = %v, want core.ErrInfeasible", err)
	}
}
