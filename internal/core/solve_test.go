package core

import (
	"bytes"
	"context"
	"errors"
	"math"
	"strings"
	"sync"
	"testing"
	"time"

	"energysched/internal/dag"
	"energysched/internal/model"
	"energysched/internal/platform"
	"energysched/internal/schedule"
)

// --- registry ---

func TestRegistryHasBuiltins(t *testing.T) {
	want := []string{
		SolverContinuousConvex, SolverVddLP, SolverDiscreteBB, SolverDiscreteRoundUp,
		"tricrit-best-of", "tricrit-chain-first", "tricrit-parallel-first", "tricrit-exact",
	}
	for _, name := range want {
		s, ok := Lookup(name)
		if !ok {
			t.Fatalf("built-in solver %q not registered", name)
		}
		if s.Name() != name {
			t.Errorf("Lookup(%q).Name() = %q", name, s.Name())
		}
	}
	names := SolverNames()
	if len(names) < len(want) {
		t.Errorf("SolverNames() = %v, want at least the %d built-ins", names, len(want))
	}
	for _, strat := range []Strategy{StrategyBestOf, StrategyChainFirst, StrategyParallelFirst, StrategyExact} {
		if _, ok := Lookup(TriCritSolverName(strat)); !ok {
			t.Errorf("TriCritSolverName(%v) = %q not registered", strat, TriCritSolverName(strat))
		}
	}
}

func TestRegisterRejectsBadSolvers(t *testing.T) {
	mustPanic := func(name string, fn func()) {
		defer func() {
			if recover() == nil {
				t.Errorf("%s: expected panic", name)
			}
		}()
		fn()
	}
	mustPanic("nil solver", func() { Register("x", nil) })
	mustPanic("name mismatch", func() { Register("not-its-name", fakeSolver{name: "other"}) })
	mustPanic("duplicate", func() { Register(SolverVddLP, fakeSolver{name: SolverVddLP}) })
}

// fakeSolver supports only instances whose first task carries its
// name, so registering it cannot perturb auto-dispatch for the other
// tests in the package.
type fakeSolver struct {
	name    string
	started chan struct{} // closed signal per Solve call, optional
	solve   func(ctx context.Context, in *Instance, cfg *Config) (*Result, error)
}

func (f fakeSolver) Name() string { return f.name }

func (f fakeSolver) Supports(in *Instance) bool {
	return in.Graph.N() > 0 && in.Graph.Task(0).Name == f.name
}

func (f fakeSolver) Solve(ctx context.Context, in *Instance, cfg *Config) (*Result, error) {
	if f.started != nil {
		f.started <- struct{}{}
	}
	if f.solve != nil {
		return f.solve(ctx, in, cfg)
	}
	<-ctx.Done()
	return nil, ctx.Err()
}

// registerForTest installs (or replaces) a fake solver directly in
// the registry, bypassing Register's duplicate panic so tests survive
// -count=N reruns within one process.
func registerForTest(s Solver) {
	registryMu.Lock()
	defer registryMu.Unlock()
	registry[s.Name()] = s
}

// fakeInstance builds a valid instance whose first task is named so
// that exactly the given fake solver supports it.
func fakeInstance(solverName string) *Instance {
	g := dag.New()
	g.AddTask(solverName, 1)
	mp, _ := platform.SingleProcessor(g)
	sm, _ := model.NewContinuous(0.1, 1)
	return &Instance{Graph: g, Mapping: mp, Speed: sm, Deadline: 100}
}

// --- options ---

func TestOptionValidation(t *testing.T) {
	in := contInstance(2)
	ctx := context.Background()
	cases := []struct {
		name string
		opt  Option
	}{
		{"round-up K 0", WithRoundUpK(0)},
		{"negative exact limit", WithExactSizeLimit(-1)},
		{"negative timeout", WithTimeout(-time.Second)},
		{"zero workers", WithWorkers(0)},
	}
	for _, c := range cases {
		if _, err := Solve(ctx, in, c.opt); err == nil {
			t.Errorf("%s: invalid option accepted", c.name)
		}
	}
}

func TestWithSolverPins(t *testing.T) {
	// A small DISCRETE instance auto-dispatches to the exact solver…
	g := dag.ChainGraph(1, 2)
	mp, _ := platform.SingleProcessor(g)
	sm, _ := model.NewDiscrete(model.XScaleLevels())
	in := &Instance{Graph: g, Mapping: mp, Speed: sm, Deadline: 10}
	ctx := context.Background()
	auto, err := Solve(ctx, in)
	if err != nil {
		t.Fatal(err)
	}
	if auto.Solver != SolverDiscreteBB {
		t.Errorf("auto solver = %q, want %q", auto.Solver, SolverDiscreteBB)
	}
	// …but WithSolver can force the approximation onto it.
	pinned, err := Solve(ctx, in, WithSolver(SolverDiscreteRoundUp))
	if err != nil {
		t.Fatal(err)
	}
	if pinned.Solver != SolverDiscreteRoundUp || pinned.Exact {
		t.Errorf("pinned solver = %q exact=%v, want round-up approximation", pinned.Solver, pinned.Exact)
	}
	if pinned.LowerBound <= 0 || pinned.Gap() < 0 {
		t.Errorf("approximation should report a lower bound and gap, got lb=%v gap=%v", pinned.LowerBound, pinned.Gap())
	}

	if _, err := Solve(ctx, in, WithSolver("no-such-solver")); err == nil || !strings.Contains(err.Error(), "no-such-solver") {
		t.Errorf("unknown solver error = %v", err)
	}
	if _, err := Solve(ctx, in, WithSolver(SolverContinuousConvex)); err == nil {
		t.Error("continuous solver accepted a DISCRETE instance")
	}
}

func TestWithExactSizeLimitControlsDispatch(t *testing.T) {
	g := dag.ChainGraph(1, 2)
	mp, _ := platform.SingleProcessor(g)
	sm, _ := model.NewDiscrete(model.XScaleLevels())
	in := &Instance{Graph: g, Mapping: mp, Speed: sm, Deadline: 10}
	ctx := context.Background()
	res, err := Solve(ctx, in, WithExactSizeLimit(0))
	if err != nil {
		t.Fatal(err)
	}
	if res.Solver != SolverDiscreteRoundUp {
		t.Errorf("limit 0 dispatched %q, want %q", res.Solver, SolverDiscreteRoundUp)
	}
	res, err = Solve(ctx, in, WithExactSizeLimit(1<<20))
	if err != nil {
		t.Fatal(err)
	}
	if res.Solver != SolverDiscreteBB {
		t.Errorf("huge limit dispatched %q, want %q", res.Solver, SolverDiscreteBB)
	}
}

func TestWithRoundUpKTightensApproximation(t *testing.T) {
	ws := make([]float64, 20)
	for i := range ws {
		ws[i] = 1 + float64(i%3)
	}
	g := dag.ChainGraph(ws...)
	mp, _ := platform.SingleProcessor(g)
	sm, _ := model.NewIncremental(0.1, 1, 0.05)
	in := &Instance{Graph: g, Mapping: mp, Speed: sm, Deadline: g.TotalWeight() * 1.6}
	ctx := context.Background()
	loose, err := Solve(ctx, in, WithExactSizeLimit(0), WithRoundUpK(1))
	if err != nil {
		t.Fatal(err)
	}
	tight, err := Solve(ctx, in, WithExactSizeLimit(0), WithRoundUpK(50))
	if err != nil {
		t.Fatal(err)
	}
	if tight.Energy > loose.Energy*(1+1e-9) {
		t.Errorf("K=50 energy %v worse than K=1 energy %v", tight.Energy, loose.Energy)
	}
}

// --- Solve: auto-dispatch matrix ---

// TestSolveDispatchMatrix checks that Solve covers every (speed model
// × problem kind) combination and selects the expected solver for
// each.
func TestSolveDispatchMatrix(t *testing.T) {
	ctx := context.Background()
	chain := dag.ChainGraph(1, 2, 3)
	mpC, _ := platform.SingleProcessor(chain)
	cont, _ := model.NewContinuous(0.05, 10)
	vddm, _ := model.NewVddHopping([]float64{0.5, 1, 2})
	disc, _ := model.NewDiscrete(model.XScaleLevels())
	incr, _ := model.NewIncremental(0.1, 1, 0.1)

	bicrit := []struct {
		sm     model.SpeedModel
		D      float64
		solver string
		exact  bool
	}{
		{cont, 2, SolverContinuousConvex, true},
		{vddm, 6, SolverVddLP, true},
		{disc, 10, SolverDiscreteBB, true},
		{incr, 10, SolverDiscreteBB, true},
	}
	for _, c := range bicrit {
		in := &Instance{Graph: chain, Mapping: mpC, Speed: c.sm, Deadline: c.D}
		res, err := Solve(ctx, in)
		if err != nil {
			t.Fatalf("%v: %v", c.sm.Kind, err)
		}
		if res.Solver != c.solver || res.Exact != c.exact {
			t.Errorf("%v: solver %q exact=%v, want %q exact=%v", c.sm.Kind, res.Solver, res.Exact, c.solver, c.exact)
		}
	}

	// Large DISCRETE falls back to the approximation.
	ws := make([]float64, 30)
	for i := range ws {
		ws[i] = 1
	}
	big := dag.ChainGraph(ws...)
	mpB, _ := platform.SingleProcessor(big)
	res, err := Solve(ctx, &Instance{Graph: big, Mapping: mpB, Speed: disc, Deadline: 120})
	if err != nil {
		t.Fatal(err)
	}
	if res.Solver != SolverDiscreteRoundUp || res.Exact {
		t.Errorf("large DISCRETE dispatched %q exact=%v, want round-up approximation", res.Solver, res.Exact)
	}

	// TRI-CRIT: every strategy under CONTINUOUS and VDD-HOPPING.
	fork := dag.ForkGraph(1, 1, 1)
	mpF := platform.OneTaskPerProcessor(fork)
	contT, _ := model.NewContinuous(0.1, 1)
	vddT, _ := model.NewVddHopping([]float64{0.1, 0.3, 0.5, 0.8, 1.0})
	rel := model.Reliability{Lambda0: 1e-5, Sensitivity: 3, FMin: 0.1, FMax: 1}
	for _, strat := range []Strategy{StrategyBestOf, StrategyChainFirst, StrategyParallelFirst, StrategyExact} {
		for _, sm := range []model.SpeedModel{contT, vddT} {
			in := &Instance{Graph: fork, Mapping: mpF, Speed: sm, Deadline: 15, Rel: &rel, FRel: 0.8}
			res, err := Solve(ctx, in, WithStrategy(strat))
			if err != nil {
				t.Fatalf("%v/%v: %v", strat, sm.Kind, err)
			}
			if res.Solver != TriCritSolverName(strat) {
				t.Errorf("%v/%v: solver %q, want %q", strat, sm.Kind, res.Solver, TriCritSolverName(strat))
			}
			wantMethod := "tricrit-" + strat.String()
			if sm.Kind == model.VddHopping {
				wantMethod += "+vdd-round"
			}
			if res.Method != wantMethod {
				t.Errorf("%v/%v: method %q, want %q", strat, sm.Kind, res.Method, wantMethod)
			}
		}
	}

	// TRI-CRIT heuristics report the BI-CRIT relaxation as lower bound
	// when asked (it costs an extra convex solve), and skip it by
	// default.
	in := &Instance{Graph: fork, Mapping: mpF, Speed: contT, Deadline: 15, Rel: &rel, FRel: 0.8}
	heur, err := Solve(ctx, in, WithStrategy(StrategyBestOf), WithLowerBound(true))
	if err != nil {
		t.Fatal(err)
	}
	if heur.LowerBound <= 0 || heur.Gap() < 0 {
		t.Errorf("heuristic lower bound/gap missing: lb=%v gap=%v", heur.LowerBound, heur.Gap())
	}
	noLB, err := Solve(ctx, in, WithStrategy(StrategyBestOf))
	if err != nil {
		t.Fatal(err)
	}
	if noLB.LowerBound != 0 || noLB.Gap() != -1 {
		t.Errorf("lower bound computed without WithLowerBound: lb=%v gap=%v", noLB.LowerBound, noLB.Gap())
	}
	// The VDD-adapted exact strategy carries its continuous-exact
	// energy as a free bound.
	inV := &Instance{Graph: fork, Mapping: mpF, Speed: vddT, Deadline: 15, Rel: &rel, FRel: 0.8}
	exactV, err := Solve(ctx, inV, WithStrategy(StrategyExact))
	if err != nil {
		t.Fatal(err)
	}
	if exactV.LowerBound <= 0 || exactV.Gap() < 0 {
		t.Errorf("VDD exact strategy lost its bound: lb=%v gap=%v", exactV.LowerBound, exactV.Gap())
	}

	// Unsupported combination: TRI-CRIT under DISCRETE.
	in = &Instance{Graph: fork, Mapping: mpF, Speed: disc, Deadline: 15, Rel: &rel, FRel: 0.8}
	if _, err := Solve(ctx, in); err == nil {
		t.Error("TRI-CRIT under DISCRETE accepted")
	}
}

// nShapeInstance is a CONTINUOUS BI-CRIT instance whose constraint
// graph is the canonical non-series-parallel pattern a→c, b→c, b→d,
// one task per processor, so continuous-convex runs the barrier.
func nShapeInstance(deadline float64) *Instance {
	g := dag.New()
	a, b, c, d := g.AddTask("a", 1), g.AddTask("b", 2), g.AddTask("c", 3), g.AddTask("d", 1)
	g.MustEdge(a, c)
	g.MustEdge(b, c)
	g.MustEdge(b, d)
	sm, _ := model.NewContinuous(0.05, 10)
	return &Instance{Graph: g, Mapping: platform.OneTaskPerProcessor(g), Speed: sm, Deadline: deadline}
}

// TestSolveDiagnostics checks the continuous solver's diagnostics on
// both of its paths: the barrier counts its iterations on a
// non-series-parallel graph, and the chain's closed form takes none.
func TestSolveDiagnostics(t *testing.T) {
	for _, c := range []struct {
		name       string
		in         *Instance
		iterations bool
	}{
		{"barrier", nShapeInstance(4), true},
		{"closed form", contInstance(2), false},
	} {
		res, err := Solve(context.Background(), c.in)
		if err != nil {
			t.Fatal(err)
		}
		if (res.Iterations > 0) != c.iterations {
			t.Errorf("%s: continuous solver reported %d iterations", c.name, res.Iterations)
		}
		if res.WallTime <= 0 {
			t.Errorf("%s: wall time not measured: %v", c.name, res.WallTime)
		}
		if res.LowerBound <= 0 || res.Gap() != 0 {
			t.Errorf("%s: exact solver should be its own bound: lb=%v gap=%v", c.name, res.LowerBound, res.Gap())
		}
	}
}

func TestSolveInfeasible(t *testing.T) {
	in := contInstance(0.1)
	in.Speed, _ = model.NewContinuous(0.05, 1)
	if _, err := Solve(context.Background(), in); err != ErrInfeasible {
		t.Errorf("err = %v, want ErrInfeasible", err)
	}
}

// --- context / timeout ---

func TestSolveTimeout(t *testing.T) {
	registerForTest(fakeSolver{name: "test-hang"})
	in := fakeInstance("test-hang")
	start := time.Now()
	_, err := Solve(context.Background(), in, WithSolver("test-hang"), WithTimeout(20*time.Millisecond))
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want DeadlineExceeded", err)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Errorf("timeout took %v to fire", elapsed)
	}
}

func TestSolveCancelledContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := Solve(ctx, contInstance(2)); !errors.Is(err, context.Canceled) {
		t.Errorf("err = %v, want Canceled", err)
	}
}

// --- batch ---

func batchOfChains(n int) []*Instance {
	ins := make([]*Instance, n)
	cont, _ := model.NewContinuous(0.05, 10)
	vddm, _ := model.NewVddHopping(model.XScaleLevels())
	for i := range ins {
		ws := make([]float64, 3+i%5)
		for j := range ws {
			ws[j] = 1 + float64((i+j)%4)
		}
		g := dag.ChainGraph(ws...)
		mp, _ := platform.SingleProcessor(g)
		sm := cont
		if i%2 == 1 {
			sm = vddm
		}
		ins[i] = &Instance{Graph: g, Mapping: mp, Speed: sm, Deadline: g.TotalWeight() * 2}
	}
	return ins
}

func TestSolveAllOrderAndAgreement(t *testing.T) {
	ins := batchOfChains(40)
	ctx := context.Background()
	items := SolveAll(ctx, ins)
	if len(items) != len(ins) {
		t.Fatalf("got %d items for %d instances", len(items), len(ins))
	}
	for i, it := range items {
		if it.Index != i || it.Instance != ins[i] {
			t.Fatalf("item %d out of order: index %d instance %p", i, it.Index, it.Instance)
		}
		if it.Err != nil {
			t.Fatalf("item %d failed: %v", i, it.Err)
		}
		single, err := Solve(ctx, ins[i])
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(single.Energy-it.Result.Energy)/single.Energy > 1e-12 {
			t.Errorf("item %d: batch energy %v != single energy %v", i, it.Result.Energy, single.Energy)
		}
	}
}

func TestSolveAllEmptyAndInvalidOptions(t *testing.T) {
	if items := SolveAll(context.Background(), nil); len(items) != 0 {
		t.Errorf("empty batch returned %d items", len(items))
	}
	items := SolveAll(context.Background(), batchOfChains(3), WithWorkers(-1))
	for i, it := range items {
		if it.Err == nil {
			t.Errorf("item %d: invalid option accepted", i)
		}
	}
}

func TestSolveAllPerItemTimeout(t *testing.T) {
	items := SolveAll(context.Background(), batchOfChains(8), WithTimeout(time.Nanosecond))
	for i, it := range items {
		if !errors.Is(it.Err, context.DeadlineExceeded) {
			t.Errorf("item %d: err = %v, want DeadlineExceeded", i, it.Err)
		}
	}
}

func TestSolveAllCancellationMidBatch(t *testing.T) {
	started := make(chan struct{}, 64)
	registerForTest(fakeSolver{name: "test-block", started: started})
	const n = 32
	ins := make([]*Instance, n)
	for i := range ins {
		ins[i] = fakeInstance("test-block")
	}
	ctx, cancel := context.WithCancel(context.Background())
	var wg sync.WaitGroup
	wg.Add(1)
	var items []BatchItem
	go func() {
		defer wg.Done()
		items = SolveAll(ctx, ins, WithSolver("test-block"), WithWorkers(4))
	}()
	// Wait until the pool is actually solving, then pull the plug.
	for i := 0; i < 4; i++ {
		<-started
	}
	cancel()
	wg.Wait()
	if len(items) != n {
		t.Fatalf("got %d items, want %d", len(items), n)
	}
	for i, it := range items {
		if it.Index != i {
			t.Errorf("item %d has index %d", i, it.Index)
		}
		if !errors.Is(it.Err, context.Canceled) {
			t.Errorf("item %d: err = %v, want Canceled", i, it.Err)
		}
	}
}

// --- benchmarks: parallel batch speedup ---

func benchmarkSolveAll(b *testing.B, workers int) {
	ins := batchOfChains(64)
	opts := []Option{WithValidation(false)}
	if workers > 0 {
		opts = append(opts, WithWorkers(workers))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		items := SolveAll(context.Background(), ins, opts...)
		for _, it := range items {
			if it.Err != nil {
				b.Fatal(it.Err)
			}
		}
	}
}

func BenchmarkSolveAllSequential(b *testing.B) { benchmarkSolveAll(b, 1) }
func BenchmarkSolveAllParallel(b *testing.B)   { benchmarkSolveAll(b, 0) }

// --- JSON ---

// TestInstanceJSONDeepRoundTrip marshals, unmarshals and re-marshals:
// the two byte streams must be identical, which pins every field of
// the wire format.
func TestInstanceJSONDeepRoundTrip(t *testing.T) {
	in := triInstance(12)
	first, err := MarshalInstance(in)
	if err != nil {
		t.Fatal(err)
	}
	back, err := UnmarshalInstance(first)
	if err != nil {
		t.Fatal(err)
	}
	second, err := MarshalInstance(back)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(first, second) {
		t.Errorf("round trip changed the wire format:\nfirst:\n%s\nsecond:\n%s", first, second)
	}
}

func TestUnmarshalRejectsBadProcessors(t *testing.T) {
	for _, procs := range []string{"0", "-3"} {
		data := []byte(`{
			"tasks": [{"name":"a","weight":1}],
			"processors": ` + procs + `,
			"speedModel": {"kind":"continuous","fmin":0.1,"fmax":2},
			"deadline": 10
		}`)
		if _, err := UnmarshalInstance(data); err == nil || !strings.Contains(err.Error(), "processors") {
			t.Errorf("processors=%s: err = %v, want processors validation error", procs, err)
		}
	}
	// Mapping/processors disagreement is also rejected.
	data := []byte(`{
		"tasks": [{"name":"a","weight":1}],
		"processors": 2,
		"mapping": [[0]],
		"speedModel": {"kind":"continuous","fmin":0.1,"fmax":2},
		"deadline": 10
	}`)
	if _, err := UnmarshalInstance(data); err == nil || !strings.Contains(err.Error(), "mapping") {
		t.Errorf("mismatched mapping: err = %v, want mapping validation error", err)
	}
}

func TestMarshalResultGolden(t *testing.T) {
	g := dag.ChainGraph(1, 2)
	mp, _ := platform.SingleProcessor(g)
	s, err := schedule.FromSpeeds(g, mp, []float64{0.5, 1})
	if err != nil {
		t.Fatal(err)
	}
	r := &Result{
		Solution:   Solution{Schedule: s, Energy: s.Energy(), Method: "discrete-roundup", Exact: false},
		Solver:     SolverDiscreteRoundUp,
		LowerBound: 2,
		WallTime:   1500 * time.Microsecond,
	}
	got, err := MarshalResult(r)
	if err != nil {
		t.Fatal(err)
	}
	want := `{
  "solver": "discrete-roundup",
  "method": "discrete-roundup",
  "exact": false,
  "energy": 2.25,
  "makespan": 4,
  "lowerBound": 2,
  "gap": 0.125,
  "wallTimeMs": 1.5,
  "numReExecuted": 0,
  "tasks": [
    {
      "name": "T0",
      "proc": 0,
      "execs": [
        {
          "start": 0,
          "segments": [
            {
              "speed": 0.5,
              "duration": 2
            }
          ]
        }
      ]
    },
    {
      "name": "T1",
      "proc": 0,
      "execs": [
        {
          "start": 2,
          "segments": [
            {
              "speed": 1,
              "duration": 2
            }
          ]
        }
      ]
    }
  ]
}`
	if string(got) != want {
		t.Errorf("golden mismatch:\ngot:\n%s\nwant:\n%s", got, want)
	}
}

func TestMarshalResultRejectsEmpty(t *testing.T) {
	if _, err := MarshalResult(nil); err == nil {
		t.Error("nil result accepted")
	}
	if _, err := MarshalResult(&Result{}); err == nil {
		t.Error("schedule-less result accepted")
	}
}
