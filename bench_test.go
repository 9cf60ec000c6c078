// Package energysched_test is the benchmark harness: one benchmark per
// paper claim (regenerating the claim tables via the drivers in
// internal/experiments; see "Claim drivers" in the README) plus
// micro-benchmarks of every solver substrate.
//
// Run: go test -bench=. -benchmem
package energysched_test

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"testing"

	"energysched/internal/closedform"
	"energysched/internal/convex"
	"energysched/internal/core"
	"energysched/internal/dag"
	"energysched/internal/discrete"
	"energysched/internal/experiments"
	"energysched/internal/listsched"
	"energysched/internal/lp"
	"energysched/internal/model"
	"energysched/internal/platform"
	"energysched/internal/router"
	"energysched/internal/schedule"
	"energysched/internal/server"
	"energysched/internal/sim"
	"energysched/internal/tricrit"
	"energysched/internal/vdd"
	"energysched/internal/workload"
)

// --- Claim benchmarks: each regenerates one claim-driver table ---

func benchReport(b *testing.B, run func() *experiments.Report) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		rep := run()
		if rep == nil || rep.Table == nil {
			b.Fatal("driver returned no table")
		}
	}
}

func Benchmark_E01_ForkClosedForm(b *testing.B)   { benchReport(b, experiments.E01ForkClosedForm) }
func Benchmark_E02_SeriesParallel(b *testing.B)   { benchReport(b, experiments.E02SeriesParallel) }
func Benchmark_E03_ContinuousDAG(b *testing.B)    { benchReport(b, experiments.E03ContinuousDAG) }
func Benchmark_E04_ChainTriCrit(b *testing.B)     { benchReport(b, experiments.E04ChainTriCrit) }
func Benchmark_E05_ForkTriCrit(b *testing.B)      { benchReport(b, experiments.E05ForkTriCrit) }
func Benchmark_E06_VddLP(b *testing.B)            { benchReport(b, experiments.E06VddLP) }
func Benchmark_E07_DiscreteHardness(b *testing.B) { benchReport(b, experiments.E07DiscreteHardness) }
func Benchmark_E08_IncrementalApprox(b *testing.B) {
	benchReport(b, experiments.E08IncrementalApprox)
}
func Benchmark_E09_ModelHierarchy(b *testing.B) { benchReport(b, experiments.E09ModelHierarchy) }
func Benchmark_E10_TwoSpeeds(b *testing.B)      { benchReport(b, experiments.E10TwoSpeeds) }
func Benchmark_E11_VddTriCrit(b *testing.B)     { benchReport(b, experiments.E11VddTriCrit) }
func Benchmark_E12_HeuristicSweep(b *testing.B) { benchReport(b, experiments.E12HeuristicSweep) }
func Benchmark_E13_FaultSim(b *testing.B)       { benchReport(b, experiments.E13FaultSim) }
func Benchmark_E14_DeadlineSweep(b *testing.B)  { benchReport(b, experiments.E14DeadlineSweep) }
func Benchmark_E15_ListSchedule(b *testing.B)   { benchReport(b, experiments.E15ListSchedule) }
func Benchmark_E16_Replication(b *testing.B) {
	benchReport(b, experiments.E16ReplicationVsReexec)
}
func Benchmark_E17_DPvsBB(b *testing.B) { benchReport(b, experiments.E17DPvsBranchAndBound) }

// --- Solver micro-benchmarks ---

func BenchmarkSimplexSolve(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	n, m := 40, 25
	p := &lp.Problem{NumVars: n, Objective: make([]float64, n)}
	x0 := make([]float64, n)
	for j := range x0 {
		x0[j] = rng.Float64() * 5
		p.Objective[j] = rng.Float64() + 0.1
	}
	for k := 0; k < m; k++ {
		coeffs := make([]float64, n)
		dot := 0.0
		for j := range coeffs {
			coeffs[j] = rng.Float64()*2 - 0.5
			dot += coeffs[j] * x0[j]
		}
		p.AddConstraint(coeffs, lp.LE, dot+1)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := lp.Solve(p); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkConvexSolve64Tasks(b *testing.B) {
	rng := rand.New(rand.NewSource(2))
	g := workload.Layered(rng, 64, 8, 0.2, workload.UniformWeights)
	mp := mustMap(b, g, 8)
	cg, err := mp.ConstraintGraph(g)
	if err != nil {
		b.Fatal(err)
	}
	lo := make([]float64, g.N())
	hi := make([]float64, g.N())
	for i := range lo {
		lo[i], hi[i] = 0, 1
	}
	durs := make([]float64, g.N())
	for i := range durs {
		durs[i] = g.Weight(i)
	}
	_, cp, _ := cg.LongestPath(durs)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := convex.MinimizeEnergy(cg, cp*2, g.Weights(), lo, hi, convex.Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkVddLP32Tasks(b *testing.B) {
	rng := rand.New(rand.NewSource(3))
	g := workload.Layered(rng, 32, 6, 0.2, workload.UniformWeights)
	mp := mustMap(b, g, 4)
	sm, _ := model.NewVddHopping(model.XScaleLevels())
	cg, _ := mp.ConstraintGraph(g)
	durs := make([]float64, g.N())
	for i := range durs {
		durs[i] = g.Weight(i)
	}
	_, cp, _ := cg.LongestPath(durs)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := vdd.SolveBiCrit(g, mp, sm, cp*2); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDiscreteExact12Tasks(b *testing.B) {
	rng := rand.New(rand.NewSource(4))
	g := workload.Chain(rng, 12, workload.UniformWeights)
	mp := mustMap(b, g, 1)
	sm, _ := model.NewDiscrete(model.XScaleLevels())
	D := g.TotalWeight() * 1.8
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := discrete.SolveExact(g, mp, sm, D); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkChainExact14Tasks(b *testing.B) {
	rng := rand.New(rand.NewSource(5))
	ws := workload.UniformWeights.Weights(rng, 14)
	sum := 0.0
	for _, w := range ws {
		sum += w
	}
	in := tricrit.Instance{Deadline: sum * 4, FMin: 0.1, FMax: 1, FRel: 0.8,
		Rel: model.Reliability{Lambda0: 1e-5, Sensitivity: 3, FMin: 0.1, FMax: 1}}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := tricrit.SolveChainExact(ws, in); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkChainFirstHeuristic64Tasks(b *testing.B) {
	rng := rand.New(rand.NewSource(6))
	ws := workload.UniformWeights.Weights(rng, 64)
	sum := 0.0
	for _, w := range ws {
		sum += w
	}
	in := tricrit.Instance{Deadline: sum * 4, FMin: 0.1, FMax: 1, FRel: 0.8,
		Rel: model.Reliability{Lambda0: 1e-5, Sensitivity: 3, FMin: 0.1, FMax: 1}}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := tricrit.ChainFirst(ws, in); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTriCritBestOf12 runs the TRI-CRIT best-of heuristics on a
// committed cold-single instance: pool index 5 of svcbench's
// cold-single tri-crit stream at seed 91, a 12-task series-parallel
// graph on two processors with the default reliability model.
func BenchmarkTriCritBestOf12(b *testing.B) {
	raw, err := os.ReadFile("testdata/tricrit-cold12.json")
	if err != nil {
		b.Fatal(err)
	}
	in, err := core.UnmarshalInstance(raw)
	if err != nil {
		b.Fatal(err)
	}
	tin := tricrit.Instance{Deadline: in.Deadline, FMin: in.Speed.FMin, FMax: in.Speed.FMax, FRel: in.FRel, Rel: *in.Rel}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := tricrit.BestOf(in.Graph, in.Mapping, tin); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkContinuousSolveSP24 is one cold-single bi-crit solve that
// continuous-convex answers in closed form: pool index 0 of svcbench's
// cold-single bi-crit stream (tag 1, n = 24) at seed 91, whose
// constraint graph is series-parallel with speeds inside [fmin, fmax].
func BenchmarkContinuousSolveSP24(b *testing.B) {
	benchContinuousSolve(b, "testdata/continuous-cold24-sp.json", false)
}

// BenchmarkContinuousSolveNonSP24 is its counterpart from the same
// stream (pool index 4), whose constraint graph is not
// series-parallel: it pins the failed recognition plus the barrier.
func BenchmarkContinuousSolveNonSP24(b *testing.B) {
	benchContinuousSolve(b, "testdata/continuous-cold24-nonsp.json", true)
}

// benchContinuousSolve times core.Solve on a committed instance after
// checking which path it takes: the barrier counts iterations, the
// closed form takes none.
func benchContinuousSolve(b *testing.B, path string, barrier bool) {
	raw, err := os.ReadFile(path)
	if err != nil {
		b.Fatal(err)
	}
	in, err := core.UnmarshalInstance(raw)
	if err != nil {
		b.Fatal(err)
	}
	ctx := context.Background()
	res, err := core.Solve(ctx, in)
	if err != nil {
		b.Fatal(err)
	}
	if (res.Iterations > 0) != barrier {
		b.Fatalf("%s: %d barrier iterations", path, res.Iterations)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.Solve(ctx, in); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkForkPoly128Branches(b *testing.B) {
	rng := rand.New(rand.NewSource(7))
	br := workload.UniformWeights.Weights(rng, 128)
	total := 1.0
	for _, w := range br {
		total += w
	}
	in := tricrit.Instance{Deadline: total, FMin: 0.1, FMax: 1, FRel: 0.8,
		Rel: model.Reliability{Lambda0: 1e-5, Sensitivity: 3, FMin: 0.1, FMax: 1}}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := tricrit.SolveForkPoly(1, br, in); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkListSchedule512Tasks(b *testing.B) {
	rng := rand.New(rand.NewSource(8))
	g := workload.Layered(rng, 512, 16, 0.05, workload.UniformWeights)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := listsched.CriticalPath(g, 16); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSPDecompose64Tasks(b *testing.B) {
	rng := rand.New(rand.NewSource(9))
	_, sp := workload.SeriesParallel(rng, 64, workload.UniformWeights)
	g, err := sp.Graph()
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := dag.Decompose(g); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkScheduleValidate(b *testing.B) {
	rng := rand.New(rand.NewSource(10))
	g := workload.Layered(rng, 100, 10, 0.15, workload.UniformWeights)
	mp := mustMap(b, g, 8)
	speeds := make([]float64, g.N())
	for i := range speeds {
		speeds[i] = 1
	}
	s, err := schedule.FromSpeeds(g, mp, speeds)
	if err != nil {
		b.Fatal(err)
	}
	sm, _ := model.NewContinuous(0.1, 1)
	c := schedule.Constraints{Model: sm, Deadline: s.Makespan() * 1.01}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := s.Validate(c); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Ablation benchmarks (design choices behind the solvers) ---

// Closed form vs numerical solver on the same series-parallel
// instance: why the closed forms matter.
func BenchmarkAblation_ClosedFormSP64(b *testing.B) {
	rng := rand.New(rand.NewSource(20))
	_, sp := workload.SeriesParallel(rng, 64, workload.UniformWeights)
	D := closedformMinDeadline(sp) * 3
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := closedform.SolveSP(sp, D); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAblation_ConvexSP64(b *testing.B) {
	rng := rand.New(rand.NewSource(20))
	g, sp := workload.SeriesParallel(rng, 64, workload.UniformWeights)
	D := closedformMinDeadline(sp) * 3
	lo := make([]float64, g.N())
	hi := make([]float64, g.N())
	for i := range lo {
		lo[i], hi[i] = 0, 1e9
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := convex.MinimizeEnergy(g, D, g.Weights(), lo, hi, convex.Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

func closedformMinDeadline(sp *dag.SP) float64 { return closedform.MinDeadline(sp, 1) }

// Branch-and-bound pruning ablation: full prunes vs none on a hard
// SUBSET-SUM gadget.
func benchGadget(b *testing.B, opt discrete.BBOptions) {
	b.Helper()
	a := []int64{3, 5, 7, 9, 11, 13, 15, 17, 19, 21, 23, 25}
	var sum int64
	for _, x := range a {
		sum += x
	}
	g, mp, sm, D, _, err := discrete.SubsetSumGadget(a, sum/2)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := discrete.SolveExactOpts(g, mp, sm, D, opt); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAblation_BBFullPruning(b *testing.B) { benchGadget(b, discrete.BBOptions{}) }
func BenchmarkAblation_BBNoPruning(b *testing.B) {
	benchGadget(b, discrete.BBOptions{DisableEnergyPrune: true, DisableDeadlinePrune: true})
}

// Chain TRI-CRIT: analytic water-filling vs the generic convex solver
// on the same fixed configuration.
func BenchmarkAblation_WaterfillChain32(b *testing.B) {
	rng := rand.New(rand.NewSource(21))
	ws := workload.UniformWeights.Weights(rng, 32)
	sum := 0.0
	for _, w := range ws {
		sum += w
	}
	in := tricrit.Instance{Deadline: sum * 3, FMin: 0.1, FMax: 1, FRel: 0.8,
		Rel: model.Reliability{Lambda0: 1e-5, Sensitivity: 3, FMin: 0.1, FMax: 1}}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := tricrit.ChainFirst(ws, in); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAblation_ConvexEvalChain32(b *testing.B) {
	rng := rand.New(rand.NewSource(21))
	ws := workload.UniformWeights.Weights(rng, 32)
	sum := 0.0
	for _, w := range ws {
		sum += w
	}
	g := dag.ChainGraph(ws...)
	mp, err := platform.SingleProcessor(g)
	if err != nil {
		b.Fatal(err)
	}
	in := tricrit.Instance{Deadline: sum * 3, FMin: 0.1, FMax: 1, FRel: 0.8,
		Rel: model.Reliability{Lambda0: 1e-5, Sensitivity: 3, FMin: 0.1, FMax: 1}}
	reexec := make([]bool, g.N())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := tricrit.EvalConfig(g, mp, reexec, in); err != nil {
			b.Fatal(err)
		}
	}
}

// DP vs B&B on the same chain (the E17 trade-off as raw numbers).
func BenchmarkAblation_ChainDP4000(b *testing.B) {
	rng := rand.New(rand.NewSource(22))
	ws := workload.UniformWeights.Weights(rng, 12)
	sum := 0.0
	for _, w := range ws {
		sum += w
	}
	sm, _ := model.NewDiscrete(model.XScaleLevels())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := discrete.SolveChainDP(ws, sm, sum*2.1, 4000); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAblation_ChainBB12(b *testing.B) {
	rng := rand.New(rand.NewSource(22))
	ws := workload.UniformWeights.Weights(rng, 12)
	sum := 0.0
	for _, w := range ws {
		sum += w
	}
	g := dag.ChainGraph(ws...)
	mp, err := platform.SingleProcessor(g)
	if err != nil {
		b.Fatal(err)
	}
	sm, _ := model.NewDiscrete(model.XScaleLevels())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := discrete.SolveExact(g, mp, sm, sum*2.1); err != nil {
			b.Fatal(err)
		}
	}
}

func mustMap(b *testing.B, g *dag.Graph, p int) *platform.Mapping {
	b.Helper()
	res, err := listsched.CriticalPath(g, p)
	if err != nil {
		b.Fatal(err)
	}
	return res.Mapping
}

// --- Service benchmarks: the energyschedd cache hit path ---

const benchInstanceJSON = `{
  "tasks": [{"name": "t1", "weight": 1}, {"name": "t2", "weight": 2}, {"name": "t3", "weight": 3}],
  "edges": [[0, 1], [1, 2]],
  "processors": 1,
  "speedModel": {"kind": "continuous", "fmin": 0.05, "fmax": 10},
  "deadline": 4
}`

// Benchmark_ServerSolveCacheHit measures the full HTTP hit path of
// POST /v1/solve — routing, body read, request decode, instance-key
// memo lookup (sha256 of the instance bytes), LRU lookup, cached-bytes
// write — with the solver warmed out of the loop. This is the latency
// repeated production traffic sees; a hit decodes no instance and
// computes no Hash.
func Benchmark_ServerSolveCacheHit(b *testing.B) {
	srv := server.New(server.Config{CacheSize: 128})
	h := srv.Handler()
	body := []byte(`{"instance":` + benchInstanceJSON + `}`)
	warm := httptest.NewRecorder()
	h.ServeHTTP(warm, httptest.NewRequest(http.MethodPost, "/v1/solve", bytes.NewReader(body)))
	if warm.Code != http.StatusOK {
		b.Fatalf("warm-up status %d: %s", warm.Code, warm.Body.Bytes())
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/solve", bytes.NewReader(body)))
		if rec.Code != http.StatusOK {
			b.Fatalf("status %d", rec.Code)
		}
	}
}

// Benchmark_RouterSolveCacheHit measures the same hit one hop further
// out: POST /v1/solve into router.New over one warmed backend on a
// loopback httptest listener. Besides the backend's hit path it
// carries the router's own per-request work — the routing key (an
// instance-key memo hit), the pick, the proxied round trip and one
// JSON validity scan of the backend body.
func Benchmark_RouterSolveCacheHit(b *testing.B) {
	backend := httptest.NewServer(server.New(server.Config{CacheSize: 128}).Handler())
	defer backend.Close()
	rt, err := router.New(router.Config{Backends: []string{backend.URL}})
	if err != nil {
		b.Fatal(err)
	}
	h := rt.Handler()
	body := []byte(`{"instance":` + benchInstanceJSON + `}`)
	warm := httptest.NewRecorder()
	h.ServeHTTP(warm, httptest.NewRequest(http.MethodPost, "/v1/solve", bytes.NewReader(body)))
	if warm.Code != http.StatusOK {
		b.Fatalf("warm-up status %d: %s", warm.Code, warm.Body.Bytes())
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/solve", bytes.NewReader(body)))
		if rec.Code != http.StatusOK || rec.Header().Get("X-Cache") != "hit" {
			b.Fatalf("status %d, X-Cache %q", rec.Code, rec.Header().Get("X-Cache"))
		}
	}
}

// Benchmark_ServerSolveCacheMiss is the contrast case: every request
// carries a fresh deadline, so each one runs the continuous solver.
func Benchmark_ServerSolveCacheMiss(b *testing.B) {
	srv := server.New(server.Config{CacheSize: 2}) // too small to ever hit
	h := srv.Handler()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		body := []byte(fmt.Sprintf(`{"instance":%s,"timeoutMs":%d}`,
			strings.Replace(benchInstanceJSON, `"deadline": 4`, fmt.Sprintf(`"deadline": %.9f`, 4+float64(i)*1e-6), 1), 30000))
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/solve", bytes.NewReader(body)))
		if rec.Code != http.StatusOK {
			b.Fatalf("status %d: %s", rec.Code, rec.Body.Bytes())
		}
	}
}

// Benchmark_InstanceHash isolates the canonical digest that keys the
// cache.
func Benchmark_InstanceHash(b *testing.B) {
	in, err := core.UnmarshalInstance([]byte(benchInstanceJSON))
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if h := in.Hash(); len(h) != 32 {
			b.Fatal("bad hash")
		}
	}
}

// --- Simulator benchmarks: the discrete-event engine and campaigns ---

// simChain64Rel builds a solved TRI-CRIT 64-task chain at the given
// fault rate — the shared simulator benchmark workload.
func simChain64Rel(b *testing.B, lambda0 float64) (*core.Instance, *schedule.Schedule) {
	b.Helper()
	rng := rand.New(rand.NewSource(7))
	ws := workload.UniformWeights.Weights(rng, 64)
	g := dag.ChainGraph(ws...)
	mp, err := platform.SingleProcessor(g)
	if err != nil {
		b.Fatal(err)
	}
	sm, err := model.NewContinuous(0.1, 1.0)
	if err != nil {
		b.Fatal(err)
	}
	sum := 0.0
	for _, w := range ws {
		sum += w
	}
	rel := model.Reliability{Lambda0: lambda0, Sensitivity: 3, FMin: sm.FMin, FMax: sm.FMax}
	in := &core.Instance{Graph: g, Mapping: mp, Speed: sm, Deadline: sum / sm.FMax * 2.5,
		Rel: &rel, FRel: 0.8 * sm.FMax}
	res, err := core.Solve(context.Background(), in)
	if err != nil {
		b.Fatal(err)
	}
	return in, res.Schedule
}

// simChain64 is the historical gated simulator workload: real fault
// pressure, so campaigns mix fast-path and event-heap trials.
func simChain64(b *testing.B) (*core.Instance, *schedule.Schedule) {
	return simChain64Rel(b, 0.01)
}

// BenchmarkSimulateChain64 measures one discrete-event trial of a
// 64-task chain — the per-trial cost every campaign pays. Gated by
// cmd/benchgate; the trial loop must stay allocation-free.
func BenchmarkSimulateChain64(b *testing.B) {
	in, s := simChain64(b)
	r, err := sim.NewRunner(in, s, sim.Options{Seed: 3})
	if err != nil {
		b.Fatal(err)
	}
	var tr sim.Trace
	r.Run(0, &tr) // warm the trace
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.Run(i, &tr)
	}
	if tr.Outcome.Energy <= 0 {
		b.Fatal("empty outcome")
	}
}

// BenchmarkCampaign1k measures a full 1000-trial campaign on the
// worker pool, including the deterministic merge — the unit of work a
// POST /v1/simulate request buys. Workers is pinned so the gated
// allocs/op (per-worker Runner scratch) does not vary with the
// machine's GOMAXPROCS. Gated by cmd/benchgate.
func BenchmarkCampaign1k(b *testing.B) {
	in, s := simChain64(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c, err := sim.RunCampaign(context.Background(), in, s, sim.CampaignOptions{Trials: 1000, Seed: 5, Workers: 4})
		if err != nil {
			b.Fatal(err)
		}
		if c.Successes == 0 {
			b.Fatal("campaign all-failed")
		}
	}
}

// benchCampaignFaultFree measures a warmed 1000-trial campaign on a
// high-reliability instance (λ0 = 1e-5, the regime the paper's
// reliability targets put campaigns in), where virtually every trial
// draws zero faults. The Runner is built outside the loop, so the
// measurement is the steady-state campaign cost a sweep-scale
// workload pays per (instance, schedule) pair.
func benchCampaignFaultFree(b *testing.B, heapOnly bool) {
	b.Helper()
	in, s := simChain64Rel(b, 1e-5)
	r, err := sim.NewRunner(in, s, sim.Options{Seed: 5, DisableFastPath: heapOnly})
	if err != nil {
		b.Fatal(err)
	}
	ctx := context.Background()
	if _, err := r.RunCampaign(ctx, 1000, 4); err != nil {
		b.Fatal(err) // warm the scratch (worker blocks, slots, histograms)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c, err := r.RunCampaign(ctx, 1000, 4)
		if err != nil {
			b.Fatal(err)
		}
		if c.FaultFreeTrials < 900 {
			b.Fatalf("fault-light instance drew faults in %d/1000 trials", 1000-c.FaultFreeTrials)
		}
	}
}

// BenchmarkCampaignFaultFree1k is the fast-path contract: the
// fault-free short-circuit must hold a ≥10× lead over the event-heap
// path (BenchmarkCampaignFaultFree1kHeapOnly) with near-zero
// steady-state allocations. Gated by cmd/benchgate.
func BenchmarkCampaignFaultFree1k(b *testing.B) { benchCampaignFaultFree(b, false) }

// BenchmarkCampaignFaultFree1kHeapOnly is the ablation baseline and
// the trial kernel's own benchmark: the same campaign with every trial
// forced through the full kernel. Gated by cmd/benchgate.
func BenchmarkCampaignFaultFree1kHeapOnly(b *testing.B) { benchCampaignFaultFree(b, true) }

// BenchmarkCampaignChunked1M measures a full million-trial chunked
// campaign — the unit of work a POST /v1/jobs campaign buys — on the
// high-reliability instance the paper's targets put jobs in. The gated
// allocs/op is the job-scale memory contract: the chunk pool reuses
// per-worker scratch and the merge is streaming, so allocations are a
// function of workers and chunk count bookkeeping, not of the trial
// count (TestChunkedAllocsFlat proves the flatness property; this
// pins the absolute figure at 1M trials). Gated by cmd/benchgate.
func BenchmarkCampaignChunked1M(b *testing.B) {
	in, s := simChain64Rel(b, 1e-5)
	ctx := context.Background()
	opts := sim.CampaignOptions{Seed: 5, Workers: 4}
	warm := sim.ChunkedOptions{Trials: 10_000}
	if _, err := sim.RunCampaignChunked(ctx, in, s, opts, warm); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c, err := sim.RunCampaignChunked(ctx, in, s, opts, sim.ChunkedOptions{Trials: 1_000_000})
		if err != nil {
			b.Fatal(err)
		}
		if c.Trials != 1_000_000 {
			b.Fatalf("campaign ran %d trials, want 1M", c.Trials)
		}
	}
}

// BenchmarkCampaignAdaptive measures the sequential-confidence
// stopping rule's saving: the same million-trial request under real
// fault pressure with epsilon 0.005 at 99% confidence stops at the
// first chunk boundary where the Wilson half-width tightens below
// epsilon — orders of magnitude short of the requested trials (the
// stop point is deterministic, so the gate holds it steady). Compare
// time/op against BenchmarkCampaignChunked1M for the saving. Gated by
// cmd/benchgate.
func BenchmarkCampaignAdaptive(b *testing.B) {
	in, s := simChain64(b)
	ctx := context.Background()
	opts := sim.CampaignOptions{Seed: 5, Workers: 4}
	chunked := sim.ChunkedOptions{Trials: 1_000_000, Epsilon: 0.005, Confidence: 0.99}
	if _, err := sim.RunCampaignChunked(ctx, in, s, opts, chunked); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c, err := sim.RunCampaignChunked(ctx, in, s, opts, chunked)
		if err != nil {
			b.Fatal(err)
		}
		if !c.StoppedEarly || c.CIHalfWidth > chunked.Epsilon {
			b.Fatalf("stopping rule did not fire: %d/%d trials, CI ±%g",
				c.Trials, c.TrialsRequested, c.CIHalfWidth)
		}
	}
}

// BenchmarkSweepAllClasses measures one POST /v1/sweep unit of work:
// generate + solve + simulate across every workload class. Gated by
// cmd/benchgate.
func BenchmarkSweepAllClasses(b *testing.B) {
	spec := sim.SweepSpec{
		N:        16,
		Procs:    4,
		Seed:     11,
		TriCrit:  true,
		Campaign: sim.CampaignOptions{Trials: 200, Workers: 4},
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		results, err := sim.Sweep(context.Background(), spec)
		if err != nil {
			b.Fatal(err)
		}
		if len(results) != len(workload.AllClasses()) {
			b.Fatalf("got %d classes", len(results))
		}
		for _, r := range results {
			if r.Err != "" {
				b.Fatalf("class %s: %s", r.Class, r.Err)
			}
		}
	}
}
