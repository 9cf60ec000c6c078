package closedform

import (
	"math"
	"math/rand"
	"testing"

	"energysched/internal/dag"
	"energysched/internal/model"
)

func TestSolveChainUniformSpeed(t *testing.T) {
	r, err := SolveChain([]float64{1, 2, 3}, 2, 10)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(r.Speed-3) > 1e-12 {
		t.Errorf("speed = %v, want 3", r.Speed)
	}
	// (Σw)³/D² = 216/4 = 54.
	if math.Abs(r.Energy-54) > 1e-12 {
		t.Errorf("energy = %v, want 54", r.Energy)
	}
}

func TestSolveChainInfeasible(t *testing.T) {
	if _, err := SolveChain([]float64{10}, 1, 5); err != ErrInfeasible {
		t.Errorf("err = %v, want ErrInfeasible", err)
	}
}

func TestSolveChainValidation(t *testing.T) {
	if _, err := SolveChain(nil, 1, 1); err == nil {
		t.Error("empty chain accepted")
	}
	if _, err := SolveChain([]float64{-1}, 1, 1); err == nil {
		t.Error("negative weight accepted")
	}
	if _, err := SolveChain([]float64{1}, -1, 1); err == nil {
		t.Error("negative deadline accepted")
	}
}

func TestForkTheoremExactFormulas(t *testing.T) {
	// The theorem verbatim: w0=1, branches 2,3,4, D=5.
	w0, br, D := 1.0, []float64{2, 3, 4}, 5.0
	sum3 := 8.0 + 27 + 64 // Σwᵢ³ = 99
	wpar := math.Cbrt(sum3)
	r, err := SolveFork(w0, br, D, 100)
	if err != nil {
		t.Fatal(err)
	}
	wantF0 := (wpar + w0) / D
	if math.Abs(r.F0-wantF0) > 1e-12 {
		t.Errorf("f0 = %v, want %v", r.F0, wantF0)
	}
	for i, w := range br {
		want := wantF0 * w / wpar
		if math.Abs(r.Branch[i]-want) > 1e-12 {
			t.Errorf("f%d = %v, want %v", i+1, r.Branch[i], want)
		}
	}
	wantE := math.Pow(wpar+w0, 3) / (D * D)
	if math.Abs(r.Energy-wantE) > 1e-9 {
		t.Errorf("energy = %v, want %v", r.Energy, wantE)
	}
	if r.Clamped {
		t.Error("unexpected clamping")
	}
}

func TestForkEnergyMatchesSolveFork(t *testing.T) {
	w0, br, D := 2.0, []float64{1, 1, 5}, 3.0
	r, err := SolveFork(w0, br, D, 1e9)
	if err != nil {
		t.Fatal(err)
	}
	if e := ForkEnergy(w0, br, D); math.Abs(e-r.Energy) > 1e-9 {
		t.Errorf("ForkEnergy = %v, SolveFork = %v", e, r.Energy)
	}
}

func TestForkClampedCase(t *testing.T) {
	// Clamping needs (Σwᵢ³)^(1/3) > fmax·D − w0 while every branch
	// still fits the residual window: 8 branches of 0.3, source 4,
	// fmax 2, D 2.2 → f0 = 4.6/2.2 ≈ 2.09 > 2.
	w0, D, fmax := 4.0, 2.2, 2.0
	br := []float64{0.3, 0.3, 0.3, 0.3, 0.3, 0.3, 0.3, 0.3}
	r, err := SolveFork(w0, br, D, fmax)
	if err != nil {
		t.Fatal(err)
	}
	if !r.Clamped || r.F0 != fmax {
		t.Fatalf("expected clamped at fmax, got %+v", r)
	}
	// D' = 2.2 − 4/2 = 0.2; branch speeds 0.3/0.2 = 1.5.
	for i := range br {
		if math.Abs(r.Branch[i]-1.5) > 1e-12 {
			t.Errorf("branch %d speed = %v, want 1.5", i, r.Branch[i])
		}
	}
	wantE := model.Energy(4, 2) + 8*model.Energy(0.3, 1.5)
	if math.Abs(r.Energy-wantE) > 1e-12 {
		t.Errorf("energy = %v, want %v", r.Energy, wantE)
	}
}

func TestForkInfeasible(t *testing.T) {
	// Even fmax cannot fit the source within D.
	if _, err := SolveFork(10, []float64{1}, 5, 1); err != ErrInfeasible {
		t.Errorf("err = %v, want ErrInfeasible", err)
	}
	// Source fits but a branch cannot.
	if _, err := SolveFork(1, []float64{100}, 2, 1); err != ErrInfeasible {
		t.Errorf("err = %v, want ErrInfeasible", err)
	}
}

func TestEquivalentWeightFork(t *testing.T) {
	sp := dag.ForkSP(1, 2, 3, 4)
	got := EquivalentWeight(sp)
	want := 1 + math.Cbrt(8+27+64)
	if math.Abs(got-want) > 1e-12 {
		t.Errorf("W_eq = %v, want %v", got, want)
	}
}

func TestSolveSPMatchesForkTheorem(t *testing.T) {
	w0, br, D := 1.5, []float64{2, 3, 4, 2.5}, 6.0
	sp := dag.ForkSP(w0, br...)
	res, err := SolveSP(sp, D)
	if err != nil {
		t.Fatal(err)
	}
	fork, err := SolveFork(w0, br, D, 1e9)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.Energy-fork.Energy) > 1e-9 {
		t.Errorf("SP energy %v ≠ fork energy %v", res.Energy, fork.Energy)
	}
	// Leaf 0 is the source.
	if math.Abs(res.Speeds[0]-fork.F0) > 1e-9 {
		t.Errorf("source speed %v ≠ %v", res.Speeds[0], fork.F0)
	}
	for i := range br {
		if math.Abs(res.Speeds[i+1]-fork.Branch[i]) > 1e-9 {
			t.Errorf("branch %d speed %v ≠ %v", i, res.Speeds[i+1], fork.Branch[i])
		}
	}
}

func TestSolveSPChain(t *testing.T) {
	res, err := SolveSP(dag.ChainSP(1, 2, 3), 2)
	if err != nil {
		t.Fatal(err)
	}
	for k, f := range res.Speeds {
		if math.Abs(f-3) > 1e-12 {
			t.Errorf("speed[%d] = %v, want uniform 3", k, f)
		}
	}
	if math.Abs(res.Energy-54) > 1e-9 {
		t.Errorf("energy = %v, want 54", res.Energy)
	}
}

func TestSolveSPEnergyEqualsEquivalentFormula(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 40; trial++ {
		sp := randomSP(rng, rng.Intn(12)+2)
		D := rng.Float64()*5 + 1
		res, err := SolveSP(sp, D)
		if err != nil {
			t.Fatal(err)
		}
		weq := EquivalentWeight(sp)
		want := weq * weq * weq / (D * D)
		if math.Abs(res.Energy-want) > 1e-6*want {
			t.Fatalf("trial %d: energy %v ≠ W_eq³/D² = %v", trial, res.Energy, want)
		}
	}
}

// Durations realize the deadline: every root-to-leaf series path sums
// to D in window terms — verify via the materialized graph's longest
// path using the closed-form durations.
func TestSolveSPRealizesDeadline(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 40; trial++ {
		sp := randomSP(rng, rng.Intn(10)+2)
		D := rng.Float64()*4 + 0.5
		res, err := SolveSP(sp, D)
		if err != nil {
			t.Fatal(err)
		}
		g, err := sp.Graph()
		if err != nil {
			t.Fatal(err)
		}
		durs := make([]float64, g.N())
		for k, lf := range res.Leaves {
			durs[lf.TaskID] = res.Durations[k]
		}
		_, ms, err := g.LongestPath(durs)
		if err != nil {
			t.Fatal(err)
		}
		if ms > D*(1+1e-9) {
			t.Fatalf("trial %d: makespan %v exceeds D=%v", trial, ms, D)
		}
	}
}

func TestSolveSPBounded(t *testing.T) {
	sp := dag.ChainSP(5, 5) // uniform speed 10/D
	for _, c := range []struct {
		deadline, fmin, fmax float64
		want                 error
	}{
		{1, 0, 2, ErrExceedsFMax},
		{100, 0.05, 2, nil},
		{100, 0.2, 2, ErrBelowFMin},
		{5, 2, 2, nil}, // both bounds met with equality
		{5, 2 * (1 + 1e-9), 3, ErrBelowFMin},
	} {
		if _, err := SolveSPBounded(sp, c.deadline, c.fmin, c.fmax); err != c.want {
			t.Errorf("D = %v, [%v, %v]: err = %v, want %v", c.deadline, c.fmin, c.fmax, err, c.want)
		}
	}
	// A fork at a loose deadline: the light branch drops below fmin
	// first, while the source stays well inside the box.
	fork := dag.ForkSP(4, 4, 0.5)
	res, err := SolveSP(fork, 10)
	if err != nil {
		t.Fatal(err)
	}
	slowest := res.Speeds[0]
	for _, f := range res.Speeds {
		slowest = math.Min(slowest, f)
	}
	if _, err := SolveSPBounded(fork, 10, slowest*1.01, 10); err != ErrBelowFMin {
		t.Errorf("fork: err = %v, want ErrBelowFMin", err)
	}
	if _, err := SolveSPBounded(fork, 10, slowest*0.99, 10); err != nil {
		t.Errorf("fork: %v", err)
	}
}

func TestTreeEquivalentWeight(t *testing.T) {
	// Root 0 with children 1, 2; 1 has child 3.
	parent := []int{-1, 0, 0, 1}
	weights := []float64{1, 2, 3, 4}
	got, err := TreeEquivalentWeight(parent, weights)
	if err != nil {
		t.Fatal(err)
	}
	// W(3)=4, W(1)=2+4=6, W(2)=3, W(0)=1+(6³+3³)^(1/3).
	want := 1 + math.Cbrt(216+27)
	if math.Abs(got-want) > 1e-12 {
		t.Errorf("W = %v, want %v", got, want)
	}
}

func TestTreeToSPAgreesWithTreeEquivalentWeight(t *testing.T) {
	parent := []int{-1, 0, 0, 1, 1, 2}
	weights := []float64{1, 2, 3, 4, 5, 6}
	sp, err := TreeToSP(parent, weights)
	if err != nil {
		t.Fatal(err)
	}
	w1, err := TreeEquivalentWeight(parent, weights)
	if err != nil {
		t.Fatal(err)
	}
	if w2 := EquivalentWeight(sp); math.Abs(w1-w2) > 1e-12 {
		t.Errorf("tree W=%v, SP W=%v", w1, w2)
	}
}

func TestTreeErrors(t *testing.T) {
	if _, err := TreeEquivalentWeight([]int{-1, -1}, []float64{1, 1}); err == nil {
		t.Error("two roots accepted")
	}
	if _, err := TreeEquivalentWeight([]int{0}, []float64{1}); err == nil {
		t.Error("rootless accepted")
	}
	if _, err := TreeEquivalentWeight([]int{-1, 5}, []float64{1, 1}); err == nil {
		t.Error("bad parent accepted")
	}
	if _, err := TreeEquivalentWeight([]int{-1}, []float64{1, 2}); err == nil {
		t.Error("length mismatch accepted")
	}
	if _, err := TreeToSP([]int{-1, -1}, []float64{1, 1}); err == nil {
		t.Error("TreeToSP two roots accepted")
	}
	if _, err := TreeToSP([]int{-1}, []float64{}); err == nil {
		t.Error("TreeToSP length mismatch accepted")
	}
}

func TestMinDeadline(t *testing.T) {
	// Fork: source 2 at fmax 2 takes 1; branches max(3,1)/2 = 1.5.
	sp := dag.ForkSP(2, 3, 1)
	if got := MinDeadline(sp, 2); math.Abs(got-2.5) > 1e-12 {
		t.Errorf("MinDeadline = %v, want 2.5", got)
	}
}

func randomSP(rng *rand.Rand, n int) *dag.SP {
	if n == 1 {
		return dag.Leaf("t", rng.Float64()*9+0.5)
	}
	k := rng.Intn(n-1) + 1
	l, r := randomSP(rng, k), randomSP(rng, n-k)
	if rng.Intn(2) == 0 {
		return dag.Series(l, r)
	}
	return dag.Parallel(l, r)
}
