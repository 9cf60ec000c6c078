package workload

import (
	"math"
	"math/rand"
	"testing"

	"energysched/internal/dag"
)

func TestAllClassesGenerateValidDAGs(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, c := range AllClasses() {
		for _, n := range []int{3, 8, 20} {
			g := c.Generate(rng, n, UniformWeights)
			if err := g.Validate(); err != nil {
				t.Errorf("%v n=%d: %v", c, n, err)
			}
			if g.N() == 0 {
				t.Errorf("%v n=%d: empty graph", c, n)
			}
		}
	}
}

func TestClassShapes(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	chain := Chain(rng, 5, UniformWeights)
	if chain.M() != 4 || len(chain.Sources()) != 1 || len(chain.Sinks()) != 1 {
		t.Errorf("chain shape wrong: m=%d", chain.M())
	}
	fork := Fork(rng, 6, UniformWeights)
	if len(fork.Sources()) != 1 || len(fork.Sinks()) != 6 {
		t.Errorf("fork shape wrong: sinks=%d", len(fork.Sinks()))
	}
	join := Join(rng, 6, UniformWeights)
	if len(join.Sources()) != 6 || len(join.Sinks()) != 1 {
		t.Errorf("join shape wrong")
	}
	fj := ForkJoin(rng, 5, UniformWeights)
	if len(fj.Sources()) != 1 || len(fj.Sinks()) != 1 || fj.N() != 7 {
		t.Errorf("fork-join shape wrong: n=%d", fj.N())
	}
	tree := Tree(rng, 9, UniformWeights)
	if tree.M() != 8 {
		t.Errorf("tree must have n-1 edges, got %d", tree.M())
	}
	for i := 1; i < 9; i++ {
		if len(tree.Preds(i)) != 1 {
			t.Errorf("tree node %d has %d parents", i, len(tree.Preds(i)))
		}
	}
}

func TestSeriesParallelIsRecognizable(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 10; trial++ {
		g, sp := SeriesParallel(rng, rng.Intn(12)+2, UniformWeights)
		if sp.NumTasks() != g.N() {
			t.Fatalf("trial %d: tree has %d leaves, graph %d tasks", trial, sp.NumTasks(), g.N())
		}
		if _, err := dag.Decompose(g); err != nil {
			t.Errorf("trial %d: generated SP graph not recognized: %v", trial, err)
		}
	}
}

// TestSeriesParallelRecognizedAtEverySize decomposes the generator's
// graphs at every size up to 130 tasks, across three closure words: a
// recovered tree has as many leaves as the graph has tasks and the
// same equivalent structure, so materializing it gives back the same
// number of tasks and a critical path of the same weight.
func TestSeriesParallelRecognizedAtEverySize(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	for n := 1; n <= 130; n++ {
		g, _ := SeriesParallel(rng, n, UniformWeights)
		sp, err := dag.Decompose(g)
		if err != nil {
			t.Fatalf("n = %d: generated SP graph not recognized: %v", n, err)
		}
		mg, err := sp.Clone().Graph()
		if err != nil {
			t.Fatal(err)
		}
		if mg.N() != n || math.Abs(mg.CriticalPathWeight()-g.CriticalPathWeight()) > 1e-9*g.CriticalPathWeight() {
			t.Fatalf("n = %d: tree %v does not rebuild the graph", n, sp)
		}
	}
}

func TestLayeredRespectsLayers(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	g := Layered(rng, 20, 4, 0.5, UniformWeights)
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	// Edges only go forward in index order by construction.
	for _, e := range g.Edges() {
		if e[0] >= e[1] {
			t.Errorf("backward edge %v", e)
		}
	}
}

func TestWeightDistributions(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for _, d := range []WeightDist{UniformWeights, HeavyTailWeights} {
		ws := d.Weights(rng, 2000)
		for _, w := range ws {
			if w <= 0 || w > 50 {
				t.Fatalf("%v: weight %v out of range", d, w)
			}
		}
	}
	// Heavy tail should produce a markedly larger max than uniform.
	rngA := rand.New(rand.NewSource(6))
	rngB := rand.New(rand.NewSource(6))
	maxU, maxH := 0.0, 0.0
	for i := 0; i < 3000; i++ {
		if w := UniformWeights.Weight(rngA); w > maxU {
			maxU = w
		}
		if w := HeavyTailWeights.Weight(rngB); w > maxH {
			maxH = w
		}
	}
	if maxH <= maxU {
		t.Errorf("heavy tail max %v not above uniform max %v", maxH, maxU)
	}
}

func TestDeterminism(t *testing.T) {
	a := Layered(rand.New(rand.NewSource(9)), 15, 3, 0.3, UniformWeights)
	b := Layered(rand.New(rand.NewSource(9)), 15, 3, 0.3, UniformWeights)
	if a.M() != b.M() || a.TotalWeight() != b.TotalWeight() {
		t.Error("same seed produced different graphs")
	}
}

func TestStringers(t *testing.T) {
	for _, c := range AllClasses() {
		if c.String() == "" {
			t.Error("empty class name")
		}
	}
	if UniformWeights.String() != "uniform" || HeavyTailWeights.String() != "heavy-tail" {
		t.Error("weight dist names wrong")
	}
}

func TestParseClassCoversAllGenerators(t *testing.T) {
	for _, c := range AllClasses() {
		got, err := ParseClass(c.String())
		if err != nil || got != c {
			t.Fatalf("ParseClass(%q) = %v, %v", c.String(), got, err)
		}
	}
	if _, err := ParseClass("nope"); err == nil {
		t.Fatal("ParseClass accepted an unknown class")
	}
}

func TestParseClasses(t *testing.T) {
	all, err := ParseClasses("")
	if err != nil || len(all) != len(AllClasses()) {
		t.Fatalf("ParseClasses(\"\") = %v, %v; want all classes", all, err)
	}
	got, err := ParseClasses(" chain , fork-join ")
	if err != nil || len(got) != 2 || got[0] != ClassChain || got[1] != ClassForkJoin {
		t.Fatalf("ParseClasses list = %v, %v", got, err)
	}
	if _, err := ParseClasses("chain,escher"); err == nil {
		t.Fatal("ParseClasses accepted an unknown class")
	}
}

func TestParseWeightDist(t *testing.T) {
	for _, d := range []WeightDist{UniformWeights, HeavyTailWeights} {
		got, err := ParseWeightDist(d.String())
		if err != nil || got != d {
			t.Fatalf("ParseWeightDist(%q) = %v, %v", d.String(), got, err)
		}
	}
	if _, err := ParseWeightDist("gaussian"); err == nil {
		t.Fatal("ParseWeightDist accepted an unknown distribution")
	}
}
