package dag

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"testing"
)

func TestLeafValidate(t *testing.T) {
	if err := Leaf("t", 1).Validate(); err != nil {
		t.Errorf("valid leaf rejected: %v", err)
	}
	if err := Leaf("t", 0).Validate(); err == nil {
		t.Error("zero-weight leaf accepted")
	}
}

func TestComposeFlattens(t *testing.T) {
	s := Series(Series(Leaf("a", 1), Leaf("b", 1)), Leaf("c", 1))
	if s.Kind != SPSeries || len(s.Children) != 3 {
		t.Errorf("series not flattened: %v", s)
	}
	p := Parallel(Parallel(Leaf("a", 1), Leaf("b", 1)), Leaf("c", 1))
	if p.Kind != SPParallel || len(p.Children) != 3 {
		t.Errorf("parallel not flattened: %v", p)
	}
}

func TestComposeCollapsesSingleton(t *testing.T) {
	l := Leaf("a", 2)
	if got := Series(l); got != l {
		t.Error("singleton series did not collapse")
	}
	if got := Parallel(l); got != l {
		t.Error("singleton parallel did not collapse")
	}
}

func TestForkSPGraph(t *testing.T) {
	sp := ForkSP(1, 2, 3, 4)
	g, err := sp.Graph()
	if err != nil {
		t.Fatal(err)
	}
	if g.N() != 4 || g.M() != 3 {
		t.Fatalf("n=%d m=%d", g.N(), g.M())
	}
	// Source (weight 1) precedes every branch.
	src := g.Sources()
	if len(src) != 1 || g.Weight(src[0]) != 1 {
		t.Fatalf("sources = %v", src)
	}
	for _, e := range g.Edges() {
		if e[0] != src[0] {
			t.Errorf("non-source edge %v", e)
		}
	}
}

func TestForkJoinSPGraph(t *testing.T) {
	g, err := ForkJoinSP(1, 5, 2, 3).Graph()
	if err != nil {
		t.Fatal(err)
	}
	if g.N() != 4 || g.M() != 4 {
		t.Fatalf("n=%d m=%d", g.N(), g.M())
	}
	if len(g.Sources()) != 1 || len(g.Sinks()) != 1 {
		t.Error("fork-join must have unique source and sink")
	}
}

func TestChainSPGraph(t *testing.T) {
	g, err := ChainSP(1, 2, 3).Graph()
	if err != nil {
		t.Fatal(err)
	}
	if g.N() != 3 || g.M() != 2 {
		t.Fatalf("n=%d m=%d", g.N(), g.M())
	}
	if math.Abs(g.CriticalPathWeight()-6) > 1e-12 {
		t.Errorf("cp = %v", g.CriticalPathWeight())
	}
}

func TestLeavesOrderAndTaskIDs(t *testing.T) {
	sp := ForkSP(1, 2, 3)
	if _, err := sp.Graph(); err != nil {
		t.Fatal(err)
	}
	for i, lf := range sp.Leaves() {
		if lf.TaskID != i {
			t.Errorf("leaf %d has TaskID %d", i, lf.TaskID)
		}
	}
}

func TestSPString(t *testing.T) {
	s := ForkSP(1, 2, 3).String()
	if s == "" {
		t.Error("empty String")
	}
}

func TestDecomposeChain(t *testing.T) {
	g := ChainGraph(1, 2, 3)
	sp, err := Decompose(g)
	if err != nil {
		t.Fatal(err)
	}
	if sp.Kind != SPSeries || len(sp.Children) != 3 {
		t.Errorf("chain decomposition = %v", sp)
	}
}

func TestDecomposeFork(t *testing.T) {
	g := ForkGraph(1, 2, 3, 4)
	sp, err := Decompose(g)
	if err != nil {
		t.Fatal(err)
	}
	if sp.Kind != SPSeries || len(sp.Children) != 2 {
		t.Fatalf("fork decomposition = %v", sp)
	}
	if sp.Children[1].Kind != SPParallel {
		t.Errorf("second child should be parallel, got %v", sp.Children[1])
	}
	// Leaf TaskIDs must refer to the original graph.
	for _, lf := range sp.Leaves() {
		if lf.TaskID < 0 || lf.TaskID >= g.N() {
			t.Errorf("bad TaskID %d", lf.TaskID)
		}
		if lf.Weight != g.Weight(lf.TaskID) {
			t.Errorf("leaf weight %v != graph weight %v", lf.Weight, g.Weight(lf.TaskID))
		}
	}
}

func TestDecomposeIndependent(t *testing.T) {
	g := IndependentGraph(1, 2, 3)
	sp, err := Decompose(g)
	if err != nil {
		t.Fatal(err)
	}
	if sp.Kind != SPParallel || len(sp.Children) != 3 {
		t.Errorf("decomposition = %v", sp)
	}
}

func TestDecomposeRejectsNShape(t *testing.T) {
	// The canonical non-SP pattern: a→c, b→c, b→d.
	g := New()
	a, b, c, d := g.AddTask("a", 1), g.AddTask("b", 1), g.AddTask("c", 1), g.AddTask("d", 1)
	g.MustEdge(a, c)
	g.MustEdge(b, c)
	g.MustEdge(b, d)
	if _, err := Decompose(g); err == nil {
		t.Error("N-shape accepted as series-parallel")
	}
}

func TestDecomposeDiamond(t *testing.T) {
	// A diamond is SP: ser(a, par(b,c), d).
	sp, err := Decompose(diamond())
	if err != nil {
		t.Fatal(err)
	}
	if sp.Kind != SPSeries || len(sp.Children) != 3 {
		t.Fatalf("diamond decomposition = %v", sp)
	}
}

func TestDecomposeSingleVertex(t *testing.T) {
	g := New()
	g.AddTask("only", 7)
	sp, err := Decompose(g)
	if err != nil {
		t.Fatal(err)
	}
	if sp.Kind != SPLeaf || sp.Weight != 7 {
		t.Errorf("decomposition = %v", sp)
	}
}

func TestDecomposeEmpty(t *testing.T) {
	if _, err := Decompose(New()); err == nil {
		t.Error("empty graph accepted")
	}
}

// randomSP builds a random series-parallel tree with n leaves.
func randomSP(rng *rand.Rand, n int) *SP {
	if n == 1 {
		return Leaf("t", rng.Float64()*9+1)
	}
	k := rng.Intn(n-1) + 1 // split into [1,n-1] and rest
	left := randomSP(rng, k)
	right := randomSP(rng, n-k)
	if rng.Intn(2) == 0 {
		return Series(left, right)
	}
	return Parallel(left, right)
}

// Round-trip property: decomposing the materialization of a random SP
// tree succeeds and reproduces the same transitive closure.
func TestDecomposeRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 60; trial++ {
		n := rng.Intn(14) + 2
		sp := randomSP(rng, n)
		g, err := sp.Graph()
		if err != nil {
			t.Fatal(err)
		}
		sp2, err := Decompose(g)
		if err != nil {
			t.Fatalf("trial %d: graph %v not recognized: %v", trial, sp, err)
		}
		g2, err := sp2.Graph()
		if err != nil {
			t.Fatal(err)
		}
		if g2.N() != g.N() {
			t.Fatalf("trial %d: task count changed %d → %d", trial, g.N(), g2.N())
		}
	}
}

// Random non-SP graphs must either be rejected or reproduce the same
// closure (soundness of the verification step).
func TestDecomposeSoundOnRandomDAGs(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 80; trial++ {
		n := rng.Intn(8) + 2
		g := New()
		for i := 0; i < n; i++ {
			g.AddTask("t", rng.Float64()*5+0.5)
		}
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				if rng.Float64() < 0.3 {
					g.MustEdge(i, j)
				}
			}
		}
		sp, err := Decompose(g)
		if err != nil {
			continue // rejected, fine
		}
		// Capture original ids before Graph() renumbers the leaves.
		leaves := sp.Leaves()
		matID := make([]int, len(leaves)) // original -> materialized position
		for pos, lf := range leaves {
			matID[lf.TaskID] = pos
		}
		mg, err := sp.Clone().Graph()
		if err != nil {
			t.Fatal(err)
		}
		r1, _ := g.TransitiveClosure()
		r2, _ := mg.TransitiveClosure()
		for u := 0; u < n; u++ {
			for v := 0; v < n; v++ {
				if r1[u][v] != r2[matID[u]][matID[v]] {
					t.Fatalf("trial %d: closure mismatch after accepted decomposition", trial)
				}
			}
		}
	}
}

// relabel returns g with task i renamed perm[i], so that task ids
// carry no hint of the order.
func relabel(g *Graph, perm []int) *Graph {
	inv := make([]int, len(perm))
	for i, p := range perm {
		inv[p] = i
	}
	out := New()
	for _, i := range inv {
		out.AddTask(g.Task(i).Name, g.Weight(i))
	}
	for _, e := range g.Edges() {
		out.MustEdge(perm[e[0]], perm[e[1]])
	}
	return out
}

// closureOf reports whether the materialization of sp has g's
// transitive closure, leaf TaskIDs naming g's tasks.
func closureOf(t *testing.T, g *Graph, sp *SP) bool {
	t.Helper()
	leaves := sp.Leaves()
	if len(leaves) != g.N() {
		return false
	}
	matID := make([]int, g.N())
	for pos, lf := range leaves {
		matID[lf.TaskID] = pos
	}
	mg, err := sp.Clone().Graph()
	if err != nil {
		t.Fatal(err)
	}
	r1, _ := g.TransitiveClosure()
	r2, _ := mg.TransitiveClosure()
	for u := range r1 {
		for v := range r1 {
			if r1[u][v] != r2[matID[u]][matID[v]] {
				return false
			}
		}
	}
	return true
}

// TestDecomposeMatchesReference holds the bitset recognizer to the
// one it replaced: on random DAGs of every density, and on relabelled
// series-parallel graphs of up to 140 tasks (three closure words) with
// and without one extra edge, both accept or both reject; an accepted
// tree has g's closure, and a second call returns the same tree.
func TestDecomposeMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	accepted, rejected := 0, 0
	check := func(trial int, g *Graph) {
		sp, err := Decompose(g)
		_, refErr := decomposeReference(g)
		if (err == nil) != (refErr == nil) {
			t.Fatalf("trial %d: Decompose err %v, reference err %v", trial, err, refErr)
		}
		if err != nil {
			if !errors.Is(err, ErrNotSeriesParallel) {
				t.Fatalf("trial %d: %v", trial, err)
			}
			rejected++
			return
		}
		accepted++
		if !closureOf(t, g, sp) {
			t.Fatalf("trial %d: accepted tree %v does not have the graph's closure", trial, sp)
		}
		again, _ := Decompose(g)
		if again.String() != sp.String() || fmt.Sprint(taskIDs(again)) != fmt.Sprint(taskIDs(sp)) {
			t.Fatalf("trial %d: two calls disagree: %v vs %v", trial, sp, again)
		}
	}
	for trial := 0; trial < 600; trial++ {
		n := rng.Intn(8) + 2
		p := []float64{0.1, 0.3, 0.6}[trial%3]
		g := New()
		for i := 0; i < n; i++ {
			g.AddTask("t", rng.Float64()*5+0.5)
		}
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				if rng.Float64() < p {
					g.MustEdge(i, j)
				}
			}
		}
		check(trial, g)
	}
	for trial := 0; trial < 60; trial++ {
		n := rng.Intn(140) + 1
		sg, err := randomSP(rng, n).Graph()
		if err != nil {
			t.Fatal(err)
		}
		g := relabel(sg, rng.Perm(n))
		if trial%2 == 1 && n > 2 {
			// One more edge u → v with u before v in a topological
			// order keeps g acyclic and usually breaks the SP order.
			order, _ := g.TopoOrder()
			i := rng.Intn(n - 1)
			j := i + 1 + rng.Intn(n-1-i)
			g.MustEdge(order[i], order[j])
		}
		check(1000+trial, g)
	}
	if accepted < 50 || rejected < 50 {
		t.Fatalf("corpus too one-sided: %d accepted, %d rejected", accepted, rejected)
	}
}

func taskIDs(sp *SP) []int {
	var ids []int
	for _, lf := range sp.Leaves() {
		ids = append(ids, lf.TaskID)
	}
	return ids
}

// TestDecomposeLargeChain crosses the closure's word boundaries on the
// deepest tree there is.
func TestDecomposeLargeChain(t *testing.T) {
	ws := make([]float64, 200)
	for i := range ws {
		ws[i] = float64(i%7 + 1)
	}
	perm := rand.New(rand.NewSource(5)).Perm(len(ws))
	g := relabel(ChainGraph(ws...), perm)
	sp, err := Decompose(g)
	if err != nil {
		t.Fatal(err)
	}
	if sp.Kind != SPSeries || len(sp.Children) != len(ws) {
		t.Fatalf("chain of %d decomposed as %v children of a %v", len(ws), len(sp.Children), sp.Kind)
	}
	for i, c := range sp.Children {
		if c.TaskID != perm[i] || c.Weight != ws[i] {
			t.Fatalf("child %d is task %d (weight %v), want task %d (weight %v)", i, c.TaskID, c.Weight, perm[i], ws[i])
		}
	}
}
