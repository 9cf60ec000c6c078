package main

import (
	"bytes"
	"math"
	"slices"
	"testing"
	"time"

	"energysched/internal/rng"
)

func TestQuantileNearestRank(t *testing.T) {
	var hundred []float64
	for i := 1; i <= 100; i++ {
		hundred = append(hundred, float64(i))
	}
	for _, c := range []struct {
		sorted []float64
		q      float64
		want   float64
	}{
		{hundred, 0.50, 50},
		{hundred, 0.99, 99},
		{hundred, 0.991, 100},
		{hundred, 1, 100},
		{hundred, 0, 1},
		{[]float64{7}, 0.99, 7},
		{[]float64{1, 2, 3, 4}, 0.5, 2},
		{[]float64{1, 2, 3, math.Inf(1)}, 0.99, math.Inf(1)},
	} {
		if got := quantile(c.sorted, c.q); got != c.want {
			t.Errorf("quantile(n=%d, %v) = %v, want %v", len(c.sorted), c.q, got, c.want)
		}
	}
	if got := quantile(nil, 0.5); !math.IsNaN(got) {
		t.Errorf("quantile of no samples = %v, want NaN", got)
	}
}

func TestDistSortsOnDemand(t *testing.T) {
	var d dist
	for _, v := range []float64{5, 1, 4, 2, 3} {
		d.add(v)
	}
	if d.q(0.5) != 3 || d.q(1) != 5 || d.n() != 5 || d.mean() != 3 {
		t.Fatalf("p50 %v max %v n %d mean %v", d.q(0.5), d.q(1), d.n(), d.mean())
	}
	d.add(0)
	if d.q(0) != 0 {
		t.Fatalf("a sample added after a quantile read was not sorted in")
	}
}

func TestMedianLeavesInputAlone(t *testing.T) {
	in := []float64{3, 1, 2, 10}
	if got := median(in); got != 2.5 {
		t.Errorf("median = %v, want 2.5", got)
	}
	if got := median(in[:3]); got != 2 {
		t.Errorf("median of three = %v, want 2", got)
	}
	if !slices.Equal(in, []float64{3, 1, 2, 10}) {
		t.Errorf("median reordered its input: %v", in)
	}
}

func TestBreakdownReconciles(t *testing.T) {
	ms := time.Millisecond
	// Four requests: 40 ms of latency, of which 4 ms generator lag,
	// 8 ms connection wait and 20 ms inside the front handler, which
	// waited 12 ms on backend legs; replay attributes 2 ms per op.
	b := newBreakdown(4, 40*ms, 4*ms, 8*ms, 20*ms, 12*ms, 2)
	want := breakdown{Latency: 10, Lag: 1, ConnWait: 2, Transport: 2, RouterSelf: 2, Server: 3, LayerPass: 2, Unattributed: 1}
	if b != want {
		t.Fatalf("breakdown = %+v, want %+v", b, want)
	}
	if b.sum() != b.Latency {
		t.Fatalf("parts sum to %v, latency is %v", b.sum(), b.Latency)
	}
	// Without a router the front is the server: no router self time,
	// and the parts still add up.
	b = newBreakdown(3, 30*ms, 3*ms, 0, 21*ms, 21*ms, 5)
	if b.RouterSelf != 0 || math.Abs(b.sum()-b.Latency) > 1e-12 || b.Unattributed != 2 {
		t.Fatalf("single-server breakdown %+v does not reconcile", b)
	}
}

func sameStream(a, b []event) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].at != b[i].at || a[i].kind != b[i].kind || !bytes.Equal(a[i].body, b[i].body) {
			return false
		}
	}
	return true
}

func TestStreamsDeterministic(t *testing.T) {
	gen := map[string]func(seed int64) ([]event, error){
		"hot-cluster": func(seed int64) ([]event, error) { return hotEvents(seed, 1) },
		"cold-single": func(seed int64) ([]event, error) {
			sims, err := coldSimInstances(seed)
			if err != nil {
				return nil, err
			}
			return coldEvents(seed, 0.5, sims)
		},
		"campaign-jobs": func(seed int64) ([]event, error) {
			instances, err := jobInstances(seed)
			if err != nil {
				return nil, err
			}
			var evs []event
			for j := 0; j < 6; j++ {
				_, _, body, err := jobBody(seed, instances, j)
				if err != nil {
					return nil, err
				}
				evs = append(evs, event{kind: "jobs", body: body})
			}
			return evs, nil
		},
	}
	for name, g := range gen {
		a, err := g(7)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		b, err := g(7)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if len(a) == 0 || !sameStream(a, b) || streamDigest(a) != streamDigest(b) {
			t.Errorf("%s: seed 7 gave two different streams", name)
		}
		c, err := g(8)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if sameStream(a, c) || streamDigest(a) == streamDigest(c) {
			t.Errorf("%s: seeds 7 and 8 gave the same stream", name)
		}
	}
}

func TestNeighbouringSeedsShareNoDraws(t *testing.T) {
	draws := func(seed int64) map[uint64]bool {
		s := rng.At(seed, 0)
		out := map[uint64]bool{}
		for i := 0; i < 100; i++ {
			out[s.Uint64()] = true
		}
		return out
	}
	if shared := overlap(draws(7), draws(8)); shared < 90 {
		t.Fatalf("unmixed seeds 7 and 8 share %d of 100 draws; the check below would prove nothing", shared)
	}
	if shared := overlap(draws(mixSeed(7)), draws(mixSeed(8))); shared != 0 {
		t.Fatalf("mixed seeds 7 and 8 share %d of 100 draws", shared)
	}
}

func overlap(a, b map[uint64]bool) int {
	n := 0
	for v := range a {
		if b[v] {
			n++
		}
	}
	return n
}

func TestColdStreamIsFresh(t *testing.T) {
	sims, err := coldSimInstances(3)
	if err != nil {
		t.Fatal(err)
	}
	evs, err := coldEvents(3, 1, sims)
	if err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{}
	kinds := map[string]int{}
	for _, e := range evs {
		if seen[string(e.body)] {
			t.Fatalf("cold-single repeated a %s body", e.kind)
		}
		seen[string(e.body)] = true
		kinds[e.kind]++
	}
	if kinds["solve"] == 0 || kinds["batch"] == 0 || kinds["simulate"] == 0 {
		t.Fatalf("kind mix %v is missing a kind", kinds)
	}
}

func TestWindowCount(t *testing.T) {
	for _, c := range []struct {
		span time.Duration
		ops  int
		want int
	}{
		{25 * time.Second, 10000, 12}, // hot-cluster: ~2 s windows
		{25 * time.Second, 2500, 3},   // cold-single: widened to ~830 requests each
		{25 * time.Second, 100, 1},
		{time.Second, 10000, 1},
	} {
		if got := windowCount(c.span, c.ops); got != c.want {
			t.Errorf("windowCount(%v, %d) = %d, want %d", c.span, c.ops, got, c.want)
		}
	}
}

func TestWindowedMedians(t *testing.T) {
	ph := &phase{span: 5 * windowLen, windows: 5}
	// One request per window with latencies 1..5 ms, except window 2,
	// whose request failed; CPU time grows by 10 ms per window.
	for w := 0; w < ph.windows; w++ {
		ph.evs = append(ph.evs, event{at: time.Duration(w) * windowLen})
		op := opResult{latency: time.Duration(w+1) * time.Millisecond, status: 200}
		if w == 2 {
			op.status = 500
		}
		ph.ops = append(ph.ops, op)
		ph.cpuMarks = append(ph.cpuMarks, time.Duration(w)*10*time.Millisecond)
	}
	ph.cpuMarks = append(ph.cpuMarks, time.Duration(ph.windows)*10*time.Millisecond)
	m, cpu := ph.windowed([]float64{0.5, 0.99})
	if p50, p99 := m[0], m[1]; p50 != 4 || p99 != 4 || cpu != 10 {
		t.Fatalf("windowed = %v, %v, %v; want 4, 4, 10 (the failed window reads +Inf)", p50, p99, cpu)
	}
}
