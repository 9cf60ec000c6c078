package router

import (
	"fmt"
	"testing"
)

// fakeBackends builds n syntactically valid backend URLs; these tests
// exercise routing decisions only, nothing is dialed.
func fakeBackends(n int) []string {
	urls := make([]string, n)
	for i := range urls {
		urls[i] = fmt.Sprintf("http://backend-%d.invalid:8080", i)
	}
	return urls
}

// keySample is a seeded stand-in for a population of instance hashes.
func keySample(n int) []string {
	keys := make([]string, n)
	for i := range keys {
		keys[i] = fmt.Sprintf("instancehash-%08x", i*2654435761)
	}
	return keys
}

// TestAffinitySameKeySameBackend: the core cache-locality property —
// one key always routes to one healthy backend, however many times it
// is asked.
func TestAffinitySameKeySameBackend(t *testing.T) {
	rt, err := New(Config{Backends: fakeBackends(5)})
	if err != nil {
		t.Fatal(err)
	}
	for _, key := range keySample(500) {
		first := rt.pickFrom(rt.pool.Load(), rt.cfg.Policy, key, nil)
		if first < 0 {
			t.Fatalf("key %q routed nowhere", key)
		}
		for rep := 0; rep < 3; rep++ {
			if got := rt.pickFrom(rt.pool.Load(), rt.cfg.Policy, key, nil); got != first {
				t.Fatalf("key %q routed to %d then %d", key, first, got)
			}
		}
	}
}

// TestAffinityDeterministicAcrossRouters: two routers built from the
// same member list make identical decisions for every key — the
// property that lets a fleet of stateless routers front one pool
// without fragmenting the backends' caches.
func TestAffinityDeterministicAcrossRouters(t *testing.T) {
	a, err := New(Config{Backends: fakeBackends(4)})
	if err != nil {
		t.Fatal(err)
	}
	b, err := New(Config{Backends: fakeBackends(4)})
	if err != nil {
		t.Fatal(err)
	}
	for _, key := range keySample(1000) {
		if ga, gb := a.pickFrom(a.pool.Load(), a.cfg.Policy, key, nil), b.pickFrom(b.pool.Load(), b.cfg.Policy, key, nil); ga != gb {
			t.Fatalf("routers disagree on %q: %d vs %d", key, ga, gb)
		}
	}
}

// TestAffinityEvictionRemapsBoundedFraction: evicting one of N
// backends must move exactly the evicted member's keys (everyone
// else's mapping is untouched — the bounded-redistribution guarantee
// of the consistent ring) and that moved share must be in the
// neighborhood of 1/N. Readmission must restore the original mapping
// bit for bit.
func TestAffinityEvictionRemapsBoundedFraction(t *testing.T) {
	const n = 5
	rt, err := New(Config{Backends: fakeBackends(n)})
	if err != nil {
		t.Fatal(err)
	}
	keys := keySample(4000)
	before := make([]int, len(keys))
	for i, key := range keys {
		before[i] = rt.pickFrom(rt.pool.Load(), rt.cfg.Policy, key, nil)
	}

	const evicted = 2
	rt.pool.Load().members[evicted].healthy.Store(false)

	moved := 0
	for i, key := range keys {
		after := rt.pickFrom(rt.pool.Load(), rt.cfg.Policy, key, nil)
		if after == evicted {
			t.Fatalf("key %q routed to the evicted backend", key)
		}
		if before[i] == evicted {
			moved++
			continue
		}
		if after != before[i] {
			t.Fatalf("key %q was owned by healthy backend %d but moved to %d — redistribution is not bounded",
				key, before[i], after)
		}
	}
	frac := float64(moved) / float64(len(keys))
	if lo, hi := 0.5/n, 2.0/n; frac < lo || frac > hi {
		t.Fatalf("evicting 1 of %d backends moved %.3f of keys, want within [%.3f, %.3f]", n, frac, lo, hi)
	}
	t.Logf("evicting 1 of %d backends moved %.3f of %d keys (ideal %.3f)", n, frac, len(keys), 1.0/n)

	rt.pool.Load().members[evicted].healthy.Store(true)
	for i, key := range keys {
		if got := rt.pickFrom(rt.pool.Load(), rt.cfg.Policy, key, nil); got != before[i] {
			t.Fatalf("after readmission key %q routes to %d, originally %d", key, got, before[i])
		}
	}
}

// TestAffinityBalance: with enough virtual nodes, no backend owns a
// pathological share of the key space.
func TestAffinityBalance(t *testing.T) {
	const n = 4
	rt, err := New(Config{Backends: fakeBackends(n)})
	if err != nil {
		t.Fatal(err)
	}
	counts := make([]int, n)
	keys := keySample(8000)
	for _, key := range keys {
		counts[rt.pickFrom(rt.pool.Load(), rt.cfg.Policy, key, nil)]++
	}
	for i, c := range counts {
		frac := float64(c) / float64(len(keys))
		if frac < 0.6/n || frac > 1.5/n {
			t.Errorf("backend %d owns %.3f of keys, want within [%.3f, %.3f] of ideal %.3f",
				i, frac, 0.6/n, 1.5/n, 1.0/n)
		}
	}
	t.Logf("ownership: %v over %d keys", counts, len(keys))
}

// TestRingWalkSkipsOnlyDead: the ring lookup itself, decoupled from
// Router: with every member alive each key has one owner; killing all
// members makes lookup return -1.
func TestRingWalkSkipsOnlyDead(t *testing.T) {
	r := buildRing([]int{0, 1, 2}, 16)
	aliveAll := func(int) bool { return true }
	deadAll := func(int) bool { return false }
	if got := r.lookup("anything", deadAll); got != -1 {
		t.Fatalf("lookup over dead members = %d, want -1", got)
	}
	for _, key := range keySample(100) {
		owner := r.lookup(key, aliveAll)
		if owner < 0 || owner > 2 {
			t.Fatalf("owner %d out of range", owner)
		}
		// Killing a non-owner never changes the result.
		other := (owner + 1) % 3
		aliveButOne := func(i int) bool { return i != other }
		if got := r.lookup(key, aliveButOne); got != owner {
			t.Fatalf("killing non-owner %d moved key %q from %d to %d", other, key, owner, got)
		}
	}
}
