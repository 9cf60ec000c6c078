package router

import (
	"testing"
	"time"
)

// breakerRouter builds a router over fake backends with a fixed
// breaker configuration the assertions below can reason about.
func breakerRouter(t *testing.T, n int) *Router {
	t.Helper()
	rt, err := New(Config{
		Backends:          fakeBackends(n),
		BreakerThreshold:  3,
		BreakerBackoff:    100 * time.Millisecond,
		BreakerMaxBackoff: 800 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	return rt
}

// TestBreakerOpensAfterThreshold: consecutive failures below the
// threshold keep the circuit closed; the threshold-th opens it with a
// wait drawn from [window/2, window).
func TestBreakerOpensAfterThreshold(t *testing.T) {
	rt := breakerRouter(t, 2)
	m := rt.pool.Load().members[0]

	for i := 0; i < 2; i++ {
		rt.brRecord(m, false)
		if !m.br.canTry(time.Now()) {
			t.Fatalf("breaker open after %d failures, threshold is 3", i+1)
		}
	}
	before := time.Now()
	rt.brRecord(m, false)
	if m.br.canTry(time.Now()) {
		t.Fatal("breaker still admits traffic after BreakerThreshold consecutive failures")
	}
	if got := rt.breakerOpened.Load(); got != 1 {
		t.Fatalf("breakerOpened = %d, want 1", got)
	}
	m.br.mu.Lock()
	wait := m.br.openUntil.Sub(before)
	m.br.mu.Unlock()
	if wait < 50*time.Millisecond || wait > 100*time.Millisecond {
		t.Fatalf("open window %v outside the jitter range [50ms, 100ms)", wait)
	}
	// A success while open snaps it shut again.
	rt.brRecord(m, true)
	if !m.br.canTry(time.Now()) {
		t.Fatal("breaker not closed by a recorded success")
	}
	if got := rt.breakerClosed.Load(); got != 1 {
		t.Fatalf("breakerClosed = %d, want 1", got)
	}
}

// TestBreakerHalfOpenAdmitsOneTrial: once the open window elapses, the
// first routed request flips the circuit half-open and becomes the
// trial; a second concurrent request is refused until the trial
// resolves. The trial's success closes the circuit; a later failure
// run reopens it with a doubled window.
func TestBreakerHalfOpenAdmitsOneTrial(t *testing.T) {
	rt := breakerRouter(t, 2)
	m := rt.pool.Load().members[0]
	for i := 0; i < 3; i++ {
		rt.brRecord(m, false)
	}

	// Rewind the open window instead of sleeping it out.
	m.br.mu.Lock()
	m.br.openUntil = time.Now().Add(-time.Millisecond)
	m.br.mu.Unlock()
	if !m.br.canTry(time.Now()) {
		t.Fatal("elapsed open window must admit a probe")
	}
	rt.brEnter(m)
	m.br.mu.Lock()
	st := m.br.state
	m.br.mu.Unlock()
	if st != brHalfOpen {
		t.Fatalf("state after entering an elapsed window = %d, want half-open", st)
	}
	if got := rt.breakerHalfOpen.Load(); got != 1 {
		t.Fatalf("breakerHalfOpen = %d, want 1", got)
	}
	if m.br.canTry(time.Now()) {
		t.Fatal("half-open circuit admitted a second request while the trial is outstanding")
	}

	// Failed trial: straight back to open, exponent bumped — the new
	// window is double the first (200ms base, jittered to [100, 200)).
	before := time.Now()
	rt.brRecord(m, false)
	m.br.mu.Lock()
	st, wait := m.br.state, m.br.openUntil.Sub(before)
	m.br.mu.Unlock()
	if st != brOpen {
		t.Fatalf("state after failed trial = %d, want open", st)
	}
	if wait < 100*time.Millisecond || wait > 200*time.Millisecond {
		t.Fatalf("reopened window %v outside the doubled jitter range [100ms, 200ms)", wait)
	}

	// Successful trial closes it.
	m.br.mu.Lock()
	m.br.openUntil = time.Now().Add(-time.Millisecond)
	m.br.mu.Unlock()
	rt.brEnter(m)
	rt.brRecord(m, true)
	if !m.br.canTry(time.Now()) {
		t.Fatal("successful trial did not close the circuit")
	}
}

// TestBreakerBackoffCapped: the window doubles per consecutive open
// but never exceeds BreakerMaxBackoff.
func TestBreakerBackoffCapped(t *testing.T) {
	rt := breakerRouter(t, 2)
	m := rt.pool.Load().members[0]
	var wait time.Duration
	for round := 0; round < 8; round++ {
		m.br.mu.Lock()
		m.br.openUntil = time.Now().Add(-time.Millisecond)
		m.br.mu.Unlock()
		rt.brEnter(m)
		before := time.Now()
		rt.brRecord(m, false) // failed trial reopens, exponent grows
		m.br.mu.Lock()
		wait = m.br.openUntil.Sub(before)
		m.br.mu.Unlock()
	}
	if wait < 400*time.Millisecond || wait > 800*time.Millisecond {
		t.Fatalf("window after 8 consecutive opens = %v, want capped jitter range [400ms, 800ms)", wait)
	}
}

// TestBreakerNeverSelfInflicts503: with every breaker open, pick's
// health-only fallback still routes — open circuits bias selection,
// they never turn a healthy pool into errNoBackend.
func TestBreakerNeverSelfInflicts503(t *testing.T) {
	rt := breakerRouter(t, 3)
	p := rt.pool.Load()
	for _, m := range p.members {
		for i := 0; i < 3; i++ {
			rt.brRecord(m, false)
		}
		if m.br.canTry(time.Now()) {
			t.Fatal("breaker not open after threshold failures")
		}
	}
	for _, key := range keySample(50) {
		if got := rt.pickFrom(rt.pool.Load(), rt.cfg.Policy, key, nil); got < 0 {
			t.Fatalf("pick(%q) = %d with all breakers open; fallback must still route", key, got)
		}
	}
}

// TestBreakerResetOnReadmission: the probe path's reset clears state
// and the backoff exponent outright.
func TestBreakerResetOnReadmission(t *testing.T) {
	rt := breakerRouter(t, 2)
	m := rt.pool.Load().members[0]
	for i := 0; i < 6; i++ {
		rt.brRecord(m, false)
	}
	m.br.reset()
	if !m.br.canTry(time.Now()) {
		t.Fatal("reset breaker still refuses traffic")
	}
	m.br.mu.Lock()
	st, opens := m.br.state, m.br.opens
	m.br.mu.Unlock()
	if st != brClosed || opens != 0 {
		t.Fatalf("reset left state=%d opens=%d, want closed with a cleared exponent", st, opens)
	}
}
