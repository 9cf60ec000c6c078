package server

import (
	"sync"
	"time"

	"energysched/internal/hist"
)

// latencyTracker maps solver names to lock-free latency histograms
// (internal/hist.Atomic over hist.LatencyBounds, summing nanoseconds).
// Solver names form a small closed set (the registry), so the map
// grows once and reads dominate.
type latencyTracker struct {
	mu sync.RWMutex
	m  map[string]*hist.Atomic
}

func newLatencyTracker() *latencyTracker {
	return &latencyTracker{m: make(map[string]*hist.Atomic)}
}

func (lt *latencyTracker) observe(solver string, d time.Duration) {
	if solver == "" {
		solver = "unknown"
	}
	lt.mu.RLock()
	h, ok := lt.m[solver]
	lt.mu.RUnlock()
	if !ok {
		lt.mu.Lock()
		h, ok = lt.m[solver]
		if !ok {
			h = hist.NewAtomic(hist.LatencyBounds())
			lt.m[solver] = h
		}
		lt.mu.Unlock()
	}
	h.Observe(int64(d))
}
