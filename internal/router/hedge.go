package router

import (
	"context"
	"time"

	"energysched/internal/client"
	"energysched/internal/hist"
	"energysched/internal/obs"
)

// hedgeMinSamples is how many successful requests a kind needs before
// its hedge delay is derived from measured latency instead of the
// configured HedgeAfter floor.
const hedgeMinSamples = 32

// hedgeMinDelay floors the derived hedge delay so a very fast kind
// (cache hits answer in microseconds) does not hedge every miss.
const hedgeMinDelay = 10 * time.Millisecond

// observeLatency records one successful attempt's wall time into the
// kind's histogram.
func (rt *Router) observeLatency(kind string, d time.Duration) {
	rt.latencyFor(kind).Observe(int64(d))
}

// latencyFor returns (creating on first use) the kind's histogram.
func (rt *Router) latencyFor(kind string) *hist.Atomic {
	rt.latMu.Lock()
	defer rt.latMu.Unlock()
	h := rt.latency[kind]
	if h == nil {
		h = hist.NewAtomic(hist.LatencyBounds())
		rt.latency[kind] = h
	}
	return h
}

// hedgeDelay is how long the first leg runs alone: the kind's
// conservative p99 once enough samples exist (clamped to
// [hedgeMinDelay, RequestTimeout/2] — the overflow bucket's -1 also
// lands on the cap), HedgeAfter before that. Hedging at p99 bounds
// the extra backend load at ~1% of traffic while cutting the latency
// tail a slow-but-alive backend inflicts.
func (rt *Router) hedgeDelay(kind string) time.Duration {
	h := rt.latencyFor(kind)
	count, _, counts := h.Snapshot()
	if count < hedgeMinSamples {
		return rt.cfg.HedgeAfter
	}
	p99 := hist.Quantile(h.Bounds(), counts, count, 0.99)
	d := time.Duration(p99) // bounds are nanoseconds
	if maxD := rt.cfg.RequestTimeout / 2; p99 < 0 || d > maxD {
		d = maxD
	}
	if d < hedgeMinDelay {
		d = hedgeMinDelay
	}
	return d
}

// legResult is one hedge leg's outcome.
type legResult struct {
	resp  *client.Response
	m     *member
	err   error
	hedge bool
}

// forwardHedged forwards with a hedge: the first leg runs the normal
// failover chain from the policy-picked backend; if it has not
// produced a usable response after hedgeDelay, a second leg races it
// from a different backend. The first usable response wins and the
// loser's context is cancelled — losers never block the caller, and
// their failures are not charged to any breaker (sendOne sees the
// shared context cancelled). With hedging disabled or fewer than two
// healthy members it degrades to the plain chain.
func (rt *Router) forwardHedged(ctx context.Context, rq proxyReq) (*client.Response, *member, error) {
	p := rt.pool.Load()
	if rt.cfg.DisableHedging || p.healthyCount() < 2 {
		return rt.forwardChain(ctx, p, rq, map[int]bool{}, -1, 0)
	}
	first := rt.pickFrom(p, rt.policyFor(rq.pinned), rq.key, map[int]bool{})
	if first < 0 {
		return nil, nil, errNoBackend
	}
	hctx, cancel := context.WithCancel(ctx)
	defer cancel()
	results := make(chan legResult, 2) // buffered: a losing leg never blocks
	go func() {
		resp, m, err := rt.forwardChain(hctx, p, rq, map[int]bool{}, first, 0)
		results <- legResult{resp, m, err, false}
	}()
	timer := time.NewTimer(rt.hedgeDelay(rq.kind))
	defer timer.Stop()

	tr := obs.TraceFromContext(ctx)
	pending, hedged := 1, false
	hedgeSpan := 0
	var fallback legResult
	var haveFallback bool
	for pending > 0 {
		select {
		case <-timer.C:
			if !hedged {
				hedged = true
				pending++
				rt.hedgesFired.Add(1)
				// The hedge leg is a span of its own; the leg's chain
				// opens per-attempt spans under the same trace, so both
				// legs share the trace ID with distinct span IDs.
				hedgeSpan = tr.StartSpan("hedge")
				go func() {
					resp, m, err := rt.forwardChain(hctx, p, rq, map[int]bool{first: true}, -1, 0)
					results <- legResult{resp, m, err, true}
				}()
			}
		case lr := <-results:
			pending--
			if lr.err == nil && !unusable(lr.resp) {
				if lr.hedge {
					rt.hedgesWon.Add(1)
					tr.EndSpan(hedgeSpan, "won")
				} else if hedged {
					tr.EndSpan(hedgeSpan, "lost")
				}
				cancel()
				return lr.resp, lr.m, nil
			}
			// Keep the most informative loss: any response beats a bare
			// transport error.
			if !haveFallback || (fallback.resp == nil && lr.resp != nil) {
				fallback, haveFallback = lr, true
			}
		}
	}
	tr.EndSpan(hedgeSpan, "no usable response")
	return fallback.resp, fallback.m, fallback.err
}
