package router

import (
	"sort"
	"time"

	"energysched/internal/hist"
	"energysched/internal/obs"
)

// newRegistry builds the one registry behind GET /metrics and the
// router-owned part of GET /stats: uptimeSeconds and the "router",
// "resilience" and "backends" blocks. Each family is declared once,
// with the /stats key its value renders under. The /stats top-level
// counters are not here: they are live sums scraped from the backends,
// which expose them on their own /metrics. Three kinds of family have
// no /stats key: the go_/obs_ profiling series,
// energyrouter_request_duration_seconds (the per-kind latency that
// drives hedging) and energyrouter_policy_info (/stats carries the
// policy as a string).
func (rt *Router) newRegistry() *obs.Registry {
	r := obs.NewRegistry()
	r.GaugeFunc("energyrouter_uptime_seconds", "Seconds since the router started.", "uptimeSeconds",
		func() float64 { return time.Since(rt.start).Seconds() })

	r.Counter("energyrouter_requests_total", "HTTP requests accepted by the router.", "router.requests", &rt.requests)
	r.Counter("energyrouter_proxied_total", "Backend requests issued (incl. scatter and hedge legs).", "router.proxied", &rt.proxied)
	r.Counter("energyrouter_retried_total", "Failover re-sends after a failed attempt.", "router.retried", &rt.retried)
	r.Counter("energyrouter_bad_gateway_total", "502s for junk or unreachable backends.", "router.badGateway", &rt.badGateway)
	r.Counter("energyrouter_no_backend_total", "503s with zero healthy backends.", "router.noBackend", &rt.noBackend)
	r.Counter("energyrouter_scattered_total", "Batch requests split across backends.", "router.scattered", &rt.scattered)
	r.Counter("energyrouter_panics_total", "Handler panics contained by the recovery middleware.", "router.panics", &rt.panics)
	r.Counter("energyrouter_cache_hits_total", "Requests answered from the router's response cache, with no backend hop.", "router.cacheHits", &rt.cacheHits)

	r.Counter("energyrouter_breaker_opened_total", "Circuit transitions to open.", "resilience.breakerOpened", &rt.breakerOpened)
	r.Counter("energyrouter_breaker_half_open_total", "Open circuits admitting a trial request.", "resilience.breakerHalfOpen", &rt.breakerHalfOpen)
	r.Counter("energyrouter_breaker_closed_total", "Circuits recovered to closed.", "resilience.breakerClosed", &rt.breakerClosed)
	// Failovers mirrors retried: every failover re-send is one retried
	// attempt.
	r.CounterFunc("energyrouter_failovers_total", "Failover re-sends (mirrors retried).", "resilience.failovers",
		func() float64 { return float64(rt.retried.Load()) })
	r.Counter("energyrouter_hedges_fired_total", "Hedge second legs launched.", "resilience.hedgesFired", &rt.hedgesFired)
	r.Counter("energyrouter_hedges_won_total", "Hedge legs that answered first.", "resilience.hedgesWon", &rt.hedgesWon)

	r.GaugeVec("energyrouter_policy_info", "Resolved routing policy (value is always 1).", "",
		func(emit func(obs.Sample)) {
			emit(obs.Sample{Labels: []obs.Label{{Key: "policy", Value: rt.cfg.Policy}}, Value: 1})
		})

	// The backend families render as the /stats "backends" array, one
	// row per member in pool order, identified by its URL.
	r.GaugeVec("energyrouter_backend_healthy", "Backend health as seen by the prober (1 healthy, 0 evicted).",
		"backends[url].healthy?", rt.collectBackends(func(m *member) float64 {
			if m.healthy.Load() {
				return 1
			}
			return 0
		}))
	r.CounterVec("energyrouter_backend_proxied_total", "Requests answered by the backend.",
		"backends[url].proxied", rt.collectBackends(func(m *member) float64 { return float64(m.proxied.Load()) }))
	r.GaugeVec("energyrouter_backend_outstanding", "Router-issued requests currently in flight to the backend.",
		"backends[url].outstanding", rt.collectBackends(func(m *member) float64 { return float64(m.outstanding.Load()) }))
	r.GaugeVec("energyrouter_backend_probed_load", "inFlight+queued from the backend's last good probe.",
		"backends[url].probedLoad", rt.collectBackends(func(m *member) float64 { return float64(m.probedLoad.Load()) }))
	r.CounterVec("energyrouter_backend_evictions_total", "Times the prober evicted the backend.",
		"backends[url].evictions", rt.collectBackends(func(m *member) float64 { return float64(m.evictions.Load()) }))
	r.CounterVec("energyrouter_backend_readmissions_total", "Times the prober readmitted the backend.",
		"backends[url].readmissions", rt.collectBackends(func(m *member) float64 { return float64(m.readmissions.Load()) }))

	r.HistogramVec("energyrouter_request_duration_seconds",
		"Successful backend attempt wall time by request kind (drives hedge delays).", "",
		rt.collectLatency)

	obs.RegisterRuntime(r)
	obs.RegisterTracer(r, rt.tracer)
	return r
}

// collectBackends adapts one per-member reading into a vec collector:
// one sample per current pool member, in pool order, labeled by URL.
// The pool snapshot is loaded per scrape, so admin membership changes
// show up on the next pull.
func (rt *Router) collectBackends(read func(*member) float64) func(emit func(obs.Sample)) {
	return func(emit func(obs.Sample)) {
		for _, m := range rt.pool.Load().members {
			emit(obs.Sample{Labels: []obs.Label{{Key: "backend", Value: m.url}}, Value: read(m)})
		}
	}
}

// collectLatency emits one histogram series per request kind, reading
// the same hist.Atomic state hedgeDelay derives its p99 from.
func (rt *Router) collectLatency(emit func(obs.HistSample)) {
	rt.latMu.Lock()
	kinds := make([]string, 0, len(rt.latency))
	for kind := range rt.latency {
		kinds = append(kinds, kind)
	}
	sort.Strings(kinds)
	hists := make([]*hist.Atomic, len(kinds))
	for i, kind := range kinds {
		hists[i] = rt.latency[kind]
	}
	rt.latMu.Unlock()
	for i, kind := range kinds {
		count, sumNs, counts := hists[i].Snapshot()
		emit(obs.HistSample{
			Labels:   []obs.Label{{Key: "kind", Value: kind}},
			BoundsNs: hists[i].Bounds(),
			Counts:   counts,
			Count:    count,
			SumNs:    sumNs,
		})
	}
}
