package router

import (
	"context"
	"time"

	"energysched/internal/client"
)

// ProbeOnce runs one health-probe round over every member of the
// current pool snapshot, concurrently, and applies the
// eviction/readmission state machine: a healthy member is evicted
// after FailAfter consecutive failed probes, an evicted one
// readmitted after RecoverAfter consecutive successes. The probe
// target is GET /stats — it exercises more of the backend than a bare
// liveness ping and refreshes the member's inFlight+queued load gauge
// for the least-loaded policy in the same round trip. Eviction only
// removes the member from future routing decisions; requests already
// in flight to it are never cancelled. Members removed by an admin
// change mid-round get their last probe applied to state nothing
// reads anymore — harmless.
//
// Tests drive this directly (a manually stepped probe clock needs no
// sleeping or fake timers); production calls it through Run.
func (rt *Router) ProbeOnce(ctx context.Context) {
	members := rt.pool.Load().members
	done := make(chan struct{})
	for _, m := range members {
		go func(m *member) {
			defer func() { done <- struct{}{} }()
			pctx, cancel := context.WithTimeout(ctx, rt.cfg.ProbeTimeout)
			defer cancel()
			var s client.Stats
			err := m.client.GetJSON(pctx, "/stats", &s)
			if err == nil {
				m.probedLoad.Store(s.InFlight + s.Queued)
			}
			rt.noteProbe(m, err == nil)
		}(m)
	}
	for range members {
		<-done
	}
}

// noteProbe applies one probe outcome to a member's health state.
func (rt *Router) noteProbe(m *member, ok bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if ok {
		m.consecFails = 0
		if !m.healthyBool {
			m.consecOKs++
			if m.consecOKs >= rt.cfg.RecoverAfter {
				m.healthyBool = true
				m.healthy.Store(true)
				m.readmissions.Add(1)
				m.consecOKs = 0
				// The prober just watched the backend answer
				// RecoverAfter probes in a row — stronger evidence than
				// whatever open window the breaker still holds.
				m.br.reset()
			}
		}
		return
	}
	m.consecOKs = 0
	if m.healthyBool {
		m.consecFails++
		if m.consecFails >= rt.cfg.FailAfter {
			m.healthyBool = false
			m.healthy.Store(false)
			m.evictions.Add(1)
			m.consecFails = 0
		}
	}
}

// Run probes every ProbeInterval until ctx is done. Start it in a
// goroutine next to the HTTP server.
func (rt *Router) Run(ctx context.Context) {
	ticker := time.NewTicker(rt.cfg.ProbeInterval)
	defer ticker.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-ticker.C:
			rt.ProbeOnce(ctx)
		}
	}
}

// Healthy reports member i's current routing eligibility (test hook).
func (rt *Router) Healthy(i int) bool {
	members := rt.pool.Load().members
	return i >= 0 && i < len(members) && members[i].healthy.Load()
}
