// The campaign-job proxy: /v1/jobs* routed over the pool. Unlike a
// solve — stateless, answerable by any backend — a job is pinned
// state: it lives (with its checkpoint file) on the one backend that
// accepted it. So the jobs path always routes on the consistent-hash
// ring, whatever policy the router was configured with: a submit is
// keyed by the body's instance hash, and because a job ID is prefixed
// with that same hash (jobs.ID), every later poll or cancel recovers
// the key from the ID alone (jobs.InstanceHashOfID) and lands on the
// same member without the router holding any job table. When the ring
// has shifted under a live job (a member was added or evicted between
// submit and poll), the affinity target answers 404 — polls and
// cancels treat that as a failover signal and sweep the remaining
// healthy members for the job before relaying the 404.

package router

import (
	"context"
	"net/http"
	"strconv"
	"time"

	"energysched/internal/client"
	"energysched/internal/jobs"
)

// jobKey is the ring key for an already-submitted job: the
// instance-hash prefix of its ID, or an FNV spread of the raw ID when
// it is not of the canonical shape (the backend will 404 it anyway;
// the key just has to be deterministic).
func jobKey(id string) string {
	if h := jobs.InstanceHashOfID(id); h != "" {
		return h
	}
	return "body:" + strconv.FormatUint(hashKey(id), 16)
}

// pickJob picks the ring member for key, skipping unhealthy members
// and those in tried — breaker-gated on the first pass, health-only on
// the fallback, mirroring pickFrom but never consulting the configured
// policy: job state is pinned, so only the ring knows where it lives.
func (rt *Router) pickJob(p *pool, key string, tried map[int]bool) int {
	now := time.Now()
	if i := p.ring.lookup(key, func(i int) bool {
		m := p.members[i]
		return m.healthy.Load() && !tried[i] && m.br.canTry(now)
	}); i >= 0 {
		return i
	}
	return p.ring.lookup(key, func(i int) bool {
		return p.members[i].healthy.Load() && !tried[i]
	})
}

// jobUnusable is unusable adjusted for the one jobs-path shape the
// solve paths never see: a 204 cancel acknowledgement, whose empty
// body is correct, not a half-written response.
func jobUnusable(resp *client.Response) bool {
	if resp.Status == http.StatusNoContent {
		return false
	}
	return unusable(resp)
}

// sendJob issues one method-shaped attempt to m, feeding the outcome
// to the member's breaker exactly as sendOne does for POST kinds. A
// 404 is a real answer (the member simply does not hold the job), so
// it never counts against the breaker.
func (rt *Router) sendJob(ctx context.Context, m *member, method, path string, body []byte) (*client.Response, error) {
	rt.brEnter(m)
	m.outstanding.Add(1)
	rt.proxied.Add(1)
	var resp *client.Response
	var err error
	switch method {
	case http.MethodPost:
		resp, err = m.client.Post(ctx, path, body)
	case http.MethodDelete:
		resp, err = m.client.Delete(ctx, path)
	default:
		resp, err = m.client.Get(ctx, path)
	}
	m.outstanding.Add(-1)
	if err != nil {
		if ctx.Err() == nil {
			rt.brRecord(m, false)
		}
		return nil, err
	}
	m.proxied.Add(1)
	rt.brRecord(m, !jobUnusable(resp))
	return resp, nil
}

// forwardJob is forwardChain's ring-pinned sibling for the jobs API:
// failover past transport errors and unusable responses up to Retries
// times, and — when retryNotFound is set, the poll/cancel paths —
// past 404s too, sweeping other members in ring order in case the job
// was accepted before a membership change moved the key's arc. When
// every attempt 404s the last 404 is relayed: the job genuinely is
// unknown.
func (rt *Router) forwardJob(ctx context.Context, method, path, key string, body []byte, retryNotFound bool) (*client.Response, *member, error) {
	p := rt.pool.Load()
	tried := map[int]bool{}
	var lastErr error
	var lastResp *client.Response
	var lastMember *member
	for attempt := 0; attempt <= rt.cfg.Retries; attempt++ {
		i := rt.pickJob(p, key, tried)
		if i < 0 {
			break
		}
		m := p.members[i]
		resp, err := rt.sendJob(ctx, m, method, path, body)
		if err != nil {
			if ctx.Err() != nil {
				return nil, nil, err
			}
			lastErr = err
			tried[i] = true
			rt.retried.Add(1)
			continue
		}
		if jobUnusable(resp) || (retryNotFound && resp.Status == http.StatusNotFound) {
			lastResp, lastMember = resp, m
			tried[i] = true
			rt.retried.Add(1)
			continue
		}
		return resp, m, nil
	}
	if lastResp != nil {
		return lastResp, lastMember, nil
	}
	if lastErr != nil {
		return nil, nil, lastErr
	}
	return nil, nil, errNoBackend
}

// handleJobSubmit proxies POST /v1/jobs, keyed by the body's instance
// hash — the same key the backend will prefix the job ID with, so the
// submit and every subsequent poll agree on the ring arc. No hedging:
// a submit mutates backend state, and the content-derived job identity
// already makes an accidental double-submit a dedupe, not a recompute.
func (rt *Router) handleJobSubmit(w http.ResponseWriter, r *http.Request) {
	body, err := rt.readBody(w, r)
	if err != nil {
		return
	}
	ctx, cancel := context.WithTimeout(r.Context(), rt.cfg.RequestTimeout)
	defer cancel()
	resp, m, err := rt.forwardJob(ctx, http.MethodPost, "/v1/jobs", rt.routingKey("jobs", body), body, false)
	if err != nil {
		rt.writeForwardError(w, err)
		return
	}
	rt.relay(w, resp, m)
}

// handleJobGet proxies GET /v1/jobs/{id} to the ring member the ID's
// instance-hash prefix names, failing over past 404s.
func (rt *Router) handleJobGet(w http.ResponseWriter, r *http.Request) {
	rt.proxyJobByID(w, r, http.MethodGet)
}

// handleJobDelete proxies DELETE /v1/jobs/{id} the same way polls
// route, so a cancel finds the job wherever it lives.
func (rt *Router) handleJobDelete(w http.ResponseWriter, r *http.Request) {
	rt.proxyJobByID(w, r, http.MethodDelete)
}

// proxyJobByID is the shared poll/cancel path: key on the ID, forward
// with 404 failover, relay.
func (rt *Router) proxyJobByID(w http.ResponseWriter, r *http.Request, method string) {
	id := r.PathValue("id")
	ctx, cancel := context.WithTimeout(r.Context(), rt.cfg.RequestTimeout)
	defer cancel()
	resp, m, err := rt.forwardJob(ctx, method, "/v1/jobs/"+id, jobKey(id), nil, true)
	if err != nil {
		rt.writeForwardError(w, err)
		return
	}
	if resp.Status == http.StatusNoContent {
		// A cancel acknowledgement has no body for relay to validate.
		w.Header().Set("X-Backend", m.url)
		w.WriteHeader(http.StatusNoContent)
		return
	}
	rt.relay(w, resp, m)
}
