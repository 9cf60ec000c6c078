// The campaign-job proxy: /v1/jobs* routed over the pool through the
// same failover loop as every other request. Unlike a solve —
// stateless, answerable by any backend — a job is pinned state: it
// lives (with its checkpoint file) on the one backend that accepted
// it. So a job request is pinned: it routes on the consistent-hash
// ring whatever policy the router was configured with. A submit is
// keyed by the body's instance hash, and because a job ID is prefixed
// with that same hash (jobs.ID), every later poll or cancel recovers
// the key from the ID alone (jobs.InstanceHashOfID) and lands on the
// same member without the router holding any job table. When the ring
// has shifted under a live job (a member was added or evicted between
// submit and poll), the ring target answers 404 — a poll or cancel
// fails over on that 404 to the next ring members before relaying it.
// Job requests never hedge: a submit mutates backend state, and the
// content-derived job identity already makes an accidental
// double-submit a dedupe, not a recompute.

package router

import (
	"context"
	"net/http"
	"strconv"

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

// handleJobSubmit proxies POST /v1/jobs, keyed by the body's instance
// hash — the same key the backend will prefix the job ID with, so the
// submit and every subsequent poll agree on the ring arc.
func (rt *Router) handleJobSubmit(w http.ResponseWriter, r *http.Request) {
	body, err := rt.readBody(w, r)
	if err != nil {
		return
	}
	ctx, cancel := context.WithTimeout(r.Context(), rt.cfg.RequestTimeout)
	defer cancel()
	rt.forwardRelay(ctx, w, proxyReq{
		method: http.MethodPost, path: "/v1/jobs", body: body,
		key: rt.routingKey("jobs", body), pinned: true,
	})
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
	resp, m, err := rt.forwardChain(ctx, rt.pool.Load(), proxyReq{
		method: method, path: "/v1/jobs/" + id,
		key: jobKey(id), pinned: true, notFoundFails: true,
	}, map[int]bool{}, -1, 0)
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
