package router

import (
	"context"
	"encoding/json"
	"net/http"
	"sync"
	"time"
)

// batchItemJSON and batchResponse mirror the backend's wire shape
// field for field, so a gathered router response marshals
// byte-identically to what a single backend would have written for the
// same items — the property the cluster harness pins.
type batchItemJSON struct {
	Index  int             `json:"index"`
	Result json.RawMessage `json:"result,omitempty"`
	Error  string          `json:"error,omitempty"`
	Cached bool            `json:"cached,omitempty"`
}

type batchResponse struct {
	Items     []batchItemJSON `json:"items"`
	CacheHits int             `json:"cacheHits"`
}

// batchReq is a POST /v1/batch of body keyed by key.
func batchReq(key string, body []byte) proxyReq {
	return proxyReq{method: http.MethodPost, path: "/v1/batch", body: body, key: key, kind: "batch"}
}

// handleBatch serves POST /v1/batch by scatter/gather: the instance
// list is split into one sub-batch per policy-picked backend (under
// affinity each instance goes to the owner of its hash, so sub-batch
// cache hits match what a single node with the same history would
// see), the sub-batches run concurrently, and the items are reassembled
// in input order with indices rewritten and cacheHits summed. Like the
// backend endpoint, a gathered batch never fails as a whole — a
// sub-batch whose backends are all unreachable degrades to per-item
// errors. The whole scatter round shares one pool snapshot, so an
// admin membership change cannot split a batch across two views of
// the cluster.
func (rt *Router) handleBatch(w http.ResponseWriter, r *http.Request) {
	body, err := rt.readBody(w, r)
	if err != nil {
		return
	}
	p := rt.pool.Load()

	// Split the body without losing sibling fields (workers, solver,
	// timeoutMs, ...): the top level is kept as raw fields and only
	// "instances" is rewritten per sub-batch. Bodies that don't parse
	// far enough to shard — not an object, instances not an array or
	// empty — are forwarded whole so the backend's validation answers.
	var top map[string]json.RawMessage
	var instances []json.RawMessage
	if err := json.Unmarshal(body, &top); err == nil {
		json.Unmarshal(top["instances"], &instances)
	}
	if len(instances) == 0 {
		ctx, cancel := context.WithTimeout(r.Context(), rt.cfg.RequestTimeout)
		defer cancel()
		rt.forwardRelay(ctx, w, batchReq(rt.routingKey("batch", body), body))
		return
	}

	// Scatter: group input indices by target backend. With no healthy
	// backend at grouping time the whole request is 503 — nothing has
	// been sent yet.
	groups := map[int][]int{}
	keys := make([]string, len(instances))
	for i, raw := range instances {
		keys[i] = rt.instanceKey(raw)
		target := rt.pickFrom(p, rt.cfg.Policy, keys[i], nil)
		if target < 0 {
			rt.noBackend.Add(1)
			rt.writeError(w, http.StatusServiceUnavailable, errNoBackend.Error())
			return
		}
		groups[target] = append(groups[target], i)
	}
	if len(groups) > 1 {
		rt.scattered.Add(1)
	}

	ctx, cancel := context.WithTimeout(r.Context(), rt.cfg.RequestTimeout)
	defer cancel()
	out := batchResponse{Items: make([]batchItemJSON, len(instances))}
	var (
		mu sync.Mutex
		wg sync.WaitGroup
	)
	for target, idxs := range groups {
		wg.Add(1)
		go func(target int, idxs []int) {
			defer wg.Done()
			sub := rt.subBatch(ctx, p, top, instances, idxs, target, keys[idxs[0]])
			mu.Lock()
			defer mu.Unlock()
			out.CacheHits += sub.CacheHits
			for j, item := range sub.Items {
				item.Index = idxs[j]
				out.Items[idxs[j]] = item
			}
		}(target, idxs)
	}
	wg.Wait()
	writeJSON(w, &out)
}

// subBatch runs one scatter leg: build the sub-body for idxs, send it
// (failing over past failed attempts, preferring the affinity-picked
// target first, with key — the routing key of the leg's first item —
// steering any failover), and decode the items. Each attempt gets an equal
// slice of the request's remaining deadline budget — one stuck
// backend can burn at most its slice before the leg fails over, so a
// single slow member cannot consume the whole batch's budget.
// Failures degrade to per-item errors so the gathered batch stays a
// 200 with exactly one entry per input instance.
func (rt *Router) subBatch(ctx context.Context, p *pool, top map[string]json.RawMessage, instances []json.RawMessage, idxs []int, target int, key string) batchResponse {
	fill := func(msg string) batchResponse {
		sub := batchResponse{Items: make([]batchItemJSON, len(idxs))}
		for j := range sub.Items {
			sub.Items[j] = batchItemJSON{Index: j, Error: msg}
		}
		return sub
	}

	subInstances := make([]json.RawMessage, len(idxs))
	for j, i := range idxs {
		subInstances[j] = instances[i]
	}
	rawInstances, err := json.Marshal(subInstances)
	if err != nil {
		return fill("router: building sub-batch: " + err.Error())
	}
	subTop := make(map[string]json.RawMessage, len(top))
	for k, v := range top {
		subTop[k] = v
	}
	subTop["instances"] = rawInstances
	subBody, err := json.Marshal(subTop)
	if err != nil {
		return fill("router: building sub-batch: " + err.Error())
	}

	// Per-attempt deadline: the parent's remaining budget split over
	// the failover attempts this leg may make.
	perAttempt := time.Duration(0)
	if dl, ok := ctx.Deadline(); ok {
		perAttempt = time.Until(dl) / time.Duration(rt.cfg.Retries+1)
		if perAttempt <= 0 {
			return fill("router: batch deadline exhausted before scatter leg started")
		}
	}

	// Route preferring the scatter target: under affinity that is the
	// owner of this sub-batch's keys; the chain fails over past it on
	// any failed attempt.
	resp, m, err := rt.forwardChain(ctx, p, batchReq(key, subBody), map[int]bool{}, target, perAttempt)
	if err != nil {
		return fill("router: " + err.Error())
	}
	var sub batchResponse
	if resp.Status != http.StatusOK || json.Unmarshal(resp.Body, &sub) != nil || len(sub.Items) != len(idxs) {
		rt.badGateway.Add(1)
		return fill("router: backend " + m.url + " returned an unusable batch response")
	}
	return sub
}
