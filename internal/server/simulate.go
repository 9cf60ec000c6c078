package server

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"time"

	"energysched/internal/obs"
	"energysched/internal/sim"
)

// simulateRequest is the POST /v1/simulate payload: an instance, the
// solve options of /v1/solve, and the Monte-Carlo campaign knobs.
type simulateRequest struct {
	Instance json.RawMessage `json:"instance"`
	// Trials is the campaign size (default 1000, capped by the
	// server's MaxTrials).
	Trials int `json:"trials,omitempty"`
	// SimSeed seeds the fault streams (default 1); trial t draws from
	// the counter-split stream (simSeed, t) whatever the worker count.
	SimSeed *int64 `json:"simSeed,omitempty"`
	// Policy is the recovery policy: same-speed (default), max-speed
	// or abort.
	Policy string `json:"policy,omitempty"`
	// WorstCase replays every scheduled execution (see sim.Options).
	WorstCase bool `json:"worstCase,omitempty"`
	// Workers may lower the campaign worker pool; the aggregate is
	// bit-identical whatever the value.
	Workers int `json:"workers,omitempty"`
	solveOptions
}

// simulateResponse pairs the solver's result with the observed
// campaign and the predicted-vs-observed deltas. Profile is the
// campaign's per-phase wall-clock timing — a sibling of the campaign,
// not part of it, because the campaign block is deterministic (and
// equivalence-tested) in the request parameters while the profile
// never is. On a byte-cached hit the profile is the one recorded by
// the request that computed the entry.
type simulateResponse struct {
	Result   json.RawMessage      `json:"result"`
	Campaign *sim.Campaign        `json:"campaign"`
	Delta    sim.Delta            `json:"delta"`
	Profile  *sim.CampaignProfile `json:"profile,omitempty"`
}

// handleSimulate serves POST /v1/simulate: solve the instance (through
// the solver registry), then execute the solved schedule in a seeded
// Monte-Carlo campaign on the discrete-event simulator, all under the
// request's deadline, semaphore slot and latency accounting. The full
// response is byte-cached — campaigns are deterministic in (instance,
// config, trials, seed, policy, worstCase), so repeats cost neither
// solver nor simulator work. The campaign worker count is excluded
// from the key: the deterministic merge makes it unobservable.
func (s *Server) handleSimulate(w http.ResponseWriter, r *http.Request) {
	body, err := s.readBody(w, r)
	if err != nil {
		s.writeHTTPError(w, err)
		return
	}
	var req simulateRequest
	if err := json.Unmarshal(body, &req); err != nil {
		s.writeError(w, http.StatusBadRequest, "parsing request: "+err.Error())
		return
	}
	if len(req.Instance) == 0 {
		s.writeError(w, http.StatusBadRequest, `request is missing "instance"`)
		return
	}
	trials := req.Trials
	if trials == 0 {
		// The default must respect a server configured tighter than it.
		trials = min(DefaultTrials, s.cfg.MaxTrials)
	}
	if trials < 1 || trials > s.cfg.MaxTrials {
		s.writeError(w, http.StatusBadRequest,
			fmt.Sprintf("trials must be in [1, %d], got %d", s.cfg.MaxTrials, trials))
		return
	}
	seed := int64(1)
	if req.SimSeed != nil {
		seed = *req.SimSeed
	}
	policy, err := sim.ParsePolicy(req.Policy)
	if err != nil {
		s.writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	hash, in, err := s.keys.Key(req.Instance)
	if err != nil {
		s.writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	opts, cfg, err := req.coreOptions()
	if err != nil {
		s.writeHTTPError(w, err)
		return
	}
	solveKey := hash + "|" + cfg.Fingerprint()
	key := fmt.Sprintf("%s|sim|t=%d,s=%d,p=%s,wc=%t",
		solveKey, trials, seed, policy, req.WorstCase)
	s.serveCached(w, r, key, req.TimeoutMS, func(ctx context.Context) ([]byte, error) {
		in, err := decoded(in, req.Instance)
		if err != nil {
			return nil, err
		}
		res, resJSON, err := s.solveCached(ctx, in, opts, solveKey)
		if err != nil {
			return nil, err
		}
		campaignOpts := sim.CampaignOptions{
			Trials:    trials,
			Seed:      seed,
			Policy:    policy,
			WorstCase: req.WorstCase,
			Workers:   s.clampWorkers(req.Workers),
		}
		simStart := time.Now()
		camp, err := sim.RunCampaign(ctx, in, res.Schedule, campaignOpts)
		if err != nil {
			return nil, fmt.Errorf("simulating: %w", err)
		}
		obs.TraceFromContext(ctx).Span("simulate", simStart, fmt.Sprintf("trials=%d", trials))
		s.latency.observe("simulate", time.Since(simStart))
		out, err := json.Marshal(simulateResponse{
			Result:   resJSON,
			Campaign: camp,
			Delta:    camp.Delta(),
			Profile:  &camp.Profile,
		})
		if err != nil {
			return nil, &httpError{status: http.StatusInternalServerError, msg: err.Error()}
		}
		s.simulated.Add(1)
		return out, nil
	})
}
