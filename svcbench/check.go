package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"sync"

	"energysched/internal/core"
	"energysched/internal/loadgen"
	"energysched/internal/sim"
)

// oracle recomputes, outside the timed phase and without the service,
// what each response must say: energies by a direct core.Solve, and
// campaign outcomes by a direct sim.RunCampaign (or the chunked engine
// for jobs) on the same schedule and seed. Solves are memoized by
// instance bytes, so hot-cluster's repeats are checked once.
type oracle struct {
	mu     sync.Mutex
	solved map[string]*oracleSolve
}

type oracleSolve struct {
	in  *core.Instance
	res *core.Result
}

func newOracle() *oracle { return &oracle{solved: map[string]*oracleSolve{}} }

func (o *oracle) solve(raw []byte) (*oracleSolve, error) {
	o.mu.Lock()
	defer o.mu.Unlock()
	if s, ok := o.solved[string(raw)]; ok {
		return s, nil
	}
	in, err := core.UnmarshalInstance(raw)
	if err != nil {
		return nil, err
	}
	res, err := core.Solve(context.Background(), in)
	if err != nil {
		return nil, err
	}
	s := &oracleSolve{in: in, res: res}
	o.solved[string(raw)] = s
	return s, nil
}

// sameEnergy compares a served energy with the oracle's. Both come
// from the same deterministic solver, so they agree to the last bit up
// to JSON's shortest round-trip formatting.
func sameEnergy(got, want float64) bool {
	return got == want || math.Abs(got-want) <= 1e-12*math.Abs(want)
}

type resultDoc struct {
	Energy float64 `json:"energy"`
}

type campaignDoc struct {
	Trials          int `json:"trials"`
	Successes       int `json:"successes"`
	FaultFreeTrials int `json:"faultFreeTrials"`
}

type simulateDoc struct {
	Result   resultDoc   `json:"result"`
	Campaign campaignDoc `json:"campaign"`
}

// checkResponse verifies one (request, response) pair of an open-loop
// workload.
func (o *oracle) checkResponse(kind string, reqBody, respBody []byte) error {
	switch kind {
	case loadgen.KindSolve:
		var req struct {
			Instance json.RawMessage `json:"instance"`
		}
		var got resultDoc
		if err := decode2(reqBody, &req, respBody, &got); err != nil {
			return err
		}
		want, err := o.solve(req.Instance)
		if err != nil {
			return err
		}
		if !sameEnergy(got.Energy, want.res.Energy) {
			return fmt.Errorf("solve energy %v, direct core.Solve %v", got.Energy, want.res.Energy)
		}
	case loadgen.KindBatch:
		var req struct {
			Instances []json.RawMessage `json:"instances"`
		}
		var got struct {
			Items []struct {
				Result *resultDoc `json:"result"`
				Error  string     `json:"error"`
			} `json:"items"`
		}
		if err := decode2(reqBody, &req, respBody, &got); err != nil {
			return err
		}
		if len(got.Items) != len(req.Instances) {
			return fmt.Errorf("batch of %d answered %d items", len(req.Instances), len(got.Items))
		}
		for i, raw := range req.Instances {
			want, err := o.solve(raw)
			if err != nil {
				return err
			}
			it := got.Items[i]
			if it.Result == nil || !sameEnergy(it.Result.Energy, want.res.Energy) {
				return fmt.Errorf("batch item %d: %+v (error %q), direct core.Solve energy %v", i, it.Result, it.Error, want.res.Energy)
			}
		}
	case loadgen.KindSimulate:
		var req struct {
			Instance json.RawMessage `json:"instance"`
			Trials   int             `json:"trials"`
			SimSeed  int64           `json:"simSeed"`
		}
		var got simulateDoc
		if err := decode2(reqBody, &req, respBody, &got); err != nil {
			return err
		}
		want, err := o.solve(req.Instance)
		if err != nil {
			return err
		}
		if !sameEnergy(got.Result.Energy, want.res.Energy) {
			return fmt.Errorf("simulate energy %v, direct core.Solve %v", got.Result.Energy, want.res.Energy)
		}
		camp, err := sim.RunCampaign(context.Background(), want.in, want.res.Schedule,
			sim.CampaignOptions{Trials: req.Trials, Seed: req.SimSeed})
		if err != nil {
			return err
		}
		return sameCampaign(got.Campaign, camp)
	default:
		return fmt.Errorf("unexpected kind %q", kind)
	}
	return nil
}

// checkJob verifies one final job document against a direct chunked
// campaign with the job's instance, seed and trial count.
func (o *oracle) checkJob(instance []byte, trials int, simSeed int64, doc []byte) error {
	var got simulateDoc
	if err := json.Unmarshal(doc, &got); err != nil {
		return fmt.Errorf("decoding job document: %w", err)
	}
	want, err := o.solve(instance)
	if err != nil {
		return err
	}
	camp, err := sim.RunCampaignChunked(context.Background(), want.in, want.res.Schedule,
		sim.CampaignOptions{Seed: simSeed}, sim.ChunkedOptions{Trials: trials})
	if err != nil {
		return err
	}
	return sameCampaign(got.Campaign, camp)
}

func sameCampaign(got campaignDoc, want *sim.Campaign) error {
	if got.Trials != want.Trials || got.Successes != want.Successes || got.FaultFreeTrials != want.FaultFreeTrials {
		return fmt.Errorf("campaign trials/successes/faultFree %d/%d/%d, direct %d/%d/%d",
			got.Trials, got.Successes, got.FaultFreeTrials, want.Trials, want.Successes, want.FaultFreeTrials)
	}
	return nil
}

func decode2(reqBody []byte, req any, respBody []byte, resp any) error {
	if err := json.Unmarshal(reqBody, req); err != nil {
		return fmt.Errorf("decoding request: %w", err)
	}
	if err := json.Unmarshal(respBody, resp); err != nil {
		return fmt.Errorf("decoding response: %w", err)
	}
	return nil
}
