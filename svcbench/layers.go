package main

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"time"

	"energysched/internal/cache"
	"energysched/internal/core"
	"energysched/internal/jobs"
	"energysched/internal/loadgen"
	"energysched/internal/server"
	"energysched/internal/sim"
)

// layerPass holds the traced run's replay: the workload's own
// requests pushed through each layer's public function in turn,
// timing every call. It runs after the timed phase, on an otherwise
// idle process, so each figure is the layer's cost without queueing.
type layerPass struct {
	envelope        dist // json.Unmarshal of the request envelope, µs
	decode          dist // core.UnmarshalInstance, µs
	key             dist // Instance.Hash + Config.Fingerprint, µs
	cacheGet        dist // cache.Cache.Get, µs
	cachePut        dist // cache.Cache.Put, µs
	solve           dist // core.Solve, ms
	solveBy         map[string]*dist
	solveAll        dist           // core.SolveAll, ms
	marshal         dist           // core.MarshalResult, µs
	unmarshalResult dist           // core.UnmarshalResult, µs
	simSetup        dist           // sim.NewRunner, µs
	campaign        dist           // Runner.RunCampaign, ms
	perOp           [numKinds]dist // layer-pass sum per replayed request, ms

	fastTrialsPerS, heapTrialsPerS float64
	fastpathRatio, mergeShare      float64
	checkpoint                     dist // Checkpoint.Marshal + jobs.WriteAtomic, ms
}

func newLayerPass() *layerPass { return &layerPass{solveBy: map[string]*dist{}} }

// timed runs f and files its duration under d in unit, returning it.
func timed(d *dist, unit time.Duration, f func() error) (time.Duration, error) {
	t := time.Now()
	err := f()
	el := time.Since(t)
	d.addDur(el, unit)
	return el, err
}

// replayer runs requests through the layer functions against its own
// cache at the server's default capacity, so cache timings see the
// workload's key set at production size.
type replayer struct {
	lp    *layerPass
	cache *cache.Cache[[]byte]
	fp    string
	// hitPath replays the cache-hit path (envelope, decode, key, Get)
	// instead of the miss path; hot-cluster's timed requests are hits.
	hitPath bool
}

func newReplayer(lp *layerPass, hitPath bool) (*replayer, error) {
	cfg, err := core.NewConfig()
	if err != nil {
		return nil, err
	}
	return &replayer{lp: lp, cache: cache.New[[]byte](server.DefaultCacheSize), fp: cfg.Fingerprint(), hitPath: hitPath}, nil
}

// decodeKey times the instance decode and cache-key derivation.
func (rp *replayer) decodeKey(raw []byte) (*core.Instance, string, time.Duration, error) {
	var in *core.Instance
	d1, err := timed(&rp.lp.decode, time.Microsecond, func() (err error) {
		in, err = core.UnmarshalInstance(raw)
		return err
	})
	if err != nil {
		return nil, "", 0, err
	}
	var key string
	d2, _ := timed(&rp.lp.key, time.Microsecond, func() error {
		key = in.Hash() + "|" + rp.fp
		return nil
	})
	return in, key, d1 + d2, nil
}

// solveMarshalPut is the miss path's solve → marshal → cache write.
func (rp *replayer) solveMarshalPut(in *core.Instance, key string) (*core.Result, []byte, time.Duration, error) {
	var res *core.Result
	d1, err := timed(&rp.lp.solve, time.Millisecond, func() (err error) {
		res, err = core.Solve(context.Background(), in)
		return err
	})
	if err != nil {
		return nil, nil, 0, err
	}
	rp.lp.solver(res.Solver).addDur(d1, time.Millisecond)
	var out []byte
	d2, err := timed(&rp.lp.marshal, time.Microsecond, func() (err error) {
		out, err = core.MarshalResult(res)
		return err
	})
	if err != nil {
		return nil, nil, 0, err
	}
	d3, _ := timed(&rp.lp.cachePut, time.Microsecond, func() error {
		rp.cache.Put(key, out)
		return nil
	})
	return res, out, d1 + d2 + d3, nil
}

func (lp *layerPass) solver(name string) *dist {
	d, ok := lp.solveBy[name]
	if !ok {
		d = &dist{}
		lp.solveBy[name] = d
	}
	return d
}

// get times one cache lookup.
func (rp *replayer) get(key string) ([]byte, bool, time.Duration) {
	var out []byte
	var ok bool
	d, _ := timed(&rp.lp.cacheGet, time.Microsecond, func() error {
		out, ok = rp.cache.Get(key)
		return nil
	})
	return out, ok, d
}

type replayReq struct {
	Instance  json.RawMessage   `json:"instance"`
	Instances []json.RawMessage `json:"instances"`
	Trials    int               `json:"trials"`
	SimSeed   int64             `json:"simSeed"`
}

// replay pushes one request through the layers the server's handler
// calls for it and files the summed layer time under its kind.
func (rp *replayer) replay(kind string, body []byte) error {
	var req replayReq
	total, err := timed(&rp.lp.envelope, time.Microsecond, func() error { return json.Unmarshal(body, &req) })
	if err != nil {
		return err
	}
	switch kind {
	case loadgen.KindSolve:
		in, key, d, err := rp.decodeKey(req.Instance)
		if err != nil {
			return err
		}
		total += d
		_, ok, d := rp.get(key)
		total += d
		if !ok || !rp.hitPath {
			_, _, d, err := rp.solveMarshalPut(in, key)
			if err != nil {
				return err
			}
			if rp.hitPath {
				// Filling the replay cache is set-up for the hit path.
				return nil
			}
			total += d
		}
	case loadgen.KindBatch:
		ins := make([]*core.Instance, 0, len(req.Instances))
		keys := make([]string, 0, len(req.Instances))
		miss := false
		for _, raw := range req.Instances {
			in, key, d, err := rp.decodeKey(raw)
			if err != nil {
				return err
			}
			_, ok, dg := rp.get(key)
			total += d + dg
			miss = miss || !ok
			ins = append(ins, in)
			keys = append(keys, key)
		}
		if miss || !rp.hitPath {
			var items []core.BatchItem
			d, _ := timed(&rp.lp.solveAll, time.Millisecond, func() error {
				items = core.SolveAll(context.Background(), ins)
				return nil
			})
			total += d
			for i, it := range items {
				if it.Err != nil {
					return it.Err
				}
				var out []byte
				d, err := timed(&rp.lp.marshal, time.Microsecond, func() (err error) {
					out, err = core.MarshalResult(it.Result)
					return err
				})
				if err != nil {
					return err
				}
				dp, _ := timed(&rp.lp.cachePut, time.Microsecond, func() error {
					rp.cache.Put(keys[i], out)
					return nil
				})
				total += d + dp
			}
			if rp.hitPath {
				return nil
			}
		}
	case loadgen.KindSimulate:
		in, key, d, err := rp.decodeKey(req.Instance)
		if err != nil {
			return err
		}
		total += d
		simKey := fmt.Sprintf("%s|sim|t=%d,s=%d,p=same-speed,wc=false", key, req.Trials, req.SimSeed)
		_, ok, d := rp.get(simKey)
		total += d
		if !ok || !rp.hitPath {
			d, err := rp.simulateMiss(in, key, simKey, req.Trials, req.SimSeed)
			if err != nil {
				return err
			}
			if rp.hitPath {
				return nil
			}
			total += d
		}
	default:
		return fmt.Errorf("replay: unexpected kind %q", kind)
	}
	rp.lp.perOp[kindIndex(kind)].addDur(total, time.Millisecond)
	return nil
}

// simulateMiss is /v1/simulate's compute path: the solve (read from
// the cache when present, as the server's solveCached does), the
// runner set-up, the campaign and the response encoding.
func (rp *replayer) simulateMiss(in *core.Instance, key, simKey string, trials int, seed int64) (time.Duration, error) {
	var (
		res   *core.Result
		resJS []byte
		total time.Duration
	)
	cached, ok, d := rp.get(key)
	total += d
	if ok {
		d, err := timed(&rp.lp.unmarshalResult, time.Microsecond, func() (err error) {
			res, err = core.UnmarshalResult(cached, in)
			return err
		})
		if err != nil {
			return 0, err
		}
		total += d
		resJS = cached
	} else {
		var err error
		if res, resJS, d, err = rp.solveMarshalPut(in, key); err != nil {
			return 0, err
		}
		total += d
	}
	var runner *sim.Runner
	d, err := timed(&rp.lp.simSetup, time.Microsecond, func() (err error) {
		runner, err = sim.NewRunner(in, res.Schedule, sim.Options{Seed: seed})
		return err
	})
	if err != nil {
		return 0, err
	}
	total += d
	var camp *sim.Campaign
	d, err = timed(&rp.lp.campaign, time.Millisecond, func() (err error) {
		camp, err = runner.RunCampaign(context.Background(), trials, 0)
		return err
	})
	if err != nil {
		return 0, err
	}
	total += d
	var out []byte
	d, err = timed(&rp.lp.marshal, time.Microsecond, func() (err error) {
		out, err = json.Marshal(struct {
			Result   json.RawMessage      `json:"result"`
			Campaign *sim.Campaign        `json:"campaign"`
			Delta    sim.Delta            `json:"delta"`
			Profile  *sim.CampaignProfile `json:"profile"`
		}{resJS, camp, camp.Delta(), &camp.Profile})
		return err
	})
	if err != nil {
		return 0, err
	}
	total += d
	rp.cache.Put(simKey, out)
	return total, nil
}

// replayJobSubmit times what POST /v1/jobs does in its handler: the
// envelope and instance decode and the cache key. With exec set it
// also replays the job's start-up off the request path — the cached
// solve read back, the runner built — plus one synchronous campaign of
// cold-single's size on the same chain; the chunked campaign itself is
// measured by simProbe.
func (rp *replayer) replayJobSubmit(body []byte, exec bool) error {
	var req replayReq
	total, err := timed(&rp.lp.envelope, time.Microsecond, func() error { return json.Unmarshal(body, &req) })
	if err != nil {
		return err
	}
	in, key, d, err := rp.decodeKey(req.Instance)
	if err != nil {
		return err
	}
	total += d
	if _, ok, d := rp.get(key); !ok {
		// Jobs find their solve in the cache: set-up solved both chains.
		if _, _, _, err := rp.solveMarshalPut(in, key); err != nil {
			return err
		}
	} else {
		total += d
	}
	rp.lp.perOp[kindJobs].addDur(total, time.Millisecond)
	if !exec {
		return nil
	}
	simKey := fmt.Sprintf("%s|sim|t=%d,s=%d", key, coldTrials, req.SimSeed)
	_, err = rp.simulateMiss(in, key, simKey, coldTrials, req.SimSeed)
	return err
}

// simProbe measures the simulator at the campaign-jobs regimes on the
// workload's own chains: trial throughput with the fast path serving
// nearly every trial and with the event heap busy, the fast-path share,
// the merge share, and the cost of one durable checkpoint.
func (lp *layerPass) simProbe(instances [][]byte, stateDir string) error {
	for i, raw := range instances {
		in, err := core.UnmarshalInstance(raw)
		if err != nil {
			return err
		}
		res, err := core.Solve(context.Background(), in)
		if err != nil {
			return err
		}
		trials := jobRegimes[i].trials / 4
		var last *sim.CampaignState
		var lastNext int
		camp, err := sim.RunCampaignChunked(context.Background(), in, res.Schedule,
			sim.CampaignOptions{Seed: 1}, sim.ChunkedOptions{Trials: trials,
				OnChunk: func(next int, st *sim.CampaignState) error {
					last, lastNext = st, next
					return nil
				}})
		if err != nil {
			return err
		}
		p := camp.Profile
		rate := float64(camp.Trials) / (float64(p.TrialsNs+p.MergeNs) / 1e9)
		if i == 0 {
			lp.fastTrialsPerS = rate
			lp.fastpathRatio = camp.FaultFreeRate
			lp.mergeShare = float64(p.MergeNs) / float64(p.TrialsNs+p.MergeNs)
		} else {
			lp.heapTrialsPerS = rate
		}
		body, err := marshalBody(map[string]any{"instance": json.RawMessage(raw)})
		if err != nil {
			return err
		}
		solved, err := core.MarshalResult(res)
		if err != nil {
			return err
		}
		knobs := jobs.Knobs{Trials: trials, ChunkSize: sim.DefaultChunkSize, Seed: 1}
		cp := &jobs.Checkpoint{
			Version:      jobs.CheckpointVersion,
			ID:           jobs.ID(in.Hash(), "probe", knobs),
			InstanceHash: in.Hash(),
			Fingerprint:  "probe",
			Knobs:        knobs,
			Request:      body,
			Solved:       solved,
			NextChunk:    lastNext,
			State:        last,
		}
		for k := 0; k < 10; k++ {
			if _, err := timed(&lp.checkpoint, time.Millisecond, func() error {
				data, err := cp.Marshal()
				if err != nil {
					return err
				}
				return jobs.WriteAtomic(cp.Path(stateDir), data)
			}); err != nil {
				return err
			}
		}
		if err := os.Remove(cp.Path(stateDir)); err != nil {
			return err
		}
	}
	return nil
}
