package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"strconv"
	"time"

	"energysched/internal/core"
	"energysched/internal/dag"
	"energysched/internal/loadgen"
	"energysched/internal/model"
	"energysched/internal/platform"
	"energysched/internal/rng"
	genwl "energysched/internal/workload"
)

// event is one open-loop request: POST body to /v1/<kind>, due at
// offset at from the start of the timed phase.
type event struct {
	at   time.Duration
	kind string
	body []byte
}

// Sizing of the three workloads (see README.md for how each was
// chosen). Rates are offered loads, not targets the run adapts to.
const (
	hotRate     = 400 // req/s, hot-cluster
	hotPool     = 48  // distinct bi-crit n=12 instances
	hotTrials   = 200 // simulate campaign size
	hotBatch    = 3   // instances per batch
	coldRate    = 100 // req/s, cold-single
	coldN       = 24  // tasks per bi-crit instance
	coldTriN    = 12  // tasks per tri-crit instance
	coldBatch   = 4   // fresh instances per batch
	coldTrials  = 20000
	coldSimPool = 8 // tri-crit instances the simulate requests share
	jobChainN   = 32
	jobPoll     = 5 * time.Millisecond
)

// Job regimes: the same chain at two fault rates, sized so each job
// takes about half a second on the machine the benchmark was sized on.
var jobRegimes = []struct {
	name    string
	lambda0 float64
	trials  int
}{
	{"fast", 1e-5, 2_000_000},
	{"heap", 1e-3, 350_000},
}

// hotEvents is the hot-cluster stream: loadgen's seeded open-loop
// trace (IPPP thinning at a constant rate) over a small pool, so after
// warm-up nearly every request is a cache hit.
func hotEvents(seed int64, seconds float64) ([]event, error) {
	tr, err := loadgen.Generate(loadgen.Spec{
		Seed:      seed,
		DurationS: seconds,
		Profile:   loadgen.Profile{Kind: loadgen.ProfileConstant, RatePerSec: hotRate},
		Mix:       loadgen.Mix{Solve: 0.7, Batch: 0.1, Simulate: 0.2, Repeat: 0.95},
		N:         12,
		Trials:    hotTrials,
		BatchSize: hotBatch,
		PoolSize:  hotPool,
	})
	if err != nil {
		return nil, err
	}
	// Repeats share one copy of their body, so the benchmark's own heap
	// stays small next to the stack's.
	bodies := map[string][]byte{}
	evs := make([]event, len(tr.Events))
	for i, e := range tr.Events {
		b, ok := bodies[string(e.Body)]
		if !ok {
			b = e.Body
			bodies[string(b)] = b
		}
		evs[i] = event{at: time.Duration(e.AtUs) * time.Microsecond, kind: e.Kind, body: b}
	}
	return evs, nil
}

// coldSpec is the instance construction of cold-single: loadgen's
// pool recipe (seeded class graph, critical-path mapping, continuous
// speeds) under a base seed derived from the workload seed and a
// stream tag, so bi-crit, tri-crit and simulate instances never share
// an index space.
func coldSpec(seed int64, tag, n int) loadgen.Spec {
	return loadgen.Spec{Seed: loadgen.PoolSeed(seed, tag), N: n}
}

// triCrit adds the repository's default reliability model to a pool
// instance.
func triCrit(raw []byte) ([]byte, error) {
	in, err := core.UnmarshalInstance(raw)
	if err != nil {
		return nil, err
	}
	rel := model.DefaultReliability(in.Speed.FMin, in.Speed.FMax)
	in.Rel = &rel
	in.FRel = 0.8 * in.Speed.FMax
	return core.MarshalInstance(in)
}

// coldSimInstances are the tri-crit instances every cold-single
// simulate request draws from; set-up solves them.
func coldSimInstances(seed int64) ([][]byte, error) {
	out := make([][]byte, coldSimPool)
	for i := range out {
		raw, err := loadgen.PoolInstance(coldSpec(seed, 3, coldTriN), i)
		if err != nil {
			return nil, err
		}
		if out[i], err = triCrit(raw); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// coldEvents is the cold-single stream: Poisson arrivals at coldRate
// from stream (seed, 0), kinds from stream (seed, 1), and a fresh
// instance for every solve and batch item, so nearly every request
// misses the cache.
func coldEvents(seed int64, seconds float64, sims [][]byte) ([]event, error) {
	arrivals := rng.At(seed, 0)
	draws := rng.At(seed, 1)
	var (
		evs        []event
		bi, tri, s int // next fresh index per instance stream
	)
	fresh := func() ([]byte, error) {
		bi++
		return loadgen.PoolInstance(coldSpec(seed, 1, coldN), bi-1)
	}
	for t := 0.0; ; {
		t += -math.Log1p(-arrivals.Float64()) / coldRate
		if t >= seconds {
			break
		}
		var (
			kind string
			body []byte
			err  error
		)
		switch u := draws.Float64(); {
		case u < 0.45:
			kind = loadgen.KindSolve
			var in []byte
			if in, err = fresh(); err == nil {
				body, err = marshalBody(map[string]any{"instance": json.RawMessage(in)})
			}
		case u < 0.55:
			kind = loadgen.KindSolve
			var raw []byte
			if raw, err = loadgen.PoolInstance(coldSpec(seed, 2, coldTriN), tri); err == nil {
				tri++
				if raw, err = triCrit(raw); err == nil {
					body, err = marshalBody(map[string]any{"instance": json.RawMessage(raw)})
				}
			}
		case u < 0.70:
			kind = loadgen.KindBatch
			items := make([]json.RawMessage, coldBatch)
			for j := range items {
				if items[j], err = fresh(); err != nil {
					break
				}
			}
			if err == nil {
				body, err = marshalBody(map[string]any{"instances": items})
			}
		default:
			kind = loadgen.KindSimulate
			body, err = marshalBody(map[string]any{
				"instance": json.RawMessage(sims[int(draws.Float64()*coldSimPool)]),
				"trials":   coldTrials,
				"simSeed":  loadgen.PoolSeed(seed, 1<<20+s),
			})
			s++
		}
		if err != nil {
			return nil, fmt.Errorf("cold-single event %d: %w", len(evs), err)
		}
		evs = append(evs, event{at: time.Duration(t * float64(time.Second)), kind: kind, body: body})
	}
	return evs, nil
}

// chainInstance is a campaign-jobs instance: a tri-crit chain of n
// seeded uniform-weight tasks on one processor at fault rate lambda0.
func chainInstance(seed int64, n int, lambda0 float64) (*core.Instance, error) {
	ws := genwl.UniformWeights.Weights(rand.New(rand.NewSource(seed)), n)
	g := dag.ChainGraph(ws...)
	mp, err := platform.SingleProcessor(g)
	if err != nil {
		return nil, err
	}
	sm, err := model.NewContinuous(0.1, 1.0)
	if err != nil {
		return nil, err
	}
	sum := 0.0
	for _, w := range ws {
		sum += w
	}
	rel := model.Reliability{Lambda0: lambda0, Sensitivity: 3, FMin: sm.FMin, FMax: sm.FMax}
	return &core.Instance{Graph: g, Mapping: mp, Speed: sm, Deadline: sum / sm.FMax * 2.5,
		Rel: &rel, FRel: 0.8 * sm.FMax}, nil
}

// jobInstances returns the marshalled chain of each regime.
func jobInstances(seed int64) ([][]byte, error) {
	out := make([][]byte, len(jobRegimes))
	for i, rg := range jobRegimes {
		in, err := chainInstance(loadgen.PoolSeed(seed, 4), jobChainN, rg.lambda0)
		if err != nil {
			return nil, err
		}
		if out[i], err = core.MarshalInstance(in); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// jobBody is the j-th job of the closed loop: regimes alternate and
// every job has a fresh simSeed, so no submission dedupes onto an
// earlier job.
func jobBody(seed int64, instances [][]byte, j int) (regime int, simSeed int64, body []byte, err error) {
	regime = j % len(jobRegimes)
	simSeed = loadgen.PoolSeed(seed, 1<<21+j)
	body, err = marshalBody(map[string]any{
		"instance": json.RawMessage(instances[regime]),
		"trials":   jobRegimes[regime].trials,
		"simSeed":  simSeed,
	})
	return regime, simSeed, body, err
}

// marshalBody renders a request body; encoding/json sorts map keys, so
// the bytes are a pure function of the contents.
func marshalBody(m map[string]any) ([]byte, error) { return json.Marshal(m) }

// streamDigest fingerprints a request stream — offsets, kinds and
// bodies — so two runs can show they sent byte-identical requests.
func streamDigest(evs []event) string {
	h := sha256.New()
	var buf [8]byte
	for _, e := range evs {
		binary.LittleEndian.PutUint64(buf[:], uint64(e.at))
		h.Write(buf[:])
		h.Write([]byte(e.kind + "\x00" + strconv.Itoa(len(e.body)) + "\x00"))
		h.Write(e.body)
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}
