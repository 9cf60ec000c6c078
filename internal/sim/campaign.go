// Campaign runner: Monte-Carlo outcome distributions over many
// seeded trials of one (instance, schedule) pair, executed on a
// worker pool with a deterministic merge — like core.SolveAll, the
// aggregate is bit-identical whatever the worker count, because
// workers only fill per-trial slots and a single sequential pass in
// trial order does every floating-point reduction (summaries and the
// energy/makespan outcome histograms alike).
//
// The inner loop is built around the fault-free fast path (see
// Runner.Run): at the reliability targets the paper studies the
// overwhelming majority of trials draw zero faults, replay the
// deterministic fault-free schedule, and therefore cost only one fused
// loop that draws each occurrence value and compares it with its
// attempt's integer threshold, storing nothing; the worker then copies
// the precomputed fault-free slot. The event heap runs solely for the
// faulty minority, whose workers also locate the outcome histogram
// buckets, so the sequential merge only adds and counts — it does no
// bucket search. Worker Runners are Clones sharing the immutable
// per-attempt tables, their scratch slab-allocated in one block per
// type, and the whole campaign state is retained on the base Runner,
// so repeated campaigns run with near-zero steady-state allocation.
package sim

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"energysched/internal/core"
	"energysched/internal/hist"
	"energysched/internal/schedule"
)

// chunk is the number of consecutive trials a worker claims at once:
// large enough to amortize the atomic claim, small enough to balance
// tail latency.
const chunk = 64

// MaxCampaignTrials caps the campaign size a single request may ask
// for — shared by cmd/energysim's -trials validation and the
// service's default MaxTrials, so the CLI and the daemon enforce the
// same ceiling.
const MaxCampaignTrials = 200_000

// MaxJobCampaignTrials caps the campaign size an asynchronous job may
// ask for. Jobs run chunked with flat memory and survive restarts, so
// their ceiling is set by patience, not RAM — 25× the synchronous
// in-request cap. Shared by the service's job endpoint and
// cmd/energysim -job validation.
const MaxJobCampaignTrials = 5_000_000

// CampaignOptions tunes RunCampaign.
type CampaignOptions struct {
	// Trials is the number of simulated runs (required, > 0).
	Trials int
	// Seed addresses the fault streams: trial t draws from
	// rng.At(Seed, t) regardless of worker count.
	Seed int64
	// Policy is the recovery policy (default PolicySameSpeed).
	Policy Policy
	// WorstCase replays every scheduled execution (see Options).
	WorstCase bool
	// DisableFaults turns the injector off for every trial.
	DisableFaults bool
	// Workers caps the worker pool (default GOMAXPROCS).
	Workers int
	// DisableFastPath forces every trial through the event heap (see
	// Options.DisableFastPath).
	DisableFastPath bool
}

// Summary condenses one observed metric across the campaign.
type Summary struct {
	Mean float64 `json:"mean"`
	Min  float64 `json:"min"`
	Max  float64 `json:"max"`
}

// Campaign is the aggregate of a RunCampaign call, JSON-ready for the
// CLI and the service.
type Campaign struct {
	Trials int `json:"trials"`
	// TrialsRequested is the campaign size the caller asked for; it is
	// only set (and only differs from Trials) on chunked campaigns,
	// where the sequential-confidence stopping rule may finish the
	// campaign with fewer trials than requested.
	TrialsRequested int `json:"trialsRequested,omitempty"`
	// StoppedEarly marks a chunked campaign ended by the stopping rule
	// before TrialsRequested trials ran.
	StoppedEarly bool `json:"stoppedEarly,omitempty"`
	// CIHalfWidth is the Wilson confidence-interval half-width on the
	// success rate at the campaign's confidence level, reported by
	// chunked campaigns (the quantity the stopping rule drives below
	// epsilon).
	CIHalfWidth    float64 `json:"ciHalfWidth,omitempty"`
	Seed           int64   `json:"seed"`
	Policy         string  `json:"policy"`
	WorstCase      bool    `json:"worstCase,omitempty"`
	Successes      int     `json:"successes"`
	SuccessRate    float64 `json:"successRate"`
	DeadlineMisses int     `json:"deadlineMisses"`
	Reexecutions   int64   `json:"reexecutions"`
	Faults         int64   `json:"faults"`
	// FaultFreeTrials counts trials in which no execution attempt
	// faulted — exactly the trials the fast path can serve. The count
	// is derived from the merged outcomes, so it is identical whether
	// the fast path ran or the event heap replayed every trial.
	FaultFreeTrials int `json:"faultFreeTrials"`
	// FaultFreeRate is FaultFreeTrials over Trials: the fast-path hit
	// rate of the campaign.
	FaultFreeRate float64 `json:"faultFreeRate"`
	Energy        Summary `json:"energy"`
	Makespan      Summary `json:"makespan"`
	// EnergyHist and MakespanHist are log-bucket histograms of the
	// observed outcome distributions (scale-free geometric grid,
	// conservative p50/p99), streamed by the deterministic merge.
	EnergyHist   *hist.JSON `json:"energyHistogram"`
	MakespanHist *hist.JSON `json:"makespanHistogram"`
	// Predicted is the closed-form counterpart of the observed
	// distribution, for predicted-vs-observed reporting.
	Predicted Prediction `json:"predicted"`
	// Profile carries the campaign's per-phase wall-clock timing. It is
	// excluded from the Campaign's own JSON — the marshalled Campaign is
	// deterministic in (instance, options) and equivalence-tested
	// byte-for-byte across fast-path and worker-count settings, which
	// wall time would break — and surfaced instead as a sibling field by
	// /v1/simulate and cmd/energysim.
	Profile CampaignProfile `json:"-"`
}

// CampaignProfile is the per-phase timing of one RunCampaign call: how
// the wall clock split between the parallel trials phase and the
// sequential merge, and how many trials the fault-free fast path
// served versus the event heap. Nondeterministic by nature, so it
// never participates in campaign caching or equivalence.
type CampaignProfile struct {
	// TrialsNs is the wall time of the parallel trial phase (pool launch
	// to drain); MergeNs is the sequential deterministic reduction.
	TrialsNs int64 `json:"trialsNs"`
	MergeNs  int64 `json:"mergeNs"`
	// FastPathTrials counts trials served by the precomputed fault-free
	// outcome; HeapTrials ran the event heap.
	FastPathTrials int64 `json:"fastPathTrials"`
	HeapTrials     int64 `json:"heapTrials"`
	// Workers is the resolved pool size the campaign ran with.
	Workers int `json:"workers"`
}

// Delta quantifies how far the observed campaign strayed from the
// closed-form prediction; it is the shared report block of
// cmd/energysim and POST /v1/simulate.
type Delta struct {
	// EnergyPct is the relative deviation (percent) of the observed
	// mean energy from the analytic expectation under the policy.
	EnergyPct float64 `json:"energyPct"`
	// MakespanPct is the relative deviation (percent) of the observed
	// mean makespan from the schedule's predicted makespan.
	MakespanPct float64 `json:"makespanPct"`
	// ReliabilityAbs is the absolute deviation of the observed success
	// rate from the closed-form schedule reliability.
	ReliabilityAbs float64 `json:"reliabilityAbs"`
}

// Delta derives the predicted-vs-observed deviations of the campaign.
func (c *Campaign) Delta() Delta {
	return Delta{
		EnergyPct:      pct(c.Energy.Mean, c.Predicted.ExpectedEnergy),
		MakespanPct:    pct(c.Makespan.Mean, c.Predicted.Makespan),
		ReliabilityAbs: c.SuccessRate - c.Predicted.Reliability,
	}
}

// pct returns the relative deviation of observed from predicted in
// percent; a zero prediction (nothing was promised) reports 0.
func pct(observed, predicted float64) float64 {
	if predicted == 0 {
		return 0
	}
	return (observed/predicted - 1) * 100
}

// trialSlot is one trial's condensed outcome; workers write disjoint
// slots, the merge reads them in trial order. The histogram bucket
// indices of energy and makespan over hist.OutcomeBounds (481 edges,
// so they fit uint16) ride in what would otherwise be padding: the
// slot stays 32 bytes.
type trialSlot struct {
	energy   float64
	makespan float64
	reexec   int32
	faults   int32
	eBucket  uint16
	mBucket  uint16
	flags    uint8 // bit 0: succeeded, bit 1: deadline met
}

// newTrialSlot condenses an outcome into its slot, bucket indices
// included.
func newTrialSlot(o *Outcome) trialSlot {
	var flags uint8
	if o.Succeeded {
		flags |= 1
	}
	if o.DeadlineMet {
		flags |= 2
	}
	bounds := hist.OutcomeBounds()
	return trialSlot{
		energy:   o.Energy,
		makespan: o.Makespan,
		reexec:   int32(o.Reexecutions),
		faults:   int32(o.Faults),
		eBucket:  uint16(hist.BucketIndex(bounds, o.Energy)),
		mBucket:  uint16(hist.BucketIndex(bounds, o.Makespan)),
		flags:    flags,
	}
}

// campaignScratch is the reusable campaign state a Runner retains
// across RunCampaign calls: worker clones with slab-allocated
// per-trial scratch, per-worker traces, the trial-slot array and the
// outcome histograms. It grows monotonically — a campaign needing
// more workers or trials than any before it reallocates, every other
// campaign reuses.
type campaignScratch struct {
	clones []*Runner
	traces []Trace
	slots  []trialSlot
	eHist  *hist.Histogram
	mHist  *hist.Histogram
}

// campaignScratchFor returns the runner's campaign scratch, grown to
// hold workers goroutines and trials slots. Worker 0 is the base
// runner itself; clones cover the rest, with each scratch type
// allocated as one slab sliced across the clones.
func (r *Runner) campaignScratchFor(workers, trials int) *campaignScratch {
	cs := r.camp
	if cs == nil {
		cs = &campaignScratch{
			eHist: hist.New(hist.OutcomeBounds()),
			mHist: hist.New(hist.OutcomeBounds()),
		}
		r.camp = cs
	}
	if need := workers - 1; len(cs.clones) < need {
		n := len(r.first)
		hc := cap(r.heap)
		slab := make([]Runner, need)
		indeg := make([]int32, need*n)
		done := make([]bool, need*n)
		xs := make([]uint64, 2*need*n)
		heaps := make([]event, need*hc)
		clones := make([]*Runner, need)
		for w := 0; w < need; w++ {
			c := &slab[w]
			// Same table sharing as Clone, scratch carved from slabs.
			*c = *r
			c.camp = nil
			c.indeg = indeg[w*n : (w+1)*n]
			c.done = done[w*n : (w+1)*n]
			c.x = xs[2*w*n : 2*(w+1)*n]
			c.heap = heaps[w*hc : w*hc : (w+1)*hc]
			clones[w] = c
		}
		cs.clones = clones
	}
	if len(cs.traces) < workers {
		cs.traces = make([]Trace, workers)
	}
	if cap(cs.slots) < trials {
		cs.slots = make([]trialSlot, trials)
	}
	cs.slots = cs.slots[:trials]
	return cs
}

// RunCampaign executes trials seeded runs of the runner's schedule
// under its Options (seed, policy, worst-case, fault injection) on a
// worker pool and aggregates the outcome distribution. Trial t always
// draws from stream (Seed, t), and the reduction runs sequentially in
// trial order after the pool drains, so the returned Campaign is
// bit-identical across worker counts. workers <= 0 defaults to
// GOMAXPROCS. The runner retains its campaign scratch, so repeated
// campaigns on one Runner allocate only the returned Campaign and its
// histogram snapshots. Cancelling the context aborts the campaign
// with the context's error.
func (r *Runner) RunCampaign(ctx context.Context, trials, workers int) (*Campaign, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if trials <= 0 {
		return nil, fmt.Errorf("sim: trials must be positive, got %d", trials)
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if max := (trials + chunk - 1) / chunk; workers > max {
		workers = max
	}
	cs := r.campaignScratchFor(workers, trials)
	slots := cs.slots
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(workers)
	trialsStart := time.Now()
	for w := 0; w < workers; w++ {
		rn := r
		if w > 0 {
			rn = cs.clones[w-1]
		}
		rn.fastServed = 0
		go campaignWorker(ctx, rn, &cs.traces[w], slots, &next, &wg)
	}
	wg.Wait()
	trialsNs := time.Since(trialsStart).Nanoseconds()
	if err := ctx.Err(); err != nil {
		return nil, err
	}

	mergeStart := time.Now()
	cs.eHist.Reset()
	cs.mHist.Reset()
	st := emptyCampaignState()
	mergeChunk(&st, slots, cs.eHist, cs.mHist)
	c := r.newCampaign(&st, cs.eHist, cs.mHist)
	fastServed := r.fastServed
	for w := 1; w < workers; w++ {
		fastServed += cs.clones[w-1].fastServed
	}
	c.Profile = CampaignProfile{
		TrialsNs:       trialsNs,
		MergeNs:        time.Since(mergeStart).Nanoseconds(),
		FastPathTrials: fastServed,
		HeapTrials:     int64(trials) - fastServed,
		Workers:        workers,
	}
	return c, nil
}

// campaignWorker drains chunks of trials into their slots until the
// claim counter runs past the end or the context is cancelled.
func campaignWorker(ctx context.Context, r *Runner, tr *Trace, slots []trialSlot, next *atomic.Int64, wg *sync.WaitGroup) {
	defer wg.Done()
	runClaims(ctx, r, tr, slots, 0, next)
}

// runClaims is the shared claim loop of the whole-campaign and chunked
// worker pools: claim chunk-sized runs of slot indices until the
// counter runs past len(slots) or the context is cancelled, executing
// trial base+i into slots[i].
func runClaims(ctx context.Context, r *Runner, tr *Trace, slots []trialSlot, base int, next *atomic.Int64) {
	n := len(slots)
	for {
		lo := int(next.Add(chunk)) - chunk
		if lo >= n || ctx.Err() != nil {
			return
		}
		hi := lo + chunk
		if hi > n {
			hi = n
		}
		for t := lo; t < hi; t++ {
			if r.fastTrial(base + t) {
				slots[t] = r.ffSlot
				continue
			}
			r.heapTrial(base+t, tr)
			slots[t] = newTrialSlot(&tr.Outcome)
		}
	}
}

// RunCampaign validates the (instance, schedule) pairing, builds a
// Runner and executes opts.Trials seeded runs on a worker pool; see
// Runner.RunCampaign for the determinism contract. Callers running
// many campaigns on one pairing should hold a Runner and call its
// RunCampaign directly to amortize setup.
func RunCampaign(ctx context.Context, in *core.Instance, s *schedule.Schedule, opts CampaignOptions) (*Campaign, error) {
	base, err := NewRunner(in, s, Options{
		Policy:          opts.Policy,
		Seed:            opts.Seed,
		WorstCase:       opts.WorstCase,
		DisableFaults:   opts.DisableFaults,
		DisableFastPath: opts.DisableFastPath,
	})
	if err != nil {
		return nil, err
	}
	return base.RunCampaign(ctx, opts.Trials, opts.Workers)
}
