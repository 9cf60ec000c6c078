// Campaign runner: Monte-Carlo outcome distributions over many
// seeded trials of one (instance, schedule) pair. Every campaign runs
// on the one worker pool of the chunked engine (chunked.go) with a
// deterministic merge — like core.SolveAll, the aggregate is
// bit-identical whatever the worker count, because workers only fill
// per-trial slots and a single sequential pass in trial order does
// every floating-point reduction (summaries and the energy/makespan
// outcome histograms alike).
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

	"energysched/internal/core"
	"energysched/internal/hist"
	"energysched/internal/schedule"
)

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

// RunCampaign executes trials seeded runs of the runner's schedule
// under its Options (seed, policy, worst-case, fault injection) and
// aggregates the outcome distribution. It is the chunked engine
// (RunCampaignChunked) at the default chunk size with no stopping
// rule and no resume, minus the chunked-only reporting fields, so
// trial t always draws from stream (Seed, t) and the returned Campaign
// is bit-identical across worker counts. workers <= 0 defaults to
// GOMAXPROCS. The runner retains its campaign scratch, so repeated
// campaigns on one Runner allocate only the pool's goroutines and
// channel, the returned Campaign and its histogram snapshots.
// Cancelling the context aborts the campaign with the context's error.
func (r *Runner) RunCampaign(ctx context.Context, trials, workers int) (*Campaign, error) {
	c, err := r.RunCampaignChunked(ctx, ChunkedOptions{Trials: trials, Workers: workers})
	if err != nil {
		return nil, err
	}
	c.TrialsRequested, c.StoppedEarly, c.CIHalfWidth = 0, false, 0
	return c, nil
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
