// Chunked campaign execution: the one campaign engine. Trials are
// processed in fixed-size chunks on a worker pool spawned once per
// campaign; each chunk's trial-slot array is merged, in trial order,
// into a running CampaignState, so memory is flat at any trial count
// and the final Campaign does not depend on the chunk size.
// RunCampaign is this engine at the default chunk size with no
// stopping rule and no resume; jobs add checkpoints and the stopping
// rule. Because trial t owns the counter-split stream (Seed, t)
// regardless of which process runs it, a campaign resumed from a
// serialized CampaignState at a chunk boundary is byte-identical to
// one that never stopped — the property internal/jobs builds
// crash-safe campaign jobs on.
//
// On top of the chunk loop sits a sequential-confidence stopping
// rule: when the Wilson confidence-interval half-width on the
// observed success rate falls below Epsilon, the campaign stops and
// reports how many trials it actually ran versus how many were
// requested. At realistic reliability targets most campaigns resolve
// in a small fraction of their requested trials.
package sim

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"energysched/internal/core"
	"energysched/internal/hist"
	"energysched/internal/schedule"
)

// DefaultChunkSize is the chunked-campaign chunk size when
// ChunkedOptions leaves it zero: large enough that per-chunk
// coordination is noise, small enough that checkpoints are frequent
// and the stopping rule reacts quickly.
const DefaultChunkSize = 4096

// DefaultMinStopTrials is the floor below which the stopping rule
// never fires: Wilson intervals on a handful of trials are honest but
// useless, and stopping a campaign on them would be noise-driven.
const DefaultMinStopTrials = 1000

// CampaignState is the merged aggregate of every completed chunk of a
// chunked campaign — everything the sequential reduction has folded
// so far, in a form that serializes to JSON and restores without
// loss. Counts are integers; the float sums round-trip exactly
// through Go's shortest-form float encoding; histograms carry raw
// bucket counters (hist.State). A campaign resumed from a restored
// CampaignState is therefore bit-identical to one that never stopped.
type CampaignState struct {
	// TrialsRun is the number of trials merged so far; on a checkpoint
	// it always sits at a chunk boundary.
	TrialsRun       int   `json:"trialsRun"`
	Successes       int   `json:"successes"`
	DeadlineMisses  int   `json:"deadlineMisses"`
	Reexecutions    int64 `json:"reexecutions"`
	Faults          int64 `json:"faults"`
	FaultFreeTrials int   `json:"faultFreeTrials"`

	SumEnergy   float64 `json:"sumEnergy"`
	MinEnergy   float64 `json:"minEnergy"`
	MaxEnergy   float64 `json:"maxEnergy"`
	SumMakespan float64 `json:"sumMakespan"`
	MinMakespan float64 `json:"minMakespan"`
	MaxMakespan float64 `json:"maxMakespan"`

	Energy   *hist.State `json:"energy"`
	Makespan *hist.State `json:"makespan"`
}

// Validate rejects states no chunked campaign could have produced —
// the cheap structural checks a checkpoint parser applies before
// trusting a file that claims to be resumable.
func (st *CampaignState) Validate() error {
	if st.TrialsRun <= 0 {
		return fmt.Errorf("sim: campaign state has %d trials run", st.TrialsRun)
	}
	if st.Successes < 0 || st.Successes > st.TrialsRun {
		return fmt.Errorf("sim: campaign state has %d successes out of %d trials", st.Successes, st.TrialsRun)
	}
	if st.DeadlineMisses < 0 || st.DeadlineMisses > st.TrialsRun {
		return fmt.Errorf("sim: campaign state has %d deadline misses out of %d trials", st.DeadlineMisses, st.TrialsRun)
	}
	if st.FaultFreeTrials < 0 || st.FaultFreeTrials > st.TrialsRun {
		return fmt.Errorf("sim: campaign state has %d fault-free trials out of %d", st.FaultFreeTrials, st.TrialsRun)
	}
	if st.Reexecutions < 0 || st.Faults < 0 {
		return fmt.Errorf("sim: campaign state has negative fault counters")
	}
	for _, v := range []float64{st.SumEnergy, st.MinEnergy, st.MaxEnergy, st.SumMakespan, st.MinMakespan, st.MaxMakespan} {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("sim: campaign state has non-finite summary value")
		}
	}
	if st.Energy == nil || st.Makespan == nil {
		return fmt.Errorf("sim: campaign state is missing outcome histograms")
	}
	return nil
}

// ChunkedOptions tunes one RunCampaignChunked call. Trials is
// required; every other field has a usable zero.
type ChunkedOptions struct {
	// Trials is the requested campaign size (> 0). The stopping rule
	// may finish with fewer.
	Trials int
	// Workers caps the worker pool (default GOMAXPROCS, clamped to the
	// chunk's parallelism).
	Workers int
	// ChunkSize is the number of trials per chunk (default
	// DefaultChunkSize). Checkpoints and the stopping rule operate at
	// chunk boundaries, so it is part of a campaign's identity: the
	// same knobs with a different chunk size may stop at a different
	// trial count.
	ChunkSize int
	// Epsilon, when positive, enables the sequential-confidence
	// stopping rule: the campaign ends once the Wilson CI half-width
	// on the success rate is at most Epsilon (and at least MinTrials
	// trials ran).
	Epsilon float64
	// Confidence is the CI confidence level for the stopping rule and
	// the reported CIHalfWidth: one of 0.90, 0.95, 0.99, 0.999
	// (default 0.99).
	Confidence float64
	// MinTrials is the floor before the stopping rule may fire
	// (default DefaultMinStopTrials, clamped to Trials).
	MinTrials int
	// StartChunk resumes the campaign at this chunk index; chunks
	// [0, StartChunk) must be summarized by Resume. Zero starts fresh.
	StartChunk int
	// Resume is the merged state of the chunks before StartChunk,
	// exactly as a prior OnChunk delivered it.
	Resume *CampaignState
	// OnChunk, when set, is called after each completed chunk with the
	// index of the next chunk to run and a freshly materialized state
	// snapshot — everything a checkpoint needs. Returning an error
	// aborts the campaign with that error.
	OnChunk func(nextChunk int, st *CampaignState) error
}

// zTable maps the supported confidence levels to their two-sided
// normal quantiles. Fixed constants, so the stopping decision is
// deterministic across platforms.
var zTable = map[float64]float64{
	0.90:  1.6448536269514722,
	0.95:  1.959963984540054,
	0.99:  2.5758293035489004,
	0.999: 3.2905267314919255,
}

// ZForConfidence resolves a confidence level to its normal quantile;
// zero picks the 0.99 default. Unsupported levels are rejected rather
// than interpolated so two services can never silently disagree on a
// stopping decision.
func ZForConfidence(conf float64) (float64, error) {
	if conf == 0 {
		conf = 0.99
	}
	z, ok := zTable[conf]
	if !ok {
		return 0, fmt.Errorf("sim: unsupported confidence %v (have 0.90, 0.95, 0.99, 0.999)", conf)
	}
	return z, nil
}

// WilsonHalfWidth is the half-width of the Wilson score interval for
// s successes in n trials at normal quantile z — the stopping-rule
// statistic, exported so progress reports compute the same number the
// rule tests.
func WilsonHalfWidth(s, n int, z float64) float64 {
	if n <= 0 {
		return 1
	}
	nf := float64(n)
	p := float64(s) / nf
	z2 := z * z
	return z / (1 + z2/nf) * math.Sqrt(p*(1-p)/nf+z2/(4*nf*nf))
}

// claimSize is the number of consecutive trials a worker claims at
// once: large enough to amortize the atomic claim, small enough to
// balance tail latency.
const claimSize = 64

// campaignScratch is the campaign state a Runner retains across
// campaigns, and the worker pool every campaign runs on. The
// per-worker runners (the owning Runner, then clones with
// slab-allocated per-trial scratch) and traces, the trial-slot array
// of one chunk and the outcome histograms grow monotonically — a
// campaign needing more workers or slots than any before it
// reallocates, every other campaign reuses. The pool state is reset
// by each campaign: its goroutines are spawned once per campaign and
// woken per chunk through a shared token channel, so running another
// chunk allocates nothing — the property that keeps a 1M-trial
// campaign's allocations independent of its trial count.
type campaignScratch struct {
	runners []*Runner // worker w runs runners[w]
	traces  []Trace
	slots   []trialSlot // capacity one chunk; re-sliced per chunk
	eHist   *hist.Histogram
	mHist   *hist.Histogram

	ctx     context.Context
	workers int
	base    int // first trial of the current chunk
	next    atomic.Int64
	work    chan struct{} // one token per worker per chunk
	chunkWG sync.WaitGroup
	exitWG  sync.WaitGroup
}

// campaignScratchFor returns the runner's campaign scratch, grown to
// hold workers runners and slots trial slots. Runner 0 is the base
// runner itself; clones cover the rest, with each scratch type
// allocated as one slab sliced across the clones.
func (r *Runner) campaignScratchFor(workers, slots int) *campaignScratch {
	cs := r.camp
	if cs == nil {
		cs = &campaignScratch{
			eHist: hist.New(hist.OutcomeBounds()),
			mHist: hist.New(hist.OutcomeBounds()),
		}
		r.camp = cs
	}
	if len(cs.runners) < workers {
		need := workers - 1
		n := len(r.first)
		hc := cap(r.heap)
		slab := make([]Runner, need)
		indeg := make([]int32, need*n)
		done := make([]bool, need*n)
		xs := make([]uint64, 2*need*n)
		heaps := make([]event, need*hc)
		runners := make([]*Runner, workers)
		runners[0] = r
		for w := 0; w < need; w++ {
			c := &slab[w]
			// Same table sharing as Clone, scratch carved from slabs.
			*c = *r
			c.camp = nil
			c.indeg = indeg[w*n : (w+1)*n]
			c.done = done[w*n : (w+1)*n]
			c.x = xs[2*w*n : 2*(w+1)*n]
			c.heap = heaps[w*hc : w*hc : (w+1)*hc]
			runners[w+1] = c
		}
		cs.runners = runners
	}
	if len(cs.traces) < workers {
		cs.traces = make([]Trace, workers)
	}
	if cap(cs.slots) < slots {
		cs.slots = make([]trialSlot, slots)
	}
	return cs
}

// start resets the pool for one campaign and launches its goroutines,
// one per worker.
func (cs *campaignScratch) start(ctx context.Context, workers int) {
	cs.ctx, cs.workers = ctx, workers
	cs.work = make(chan struct{}, workers)
	for _, rn := range cs.runners[:workers] {
		rn.fastServed = 0
	}
	cs.exitWG.Add(workers)
	for w := 0; w < workers; w++ {
		go cs.worker(w)
	}
}

func (cs *campaignScratch) worker(w int) {
	defer cs.exitWG.Done()
	for range cs.work {
		cs.runClaims(cs.runners[w], &cs.traces[w])
		cs.chunkWG.Done()
	}
}

// runClaims claims claimSize-long runs of slot indices until the
// counter runs past the chunk or the context is cancelled, executing
// trial base+i into slots[i].
func (cs *campaignScratch) runClaims(r *Runner, tr *Trace) {
	n := len(cs.slots)
	for {
		lo := int(cs.next.Add(claimSize)) - claimSize
		if lo >= n || cs.ctx.Err() != nil {
			return
		}
		hi := min(lo+claimSize, n)
		for t := lo; t < hi; t++ {
			if r.fastTrial(cs.base + t) {
				cs.slots[t] = r.ffSlot
				continue
			}
			r.heapTrial(cs.base+t, tr)
			cs.slots[t] = newTrialSlot(&tr.Outcome)
		}
	}
}

// runChunk executes trials [base, base+count) into slots[:count].
func (cs *campaignScratch) runChunk(base, count int) {
	cs.base = base
	cs.slots = cs.slots[:count]
	cs.next.Store(0)
	cs.chunkWG.Add(cs.workers)
	for range cs.workers {
		cs.work <- struct{}{}
	}
	cs.chunkWG.Wait()
}

// stop ends the campaign's goroutines and waits for them to exit.
func (cs *campaignScratch) stop() {
	close(cs.work)
	cs.exitWG.Wait()
	cs.ctx = nil // the scratch outlives the campaign; do not retain its context
}

// RunCampaignChunked executes up to opts.Trials seeded runs of the
// runner's schedule in fixed-size chunks, merging each chunk into a
// running CampaignState so memory stays flat at any trial count, and
// stopping early once the Wilson CI half-width on the success rate
// reaches opts.Epsilon. The returned Campaign is bit-identical to
// RunCampaign over the same trial count (modulo the chunked-only
// reporting fields), whatever the worker count, chunk size or resume
// point — see chunked_test.go for the gates. Cancelling the context
// aborts between chunk claims with the context's error; no partially
// merged chunk is ever observable.
func (r *Runner) RunCampaignChunked(ctx context.Context, opts ChunkedOptions) (*Campaign, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	trials := opts.Trials
	if trials <= 0 {
		return nil, fmt.Errorf("sim: trials must be positive, got %d", trials)
	}
	cs := opts.ChunkSize
	if cs <= 0 {
		cs = DefaultChunkSize
	}
	z, err := ZForConfidence(opts.Confidence)
	if err != nil {
		return nil, err
	}
	if opts.Epsilon < 0 || opts.Epsilon >= 1 {
		return nil, fmt.Errorf("sim: epsilon must be in [0, 1), got %v", opts.Epsilon)
	}
	minTrials := opts.MinTrials
	if minTrials <= 0 {
		minTrials = DefaultMinStopTrials
	}
	if minTrials > trials {
		minTrials = trials
	}
	numChunks := (trials + cs - 1) / cs
	if opts.StartChunk < 0 || opts.StartChunk > numChunks {
		return nil, fmt.Errorf("sim: start chunk %d out of range [0, %d]", opts.StartChunk, numChunks)
	}

	// No chunk holds more than min(cs, trials) trials: size the slots
	// to that, and give the pool no more workers than it has claims.
	slots := min(cs, trials)
	workers := opts.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	workers = min(workers, (slots+claimSize-1)/claimSize)
	scratch := r.campaignScratchFor(workers, slots)
	scratch.eHist.Reset()
	scratch.mHist.Reset()

	// The merged aggregate. Resume replays the serialized state into
	// it; a fresh campaign starts from the empty-merge identity.
	st := emptyCampaignState()
	if opts.StartChunk > 0 {
		if opts.Resume == nil {
			return nil, fmt.Errorf("sim: start chunk %d needs a resume state", opts.StartChunk)
		}
		if err := opts.Resume.Validate(); err != nil {
			return nil, err
		}
		want := opts.StartChunk * cs
		if want > trials {
			want = trials
		}
		if opts.Resume.TrialsRun != want {
			return nil, fmt.Errorf("sim: resume state has %d trials, chunk %d of size %d implies %d",
				opts.Resume.TrialsRun, opts.StartChunk, cs, want)
		}
		st = *opts.Resume
		if err := scratch.eHist.Restore(opts.Resume.Energy); err != nil {
			return nil, err
		}
		if err := scratch.mHist.Restore(opts.Resume.Makespan); err != nil {
			return nil, err
		}
	} else if opts.Resume != nil {
		return nil, fmt.Errorf("sim: resume state without a start chunk")
	}

	scratch.start(ctx, workers)
	defer scratch.stop()

	stopEligible := func() bool {
		return opts.Epsilon > 0 && st.TrialsRun >= minTrials &&
			WilsonHalfWidth(st.Successes, st.TrialsRun, z) <= opts.Epsilon
	}

	trialsStart := time.Now()
	var mergeNs int64
	for c := opts.StartChunk; c < numChunks; c++ {
		if stopEligible() {
			break
		}
		base := c * cs
		count := cs
		if base+count > trials {
			count = trials - base
		}
		scratch.runChunk(base, count)
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		mergeStart := time.Now()
		mergeChunk(&st, scratch.slots, scratch.eHist, scratch.mHist)
		mergeNs += time.Since(mergeStart).Nanoseconds()
		if opts.OnChunk != nil {
			snap := st
			snap.Energy = scratch.eHist.State()
			snap.Makespan = scratch.mHist.State()
			if err := opts.OnChunk(c+1, &snap); err != nil {
				return nil, err
			}
		}
	}
	trialsNs := time.Since(trialsStart).Nanoseconds() - mergeNs

	if st.TrialsRun == 0 {
		return nil, fmt.Errorf("sim: campaign ran no trials")
	}
	c := r.newCampaign(&st, scratch.eHist, scratch.mHist)
	c.TrialsRequested = trials
	c.StoppedEarly = st.TrialsRun < trials
	c.CIHalfWidth = WilsonHalfWidth(st.Successes, st.TrialsRun, z)
	var fastServed int64
	for _, rn := range scratch.runners[:workers] {
		fastServed += rn.fastServed
	}
	c.Profile = CampaignProfile{
		TrialsNs:       trialsNs,
		MergeNs:        mergeNs,
		FastPathTrials: fastServed,
		HeapTrials:     int64(st.TrialsRun-chunkResumeTrials(opts)) - fastServed,
		Workers:        workers,
	}
	return c, nil
}

// chunkResumeTrials is how many of the campaign's trials were already
// merged before this process ran any — they contribute to the state
// but not to this run's fast-path/heap accounting.
func chunkResumeTrials(opts ChunkedOptions) int {
	if opts.Resume == nil {
		return 0
	}
	return opts.Resume.TrialsRun
}

// emptyCampaignState is the identity of the merge: no trials, and
// extrema that any first observation replaces.
func emptyCampaignState() CampaignState {
	return CampaignState{
		MinEnergy: math.Inf(1), MaxEnergy: math.Inf(-1),
		MinMakespan: math.Inf(1), MaxMakespan: math.Inf(-1),
	}
}

// mergeChunk folds trial slots — in slot order, which is trial order —
// into the running state, one chunk at a time. It is the one
// sequential reduction of every campaign. The histograms take the
// bucket indices the workers stored in the slots, so the merge does
// no search.
func mergeChunk(st *CampaignState, slots []trialSlot, eHist, mHist *hist.Histogram) {
	for i := range slots {
		slot := &slots[i]
		st.SumEnergy += slot.energy
		st.SumMakespan += slot.makespan
		eHist.ObserveBucket(slot.energy, int(slot.eBucket))
		mHist.ObserveBucket(slot.makespan, int(slot.mBucket))
		if slot.energy < st.MinEnergy {
			st.MinEnergy = slot.energy
		}
		if slot.energy > st.MaxEnergy {
			st.MaxEnergy = slot.energy
		}
		if slot.makespan < st.MinMakespan {
			st.MinMakespan = slot.makespan
		}
		if slot.makespan > st.MaxMakespan {
			st.MaxMakespan = slot.makespan
		}
		st.Reexecutions += int64(slot.reexec)
		st.Faults += int64(slot.faults)
		if slot.faults == 0 {
			st.FaultFreeTrials++
		}
		if slot.flags&1 != 0 {
			st.Successes++
		}
		if slot.flags&2 == 0 {
			st.DeadlineMisses++
		}
	}
	st.TrialsRun += len(slots)
}

// newCampaign renders a merged state (with its histograms) as the
// Campaign report; the chunked-only fields are left to the caller.
func (r *Runner) newCampaign(st *CampaignState, eHist, mHist *hist.Histogram) *Campaign {
	n := float64(st.TrialsRun)
	return &Campaign{
		Trials:          st.TrialsRun,
		Seed:            r.opts.Seed,
		Policy:          r.opts.Policy.String(),
		WorstCase:       r.opts.WorstCase,
		Successes:       st.Successes,
		SuccessRate:     float64(st.Successes) / n,
		DeadlineMisses:  st.DeadlineMisses,
		Reexecutions:    st.Reexecutions,
		Faults:          st.Faults,
		FaultFreeTrials: st.FaultFreeTrials,
		FaultFreeRate:   float64(st.FaultFreeTrials) / n,
		Energy:          Summary{Mean: st.SumEnergy / n, Min: st.MinEnergy, Max: st.MaxEnergy},
		Makespan:        Summary{Mean: st.SumMakespan / n, Min: st.MinMakespan, Max: st.MaxMakespan},
		EnergyHist:      eHist.JSON(),
		MakespanHist:    mHist.JSON(),
		Predicted:       r.Predict(),
	}
}

// RunCampaignChunked validates the (instance, schedule) pairing,
// builds a Runner under opts and executes a chunked campaign; see
// Runner.RunCampaignChunked. Callers running many campaigns on one
// pairing should hold a Runner and call its method directly.
func RunCampaignChunked(ctx context.Context, in *core.Instance, s *schedule.Schedule, opts CampaignOptions, chunked ChunkedOptions) (*Campaign, error) {
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
	if chunked.Trials == 0 {
		chunked.Trials = opts.Trials
	}
	if chunked.Workers == 0 {
		chunked.Workers = opts.Workers
	}
	return base.RunCampaignChunked(ctx, chunked)
}
