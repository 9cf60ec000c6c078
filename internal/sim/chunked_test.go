package sim

import (
	"context"
	"encoding/json"
	"fmt"
	"runtime"
	"testing"

	"energysched/internal/hist"
)

// clearChunkedOnly zeroes the reporting fields only chunked campaigns
// set, so a chunked result can be byte-compared against a plain
// RunCampaign of the same trials.
func clearChunkedOnly(c *Campaign) {
	c.TrialsRequested = 0
	c.StoppedEarly = false
	c.CIHalfWidth = 0
	c.Profile = CampaignProfile{}
}

// TestChunkedMatchesUnchunked is the tentpole equivalence gate: a
// chunked campaign with the stopping rule off must be bit-identical —
// whole Campaign JSON — to the whole-campaign RunCampaign over the
// same trials, including with a chunk size that does not divide the
// trial count.
func TestChunkedMatchesUnchunked(t *testing.T) {
	in := triChain(t, 10, 0.03)
	res := solve(t, in)
	const trials = 3000
	plain, err := RunCampaign(context.Background(), in, res.Schedule, CampaignOptions{Trials: trials, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	for _, cs := range []int{257, 512, 4096} {
		r, err := NewRunner(in, res.Schedule, Options{Seed: 9})
		if err != nil {
			t.Fatal(err)
		}
		chunked, err := r.RunCampaignChunked(context.Background(), ChunkedOptions{Trials: trials, ChunkSize: cs})
		if err != nil {
			t.Fatalf("chunk size %d: %v", cs, err)
		}
		if chunked.TrialsRequested != trials || chunked.StoppedEarly || chunked.Trials != trials {
			t.Fatalf("chunk size %d: unexpected reporting fields %d/%d early=%t",
				cs, chunked.Trials, chunked.TrialsRequested, chunked.StoppedEarly)
		}
		if chunked.Profile.FastPathTrials != plain.Profile.FastPathTrials ||
			chunked.Profile.HeapTrials != plain.Profile.HeapTrials {
			t.Fatalf("chunk size %d: fast/heap split %d/%d differs from plain %d/%d",
				cs, chunked.Profile.FastPathTrials, chunked.Profile.HeapTrials,
				plain.Profile.FastPathTrials, plain.Profile.HeapTrials)
		}
		cc, pc := *chunked, *plain
		clearChunkedOnly(&cc)
		clearChunkedOnly(&pc)
		cj, _ := json.Marshal(&cc)
		pj, _ := json.Marshal(&pc)
		if string(cj) != string(pj) {
			t.Fatalf("chunk size %d: chunked campaign differs from unchunked\nchunked: %s\nplain:   %s", cs, cj, pj)
		}
	}
}

// TestChunkedBitIdenticalAcrossWorkersAndChunks: the full chunked
// Campaign JSON (reporting fields included) must not depend on the
// worker count; and with the stopping rule off it must not depend on
// the chunk size either.
func TestChunkedBitIdenticalAcrossWorkersAndChunks(t *testing.T) {
	in := triChain(t, 10, 0.03)
	res := solve(t, in)
	var ref []byte
	for _, cfg := range []struct{ workers, cs int }{{1, 500}, {8, 500}, {3, 999}, {8, 250}} {
		r, err := NewRunner(in, res.Schedule, Options{Seed: 4})
		if err != nil {
			t.Fatal(err)
		}
		c, err := r.RunCampaignChunked(context.Background(), ChunkedOptions{Trials: 2500, Workers: cfg.workers, ChunkSize: cfg.cs})
		if err != nil {
			t.Fatal(err)
		}
		j, _ := json.Marshal(c)
		if ref == nil {
			ref = j
		} else if string(j) != string(ref) {
			t.Fatalf("workers=%d chunk=%d: campaign differs\ngot: %s\nref: %s", cfg.workers, cfg.cs, j, ref)
		}
	}
}

// TestChunkedResumeBitIdentity is the crash-safety headline: for 3
// seeds × 3 recovery policies, serialize the state after a mid-run
// chunk boundary through JSON (exactly what a checkpoint file does),
// resume a fresh Runner from it, and require the whole final Campaign
// JSON byte-identical to the uninterrupted run — including a resume at
// the very last boundary (crash after the final chunk merged but
// before the result was recorded).
func TestChunkedResumeBitIdentity(t *testing.T) {
	const trials, cs = 2000, 256
	for _, seed := range []int64{1, 2, 3} {
		for _, pol := range []Policy{PolicySameSpeed, PolicyMaxSpeed, PolicyAbort} {
			name := fmt.Sprintf("seed%d/%s", seed, pol)
			in := triChain(t, 12, 0.03)
			res := solve(t, in)
			r, err := NewRunner(in, res.Schedule, Options{Seed: seed, Policy: pol})
			if err != nil {
				t.Fatal(err)
			}
			var snaps [][]byte // snaps[i] = state after chunk i, serialized
			full, err := r.RunCampaignChunked(context.Background(), ChunkedOptions{
				Trials: trials, ChunkSize: cs,
				OnChunk: func(nextChunk int, st *CampaignState) error {
					j, err := json.Marshal(st)
					if err != nil {
						return err
					}
					if nextChunk != len(snaps)+1 {
						return fmt.Errorf("chunk callback out of order: %d after %d snapshots", nextChunk, len(snaps))
					}
					snaps = append(snaps, j)
					return nil
				},
			})
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			fullJSON, _ := json.Marshal(full)
			for _, k := range []int{1, len(snaps) / 2, len(snaps)} {
				var st CampaignState
				if err := json.Unmarshal(snaps[k-1], &st); err != nil {
					t.Fatalf("%s: snapshot %d: %v", name, k, err)
				}
				r2, err := NewRunner(in, res.Schedule, Options{Seed: seed, Policy: pol})
				if err != nil {
					t.Fatal(err)
				}
				resumed, err := r2.RunCampaignChunked(context.Background(), ChunkedOptions{
					Trials: trials, ChunkSize: cs, StartChunk: k, Resume: &st,
				})
				if err != nil {
					t.Fatalf("%s: resume at chunk %d: %v", name, k, err)
				}
				rj, _ := json.Marshal(resumed)
				if string(rj) != string(fullJSON) {
					t.Fatalf("%s: resume at chunk %d differs from uninterrupted run\nresumed: %s\nfull:    %s",
						name, k, rj, fullJSON)
				}
			}
		}
	}
}

// TestChunkedAdaptiveStops: with the stopping rule on, the campaign
// must end at a chunk boundary once the Wilson half-width reaches
// epsilon — far short of the requested trials at this fault pressure —
// and report exactly the statistic the rule tested.
func TestChunkedAdaptiveStops(t *testing.T) {
	in := triChain(t, 10, 0.03)
	res := solve(t, in)
	r, err := NewRunner(in, res.Schedule, Options{Seed: 6})
	if err != nil {
		t.Fatal(err)
	}
	const trials, cs, eps = 100_000, 512, 0.02
	c, err := r.RunCampaignChunked(context.Background(), ChunkedOptions{
		Trials: trials, ChunkSize: cs, Epsilon: eps, Confidence: 0.95,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !c.StoppedEarly || c.Trials >= trials {
		t.Fatalf("campaign did not stop early: ran %d of %d", c.Trials, trials)
	}
	if c.TrialsRequested != trials {
		t.Fatalf("trialsRequested %d, want %d", c.TrialsRequested, trials)
	}
	if c.Trials%cs != 0 {
		t.Fatalf("stopped at %d, not a chunk boundary of %d", c.Trials, cs)
	}
	if c.Trials < DefaultMinStopTrials {
		t.Fatalf("stopped at %d, below the %d-trial floor", c.Trials, DefaultMinStopTrials)
	}
	z, err := ZForConfidence(0.95)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := c.CIHalfWidth, WilsonHalfWidth(c.Successes, c.Trials, z); got != want {
		t.Fatalf("ciHalfWidth %v, want %v", got, want)
	}
	if c.CIHalfWidth > eps {
		t.Fatalf("stopped with half-width %v > epsilon %v", c.CIHalfWidth, eps)
	}
	// The chunk before the stop must not have satisfied the rule (the
	// campaign stops as soon as eligible, not later).
	prev := c.Trials - cs
	if prev >= DefaultMinStopTrials {
		frac := float64(c.Successes) / float64(c.Trials)
		if WilsonHalfWidth(int(frac*float64(prev)+0.5), prev, z) <= eps/2 {
			t.Fatalf("half-width was already far below epsilon a chunk earlier (stopped at %d)", c.Trials)
		}
	}

	// A resume exactly at the stopping boundary (crash after the stop
	// was earned but before the result was recorded) must reproduce the
	// same campaign without running any further trials.
	var boundary []byte
	if _, err := func() (*Campaign, error) {
		r2, err := NewRunner(in, res.Schedule, Options{Seed: 6})
		if err != nil {
			return nil, err
		}
		return r2.RunCampaignChunked(context.Background(), ChunkedOptions{
			Trials: trials, ChunkSize: cs, Epsilon: eps, Confidence: 0.95,
			OnChunk: func(nextChunk int, st *CampaignState) error {
				j, _ := json.Marshal(st)
				boundary = j
				return nil
			},
		})
	}(); err != nil {
		t.Fatal(err)
	}
	var st CampaignState
	if err := json.Unmarshal(boundary, &st); err != nil {
		t.Fatal(err)
	}
	r3, err := NewRunner(in, res.Schedule, Options{Seed: 6})
	if err != nil {
		t.Fatal(err)
	}
	resumed, err := r3.RunCampaignChunked(context.Background(), ChunkedOptions{
		Trials: trials, ChunkSize: cs, Epsilon: eps, Confidence: 0.95,
		StartChunk: st.TrialsRun / cs, Resume: &st,
	})
	if err != nil {
		t.Fatal(err)
	}
	want, _ := json.Marshal(c)
	got, _ := json.Marshal(resumed)
	if string(got) != string(want) {
		t.Fatalf("resume at the stopping boundary differs:\ngot:  %s\nwant: %s", got, want)
	}
}

// TestChunkedValidation walks the rejection surface: bad trials,
// epsilon, confidence, resume plumbing, and corrupt restored state
// must all error out before any trial runs.
func TestChunkedValidation(t *testing.T) {
	in := triChain(t, 6, 0.03)
	res := solve(t, in)
	r, err := NewRunner(in, res.Schedule, Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	good := func() *CampaignState {
		var captured *CampaignState
		_, err := r.RunCampaignChunked(ctx, ChunkedOptions{Trials: 512, ChunkSize: 256,
			OnChunk: func(n int, st *CampaignState) error {
				if n == 1 {
					captured = st
				}
				return nil
			}})
		if err != nil {
			t.Fatal(err)
		}
		return captured
	}()
	cases := []struct {
		name string
		opts ChunkedOptions
	}{
		{"zero trials", ChunkedOptions{}},
		{"negative trials", ChunkedOptions{Trials: -5}},
		{"epsilon too big", ChunkedOptions{Trials: 100, Epsilon: 1}},
		{"negative epsilon", ChunkedOptions{Trials: 100, Epsilon: -0.1}},
		{"bad confidence", ChunkedOptions{Trials: 100, Confidence: 0.42}},
		{"start chunk without resume", ChunkedOptions{Trials: 512, ChunkSize: 256, StartChunk: 1}},
		{"resume without start chunk", ChunkedOptions{Trials: 512, ChunkSize: 256, Resume: good}},
		{"start chunk out of range", ChunkedOptions{Trials: 512, ChunkSize: 256, StartChunk: 3, Resume: good}},
		{"trial count mismatch", ChunkedOptions{Trials: 512, ChunkSize: 128, StartChunk: 1, Resume: good}},
	}
	for _, c := range cases {
		if _, err := r.RunCampaignChunked(ctx, c.opts); err == nil {
			t.Errorf("%s: no error", c.name)
		}
	}

	corrupt := *good
	corrupt.Successes = corrupt.TrialsRun + 1
	if _, err := r.RunCampaignChunked(ctx, ChunkedOptions{Trials: 512, ChunkSize: 256, StartChunk: 1, Resume: &corrupt}); err == nil {
		t.Error("successes > trials accepted")
	}
	badHist := *good
	st := *good.Energy
	st.Buckets = append([]hist.IndexCount{}, st.Buckets...)
	st.Buckets[0].Index = -3
	badHist.Energy = &st
	if _, err := r.RunCampaignChunked(ctx, ChunkedOptions{Trials: 512, ChunkSize: 256, StartChunk: 1, Resume: &badHist}); err == nil {
		t.Error("corrupt histogram state accepted")
	}

	cancelled, cancel := context.WithCancel(ctx)
	cancel()
	if _, err := r.RunCampaignChunked(cancelled, ChunkedOptions{Trials: 10_000}); err != context.Canceled {
		t.Errorf("cancelled context: got %v", err)
	}

	wantErr := fmt.Errorf("checkpoint write failed")
	if _, err := r.RunCampaignChunked(ctx, ChunkedOptions{Trials: 512, ChunkSize: 256,
		OnChunk: func(int, *CampaignState) error { return wantErr }}); err != wantErr {
		t.Errorf("OnChunk error not propagated: got %v", err)
	}
}

// TestWilsonHalfWidth pins the stopping statistic: shrinks with n,
// symmetric in p, degenerate inputs stay sane, and the z lookup
// rejects unsupported confidence levels.
func TestWilsonHalfWidth(t *testing.T) {
	z, err := ZForConfidence(0)
	if err != nil {
		t.Fatal(err)
	}
	z99, err := ZForConfidence(0.99)
	if err != nil || z != z99 {
		t.Fatalf("default confidence: z=%v err=%v, want %v", z, err, z99)
	}
	if _, err := ZForConfidence(0.123); err == nil {
		t.Fatal("unsupported confidence accepted")
	}
	prev := 1.0
	for _, n := range []int{10, 100, 1000, 10000, 100000} {
		w := WilsonHalfWidth(n/2, n, z)
		if w <= 0 || w >= prev {
			t.Fatalf("half-width %v at n=%d not shrinking (prev %v)", w, n, prev)
		}
		prev = w
	}
	if w := WilsonHalfWidth(0, 0, z); w != 1 {
		t.Fatalf("empty sample half-width %v, want 1", w)
	}
	if a, b := WilsonHalfWidth(100, 1000, z), WilsonHalfWidth(900, 1000, z); a != b {
		t.Fatalf("half-width not symmetric in p: %v vs %v", a, b)
	}
	// Wilson at p̂=0 stays positive (unlike the Wald interval), so the
	// rule cannot stop instantly on an all-failure prefix.
	if w := WilsonHalfWidth(0, 100, z); w <= 0 {
		t.Fatalf("zero-success half-width %v", w)
	}
}

// TestChunkedAllocsFlat is the bounded-memory gate in unit-test form
// (BenchmarkCampaignChunked1M is the gated 1M-trial version): on a
// warmed Runner, quadrupling the trial count must not change the
// allocation count of a chunked campaign — per-chunk execution and
// merge are allocation-free, so cost per call is a constant pool setup
// plus the Campaign result.
func TestChunkedAllocsFlat(t *testing.T) {
	in := triChain(t, 32, 1e-6)
	res := solve(t, in)
	r, err := NewRunner(in, res.Schedule, Options{Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	measure := func(trials int) float64 {
		opts := ChunkedOptions{Trials: trials, Workers: 4, ChunkSize: 2048}
		if _, err := r.RunCampaignChunked(ctx, opts); err != nil {
			t.Fatal(err)
		}
		return testing.AllocsPerRun(10, func() {
			if _, err := r.RunCampaignChunked(ctx, opts); err != nil {
				t.Fatal(err)
			}
		})
	}
	small := measure(8 * 2048)
	big := measure(32 * 2048)
	if big > small+4 {
		t.Fatalf("allocations grow with trials: %.1f at 16k vs %.1f at 64k", small, big)
	}
	if big > 48 {
		t.Fatalf("chunked campaign allocates %.1f objects per run, want <= 48", big)
	}
}

// TestChunkedRunCampaignBytesFlat: RunCampaign runs on the chunked
// engine, so the bytes a campaign allocates on a fresh Runner (setup,
// worker clones, one chunk of trial slots, the result) do not grow
// with the trial count. A whole-campaign slot array would add 32 B
// per trial, 3.75 MiB between the two sizes below.
func TestChunkedRunCampaignBytesFlat(t *testing.T) {
	in := triChain(t, 32, 1e-6)
	res := solve(t, in)
	measure := func(trials int) uint64 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		r, err := NewRunner(in, res.Schedule, Options{Seed: 9})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := r.RunCampaign(context.Background(), trials, 4); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		return after.TotalAlloc - before.TotalAlloc
	}
	small := measure(8 << 10)
	big := measure(128 << 10)
	t.Logf("fresh-Runner campaign: %d B at 8k trials, %d B at 128k", small, big)
	if big > small+64<<10 {
		t.Fatalf("campaign bytes grow with trials: %d B at 8k vs %d B at 128k", small, big)
	}
}
