package sim

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"hash"
	"testing"

	"energysched/internal/core"
	"energysched/internal/workload"
)

// goldenDigests pins a sha256 over the marshalled output of every
// campaign entry point for four (instance class, fault rate) groups:
// RunCampaign, RunCampaignChunked with a chunk size that does not
// divide the trial count, each checkpoint state it delivers, a run
// resumed from a mid-campaign checkpoint, and recorded Simulate
// traces — under every policy, worst-case replay on and off, and the
// fast path on and off. Any change to the trial kernel, the merge or
// the histograms that moves a single output byte changes a digest.
// The values were generated before the integer-threshold kernel
// replaced the float occurrence check, so they hold the simulator to
// its earlier output, not to itself.
var goldenDigests = map[string]string{
	"chain/low":      "cf7668ca65a053ceb4271d324c4b5a83f62438ce44b015354d416d633bbd0a8b",
	"chain/heap":     "fab9017a0d2c8b81762df858f58a47849e0c8a7e6259f290fc31237e599b3111",
	"multiproc/low":  "0d0aa8c6e1ab45ab8d5528e9d7fe3202914dd4cb8239090d542be7837bb83ab3",
	"multiproc/heap": "323fc03c34b14e9c5db561b5eed7a17656d4c22fd0976fb55a53ca87f195ca26",
}

// goldenInstance builds the instance of one golden group: a 12-task
// single-processor chain, or a 16-task layered DAG list-scheduled on 3
// processors.
func goldenInstance(t *testing.T, class string, lambda0 float64) (*core.Instance, *core.Result) {
	t.Helper()
	if class == "chain" {
		in := triChain(t, 12, lambda0)
		return in, solve(t, in)
	}
	in, _ := fastEqInstance(t, workload.ClassLayered, 5)
	rel := *in.Rel
	rel.Lambda0 = lambda0
	in.Rel = &rel
	return in, solve(t, in)
}

// goldenWrite marshals v into the digest, with a label so that two
// outputs cannot trade bytes across their boundary unnoticed.
func goldenWrite(t *testing.T, h hash.Hash, label string, v any) {
	t.Helper()
	j, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	fmt.Fprintf(h, "%s %d\n", label, len(j))
	h.Write(j)
}

// goldenDigest runs every configuration of one group and returns the
// hex sha256 of all their outputs in a fixed order.
func goldenDigest(t *testing.T, class string, lambda0 float64) string {
	t.Helper()
	const trials, cs, resumeAt = 600, 128, 2
	ctx := context.Background()
	in, res := goldenInstance(t, class, lambda0)
	h := sha256.New()
	for _, pol := range []Policy{PolicySameSpeed, PolicyMaxSpeed, PolicyAbort} {
		for _, wc := range []bool{false, true} {
			for _, noFast := range []bool{false, true} {
				name := fmt.Sprintf("%s/wc=%t/nofast=%t", pol, wc, noFast)
				opts := CampaignOptions{Trials: trials, Seed: 11, Policy: pol, WorstCase: wc, Workers: 3, DisableFastPath: noFast}
				plain, err := RunCampaign(ctx, in, res.Schedule, opts)
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				goldenWrite(t, h, name+"/campaign", plain)

				var states [][]byte
				chunked, err := RunCampaignChunked(ctx, in, res.Schedule, opts, ChunkedOptions{
					ChunkSize: cs,
					OnChunk: func(_ int, st *CampaignState) error {
						j, err := json.Marshal(st)
						states = append(states, j)
						return err
					},
				})
				if err != nil {
					t.Fatalf("%s chunked: %v", name, err)
				}
				goldenWrite(t, h, name+"/chunked", chunked)
				for i, st := range states {
					goldenWrite(t, h, fmt.Sprintf("%s/state%d", name, i), json.RawMessage(st))
				}

				var resume CampaignState
				if err := json.Unmarshal(states[resumeAt-1], &resume); err != nil {
					t.Fatal(err)
				}
				resumed, err := RunCampaignChunked(ctx, in, res.Schedule, opts, ChunkedOptions{
					ChunkSize: cs, StartChunk: resumeAt, Resume: &resume,
				})
				if err != nil {
					t.Fatalf("%s resumed: %v", name, err)
				}
				goldenWrite(t, h, name+"/resumed", resumed)

				for trial := 0; trial < 8; trial++ {
					tr, err := Simulate(in, res.Schedule, Options{
						Policy: pol, Seed: 11, Trial: trial, WorstCase: wc,
						Record: true, DisableFastPath: noFast,
					})
					if err != nil {
						t.Fatalf("%s trace %d: %v", name, trial, err)
					}
					goldenWrite(t, h, fmt.Sprintf("%s/trace%d", name, trial), tr)
				}
			}
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestGoldenCampaignDigest holds every campaign, checkpoint and trace
// byte to the pinned digests, with the fast path on and off (and,
// under NoFastPathEnv, with every trial forced through the heap).
func TestGoldenCampaignDigest(t *testing.T) {
	groups := []struct {
		class, rate string
		lambda0     float64
	}{
		{"chain", "low", 1e-4},
		{"chain", "heap", 0.03},
		{"multiproc", "low", 1e-4},
		{"multiproc", "heap", 0.02},
	}
	for _, g := range groups {
		key := g.class + "/" + g.rate
		if got, want := goldenDigest(t, g.class, g.lambda0), goldenDigests[key]; got != want {
			t.Errorf("%s: digest %s, want %s", key, got, want)
		}
	}
}
