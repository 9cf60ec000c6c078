package tricrit_test

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"hash"
	"math"
	"math/rand"
	"testing"

	"energysched/internal/core"
	"energysched/internal/dag"
	"energysched/internal/loadgen"
	"energysched/internal/model"
	"energysched/internal/platform"
	"energysched/internal/rng"
	"energysched/internal/tricrit"
	"energysched/internal/workload"
)

// corpusCase is one TRI-CRIT instance of the heuristics corpus.
type corpusCase struct {
	name string
	g    *dag.Graph
	mp   *platform.Mapping
	in   tricrit.Instance
}

// corpus builds the heuristics corpus:
//   - every workload class at n ∈ {8, 12, 24} on 1–4 processors, built
//     as cmd/dagen -tricrit builds them (loadgen's pool recipe plus the
//     default reliability model and frel = 0.8·fmax);
//   - the first 40 tri-crit solve instances of svcbench's cold-single
//     stream at seed 91 (pool stream tag 2, n = 12);
//   - svcbench's n = 32 campaign-jobs chains of both fault regimes at
//     seeds 1 and 91.
func corpus(t testing.TB) []corpusCase {
	t.Helper()
	var out []corpusCase
	pool := func(name string, spec loadgen.Spec, idx int) {
		raw, err := loadgen.PoolInstance(spec, idx)
		if err != nil {
			t.Fatal(err)
		}
		in, err := core.UnmarshalInstance(raw)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, corpusCase{name: name, g: in.Graph, mp: in.Mapping, in: tricrit.Instance{
			Deadline: in.Deadline, FMin: in.Speed.FMin, FMax: in.Speed.FMax, FRel: 0.8 * in.Speed.FMax,
			Rel: model.DefaultReliability(in.Speed.FMin, in.Speed.FMax),
		}})
	}
	for _, cls := range workload.AllClasses() {
		for _, n := range []int{8, 12, 24} {
			for procs := 1; procs <= 4; procs++ {
				spec := loadgen.Spec{Seed: 27, Classes: []string{cls.String()}, N: n, Procs: procs}
				pool(fmt.Sprintf("%s/n%d/p%d", cls, n, procs), spec, procs)
			}
		}
	}
	for i := 0; i < 40; i++ {
		pool(fmt.Sprintf("cold/%d", i), loadgen.Spec{Seed: loadgen.PoolSeed(benchSeed(91), 2), N: 12}, i)
	}
	for _, seed := range []int64{1, 91} {
		for _, lambda0 := range []float64{1e-5, 1e-3} {
			ws := workload.UniformWeights.Weights(rand.New(rand.NewSource(loadgen.PoolSeed(benchSeed(seed), 4))), 32)
			g := dag.ChainGraph(ws...)
			mp, err := platform.SingleProcessor(g)
			if err != nil {
				t.Fatal(err)
			}
			sum := 0.0
			for _, w := range ws {
				sum += w
			}
			in := tricrit.Instance{Deadline: sum / 1.0 * 2.5, FMin: 0.1, FMax: 1, FRel: 0.8,
				Rel: model.Reliability{Lambda0: lambda0, Sensitivity: 3, FMin: 0.1, FMax: 1}}
			out = append(out, corpusCase{name: fmt.Sprintf("jobs/%d/%g", seed, lambda0), g: g, mp: mp, in: in})
		}
	}
	return out
}

// benchSeed is the seed svcbench derives its streams from when run
// with -seed s.
func benchSeed(s int64) int64 {
	st := rng.New(s)
	return int64(st.Uint64())
}

// hashConfig writes the exact bits of a heuristic's outcome.
func hashConfig(h hash.Hash, cfg *tricrit.Config, err error) {
	if err != nil {
		fmt.Fprintf(h, "err %v\n", err)
		return
	}
	var buf [8]byte
	for _, r := range cfg.ReExec {
		if r {
			h.Write([]byte{1})
		} else {
			h.Write([]byte{0})
		}
	}
	for _, f := range append(cfg.Speeds, cfg.Energy) {
		binary.LittleEndian.PutUint64(buf[:], math.Float64bits(f))
		h.Write(buf[:])
	}
}

// goldenCorpusDigest pins, bit for bit, the re-execution sets, speeds
// and energies BestOf, DAGChainFirst and DAGParallelFirst return on the
// corpus. A change that moves any of them, even in the last bit of one
// speed, fails TestGoldenHeuristicsCorpus.
const goldenCorpusDigest = "d90cd748643ea8fd17b91af57d0c66a08869b9f089b39d9b71939c9eab7a5181"

func TestGoldenHeuristicsCorpus(t *testing.T) {
	h := sha256.New()
	for _, c := range corpus(t) {
		fmt.Fprintf(h, "%s\n", c.name)
		for _, heur := range []func(*dag.Graph, *platform.Mapping, tricrit.Instance) (*tricrit.Config, error){
			tricrit.BestOf, tricrit.DAGChainFirst, tricrit.DAGParallelFirst,
		} {
			cfg, err := heur(c.g, c.mp, c.in)
			hashConfig(h, cfg, err)
		}
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != goldenCorpusDigest {
		t.Fatalf("heuristics corpus digest %s, want %s", got, goldenCorpusDigest)
	}
}
