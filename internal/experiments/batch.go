package experiments

import (
	"context"
	"math/rand"
	"time"

	"energysched/internal/core"
	"energysched/internal/listsched"
	"energysched/internal/model"
	"energysched/internal/tabulate"
	"energysched/internal/workload"
)

// batchInstances generates a deterministic mixed batch: per class and
// speed model, BI-CRIT instances mapped with critical-path list
// scheduling, exactly the production traffic shape the batch API
// targets.
func batchInstances(seed int64, perCombo int) []*core.Instance {
	rng := rand.New(rand.NewSource(seed))
	levels := model.XScaleLevels()
	smC, _ := model.NewContinuous(0.15, 1)
	smV, _ := model.NewVddHopping(levels)
	smD, _ := model.NewDiscrete(levels)
	var ins []*core.Instance
	for _, class := range []workload.Class{workload.ClassChain, workload.ClassFork, workload.ClassLayered, workload.ClassSeriesParallel} {
		for _, sm := range []model.SpeedModel{smC, smV, smD} {
			for k := 0; k < perCombo; k++ {
				n := 8 + rng.Intn(8)
				g := class.Generate(rng, n, workload.UniformWeights)
				ls, err := listsched.CriticalPath(g, 2+rng.Intn(3))
				if err != nil {
					panic(err)
				}
				deadline := ls.Makespan / sm.FMax * (1.5 + rng.Float64())
				ins = append(ins, &core.Instance{Graph: g, Mapping: ls.Mapping, Speed: sm, Deadline: deadline})
			}
		}
	}
	return ins
}

// E18BatchSolve exercises the unified core.Solve / core.SolveAll API:
// a mixed batch of instances across DAG classes and speed models is
// auto-dispatched through the solver registry, solved sequentially
// (1 worker) and in parallel (GOMAXPROCS workers), and the two passes
// must agree energy-for-energy while the parallel pass finishes
// faster on multi-core hardware.
func E18BatchSolve() *Report {
	t := tabulate.New("E18 — registry auto-dispatch + parallel batch solving",
		"solver", "instances", "exact", "mean_gap_%")
	rep := newReport(t)
	ins := batchInstances(118, 3)
	ctx := context.Background()

	seqStart := time.Now()
	seq := core.SolveAll(ctx, ins, core.WithWorkers(1))
	seqElapsed := time.Since(seqStart)
	parStart := time.Now()
	par := core.SolveAll(ctx, ins)
	parElapsed := time.Since(parStart)

	type agg struct {
		count, exact int
		gapSum       float64
		gapCount     int
	}
	perSolver := map[string]*agg{}
	order := []string{}
	mismatch := 0.0
	for i, it := range par {
		if it.Err != nil {
			panic(it.Err)
		}
		if seq[i].Err != nil {
			panic(seq[i].Err)
		}
		if e := relErr(it.Result.Energy, seq[i].Result.Energy); e > mismatch {
			mismatch = e
		}
		a := perSolver[it.Result.Solver]
		if a == nil {
			a = &agg{}
			perSolver[it.Result.Solver] = a
			order = append(order, it.Result.Solver)
		}
		a.count++
		if it.Result.Exact {
			a.exact++
		}
		if g := it.Result.Gap(); g >= 0 {
			a.gapSum += 100 * g
			a.gapCount++
		}
	}
	for _, name := range order {
		a := perSolver[name]
		gap := 0.0
		if a.gapCount > 0 {
			gap = a.gapSum / float64(a.gapCount)
		}
		t.AddRow(name, a.count, a.exact, gap)
	}
	rep.Metrics["instances"] = float64(len(ins))
	rep.Metrics["worst_seq_par_energy_mismatch"] = mismatch
	t.AddNote("%d instances; sequential and parallel energies identical (worst mismatch %.1e)", len(ins), mismatch)
	rep.timef("sequential %v, parallel %v (speedup %.2f×)", seqElapsed.Round(time.Millisecond),
		parElapsed.Round(time.Millisecond), seqElapsed.Seconds()/parElapsed.Seconds())
	return rep
}
