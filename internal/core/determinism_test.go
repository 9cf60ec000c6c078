package core

import (
	"bytes"
	"context"
	"fmt"
	"testing"
	"time"

	"energysched/internal/dag"
	"energysched/internal/model"
	"energysched/internal/platform"
)

// determinismBatch builds a mixed batch — continuous chains, discrete
// chains, VDD-hopping chains and forks, and TRI-CRIT forks of varying
// sizes, so every speed model's solver runs — large enough that an
// 8-worker pool interleaves completions out of input order.
func determinismBatch() []*Instance {
	var ins []*Instance
	for i := 0; i < 8; i++ {
		ins = append(ins, contInstance(1.5+0.5*float64(i)))
	}
	for i := 0; i < 8; i++ {
		g := dag.ChainGraph(1, 2, float64(1+i%3))
		mp, _ := platform.SingleProcessor(g)
		sm, _ := model.NewDiscrete(model.XScaleLevels())
		ins = append(ins, &Instance{Graph: g, Mapping: mp, Speed: sm, Deadline: 10 + float64(i)})
	}
	for i := 0; i < 8; i++ {
		sm, _ := model.NewVddHopping(model.XScaleLevels())
		if i%2 == 0 {
			g := dag.ChainGraph(2, 1, float64(1+i%3))
			mp, _ := platform.SingleProcessor(g)
			ins = append(ins, &Instance{Graph: g, Mapping: mp, Speed: sm, Deadline: 8 + float64(i)})
		} else {
			g := dag.ForkGraph(1, 2, float64(i))
			ins = append(ins, &Instance{Graph: g, Mapping: platform.OneTaskPerProcessor(g), Speed: sm, Deadline: 4 + float64(i)})
		}
	}
	for i := 0; i < 8; i++ {
		ins = append(ins, triInstance(5+float64(i)))
	}
	return ins
}

// snapshotItems renders a batch outcome with the volatile wall time
// zeroed, so two runs can be compared byte for byte.
func snapshotItems(t *testing.T, items []BatchItem) []byte {
	t.Helper()
	var buf bytes.Buffer
	for pos, item := range items {
		if item.Index != pos {
			t.Fatalf("item at position %d carries index %d; SolveAll must return input order", pos, item.Index)
		}
		if item.Err != nil {
			fmt.Fprintf(&buf, "%d: err %v\n", pos, item.Err)
			continue
		}
		item.Result.WallTime = 0
		out, err := MarshalResult(item.Result)
		if err != nil {
			t.Fatalf("item %d: %v", pos, err)
		}
		fmt.Fprintf(&buf, "%d: %s\n", pos, out)
	}
	return buf.Bytes()
}

// TestSolveAllDeterministic is the batch-side determinism invariant
// (SNIPPETS H13): the same batch solved sequentially (WithWorkers(1))
// and twice under WithWorkers(8) must produce byte-identical results
// in input order — worker scheduling may reorder execution, never
// observable output.
func TestSolveAllDeterministic(t *testing.T) {
	ctx := context.Background()
	run := func(workers int) []byte {
		items := SolveAll(ctx, determinismBatch(), WithWorkers(workers), WithLowerBound(true))
		return snapshotItems(t, items)
	}
	seq := run(1)
	if len(seq) == 0 {
		t.Fatal("empty snapshot; batch produced nothing")
	}
	for i := 1; i <= 2; i++ {
		if par := run(8); !bytes.Equal(seq, par) {
			t.Errorf("parallel run %d diverged from the sequential run:\n--- 1 worker ---\n%s\n--- 8 workers ---\n%s", i, seq, par)
		}
	}
}

// TestSolveDeterministicAcrossRepeats pins single-solve determinism:
// repeated Solve calls on one instance return the identical schedule
// and diagnostics (modulo wall time).
func TestSolveDeterministicAcrossRepeats(t *testing.T) {
	ctx := context.Background()
	var ref []byte
	for i := 0; i < 3; i++ {
		res, err := Solve(ctx, contInstance(2), WithTimeout(30*time.Second))
		if err != nil {
			t.Fatal(err)
		}
		res.WallTime = 0
		out, err := MarshalResult(res)
		if err != nil {
			t.Fatal(err)
		}
		if ref == nil {
			ref = out
		} else if !bytes.Equal(ref, out) {
			t.Fatalf("solve %d diverged from the first:\n%s\nvs\n%s", i+1, ref, out)
		}
	}
}
