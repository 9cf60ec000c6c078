package sim

import (
	"math"
	"slices"
	"testing"
	"unsafe"

	"energysched/internal/hist"
	"energysched/internal/rng"
	"energysched/internal/workload"
)

// TestOccurrenceThresholdExact checks the integer occurrence test
// against the float test it replaces, x>>11 < thr ⟺
// float64(x>>11)/2⁵³ < p, at the threshold's edges and at random draws,
// for probabilities on and around the 2⁻⁵³ grid, at the ends of [0, 1]
// and beyond them.
func TestOccurrenceThresholdExact(t *testing.T) {
	const one = 1 << 53
	ps := []float64{
		0, math.SmallestNonzeroFloat64, 0x1p-53, 0.5, 1 - 0x1p-53, 1, 1.5,
		math.NaN(), math.Inf(1), -0.25, math.Inf(-1),
	}
	for _, k := range []float64{1, 2, 3, 12345, 1 << 20, 1<<52 + 1, one - 2, one - 1} {
		p := k / one
		ps = append(ps, p, math.Nextafter(p, 0), math.Nextafter(p, 1))
	}
	stream := rng.New(17)
	for _, p := range ps {
		thr := occurrenceThreshold(p)
		if thr > one {
			t.Fatalf("p=%v: threshold %d above 2^53", p, thr)
		}
		ks := make([]uint64, 0, 1004)
		for d := uint64(0); d < 4; d++ {
			if k := thr + d - 2; k < one { // wraps past zero to a huge value, skipped
				ks = append(ks, k)
			}
		}
		for i := 0; i < 1000; i++ {
			ks = append(ks, stream.Uint64()>>11)
		}
		for _, k := range ks {
			x := k<<11 | stream.Uint64()>>53 // arbitrary discarded low bits
			got := x>>11 < thr
			want := float64(x>>11)/one < p
			if got != want {
				t.Fatalf("p=%v (%x) k=%d thr=%d: integer test %t, float test %t", p, math.Float64bits(p), k, thr, got, want)
			}
		}
	}
}

// TestRecordedMatchesUnrecordedHeap: a recorded run also builds and
// sorts its event log on the kernel's pass; an unrecorded run with the
// fast path off runs the bare kernel on every trial. Every trial's
// Outcome must agree bit for bit between the two.
func TestRecordedMatchesUnrecordedHeap(t *testing.T) {
	for _, class := range []string{"chain", "multiproc"} {
		in, res := goldenInstance(t, class, 0.03)
		for _, seed := range []int64{1, 2, 3} {
			for _, pol := range []Policy{PolicySameSpeed, PolicyMaxSpeed, PolicyAbort} {
				for _, wc := range []bool{false, true} {
					base := Options{Seed: seed, Policy: pol, WorstCase: wc}
					recOpts, heapOpts := base, base
					recOpts.Record = true
					heapOpts.DisableFastPath = true
					rec, err := NewRunner(in, res.Schedule, recOpts)
					if err != nil {
						t.Fatal(err)
					}
					heap, err := NewRunner(in, res.Schedule, heapOpts)
					if err != nil {
						t.Fatal(err)
					}
					var a, b Trace
					faulty := 0
					for trial := 0; trial < 200; trial++ {
						rec.Run(trial, &a)
						heap.Run(trial, &b)
						oa, ob := a.Outcome, b.Outcome
						if math.Float64bits(oa.Energy) != math.Float64bits(ob.Energy) ||
							math.Float64bits(oa.Makespan) != math.Float64bits(ob.Makespan) ||
							oa.Succeeded != ob.Succeeded || oa.DeadlineMet != ob.DeadlineMet ||
							oa.Reexecutions != ob.Reexecutions || oa.Faults != ob.Faults {
							t.Fatalf("%s seed %d %s wc=%t trial %d: recorded %+v, unrecorded %+v",
								class, seed, pol, wc, trial, oa, ob)
						}
						if oa.Faults > 0 {
							faulty++
						}
					}
					if faulty == 0 {
						t.Fatalf("%s seed %d %s wc=%t: no trial faulted", class, seed, pol, wc)
					}
				}
			}
		}
	}
}

// TestKernelLayout pins the sizes the kernel relies on: 16-byte
// finish keys (a size dividing the 64-byte line the scratch layout
// pads to), 32-byte trial slots (bucket indices fit in the padding),
// and an outcome grid whose bucket indices fit uint16.
func TestKernelLayout(t *testing.T) {
	if s := unsafe.Sizeof(finishKey{}); s != 16 {
		t.Errorf("finishKey is %d bytes, want 16", s)
	}
	if s := unsafe.Sizeof(trialSlot{}); s != 32 {
		t.Errorf("trialSlot is %d bytes, want 32", s)
	}
	if n := len(hist.OutcomeBounds()); n >= math.MaxUint16 {
		t.Errorf("outcome grid has %d edges; bucket indices overflow uint16", n)
	}
}

// TestFastTrialSlotsMatchHeapSlots: the slot a worker copies for a
// fast-path trial must equal the slot built from a full-kernel run of
// the same trial, bucket indices included.
func TestFastTrialSlotsMatchHeapSlots(t *testing.T) {
	in, res := fastEqInstance(t, workload.ClassForkJoin, 4)
	fast, err := NewRunner(in, res.Schedule, Options{Seed: 8})
	if err != nil {
		t.Fatal(err)
	}
	heap, err := NewRunner(in, res.Schedule, Options{Seed: 8, DisableFastPath: true})
	if err != nil {
		t.Fatal(err)
	}
	var tr Trace
	served := 0
	for trial := 0; trial < 300; trial++ {
		if !fast.fastTrial(&fast.scr[0], trial) {
			continue
		}
		served++
		heap.Run(trial, &tr)
		if got := newTrialSlot(&tr.Outcome); got != fast.ffSlot {
			t.Fatalf("trial %d: heap slot %+v, fast slot %+v", trial, got, fast.ffSlot)
		}
	}
	if served == 0 {
		t.Fatal("no trial took the fast path")
	}
}

// lineSpan is the first and last 64-byte line a slice's backing array
// covers, up to its capacity: all of it may be written.
func lineSpan[T any](s []T) [2]uintptr {
	start := uintptr(unsafe.Pointer(unsafe.SliceData(s)))
	end := start + uintptr(cap(s))*unsafe.Sizeof(s[:1][0]) - 1
	return [2]uintptr{start / cacheLine, end / cacheLine}
}

// TestWorkerScratchIsolated: for 1 to 8 workers on n = 4, 32 and 64
// tasks, no two workers' trial scratch — draws, release instants,
// finish keys and the fast-path counter — touches the same 64-byte
// line, and a trial writes no field of the Runner the workers share.
func TestWorkerScratchIsolated(t *testing.T) {
	for _, n := range []int{4, 32, 64} {
		in := triChain(t, n, 0.01)
		res := solve(t, in)
		for workers := 1; workers <= 8; workers++ {
			r, err := NewRunner(in, res.Schedule, Options{Seed: 3})
			if err != nil {
				t.Fatal(err)
			}
			r.campaignScratchFor(workers, claimSize*workers)
			owner := map[uintptr]int{}
			claim := func(w int, span [2]uintptr) {
				for l := span[0]; l <= span[1]; l++ {
					if o, ok := owner[l]; ok && o != w {
						t.Fatalf("n=%d workers=%d: workers %d and %d write line %#x", n, workers, o, w, l*cacheLine)
					}
					owner[l] = w
				}
			}
			for w := 0; w < workers; w++ {
				s := &r.scr[w]
				claim(w, lineSpan(s.x))
				claim(w, lineSpan(s.rel))
				claim(w, lineSpan(s.keys))
				claim(w, lineSpan(s.served))
			}

			before := *r
			snap := unsafe.Slice((*byte)(unsafe.Pointer(r)), unsafe.Sizeof(*r))
			want := append([]byte(nil), snap...)
			thr := append([]uint64(nil), r.thr...)
			faulty := 0
			for w := 0; w < workers; w++ {
				s := &r.scr[w]
				for trial := 0; trial < 50; trial++ {
					if r.fastTrial(s, trial) {
						continue
					}
					r.draw(s, trial)
					if r.runFlat(s, nil).Faults > 0 {
						faulty++
					}
				}
			}
			if faulty == 0 {
				t.Fatalf("n=%d: no trial faulted", n)
			}
			if string(snap) != string(want) || !slices.Equal(thr, r.thr) || r.ff != before.ff {
				t.Fatalf("n=%d workers=%d: a trial wrote the shared Runner", n, workers)
			}
		}
	}
}
