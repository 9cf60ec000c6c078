package hist

import (
	"encoding/json"
	"math"
	"reflect"
	"sync"
	"testing"
)

// TestLatencyBoundsPinned pins the latency bucket edges the service
// /stats payload depends on: the extraction of the histogram into
// this package must not move a single boundary.
func TestLatencyBoundsPinned(t *testing.T) {
	want := []float64{
		100_000,        // 100µs
		300_000,        // 300µs
		1_000_000,      // 1ms
		3_000_000,      // 3ms
		10_000_000,     // 10ms
		30_000_000,     // 30ms
		100_000_000,    // 100ms
		300_000_000,    // 300ms
		1_000_000_000,  // 1s
		3_000_000_000,  // 3s
		10_000_000_000, // 10s
	}
	if got := LatencyBounds(); !reflect.DeepEqual(got, want) {
		t.Fatalf("LatencyBounds() = %v, want the pinned edges %v", got, want)
	}
}

func TestOutcomeBoundsShape(t *testing.T) {
	b := OutcomeBounds()
	if len(b) != 15*32+1 {
		t.Fatalf("len(OutcomeBounds()) = %d, want %d", len(b), 15*32+1)
	}
	if math.Abs(b[0]-1e-6) > 1e-18 || math.Abs(b[len(b)-1]-1e9) > 1 {
		t.Fatalf("bounds span [%g, %g], want [1e-6, 1e9]", b[0], b[len(b)-1])
	}
	for i := 1; i < len(b); i++ {
		if b[i] <= b[i-1] {
			t.Fatalf("bounds not strictly increasing at %d: %g <= %g", i, b[i], b[i-1])
		}
	}
}

// TestObserveEdgeInclusive checks the bucket semantics the latency
// histogram historically had: values exactly on an edge land in that
// edge's bucket; values just above spill to the next; values above
// the last edge land in the overflow bucket.
func TestObserveEdgeInclusive(t *testing.T) {
	bounds := []float64{1, 10, 100}
	h := New(bounds)
	h.Observe(1)      // bucket 0 (inclusive edge)
	h.Observe(1.0001) // bucket 1
	h.Observe(100)    // bucket 2
	h.Observe(101)    // overflow
	h.Observe(-5)     // underflow values land in the first bucket
	want := []int64{2, 1, 1, 1}
	if !reflect.DeepEqual(h.counts, want) {
		t.Fatalf("counts = %v, want %v", h.counts, want)
	}
	if h.Count() != 5 {
		t.Fatalf("count = %d, want 5", h.Count())
	}
}

func TestQuantileMatchesLatencySemantics(t *testing.T) {
	h := New([]float64{1, 2, 4})
	if got := h.Quantile(0.5); got != 0 {
		t.Fatalf("empty quantile = %v, want 0", got)
	}
	for i := 0; i < 3; i++ {
		h.Observe(0.5) // bucket 0
	}
	h.Observe(3) // bucket 2
	if got := h.Quantile(0.5); got != 1 {
		t.Fatalf("p50 = %v, want 1", got)
	}
	if got := h.Quantile(0.99); got != 4 {
		t.Fatalf("p99 = %v, want 4", got)
	}
	h.Observe(9) // overflow
	if got := h.Quantile(0.99); got != -1 {
		t.Fatalf("p99 with overflow rank = %v, want -1", got)
	}
}

func TestHistogramJSONSparseAndRoundTrips(t *testing.T) {
	h := New([]float64{1, 2, 4})
	h.Observe(0.5)
	h.Observe(0.5)
	h.Observe(9)
	j := h.JSON()
	if j.Count != 3 {
		t.Fatalf("json count = %d", j.Count)
	}
	if math.Abs(j.Mean-10.0/3) > 1e-12 {
		t.Fatalf("mean = %v", j.Mean)
	}
	want := []Bucket{{Le: 1, Count: 2}, {Le: -1, Count: 1}}
	if !reflect.DeepEqual(j.Buckets, want) {
		t.Fatalf("sparse buckets = %+v, want %+v", j.Buckets, want)
	}
	raw, err := json.Marshal(j)
	if err != nil {
		t.Fatal(err)
	}
	var back JSON
	if err := json.Unmarshal(raw, &back); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(&back, j) {
		t.Fatalf("round trip drifted: %+v != %+v", back, *j)
	}
}

func TestHistogramReset(t *testing.T) {
	h := New(OutcomeBounds())
	h.Observe(3.5)
	h.Observe(1e12)
	h.Reset()
	if h.Count() != 0 || h.sum != 0 {
		t.Fatalf("reset left count=%d sum=%v", h.Count(), h.sum)
	}
	for i, c := range h.counts {
		if c != 0 {
			t.Fatalf("reset left bucket %d = %d", i, c)
		}
	}
}

// TestDeterministicAcrossOrders: the histogram totals are independent
// of observation order — the property the campaign merge relies on
// when it streams slot outcomes sequentially.
func TestDeterministicAcrossOrders(t *testing.T) {
	vals := []float64{0.3, 7.7, 7.7, 1e-9, 42, 1e10, 0.3}
	a, b := New(OutcomeBounds()), New(OutcomeBounds())
	for _, v := range vals {
		a.Observe(v)
	}
	for i := len(vals) - 1; i >= 0; i-- {
		b.Observe(vals[i])
	}
	if !reflect.DeepEqual(a.JSON(), b.JSON()) {
		t.Fatal("observation order leaked into the histogram")
	}
}

func TestAtomicConcurrent(t *testing.T) {
	a := NewAtomic(LatencyBounds())
	var wg sync.WaitGroup
	const workers, each = 8, 1000
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < each; i++ {
				a.Observe(int64(i%4) * 1_000_000)
			}
		}(w)
	}
	wg.Wait()
	count, sum, counts := a.Snapshot()
	if count != workers*each {
		t.Fatalf("count = %d, want %d", count, workers*each)
	}
	var bucketSum int64
	for _, c := range counts {
		bucketSum += c
	}
	if bucketSum != count {
		t.Fatalf("bucket counts sum to %d, want %d", bucketSum, count)
	}
	if wantSum := int64(workers) * each / 4 * (0 + 1 + 2 + 3) * 1_000_000; sum != wantSum {
		t.Fatalf("sum = %d, want %d", sum, wantSum)
	}
	if q := a.Quantile(0.5); q != 1e6 {
		t.Fatalf("p50 = %v, want 1e6 (0 and 1ms fill half the mass)", q)
	}
	if m := a.Max(); m != 3_000_000 {
		t.Fatalf("max = %d, want 3000000", m)
	}
}

// TestAtomicMax pins the exact-maximum tracking the load harness
// reports alongside the conservative bucket quantiles.
func TestAtomicMax(t *testing.T) {
	a := NewAtomic(LatencyBounds())
	if a.Max() != 0 {
		t.Fatalf("empty max = %d", a.Max())
	}
	for _, v := range []int64{5, 900, 17, 900, 3} {
		a.Observe(v)
	}
	if a.Max() != 900 {
		t.Fatalf("max = %d, want 900", a.Max())
	}
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				a.Observe(int64(w*1000 + i))
			}
		}(w)
	}
	wg.Wait()
	if a.Max() != 3999 {
		t.Fatalf("concurrent max = %d, want 3999", a.Max())
	}
}

// TestStateRestoreRoundTrip: the checkpoint form must reproduce the
// histogram bit-for-bit — raw counters and float sum — including
// through a JSON round trip, and Restore must reject states no
// histogram over these bounds could have produced.
func TestStateRestoreRoundTrip(t *testing.T) {
	h := New(OutcomeBounds())
	for i := 0; i < 5000; i++ {
		h.Observe(math.Pow(1.37, float64(i%60)) * 1e-3)
	}
	st := h.State()
	j, err := json.Marshal(st)
	if err != nil {
		t.Fatal(err)
	}
	var back State
	if err := json.Unmarshal(j, &back); err != nil {
		t.Fatal(err)
	}
	h2 := New(OutcomeBounds())
	if err := h2.Restore(&back); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(h, h2) {
		t.Fatal("restored histogram differs from source")
	}
	if got, _ := json.Marshal(h2.JSON()); string(got) != string(mustJSON(t, h.JSON())) {
		t.Fatal("restored histogram renders different JSON")
	}
	// Restoring a nil state resets.
	if err := h2.Restore(nil); err != nil || h2.Count() != 0 {
		t.Fatalf("nil restore: err=%v count=%d", err, h2.Count())
	}
	for _, bad := range []*State{
		{Count: -1},
		{Count: 1, Buckets: []IndexCount{{Index: -1, Count: 1}}},
		{Count: 1, Buckets: []IndexCount{{Index: 1 << 20, Count: 1}}},
		{Count: 1, Buckets: []IndexCount{{Index: 0, Count: -1}}},
	} {
		if err := h2.Restore(bad); err == nil {
			t.Fatalf("restore accepted invalid state %+v", bad)
		}
		if h2.Count() != 0 {
			t.Fatal("failed restore left residue")
		}
	}
}

func mustJSON(t *testing.T, v any) []byte {
	t.Helper()
	j, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return j
}

// TestObserveBucketMatchesObserve: recording a value at its
// precomputed BucketIndex must leave the histogram exactly as Observe
// does — counters, sum and the State it serializes to.
func TestObserveBucketMatchesObserve(t *testing.T) {
	bounds := OutcomeBounds()
	a, b := New(bounds), New(bounds)
	for _, v := range []float64{0, 1e-7, 1e-6, 0.37, 1, 12.5, 1e9, 2e9, math.Nextafter(1, 2)} {
		a.Observe(v)
		b.ObserveBucket(v, BucketIndex(bounds, v))
	}
	if !reflect.DeepEqual(a.State(), b.State()) {
		t.Fatalf("ObserveBucket state %+v, Observe state %+v", b.State(), a.State())
	}
}
