package server

import (
	"encoding/json"
	"testing"
	"time"

	"energysched/internal/hist"
	"energysched/internal/obs"
)

// latencyStats renders lt's histograms through the registry encoder
// that serves the /stats latency block.
func latencyStats(lt *latencyTracker) map[string]any {
	r := obs.NewRegistry()
	r.HistogramVec("test_duration_seconds", "", "latency", lt.collect)
	return r.Stats()["latency"].(map[string]any)
}

// TestLatencyBucketBoundariesPinned pins the /stats bucket edges in
// the unit the payload exposes (milliseconds): the extraction of the
// histogram into internal/hist must not move a boundary or change the
// bucket count.
func TestLatencyBucketBoundariesPinned(t *testing.T) {
	wantLeMs := []float64{0.1, 0.3, 1, 3, 10, 30, 100, 300, 1000, 3000, 10000, -1}
	lt := newLatencyTracker()
	lt.observe("s", time.Millisecond)
	snap := latencyStats(lt)["s"].(obs.LatencyStat)
	if len(snap.Buckets) != len(wantLeMs) {
		t.Fatalf("got %d buckets, want %d", len(snap.Buckets), len(wantLeMs))
	}
	for i, b := range snap.Buckets {
		if b.LeMs != wantLeMs[i] {
			t.Fatalf("bucket %d edge = %v ms, want %v ms", i, b.LeMs, wantLeMs[i])
		}
	}
}

// TestLatencySnapshotGolden pins the marshalled snapshot byte-for-byte
// against the payload the pre-extraction implementation produced for
// the same observations, so /stats consumers cannot tell the
// internal/hist refactor happened.
func TestLatencySnapshotGolden(t *testing.T) {
	lt := newLatencyTracker()
	lt.observe("alpha", 50*time.Microsecond)
	lt.observe("alpha", 100*time.Microsecond)
	lt.observe("alpha", 2*time.Millisecond)
	lt.observe("alpha", 99*time.Second)
	lt.observe("beta", 700*time.Millisecond)
	out, err := json.Marshal(latencyStats(lt))
	if err != nil {
		t.Fatal(err)
	}
	const golden = `{"alpha":{"count":4,"totalMs":99002.15,"meanMs":24750.5375,"p50Ms":0.1,"p99Ms":-1,"buckets":[{"leMs":0.1,"count":2},{"leMs":0.3,"count":0},{"leMs":1,"count":0},{"leMs":3,"count":1},{"leMs":10,"count":0},{"leMs":30,"count":0},{"leMs":100,"count":0},{"leMs":300,"count":0},{"leMs":1000,"count":0},{"leMs":3000,"count":0},{"leMs":10000,"count":0},{"leMs":-1,"count":1}]},"beta":{"count":1,"totalMs":700,"meanMs":700,"p50Ms":1000,"p99Ms":1000,"buckets":[{"leMs":0.1,"count":0},{"leMs":0.3,"count":0},{"leMs":1,"count":0},{"leMs":3,"count":0},{"leMs":10,"count":0},{"leMs":30,"count":0},{"leMs":100,"count":0},{"leMs":300,"count":0},{"leMs":1000,"count":1},{"leMs":3000,"count":0},{"leMs":10000,"count":0},{"leMs":-1,"count":0}]}}`
	if string(out) != golden {
		t.Fatalf("latency snapshot payload drifted from the pre-refactor bytes:\n got %s\nwant %s", out, golden)
	}
}

// TestHistogramObserveEdges keeps the historical edge semantics: an
// observation exactly on an upper edge lands in that bucket, just
// above spills to the next, and values beyond the last edge land in
// the overflow bucket.
func TestHistogramObserveEdges(t *testing.T) {
	lt := newLatencyTracker()
	first := time.Duration(hist.LatencyBounds()[0])
	lt.observe("s", first)           // inclusive upper edge → first bucket
	lt.observe("s", first+1)         // just above → second bucket
	lt.observe("s", 100*time.Second) // overflow bucket
	snap := latencyStats(lt)["s"].(obs.LatencyStat)
	if got := snap.Buckets[0].Count; got != 1 {
		t.Errorf("bucket[0] = %d, want 1", got)
	}
	if got := snap.Buckets[1].Count; got != 1 {
		t.Errorf("bucket[1] = %d, want 1", got)
	}
	if got := snap.Buckets[len(snap.Buckets)-1].Count; got != 1 {
		t.Errorf("overflow bucket = %d, want 1", got)
	}
	if snap.Count != 3 {
		t.Errorf("count = %d, want 3", snap.Count)
	}
}
