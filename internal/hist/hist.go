// Package hist provides the repository's shared log-bucket histogram
// primitives. Two variants cover the two concurrency regimes:
//
//   - Histogram — plain counters for single-writer (or externally
//     synchronized) use; this is what the campaign merge in
//     internal/sim streams energy/makespan outcomes into. Because the
//     merge runs sequentially in trial order, the resulting histogram
//     is bit-identical whatever the campaign worker count.
//   - Atomic — lock-free counters for concurrent observation; this is
//     what the energyschedd latency tracker records solver wall times
//     into while requests race.
//
// Both share the same bucket semantics: a sorted slice of inclusive
// upper edges, one extra overflow bucket above the last edge, and the
// conservative bucket quantile (the reported value is the upper edge
// of the bucket containing the rank, so the true quantile is ≤ the
// reported one; the overflow bucket reports -1).
package hist

import (
	"fmt"
	"math"
	"sort"
	"sync/atomic"
)

// LatencyBounds returns the upper bucket edges, in nanoseconds, of
// the service latency histograms: log-spaced 100µs to 10s on a 1-3-10
// ladder. The values are pinned by test — energyschedd's /stats
// payloads are built from them, and changing them would silently
// re-bucket every dashboard reading the service.
func LatencyBounds() []float64 {
	return []float64{1e5, 3e5, 1e6, 3e6, 1e7, 3e7, 1e8, 3e8, 1e9, 3e9, 1e10}
}

// outcomeBounds backs OutcomeBounds: 32 buckets per decade over
// [1e-6, 1e9], so any positive energy or makespan a campaign can
// plausibly produce lands in a bucket ~7.5% wide — fine enough for
// meaningful p50/p99 readouts, coarse enough that two histograms per
// campaign cost a few kilobytes.
var outcomeBounds = func() []float64 {
	const perDecade, lo, hi = 32, -6, 9
	b := make([]float64, 0, (hi-lo)*perDecade+1)
	for k := lo * perDecade; k <= hi*perDecade; k++ {
		b = append(b, math.Pow(10, float64(k)/perDecade))
	}
	return b
}()

// OutcomeBounds returns the shared scale-free geometric grid used for
// campaign outcome histograms. The slice is shared across callers and
// must not be modified.
func OutcomeBounds() []float64 { return outcomeBounds }

// BucketIndex returns the index of the bucket v falls in: the first bound
// with v <= bound (inclusive upper edges), or len(bounds) for the
// overflow bucket.
func BucketIndex(bounds []float64, v float64) int {
	return sort.SearchFloat64s(bounds, v)
}

// Quantile is the shared conservative bucket quantile over raw
// (bounds, counts) data: the upper edge of the bucket containing the
// q-rank (rank rounded half-up, clamped to ≥ 1), -1 when the rank
// lands in the overflow bucket, 0 when the histogram is empty. Both
// histogram variants and the service's /stats snapshot route through
// it, so the quantile convention cannot diverge between them.
func Quantile(bounds []float64, counts []int64, count int64, q float64) float64 {
	if count == 0 {
		return 0
	}
	rank := int64(q*float64(count) + 0.5)
	if rank < 1 {
		rank = 1
	}
	var cum int64
	for i, c := range counts {
		cum += c
		if cum >= rank {
			if i >= len(bounds) {
				return -1
			}
			return bounds[i]
		}
	}
	return -1
}

// QuantileMs is Quantile over nanosecond bounds, converted to
// milliseconds; the 0 (empty) and -1 (overflow) sentinels pass
// through unscaled.
func QuantileMs(boundsNs []float64, counts []int64, count int64, q float64) float64 {
	v := Quantile(boundsNs, counts, count, q)
	if v > 0 {
		return v / 1e6
	}
	return v
}

// Histogram is a fixed-bound bucket histogram with plain counters:
// cheap deterministic observation for a single writer. It is not safe
// for concurrent use; use Atomic where observers race.
type Histogram struct {
	bounds []float64
	counts []int64 // len(bounds)+1; last is the overflow bucket
	count  int64
	sum    float64
}

// New returns an empty histogram over the given sorted inclusive
// upper edges. The bounds slice is retained and must not be modified.
func New(bounds []float64) *Histogram {
	return &Histogram{bounds: bounds, counts: make([]int64, len(bounds)+1)}
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	h.count++
	h.sum += v
	h.counts[BucketIndex(h.bounds, v)]++
}

// ObserveBucket records one value whose bucket index the caller has
// already computed as BucketIndex(bounds, v) over this histogram's bounds,
// so a sequential reduction can skip the search.
func (h *Histogram) ObserveBucket(v float64, i int) {
	h.count++
	h.sum += v
	h.counts[i]++
}

// Reset empties the histogram for reuse without reallocating.
func (h *Histogram) Reset() {
	h.count = 0
	h.sum = 0
	for i := range h.counts {
		h.counts[i] = 0
	}
}

// Count returns the number of observations.
func (h *Histogram) Count() int64 { return h.count }

// Quantile returns the conservative bucket quantile (see the package
// comment for its semantics).
func (h *Histogram) Quantile(q float64) float64 {
	return Quantile(h.bounds, h.counts, h.count, q)
}

// Bucket is one non-empty bucket of a JSON snapshot; Le is the
// inclusive upper edge, encoded as -1 for the overflow bucket.
type Bucket struct {
	Le    float64 `json:"le"`
	Count int64   `json:"count"`
}

// JSON is the serialized form of a Histogram: summary statistics plus
// the sparse list of non-empty buckets in ascending edge order.
type JSON struct {
	Count   int64    `json:"count"`
	Mean    float64  `json:"mean"`
	P50     float64  `json:"p50"`
	P99     float64  `json:"p99"`
	Buckets []Bucket `json:"buckets"`
}

// JSON renders the histogram for serialization. Only non-empty
// buckets are emitted, so wide scale-free grids stay compact.
func (h *Histogram) JSON() *JSON {
	j := &JSON{
		Count: h.count,
		P50:   h.Quantile(0.50),
		P99:   h.Quantile(0.99),
	}
	if h.count > 0 {
		j.Mean = h.sum / float64(h.count)
	}
	nonEmpty := 0
	for _, c := range h.counts {
		if c > 0 {
			nonEmpty++
		}
	}
	j.Buckets = make([]Bucket, 0, nonEmpty)
	for i, c := range h.counts {
		if c == 0 {
			continue
		}
		le := -1.0
		if i < len(h.bounds) {
			le = h.bounds[i]
		}
		j.Buckets = append(j.Buckets, Bucket{Le: le, Count: c})
	}
	return j
}

// IndexCount is one non-empty bucket of a State, addressed by bucket
// index rather than edge value so restoration is exact whatever the
// grid: index len(bounds) is the overflow bucket.
type IndexCount struct {
	Index int   `json:"i"`
	Count int64 `json:"c"`
}

// State is the serializable raw content of a Histogram — the exact
// counters, not the derived JSON view — for checkpointing streamed
// aggregations. A State round-trips through encoding/json without
// loss: counts are integers and Go's float64 JSON encoding is
// shortest-round-trip exact for finite sums, so
// Restore(State()) reproduces the histogram bit-for-bit.
type State struct {
	Count   int64        `json:"count"`
	Sum     float64      `json:"sum"`
	Buckets []IndexCount `json:"buckets,omitempty"`
}

// State snapshots the histogram's raw counters, emitting only
// non-empty buckets.
func (h *Histogram) State() *State {
	st := &State{Count: h.count, Sum: h.sum}
	for i, c := range h.counts {
		if c != 0 {
			st.Buckets = append(st.Buckets, IndexCount{Index: i, Count: c})
		}
	}
	return st
}

// Restore overwrites the histogram with a snapshot taken by State on
// a histogram over the same bounds. Out-of-range bucket indices or
// negative counts — a corrupt or doctored checkpoint — are rejected,
// leaving the histogram reset.
func (h *Histogram) Restore(st *State) error {
	h.Reset()
	if st == nil {
		return nil
	}
	for _, b := range st.Buckets {
		if b.Index < 0 || b.Index >= len(h.counts) {
			h.Reset()
			return fmt.Errorf("hist: bucket index %d out of range [0, %d)", b.Index, len(h.counts))
		}
		if b.Count < 0 {
			h.Reset()
			return fmt.Errorf("hist: bucket %d has negative count %d", b.Index, b.Count)
		}
		h.counts[b.Index] = b.Count
	}
	if st.Count < 0 {
		h.Reset()
		return fmt.Errorf("hist: negative observation count %d", st.Count)
	}
	h.count = st.Count
	h.sum = st.Sum
	return nil
}

// Atomic is a fixed-bound histogram with lock-free observation for
// concurrent writers. Values are integers in whatever unit the caller
// chose (the latency tracker uses nanoseconds); bounds are compared
// after conversion to float64, which is exact for magnitudes below
// 2⁵³.
type Atomic struct {
	bounds  []float64
	count   atomic.Int64
	sum     atomic.Int64
	max     atomic.Int64
	buckets []atomic.Int64
}

// NewAtomic returns an empty atomic histogram over the given sorted
// inclusive upper edges. The bounds slice is retained and must not be
// modified.
func NewAtomic(bounds []float64) *Atomic {
	return &Atomic{bounds: bounds, buckets: make([]atomic.Int64, len(bounds)+1)}
}

// Observe records one value.
func (a *Atomic) Observe(v int64) {
	a.count.Add(1)
	a.sum.Add(v)
	for {
		cur := a.max.Load()
		if v <= cur || a.max.CompareAndSwap(cur, v) {
			break
		}
	}
	a.buckets[BucketIndex(a.bounds, float64(v))].Add(1)
}

// Max returns the largest observed value, or 0 when empty. Unlike the
// bucketed quantiles it is exact — load reports read the true worst
// request from it rather than a bucket edge.
func (a *Atomic) Max() int64 { return a.max.Load() }

// Bounds returns the histogram's upper edges. The slice is shared and
// must not be modified.
func (a *Atomic) Bounds() []float64 { return a.bounds }

// Snapshot loads the current totals and a copy of the per-bucket
// counts. Concurrent observers may land between the loads; count and
// sum are loaded before the buckets so a racing Observe (which bumps
// count first, bucket last) can only make the bucket copy run ahead
// of the count, never behind it — the skew direction under which the
// conservative quantile stays well-defined.
func (a *Atomic) Snapshot() (count, sum int64, counts []int64) {
	count = a.count.Load()
	sum = a.sum.Load()
	counts = make([]int64, len(a.buckets))
	for i := range a.buckets {
		counts[i] = a.buckets[i].Load()
	}
	return count, sum, counts
}

// Quantile returns the conservative bucket quantile over a snapshot.
func (a *Atomic) Quantile(q float64) float64 {
	count, _, counts := a.Snapshot()
	return Quantile(a.bounds, counts, count, q)
}
