package obs

import (
	"strings"

	"energysched/internal/hist"
)

// LatencyStat is one duration-histogram series in the GET /stats
// document, in milliseconds. The field order is the wire order.
type LatencyStat struct {
	Count   int64           `json:"count"`
	TotalMs float64         `json:"totalMs"`
	MeanMs  float64         `json:"meanMs"`
	P50Ms   float64         `json:"p50Ms"`
	P99Ms   float64         `json:"p99Ms"`
	Buckets []LatencyBucket `json:"buckets"`
}

// LatencyBucket is one LatencyStat bucket: LeMs is the inclusive upper
// edge in milliseconds, -1 for the overflow bucket.
type LatencyBucket struct {
	LeMs  float64 `json:"leMs"`
	Count int64   `json:"count"`
}

// Stats renders the registry as the nested GET /stats document: the
// JSON view of the samples WritePrometheus renders as text. A family's
// statKey places its samples:
//
//   - "a.b.c" (scalar families): the value goes to doc.a.b.c, with the
//     objects on the way created as needed.
//   - "rows[id].field" (vec families): doc.rows is an array holding one
//     object per distinct first-label value, in the order the values
//     are first emitted. The object carries the label value under id
//     and the sample value under field.
//   - A trailing "?" renders the value as a JSON boolean (non-zero is
//     true).
//   - Histogram families: the object at statKey holds one LatencyStat
//     per series, keyed by the series' first label value.
//
// Families registered with an empty statKey, the go_ and obs_
// profiling series among them, are skipped without calling their
// collectors. Values are float64, which encoding/json writes exactly
// as it writes the integers the counters hold.
func (r *Registry) Stats() map[string]any {
	doc := map[string]any{}
	for _, f := range r.sortedFamilies() {
		switch {
		case f.statKey == "":
		case f.kind == KindHistogram:
			parent, key := leaf(doc, f.statKey)
			series := map[string]any{}
			parent[key] = series
			f.collectHist(func(s HistSample) { series[s.Labels[0].Value] = latencyStat(s) })
		case strings.Contains(f.statKey, "["):
			path, rest, _ := strings.Cut(f.statKey, "[")
			id, field, _ := strings.Cut(rest, "].")
			f.collect(func(s Sample) { set(row(doc, path, id, s.Labels[0].Value), field, s.Value) })
		default:
			f.collect(func(s Sample) { set(doc, f.statKey, s.Value) })
		}
	}
	return doc
}

// leaf walks the dotted path down from m, creating missing objects,
// and returns the object holding the last segment plus that segment.
func leaf(m map[string]any, path string) (map[string]any, string) {
	for {
		k, rest, ok := strings.Cut(path, ".")
		if !ok {
			return m, path
		}
		next, isObject := m[k].(map[string]any)
		if !isObject {
			next = map[string]any{}
			m[k] = next
		}
		m, path = next, rest
	}
}

// set stores v at the dotted path under m, as a boolean when the path
// ends in "?".
func set(m map[string]any, path string, v float64) {
	parent, key := leaf(m, path)
	if name, isBool := strings.CutSuffix(key, "?"); isBool {
		parent[name] = v != 0
		return
	}
	parent[key] = v
}

// row returns the object in the array at path whose id field equals
// value, appending a new one when none does.
func row(doc map[string]any, path, id, value string) map[string]any {
	parent, key := leaf(doc, path)
	rows, _ := parent[key].([]map[string]any)
	for _, r := range rows {
		if r[id] == value {
			return r
		}
	}
	r := map[string]any{id: value}
	parent[key] = append(rows, r)
	return r
}

// latencyStat converts one nanosecond series to its millisecond
// /stats entry.
func latencyStat(s HistSample) LatencyStat {
	st := LatencyStat{
		Count:   s.Count,
		TotalMs: float64(s.SumNs) / 1e6,
		P50Ms:   hist.QuantileMs(s.BoundsNs, s.Counts, s.Count, 0.50),
		P99Ms:   hist.QuantileMs(s.BoundsNs, s.Counts, s.Count, 0.99),
		Buckets: make([]LatencyBucket, len(s.Counts)),
	}
	if st.Count > 0 {
		st.MeanMs = st.TotalMs / float64(st.Count)
	}
	for i, c := range s.Counts {
		le := -1.0
		if i < len(s.BoundsNs) {
			le = s.BoundsNs[i] / 1e6
		}
		st.Buckets[i] = LatencyBucket{LeMs: le, Count: c}
	}
	return st
}
