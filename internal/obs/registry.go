package obs

import (
	"fmt"
	"io"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// Kind is a metric family's Prometheus type.
type Kind uint8

const (
	KindCounter Kind = iota
	KindGauge
	KindHistogram
)

func (k Kind) String() string {
	switch k {
	case KindCounter:
		return "counter"
	case KindGauge:
		return "gauge"
	default:
		return "histogram"
	}
}

// Label is one metric label pair.
type Label struct{ Key, Value string }

// Sample is one counter or gauge observation a family's collector
// emits at scrape time.
type Sample struct {
	Labels []Label
	Value  float64
}

// HistSample is one duration-histogram series in integer nanoseconds,
// exactly the internal/hist.Atomic layout: bucket counts over ascending
// inclusive upper edges plus one trailing overflow bucket. /metrics
// renders it in seconds and /stats in milliseconds, each converted
// straight from the nanosecond data.
type HistSample struct {
	Labels   []Label
	BoundsNs []float64
	Counts   []int64 // len(BoundsNs)+1, last is overflow
	Count    int64
	SumNs    int64
}

// family is one registered metric name with its collector and the
// GET /stats key its samples render under ("" keeps it out of /stats).
type family struct {
	name, help  string
	kind        Kind
	statKey     string
	collect     func(emit func(Sample))
	collectHist func(emit func(HistSample))
}

// Registry is an ordered set of metric families with two encoders:
// Prometheus text exposition for GET /metrics and the nested JSON
// document for GET /stats. Collectors read live state at scrape time;
// the registry itself holds no metric values.
type Registry struct {
	mu       sync.Mutex
	families map[string]*family
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{families: map[string]*family{}}
}

func (r *Registry) register(f *family) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, dup := r.families[f.name]; dup {
		panic("obs: duplicate metric family " + f.name)
	}
	r.families[f.name] = f
}

// Counter registers a monotonically increasing series backed directly
// by v. statKey is the dotted GET /stats path the value renders under
// (e.g. "cache.hits"); "" keeps the family out of /stats, and its
// collector is then never called for a /stats request.
func (r *Registry) Counter(name, help, statKey string, v *atomic.Int64) {
	r.CounterFunc(name, help, statKey, func() float64 { return float64(v.Load()) })
}

// CounterFunc registers a counter series computed at scrape time.
func (r *Registry) CounterFunc(name, help, statKey string, f func() float64) {
	r.register(&family{name: name, help: help, kind: KindCounter, statKey: statKey,
		collect: func(emit func(Sample)) { emit(Sample{Value: f()}) }})
}

// Gauge registers a current-value series backed directly by v.
func (r *Registry) Gauge(name, help, statKey string, v *atomic.Int64) {
	r.GaugeFunc(name, help, statKey, func() float64 { return float64(v.Load()) })
}

// GaugeFunc registers a gauge series computed at scrape time.
func (r *Registry) GaugeFunc(name, help, statKey string, f func() float64) {
	r.register(&family{name: name, help: help, kind: KindGauge, statKey: statKey,
		collect: func(emit func(Sample)) { emit(Sample{Value: f()}) }})
}

// CounterVec registers a labeled counter family whose collector emits
// one Sample per label set at scrape time. A non-empty statKey has the
// row form "rows[id].field" (see Stats).
func (r *Registry) CounterVec(name, help, statKey string, collect func(emit func(Sample))) {
	r.register(&family{name: name, help: help, kind: KindCounter, statKey: statKey, collect: collect})
}

// GaugeVec registers a labeled gauge family; statKey as for CounterVec.
func (r *Registry) GaugeVec(name, help, statKey string, collect func(emit func(Sample))) {
	r.register(&family{name: name, help: help, kind: KindGauge, statKey: statKey, collect: collect})
}

// HistogramVec registers a labeled duration-histogram family. A
// non-empty statKey names the /stats object that holds one
// LatencyStat per series, keyed by the series' first label value.
func (r *Registry) HistogramVec(name, help, statKey string, collect func(emit func(HistSample))) {
	r.register(&family{name: name, help: help, kind: KindHistogram, statKey: statKey, collectHist: collect})
}

// sortedFamilies snapshots the family list in name order — the stable
// exposition ordering the golden tests pin.
func (r *Registry) sortedFamilies() []*family {
	r.mu.Lock()
	fams := make([]*family, 0, len(r.families))
	for _, f := range r.families {
		fams = append(fams, f)
	}
	r.mu.Unlock()
	sort.Slice(fams, func(i, j int) bool { return fams[i].name < fams[j].name })
	return fams
}

// WritePrometheus renders the registry in Prometheus text exposition
// format 0.0.4: families in name order, samples within a family in
// label order, histograms as cumulative _bucket/_sum/_count series.
// The ordering is deterministic so the output is golden-testable.
func (r *Registry) WritePrometheus(w io.Writer) error {
	var b strings.Builder
	for _, f := range r.sortedFamilies() {
		fmt.Fprintf(&b, "# HELP %s %s\n", f.name, escapeHelp(f.help))
		fmt.Fprintf(&b, "# TYPE %s %s\n", f.name, f.kind)
		if f.kind == KindHistogram {
			var hs []HistSample
			f.collectHist(func(s HistSample) { hs = append(hs, s) })
			sort.Slice(hs, func(i, j int) bool { return labelString(hs[i].Labels) < labelString(hs[j].Labels) })
			for _, s := range hs {
				writeHist(&b, f.name, s)
			}
			continue
		}
		var ss []Sample
		f.collect(func(s Sample) { ss = append(ss, s) })
		sort.Slice(ss, func(i, j int) bool { return labelString(ss[i].Labels) < labelString(ss[j].Labels) })
		for _, s := range ss {
			b.WriteString(f.name)
			b.WriteString(labelString(s.Labels))
			b.WriteByte(' ')
			b.WriteString(formatValue(s.Value))
			b.WriteByte('\n')
		}
	}
	_, err := io.WriteString(w, b.String())
	return err
}

// writeHist renders one histogram series in seconds: cumulative le
// buckets (overflow folded into +Inf), then _sum and _count.
func writeHist(b *strings.Builder, name string, s HistSample) {
	var cum int64
	for i, bound := range s.BoundsNs {
		if i < len(s.Counts) {
			cum += s.Counts[i]
		}
		writeBucket(b, name, s.Labels, formatValue(bound/1e9), cum)
	}
	writeBucket(b, name, s.Labels, "+Inf", s.Count)
	base := labelString(s.Labels)
	fmt.Fprintf(b, "%s_sum%s %s\n", name, base, formatValue(float64(s.SumNs)/1e9))
	fmt.Fprintf(b, "%s_count%s %d\n", name, base, s.Count)
}

func writeBucket(b *strings.Builder, name string, labels []Label, le string, cum int64) {
	b.WriteString(name)
	b.WriteString("_bucket{")
	for _, l := range labels {
		b.WriteString(l.Key)
		b.WriteString(`="`)
		b.WriteString(escapeLabel(l.Value))
		b.WriteString(`",`)
	}
	b.WriteString(`le="`)
	b.WriteString(le)
	b.WriteString(`"} `)
	b.WriteString(strconv.FormatInt(cum, 10))
	b.WriteByte('\n')
}

// labelString renders a label set as `{k="v",…}` (or "" when empty),
// with label values escaped. Registration order of labels is
// preserved — collectors emit them in a fixed order.
func labelString(labels []Label) string {
	if len(labels) == 0 {
		return ""
	}
	var b strings.Builder
	b.WriteByte('{')
	for i, l := range labels {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(l.Key)
		b.WriteString(`="`)
		b.WriteString(escapeLabel(l.Value))
		b.WriteByte('"')
	}
	b.WriteByte('}')
	return b.String()
}

func escapeLabel(v string) string {
	if !strings.ContainsAny(v, "\\\"\n") {
		return v
	}
	v = strings.ReplaceAll(v, `\`, `\\`)
	v = strings.ReplaceAll(v, "\n", `\n`)
	return strings.ReplaceAll(v, `"`, `\"`)
}

func escapeHelp(v string) string {
	if !strings.ContainsAny(v, "\\\n") {
		return v
	}
	v = strings.ReplaceAll(v, `\`, `\\`)
	return strings.ReplaceAll(v, "\n", `\n`)
}

// formatValue renders a float the shortest round-trippable way —
// integers stay integral ("42"), so counter lines look like counters.
func formatValue(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// MetricsHandler serves GET /metrics from the registry.
func MetricsHandler(r *Registry) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		r.WritePrometheus(w)
	})
}
