package obs

import (
	"runtime"
	"sync"
	"time"
)

// memStatsCache amortizes runtime.ReadMemStats across the gauges that
// read it: one stop-the-world snapshot serves a whole scrape (and any
// scrape within the TTL), instead of one per registered series.
type memStatsCache struct {
	mu   sync.Mutex
	at   time.Time
	ttl  time.Duration
	stat runtime.MemStats
}

func (c *memStatsCache) get() *runtime.MemStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	if now := time.Now(); now.Sub(c.at) > c.ttl {
		runtime.ReadMemStats(&c.stat)
		c.at = now
	}
	return &c.stat
}

// RegisterRuntime adds goroutine, heap, and GC gauges to the registry.
// These are profiling-only series: registered without a /stats key,
// so a /stats request never calls runtime.ReadMemStats.
func RegisterRuntime(r *Registry) {
	ms := &memStatsCache{ttl: time.Second}
	r.GaugeFunc("go_goroutines", "Number of goroutines that currently exist.", "",
		func() float64 { return float64(runtime.NumGoroutine()) })
	r.GaugeFunc("go_memstats_heap_alloc_bytes", "Bytes of allocated heap objects.", "",
		func() float64 { return float64(ms.get().HeapAlloc) })
	r.GaugeFunc("go_memstats_heap_sys_bytes", "Bytes of heap memory obtained from the OS.", "",
		func() float64 { return float64(ms.get().HeapSys) })
	r.CounterFunc("go_memstats_alloc_bytes_total", "Cumulative bytes allocated for heap objects.", "",
		func() float64 { return float64(ms.get().TotalAlloc) })
	r.CounterFunc("go_gc_cycles_total", "Completed GC cycles.", "",
		func() float64 { return float64(ms.get().NumGC) })
	r.CounterFunc("go_gc_pause_seconds_total", "Cumulative GC stop-the-world pause time.", "",
		func() float64 { return float64(ms.get().PauseTotalNs) / 1e9 })
}

// RegisterTracer adds the tracer's own series to the registry (traced
// request count, profiling-only like RegisterRuntime); safe with a nil
// tracer, whose count is fixed at 0.
func RegisterTracer(r *Registry, t *Tracer) {
	r.CounterFunc("obs_traces_total", "Requests traced since process start.", "",
		func() float64 { return float64(t.Total()) })
}
