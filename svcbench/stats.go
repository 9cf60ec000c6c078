package main

import (
	"math"
	"slices"
	"time"
)

// quantile returns the exact q-quantile of samples by the nearest-rank
// rule: the smallest sample with at least q·n samples at or below it.
// Every reported value is therefore a latency some request really had.
// samples must be sorted ascending; an empty slice reports NaN.
func quantile(sorted []float64, q float64) float64 {
	n := len(sorted)
	if n == 0 {
		return math.NaN()
	}
	rank := int(math.Ceil(q * float64(n)))
	if rank < 1 {
		rank = 1
	}
	if rank > n {
		rank = n
	}
	return sorted[rank-1]
}

// dist is a set of raw samples in one unit, kept whole so every
// quantile is exact and reported with its sample count.
type dist struct {
	vals   []float64
	sorted bool
}

func (d *dist) add(v float64) {
	d.vals = append(d.vals, v)
	d.sorted = false
}

func (d *dist) addDur(v time.Duration, unit time.Duration) {
	d.add(float64(v) / float64(unit))
}

func (d *dist) n() int { return len(d.vals) }

func (d *dist) q(q float64) float64 {
	if !d.sorted {
		slices.Sort(d.vals)
		d.sorted = true
	}
	return quantile(d.vals, q)
}

func (d *dist) mean() float64 {
	if len(d.vals) == 0 {
		return math.NaN()
	}
	s := 0.0
	for _, v := range d.vals {
		s += v
	}
	return s / float64(len(d.vals))
}

// median returns the median of vs without reordering the caller's
// slice; set-up times are reported this way.
func median(vs []float64) float64 {
	c := slices.Clone(vs)
	slices.Sort(c)
	n := len(c)
	if n == 0 {
		return math.NaN()
	}
	if n%2 == 1 {
		return c[n/2]
	}
	return (c[n/2-1] + c[n/2]) / 2
}

// breakdown is the per-op mean latency split into the layers the
// traced run times. The parts are defined so they partition the
// request's wall time exactly:
//
//	latency   = due time → last response byte
//	lag       = due time → the generator issued the request
//	connWait  = waiting for one of the capped client connections
//	transport = client round trip − connWait − front handler time
//	router    = Σ router handler time − Σ backend handler time
//	server    = Σ backend handler time on /v1/* legs
//
// and the server part splits again into the layer-pass sum (the same
// requests replayed through each layer's public function) plus what
// that replay could not attribute.
type breakdown struct {
	Latency      float64
	Lag          float64
	ConnWait     float64
	Transport    float64
	RouterSelf   float64
	Server       float64
	LayerPass    float64
	Unattributed float64
}

// newBreakdown derives the per-op means from the traced run's sums:
// ops completed requests, and the summed durations of each boundary.
// frontSum is the handler time of whichever component the client
// talks to (the router, or the single server); backendSum the /v1/*
// handler time of every backend leg. layerPass is the replayed
// per-op mean of the server's layer functions.
func newBreakdown(ops int, latencySum, lagSum, connWaitSum, frontSum, backendSum time.Duration, layerPass float64) breakdown {
	per := func(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) / float64(ops) }
	b := breakdown{
		Latency:   per(latencySum),
		Lag:       per(lagSum),
		ConnWait:  per(connWaitSum),
		Transport: per(latencySum - lagSum - connWaitSum - frontSum),
		// A request-front router's self time is its handler time minus
		// the backend legs it waited on; with no router the front is the
		// server itself and the difference is zero.
		RouterSelf: per(frontSum - backendSum),
		Server:     per(backendSum),
		LayerPass:  layerPass,
	}
	b.Unattributed = b.Server - b.LayerPass
	return b
}

// sum adds the parts back up; it equals Latency up to rounding.
func (b breakdown) sum() float64 {
	return b.Lag + b.ConnWait + b.Transport + b.RouterSelf + b.LayerPass + b.Unattributed
}
