package client

import "energysched/internal/cache"

// Stats is the part of a GET /stats document that clients read: the
// request, solve and admission counters plus the cache block. It
// decodes from energyschedd and from energyrouter, whose top level
// sums these fields over its backends.
type Stats struct {
	Requests  int64       `json:"requests"`
	Solved    int64       `json:"solved"`
	Simulated int64       `json:"simulated"`
	Swept     int64       `json:"swept"`
	Errors    int64       `json:"errors"`
	Timeouts  int64       `json:"timeouts"`
	InFlight  int64       `json:"inFlight"`
	Queued    int64       `json:"queued"`
	Shed      int64       `json:"shed"`
	Coalesced int64       `json:"coalesced"`
	Cache     cache.Stats `json:"cache"`
}

// Add sums o into s field by field.
func (s *Stats) Add(o *Stats) {
	s.Requests += o.Requests
	s.Solved += o.Solved
	s.Simulated += o.Simulated
	s.Swept += o.Swept
	s.Errors += o.Errors
	s.Timeouts += o.Timeouts
	s.InFlight += o.InFlight
	s.Queued += o.Queued
	s.Shed += o.Shed
	s.Coalesced += o.Coalesced
	s.Cache.Hits += o.Cache.Hits
	s.Cache.Misses += o.Cache.Misses
	s.Cache.Evictions += o.Cache.Evictions
	s.Cache.Entries += o.Cache.Entries
	s.Cache.Capacity += o.Cache.Capacity
}
