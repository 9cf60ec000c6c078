package tricrit

import (
	"math"

	"energysched/internal/convex"
	"energysched/internal/dag"
	"energysched/internal/platform"
)

// BestOfObserved is BestOf calling observe with every configuration
// the two heuristics evaluate after their shared start, and the
// certified bound each was admitted under. BestOf evaluates exactly
// the configurations DAGChainFirst and DAGParallelFirst evaluate.
func BestOfObserved(g *dag.Graph, mp *platform.Mapping, in Instance, observe func(bound float64, cfg *Config)) (*Config, error) {
	ec, err := newEvalCtx(g, mp, in)
	if err != nil {
		return nil, err
	}
	ec.observe = observe
	return ec.bestOf()
}

// Neighbour is one configuration one flip away from a priced one.
type Neighbour struct {
	Task   int
	Bound  float64 // certified by the priced configuration's dual
	Energy float64 // solved; NaN when the neighbour is infeasible
}

// Neighbours solves the configuration reexec and every configuration
// that differs from it in task i's re-execution, in either direction.
// It returns the solved energy, the certified bound of reexec's own
// dual (−Inf when the solve has none) and each neighbour's bound from
// that dual next to its solved energy.
func Neighbours(g *dag.Graph, mp *platform.Mapping, in Instance, reexec []bool) (energy, bound float64, nb []Neighbour, err error) {
	ec, err := newEvalCtx(g, mp, in)
	if err != nil {
		return 0, 0, nil, err
	}
	cfg, err := ec.eval(reexec)
	if err != nil {
		return 0, 0, nil, err
	}
	var dual convex.Dual
	ec.ws.Dual(ec.cg, ec.eff, &dual)
	flip := append([]bool(nil), reexec...)
	for i := range flip {
		w, lo := g.Weight(i), ec.loSingle[i]
		if !flip[i] {
			w, lo = 2*w, ec.loRe[i]
		}
		flip[i] = !flip[i]
		e := math.NaN()
		if c, err := ec.eval(flip); err == nil {
			e = c.Energy
		}
		flip[i] = !flip[i]
		nb = append(nb, Neighbour{Task: i, Bound: dual.BoundWith(i, w, lo, ec.hi[i]), Energy: e})
	}
	return cfg.Energy, dual.Bound(), nb, nil
}
