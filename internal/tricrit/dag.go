package tricrit

import (
	"cmp"
	"fmt"
	"math"
	"slices"

	"energysched/internal/convex"
	"energysched/internal/dag"
	"energysched/internal/platform"
	"energysched/internal/schedule"
)

// evalCtx caches everything the DAG heuristics reuse across their
// O(n) or O(n²) configuration evaluations: the constraint graph (one
// build instead of one per candidate), the reliability lower bounds,
// the effective-weight/bound vectors and a private convex workspace.
type evalCtx struct {
	g              *dag.Graph
	mp             *platform.Mapping
	cg             *dag.Graph
	in             Instance
	loSingle, loRe []float64
	eff, lo, hi    []float64
	ws             *convex.Workspace

	// observe, when set, sees every configuration a heuristic evaluates
	// with the certified bound it was admitted under.
	observe func(bound float64, cfg *Config)
}

// try evaluates a candidate admitted under a certified lower bound on
// its energy.
func (ec *evalCtx) try(reexec []bool, bound float64) (*Config, error) {
	cfg, err := ec.eval(reexec)
	if err == nil && ec.observe != nil {
		ec.observe(bound, cfg)
	}
	return cfg, err
}

func newEvalCtx(g *dag.Graph, mp *platform.Mapping, in Instance) (*evalCtx, error) {
	if err := in.Validate(); err != nil {
		return nil, err
	}
	loSingle, loRe, err := in.LowerBounds(g.Weights())
	if err != nil {
		return nil, err
	}
	cg, err := mp.ConstraintGraph(g)
	if err != nil {
		return nil, err
	}
	n := g.N()
	ec := &evalCtx{
		g: g, mp: mp, cg: cg, in: in,
		loSingle: loSingle, loRe: loRe,
		eff: make([]float64, n), lo: make([]float64, n), hi: make([]float64, n),
		ws: convex.NewWorkspace(),
	}
	for i := 0; i < n; i++ {
		ec.hi[i] = in.FMax
	}
	return ec, nil
}

// eval solves the continuous program for one re-execution set.
func (ec *evalCtx) eval(reexec []bool) (*Config, error) {
	n := ec.g.N()
	if len(reexec) != n {
		return nil, fmt.Errorf("tricrit: reexec length %d for %d tasks", len(reexec), n)
	}
	for i := 0; i < n; i++ {
		if reexec[i] {
			ec.eff[i] = 2 * ec.g.Weight(i)
			ec.lo[i] = ec.loRe[i]
		} else {
			ec.eff[i] = ec.g.Weight(i)
			ec.lo[i] = ec.loSingle[i]
		}
	}
	res, err := convex.MinimizeEnergyWS(ec.ws, ec.cg, ec.in.Deadline, ec.eff, ec.lo, ec.hi, convex.Options{})
	if err != nil {
		if err == convex.ErrInfeasible {
			return nil, ErrInfeasible
		}
		return nil, err
	}
	return &Config{ReExec: append([]bool(nil), reexec...), Speeds: res.Speeds, Energy: res.Energy}, nil
}

// EvalConfig computes the optimal speeds (and energy) for a *fixed*
// re-execution set on an arbitrary mapped DAG, by solving the
// continuous convex program with effective weights: a re-executed task
// contributes weight 2w (both executions back to back at equal speed)
// with lower speed bound f_inf(i); a single-executed task contributes
// w with lower bound frel.
func EvalConfig(g *dag.Graph, mp *platform.Mapping, reexec []bool, in Instance) (*Config, error) {
	ec, err := newEvalCtx(g, mp, in)
	if err != nil {
		return nil, err
	}
	return ec.eval(reexec)
}

// Schedule materializes a configuration as a validated worst-case
// schedule (both executions of re-executed tasks occupy the
// processor).
func (c *Config) Schedule(g *dag.Graph, mp *platform.Mapping) (*schedule.Schedule, error) {
	plan, err := schedule.NewConstantPlan(g, c.Speeds, c.ReExecSpeeds())
	if err != nil {
		return nil, err
	}
	return schedule.FromPlan(g, mp, plan)
}

// MaxExactDAGTasks bounds the subset enumeration of SolveDAGExact.
const MaxExactDAGTasks = 16

// SolveDAGExact enumerates every re-execution subset of a mapped DAG
// and evaluates each with EvalConfig — exponential, for validating
// heuristics on small instances only.
func SolveDAGExact(g *dag.Graph, mp *platform.Mapping, in Instance) (*Config, error) {
	n := g.N()
	if n > MaxExactDAGTasks {
		return nil, fmt.Errorf("tricrit: %d tasks exceed exact-solver cap %d", n, MaxExactDAGTasks)
	}
	ec, err := newEvalCtx(g, mp, in)
	if err != nil {
		return nil, err
	}
	var best *Config
	reexec := make([]bool, n)
	for mask := 0; mask < 1<<uint(n); mask++ {
		for i := 0; i < n; i++ {
			reexec[i] = mask&(1<<uint(i)) != 0
		}
		cfg, err := ec.eval(reexec)
		if err != nil {
			continue
		}
		if best == nil || cfg.Energy < best.Energy {
			best = cfg
		}
	}
	if best == nil {
		return nil, ErrInfeasible
	}
	return best, nil
}

// start evaluates the all-single configuration, the starting point
// of both heuristics, and reads its prices.
func (ec *evalCtx) start() (*Config, convex.Dual, error) {
	var dual convex.Dual
	cfg, err := ec.eval(make([]bool, ec.g.N()))
	if err != nil {
		return nil, dual, err
	}
	ec.ws.Dual(ec.cg, ec.eff, &dual)
	return cfg, dual, nil
}

// reExecBound is a certified lower bound on the energy of the
// configuration priced by dual with task i switched to re-execution.
func (ec *evalCtx) reExecBound(dual *convex.Dual, i int) float64 {
	return dual.BoundWith(i, 2*ec.g.Weight(i), ec.loRe[i], ec.hi[i])
}

// DAGChainFirst generalizes the ChainFirst heuristic to arbitrary
// mapped DAGs: start from the all-single configuration (every task
// slowed as much as reliability and deadline allow) and greedily grow
// the re-execution set by the move with the best energy gain,
// re-evaluating with the convex solver after each move. O(n²) convex
// solves at most; the incumbent's dual prices skip the moves that
// provably cannot be picked.
func DAGChainFirst(g *dag.Graph, mp *platform.Mapping, in Instance) (*Config, error) {
	ec, err := newEvalCtx(g, mp, in)
	if err != nil {
		return nil, err
	}
	cur, dual, err := ec.start()
	if err != nil {
		return nil, err
	}
	return ec.chainFirst(cur, dual), nil
}

// chainFirst runs ChainFirst's rounds from cur, priced by dual. A
// round picks the lowest-index move of least energy among those that
// come in below bar, the incumbent's energy less a relative 1e-9. It
// evaluates the moves in ascending order of their certified bounds and
// stops at the first whose bound reaches bar or exceeds the round's
// best energy so far: neither it nor any later move could be picked.
func (ec *evalCtx) chainFirst(cur *Config, dual convex.Dual) *Config {
	n := ec.g.N()
	reexec := append([]bool(nil), cur.ReExec...)
	bound := make([]float64, n)
	order := make([]int, 0, n)
	var bestDual convex.Dual
	for {
		order = order[:0]
		for i := 0; i < n; i++ {
			if !reexec[i] {
				bound[i] = ec.reExecBound(&dual, i)
				order = append(order, i)
			}
		}
		slices.SortStableFunc(order, func(a, b int) int { return cmp.Compare(bound[a], bound[b]) })
		bar := cur.Energy * (1 - 1e-9)
		bestIdx := -1
		var bestCfg *Config
		for _, i := range order {
			if bound[i] >= bar || bestCfg != nil && bound[i] > bestCfg.Energy {
				break
			}
			reexec[i] = true
			cfg, err := ec.try(reexec, bound[i])
			reexec[i] = false
			if err != nil {
				continue
			}
			if cfg.Energy < bar && (bestCfg == nil || cfg.Energy < bestCfg.Energy || cfg.Energy == bestCfg.Energy && i < bestIdx) {
				bestCfg, bestIdx = cfg, i
				ec.ws.Dual(ec.cg, ec.eff, &bestDual)
			}
		}
		if bestIdx == -1 {
			return cur
		}
		reexec[bestIdx] = true
		cur = bestCfg
		dual, bestDual = bestDual, dual
	}
}

// DAGParallelFirst is the fork-inspired heuristic for arbitrary mapped
// DAGs: it ranks tasks by *slack* — how much a task's window could
// stretch without violating the deadline in the all-single continuous
// solution — and offers re-execution to the most parallelizable
// (highest-slack) tasks first, keeping each move that lowers energy.
// One pass, O(n) convex solves at most; a move whose certified bound
// cannot lower the incumbent's energy is skipped unsolved. On highly
// parallel DAGs (forks, wide layers) this matches the polynomial fork
// strategy; on chains it degenerates gracefully.
func DAGParallelFirst(g *dag.Graph, mp *platform.Mapping, in Instance) (*Config, error) {
	ec, err := newEvalCtx(g, mp, in)
	if err != nil {
		return nil, err
	}
	cur, dual, err := ec.start()
	if err != nil {
		return nil, err
	}
	return ec.parallelFirst(cur, dual)
}

// parallelFirst runs ParallelFirst's pass from cur, priced by dual.
func (ec *evalCtx) parallelFirst(cur *Config, dual convex.Dual) (*Config, error) {
	g, n := ec.g, ec.g.N()
	slack, err := taskSlacks(ec.cg, cur, ec.in.Deadline, g)
	if err != nil {
		return nil, err
	}
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	// Highest slack first; ties by heavier weight (more energy at
	// stake).
	for i := 1; i < n; i++ {
		for j := i; j > 0; j-- {
			a, b := order[j-1], order[j]
			if slack[b] > slack[a] || (slack[b] == slack[a] && g.Weight(b) > g.Weight(a)) {
				order[j-1], order[j] = order[j], order[j-1]
			} else {
				break
			}
		}
	}
	reexec := append([]bool(nil), cur.ReExec...)
	for _, i := range order {
		bar := cur.Energy * (1 - 1e-9)
		bound := ec.reExecBound(&dual, i)
		if bound >= bar {
			continue
		}
		reexec[i] = true
		cfg, err := ec.try(reexec, bound)
		if err != nil || cfg.Energy >= bar {
			reexec[i] = false
			continue
		}
		cur = cfg
		ec.ws.Dual(ec.cg, ec.eff, &dual)
	}
	return cur, nil
}

// taskSlacks returns D − (longest constraint-graph path through each
// task) under the configuration's durations: the amount of extra time
// the task could absorb alone.
func taskSlacks(cg *dag.Graph, cfg *Config, deadline float64, g *dag.Graph) ([]float64, error) {
	n := cg.N()
	dur := make([]float64, n)
	for i := 0; i < n; i++ {
		mult := 1.0
		if cfg.ReExec[i] {
			mult = 2
		}
		dur[i] = mult * g.Weight(i) / cfg.Speeds[i]
	}
	top, _, err := cg.LongestPath(dur) // longest path ending at i, inclusive
	if err != nil {
		return nil, err
	}
	order, err := cg.TopoOrder()
	if err != nil {
		return nil, err
	}
	// tail[i]: longest path starting right after i.
	tail := make([]float64, n)
	for k := len(order) - 1; k >= 0; k-- {
		u := order[k]
		best := 0.0
		for _, v := range cg.Succs(u) {
			if t := tail[v] + dur[v]; t > best {
				best = t
			}
		}
		tail[u] = best
	}
	slack := make([]float64, n)
	for i := 0; i < n; i++ {
		slack[i] = deadline - (top[i] + tail[i])
	}
	return slack, nil
}

// BestOf runs both heuristic families and returns the cheaper
// configuration — the paper's "taking the best result out of those two
// heuristics always gives the best result over all simulations". Both
// start from one all-single solve on one constraint graph.
func BestOf(g *dag.Graph, mp *platform.Mapping, in Instance) (*Config, error) {
	ec, err := newEvalCtx(g, mp, in)
	if err != nil {
		return nil, err
	}
	return ec.bestOf()
}

func (ec *evalCtx) bestOf() (*Config, error) {
	cur, dual, err := ec.start()
	if err != nil {
		return nil, err
	}
	a := ec.chainFirst(cur, dual.Clone())
	b, err := ec.parallelFirst(cur, dual)
	if err != nil || a.Energy <= b.Energy {
		return a, nil
	}
	return b, nil
}

// BiCritLowerBound returns the energy of the bi-criteria relaxation
// (reliability constraints dropped, single execution per task, speeds
// free down to fmin) — a lower bound on any TRI-CRIT solution, used to
// normalize heuristic comparisons.
func BiCritLowerBound(g *dag.Graph, mp *platform.Mapping, in Instance) (float64, error) {
	cg, err := mp.ConstraintGraph(g)
	if err != nil {
		return 0, err
	}
	n := g.N()
	lo := make([]float64, n)
	hi := make([]float64, n)
	for i := range lo {
		lo[i] = in.FMin
		hi[i] = in.FMax
	}
	res, err := convex.MinimizeEnergy(cg, in.Deadline, g.Weights(), lo, hi, convex.Options{})
	if err != nil {
		if err == convex.ErrInfeasible {
			return 0, ErrInfeasible
		}
		return 0, err
	}
	return res.Energy, nil
}

// Gap returns (energy − lower) / lower, guarding degenerate bounds.
func Gap(energy, lower float64) float64 {
	if lower <= 0 {
		return math.Inf(1)
	}
	return energy/lower - 1
}
