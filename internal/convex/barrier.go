// Package convex solves the CONTINUOUS BI-CRIT problem on arbitrary
// DAGs: choose execution durations minimizing total energy subject to
// precedence, processor-exclusivity and deadline constraints.
//
// The paper formulates this as a geometric program (Section III,
// citing Boyd & Vandenberghe §4.5). In duration space it is an
// ordinary convex program:
//
//	minimize   Σ Wᵢ³ / dᵢ²
//	subject to s_v ≥ s_u + d_u        for every constraint edge u→v
//	           s_i + d_i ≤ D, s_i ≥ 0
//	           Wᵢ/fmaxᵢ ≤ dᵢ ≤ Wᵢ/fminᵢ
//
// because running task i for dᵢ time units at constant speed Wᵢ/dᵢ
// costs Wᵢ³/dᵢ² joules (and constant speeds are optimal per task by
// convexity of the power function). Wᵢ is an *effective* weight: for
// TRI-CRIT solvers a re-executed task contributes Wᵢ = 2wᵢ, which
// keeps the same algebraic form.
//
// The solver is a log-barrier interior-point method with damped Newton
// steps. Every constraint involves at most one duration variable, so
// the (d,d) block of the barrier Hessian is diagonal and each Newton
// system reduces, by Schur complement, to an n×n system over the start
// times whose sparsity is the constraint graph (plus sibling fill-in).
// Under a topological ordering that system is banded — bandwidth 1 on
// chains, small on series-parallel graphs — so a Newton step on a
// chain costs O(n) instead of the O(n³) of a dense factorization; on
// general DAGs the band widens until it degenerates gracefully into a
// dense (still half-dimension) factorization. All intermediate storage
// lives in a reusable Workspace, making repeated solves free of
// steady-state allocations.
package convex

import (
	"errors"
	"fmt"
	"math"
	"slices"

	"energysched/internal/dag"
)

// Options tunes the barrier solver. Zero values select defaults.
type Options struct {
	// Tol is the relative convergence tolerance (default 1e-8 on the
	// barrier parameter scale).
	Tol float64
	// MaxOuter bounds the number of barrier reductions (default 40).
	MaxOuter int
	// MaxInner bounds gradient iterations per barrier value (default
	// 400).
	MaxInner int
}

func (o Options) withDefaults() Options {
	if o.Tol <= 0 {
		o.Tol = 1e-8
	}
	if o.MaxOuter <= 0 {
		o.MaxOuter = 40
	}
	if o.MaxInner <= 0 {
		o.MaxInner = 400
	}
	return o
}

// Result is the solver output.
type Result struct {
	// Durations[i] is the optimal total execution time of task i.
	Durations []float64
	// Speeds[i] = W_i / Durations[i], the constant execution speed.
	Speeds []float64
	// Starts[i] is a feasible start time realizing the durations.
	Starts []float64
	// Energy is Σ Wᵢ³/dᵢ².
	Energy float64
	// Iterations counts total inner gradient steps.
	Iterations int
}

// ErrInfeasible is returned when even fmax everywhere misses the
// deadline.
var ErrInfeasible = errors.New("convex: deadline infeasible even at fmax")

// MinimizeEnergy solves the convex program above. cg must be the
// *constraint graph* (precedence edges plus consecutive-on-processor
// edges). effWeights[i] is the effective weight Wᵢ; lo[i] and hi[i]
// bound the speed of task i (hi[i] may be +Inf for "no upper duration
// bound", i.e. fmin = 0).
//
// Scratch buffers come from an internal pool; callers running many
// solves on one goroutine can avoid even the pool handoff by holding
// their own Workspace and calling MinimizeEnergyWS.
func MinimizeEnergy(cg *dag.Graph, deadline float64, effWeights, lo, hi []float64, opt Options) (*Result, error) {
	ws := wsPool.Get().(*Workspace)
	res, err := MinimizeEnergyWS(ws, cg, deadline, effWeights, lo, hi, opt)
	wsPool.Put(ws)
	return res, err
}

// MinimizeEnergyWS is MinimizeEnergy solving through the caller's
// Workspace. The workspace grows as needed and may be reused across
// solves of any size; only the Result allocates.
func MinimizeEnergyWS(ws *Workspace, cg *dag.Graph, deadline float64, effWeights, lo, hi []float64, opt Options) (*Result, error) {
	opt = opt.withDefaults()
	ws.iterOK = false
	n := cg.N()
	if len(effWeights) != n || len(lo) != n || len(hi) != n {
		return nil, fmt.Errorf("convex: vector lengths (%d,%d,%d) for %d tasks", len(effWeights), len(lo), len(hi), n)
	}
	if deadline <= 0 || math.IsNaN(deadline) {
		return nil, fmt.Errorf("convex: invalid deadline %v", deadline)
	}
	if err := ws.prepare(cg); err != nil {
		return nil, err
	}
	lbD, ubD := ws.lbD, ws.ubD
	for i := 0; i < n; i++ {
		if effWeights[i] <= 0 {
			return nil, fmt.Errorf("convex: non-positive effective weight for task %d", i)
		}
		if hi[i] <= 0 || math.IsInf(hi[i], 1) || math.IsNaN(hi[i]) {
			return nil, fmt.Errorf("convex: invalid speed upper bound %v for task %d", hi[i], i)
		}
		if lo[i] < 0 || lo[i] > hi[i]+1e-12 {
			return nil, fmt.Errorf("convex: invalid speed bounds [%v,%v] for task %d", lo[i], hi[i], i)
		}
		lbD[i] = effWeights[i] / hi[i]
		if lo[i] > 0 {
			ubD[i] = effWeights[i] / lo[i]
		} else {
			ubD[i] = math.Inf(1)
		}
	}
	_, msMin := ws.longestPath(cg, lbD)
	if msMin > deadline*(1+1e-9) {
		return nil, ErrInfeasible
	}
	stretch := deadline / msMin
	if stretch < 1+1e-6 {
		// No interior: the deadline equals the fmax critical path.
		// Everything runs at full speed; this is within O(1e-6) of
		// optimal since no task has slack to exploit.
		return ws.fmaxResult(cg, effWeights)
	}

	// Strictly feasible initial point: inflate the fmax durations
	// toward the deadline but keep ~10% slack, clamp inside duration
	// boxes, then ASAP with 1% inflated durations to open slack on
	// every precedence edge, plus a uniform shift for s > 0.
	d0, s0, inflated := ws.d0, ws.s0, ws.inflated
	for i := 0; i < n; i++ {
		grow := 1 + 0.85*(stretch-1)
		d0[i] = lbD[i] * grow
		if d0[i] > ubD[i] {
			d0[i] = lbD[i] + 0.95*(ubD[i]-lbD[i])
		}
	}
	for i := range inflated {
		inflated[i] = d0[i] * 1.005
	}
	fin, ms0 := ws.longestPath(cg, inflated)
	// Shrink everything if inflation overshot the deadline.
	if ms0 >= deadline {
		shrink := 0.98 * deadline / ms0
		for i := range d0 {
			d0[i] *= shrink
			if d0[i] < lbD[i] {
				d0[i] = lbD[i] * (1 + 1e-7)
			}
			inflated[i] = d0[i] * 1.005
		}
		fin, ms0 = ws.longestPath(cg, inflated)
		if ms0 >= deadline {
			// Extremely tight instance: fall back to fmax.
			return ws.fmaxResult(cg, effWeights)
		}
	}
	shift := 0.25 * (deadline - ms0)
	if shift > 0.01*deadline {
		shift = 0.01 * deadline
	}
	for i := 0; i < n; i++ {
		s0[i] = fin[i] - inflated[i] + shift
	}

	p := &problem{ws: ws, cg: cg, W: effWeights, D: deadline, n: n}
	z := ws.z
	copy(z[:n], d0)
	copy(z[n:], s0)
	if !p.feasible(z) {
		return nil, errors.New("convex: internal error: initial point not strictly feasible")
	}

	f0 := energyOf(effWeights, d0)
	mu := f0 / float64(p.numConstraints())
	muMin := opt.Tol * math.Max(f0, 1) / float64(p.numConstraints())
	iters := 0
	for outer := 0; outer < opt.MaxOuter && mu > muMin; outer++ {
		iters += p.minimizeBarrier(z, mu, opt.MaxInner)
		mu *= 0.15
	}
	iters += p.minimizeBarrier(z, muMin, opt.MaxInner)

	d := append([]float64(nil), z[:n]...)
	// Snap to bounds and recompute a clean ASAP realization.
	for i := 0; i < n; i++ {
		if d[i] < lbD[i] {
			d[i] = lbD[i]
		}
		if d[i] > ubD[i] {
			d[i] = ubD[i]
		}
	}
	fin2, ms2 := ws.longestPath(cg, d)
	if ms2 > deadline {
		// Numerical overshoot: scale down uniformly (stays within
		// bounds since lbD scaled durations remain above lbD only if
		// slack exists; clamp afterwards).
		scale := deadline / ms2
		for i := range d {
			d[i] = math.Max(d[i]*scale, lbD[i])
		}
		fin2, ms2 = ws.longestPath(cg, d)
		if ms2 > deadline*(1+1e-9) {
			return nil, errors.New("convex: failed to recover a feasible schedule")
		}
	}
	ws.iterOK, ws.mu, ws.deadline = true, muMin, deadline
	res := &Result{Durations: d, Speeds: make([]float64, n), Starts: make([]float64, n), Energy: energyOf(effWeights, d), Iterations: iters}
	for i := 0; i < n; i++ {
		res.Speeds[i] = effWeights[i] / d[i]
		res.Starts[i] = fin2[i] - d[i]
	}
	return res, nil
}

// fmaxResult materializes the everything-at-fmax schedule, the
// fallback for deadline-critical instances.
func (ws *Workspace) fmaxResult(cg *dag.Graph, effWeights []float64) (*Result, error) {
	n := ws.n
	lbD := append([]float64(nil), ws.lbD[:n]...)
	starts, _ := ws.longestPath(cg, lbD)
	res := &Result{Durations: lbD, Speeds: make([]float64, n), Starts: make([]float64, n), Energy: energyOf(effWeights, lbD)}
	for i := 0; i < n; i++ {
		res.Speeds[i] = effWeights[i] / lbD[i]
		res.Starts[i] = starts[i] - lbD[i]
	}
	return res, nil
}

// Dual is a feasible point of the Lagrangian dual of the energy
// program, read off a barrier solve and priced per task. For edge
// multipliers λ ≥ 0 and deadline multipliers ν ≥ 0 with
// Σ_in λ ≤ Σ_out λ + ν_i at every task (the multipliers of s ≥ 0
// absorb the difference), minimizing the Lagrangian over s ≥ 0 and
// each duration's box gives
//
//	g(λ, ν) = −D·Σν + Σᵢ min_{d ∈ [Wᵢ/hiᵢ, Wᵢ/loᵢ]} (Wᵢ³/d² + cᵢ·d),  cᵢ = Σ_out λ + νᵢ,
//
// and weak duality (Boyd & Vandenberghe §5.2.2) puts g below the
// optimum. Only task i's term depends on task i's weight and speed
// box, so one solve's prices bound, in O(1) each, every program on the
// same constraint graph and deadline that differs from it in one task.
// The zero Dual certifies nothing.
type Dual struct {
	ok    bool
	g     float64   // g(λ, ν)
	scale float64   // Σ|termᵢ| + D·Σν, the magnitude the margin is taken of
	c     []float64 // cᵢ, the price of task i's duration
	term  []float64 // task i's term of g
}

// dualMargin is the relative margin a certified bound gives away. A
// schedule this solver returns may overrun the deadline by up to 1e-9
// relative (the recovery check in MinimizeEnergyWS), and at deadline
// D(1+ε) the same multipliers give g − ε·D·Σν, so a computed energy
// may sit up to 1e-9·D·Σν below the bound at D itself. Rounding in g
// costs a few ulps per term. 1e-8 of Σ|termᵢ| + D·Σν covers both with
// room to spare, while the duality gap of a neighbouring program is
// orders of magnitude wider, so pruning loses almost nothing to it.
const dualMargin = 1e-8

// Dual reads into dst, reusing its buffers, the dual point of the last
// solve: λ = μ/g_e and ν = μ/(D − sᵢ − dᵢ) at the final barrier
// iterate, with νᵢ raised wherever the iterate's in-flow exceeds its
// out-flow, as inexact centring leaves it. cg and effWeights must be
// those of the last solve. It returns false, and dst then certifies
// nothing, when that solve failed or returned the everything-at-fmax
// schedule, which has no iterate to read.
func (ws *Workspace) Dual(cg *dag.Graph, effWeights []float64, dst *Dual) bool {
	dst.ok = false
	if !ws.iterOK {
		return false
	}
	n, mu, deadline := ws.n, ws.mu, ws.deadline
	d, s := ws.z[:n], ws.z[n:2*n]
	dst.c = growF(dst.c, n)
	dst.term = growF(dst.term, n)
	sumNu, sumTerm, sumAbs := 0.0, 0.0, 0.0
	for i := 0; i < n; i++ {
		out, in := 0.0, 0.0
		for _, v := range cg.Succs(i) {
			out += mu / (s[v] - s[i] - d[i])
		}
		for _, u := range cg.Preds(i) {
			in += mu / (s[i] - s[u] - d[u])
		}
		nu := mu / (deadline - s[i] - d[i])
		if in > out+nu {
			nu = in - out
		}
		c := out + nu
		t := dualTerm(effWeights[i], ws.lbD[i], ws.ubD[i], c)
		dst.c[i], dst.term[i] = c, t
		sumNu += nu
		sumTerm += t
		sumAbs += math.Abs(t)
	}
	dst.g = sumTerm - deadline*sumNu
	dst.scale = sumAbs + deadline*sumNu
	// A price that overflowed certifies nothing.
	dst.ok = !math.IsInf(dst.scale, 0) && !math.IsNaN(dst.scale)
	return dst.ok
}

// Clone returns a copy of dl that shares no buffer with it.
func (dl *Dual) Clone() Dual {
	c := *dl
	c.c = slices.Clone(dl.c)
	c.term = slices.Clone(dl.term)
	return c
}

// Bound returns a certified lower bound on the optimum of the program
// dl was read from, or −Inf if dl certifies nothing.
func (dl *Dual) Bound() float64 {
	if !dl.ok {
		return math.Inf(-1)
	}
	return dl.g - dualMargin*dl.scale
}

// BoundWith returns a certified lower bound on the optimum of the
// program dl was read from with task i's effective weight and speed
// bounds replaced by w, lo and hi (lo = 0 for no lower speed bound), or
// −Inf if dl certifies nothing. A solve of that program by this
// package never reports an energy below it.
func (dl *Dual) BoundWith(i int, w, lo, hi float64) float64 {
	if !dl.ok {
		return math.Inf(-1)
	}
	ub := math.Inf(1)
	if lo > 0 {
		ub = w / lo
	}
	t := dualTerm(w, w/hi, ub, dl.c[i])
	return dl.g - dl.term[i] + t - dualMargin*(dl.scale+math.Abs(t))
}

// dualTerm is min over d ∈ [lb, ub] of W³/d² + c·d, a convex function
// whose unconstrained minimizer is d = (2W³/c)^(1/3).
func dualTerm(w, lb, ub, c float64) float64 {
	w3 := w * w * w
	d := ub
	if c > 0 {
		d = min(max(math.Cbrt(2*w3/c), lb), ub)
	}
	if math.IsInf(d, 1) {
		return 0 // c = 0 and no upper bound: the infimum as d → ∞
	}
	return w3/(d*d) + c*d
}

func energyOf(w, d []float64) float64 {
	e := 0.0
	for i := range w {
		e += w[i] * w[i] * w[i] / (d[i] * d[i])
	}
	return e
}

// problem carries the barrier formulation. Variables z = (d, s).
type problem struct {
	ws *Workspace
	cg *dag.Graph
	W  []float64
	D  float64
	n  int
}

func (p *problem) numConstraints() int {
	c := p.cg.M() + 3*p.n // edges + deadline + s≥0 + d≥lb
	for i := 0; i < p.n; i++ {
		if !math.IsInf(p.ws.ubD[i], 1) {
			c++
		}
	}
	return c
}

// feasible reports whether every constraint value g_k(z) is > 0.
func (p *problem) feasible(z []float64) bool {
	n := p.n
	d, s := z[:n], z[n:]
	lbD, ubD := p.ws.lbD, p.ws.ubD
	for i := 0; i < n; i++ {
		if d[i] <= lbD[i] || s[i] <= 0 || p.D-s[i]-d[i] <= 0 {
			return false
		}
		if !math.IsInf(ubD[i], 1) && d[i] >= ubD[i] {
			return false
		}
	}
	for u := 0; u < n; u++ {
		for _, v := range p.cg.Succs(u) {
			if s[v]-s[u]-d[u] <= 0 {
				return false
			}
		}
	}
	return true
}

// value returns the barrier objective F(z) − μ Σ log g_k(z), or +Inf
// outside the interior.
func (p *problem) value(z []float64, mu float64) float64 {
	n := p.n
	d, s := z[:n], z[n:]
	lbD, ubD := p.ws.lbD, p.ws.ubD
	v := 0.0
	logs := 0.0
	for i := 0; i < n; i++ {
		if d[i] <= lbD[i] || s[i] <= 0 {
			return math.Inf(1)
		}
		v += p.W[i] * p.W[i] * p.W[i] / (d[i] * d[i])
		g := p.D - s[i] - d[i]
		if g <= 0 {
			return math.Inf(1)
		}
		logs += math.Log(g) + math.Log(s[i]) + math.Log(d[i]-lbD[i])
		if !math.IsInf(ubD[i], 1) {
			gu := ubD[i] - d[i]
			if gu <= 0 {
				return math.Inf(1)
			}
			logs += math.Log(gu)
		}
	}
	for u := 0; u < n; u++ {
		for _, v2 := range p.cg.Succs(u) {
			g := s[v2] - s[u] - d[u]
			if g <= 0 {
				return math.Inf(1)
			}
			logs += math.Log(g)
		}
	}
	return v - mu*logs
}

// gradient writes ∇(F − μ Σ log g) into grad.
func (p *problem) gradient(z []float64, mu float64, grad []float64) {
	n := p.n
	d, s := z[:n], z[n:]
	lbD, ubD := p.ws.lbD, p.ws.ubD
	for i := range grad {
		grad[i] = 0
	}
	for i := 0; i < n; i++ {
		grad[i] += -2 * p.W[i] * p.W[i] * p.W[i] / (d[i] * d[i] * d[i])
		// −μ log(D − s_i − d_i): ∂/∂d_i = μ/g, ∂/∂s_i = μ/g.
		g := p.D - s[i] - d[i]
		grad[i] += mu / g
		grad[n+i] += mu / g
		// −μ log(s_i): ∂/∂s_i = −μ/s_i.
		grad[n+i] += -mu / s[i]
		// −μ log(d_i − lb): ∂/∂d_i = −μ/(d_i−lb).
		grad[i] += -mu / (d[i] - lbD[i])
		if !math.IsInf(ubD[i], 1) {
			grad[i] += mu / (ubD[i] - d[i])
		}
	}
	for u := 0; u < n; u++ {
		for _, v := range p.cg.Succs(u) {
			g := s[v] - s[u] - d[u]
			// −μ log(g): ∂/∂s_v = −μ/g, ∂/∂s_u = +μ/g, ∂/∂d_u = +μ/g.
			grad[n+v] += -mu / g
			grad[n+u] += mu / g
			grad[u] += mu / g
		}
	}
}

// newtonStep solves H·step = grad via the Schur complement of the
// diagonal (d,d) block, writing the step in natural (d,s) layout.
// Every barrier constraint touches at most one duration variable, so
// with H = [[A, B], [Bᵀ, C]] the block A is diagonal, B has one
// diagonal entry plus one entry per out-edge, and the system reduces
// to (C − Bᵀ A⁻¹ B)·x_s = g_s − Bᵀ A⁻¹ g_d followed by a diagonal
// solve for x_d. The Schur matrix is assembled directly in banded
// form over the topological ordering. Returns false if factorization
// fails even with regularization.
func (p *problem) newtonStep(z []float64, mu float64, grad, step []float64) bool {
	ws := p.ws
	n := p.n
	d, s := z[:n], z[n:]
	gd, gs := grad[:n], grad[n:]
	lbD, ubD := ws.lbD, ws.ubD
	pos := ws.pos

	for i := range ws.sb[:n*(ws.bw+1)] {
		ws.sb[i] = 0
	}
	// prhs starts as the permuted s-gradient and accumulates the
	// −Bᵀ A⁻¹ g_d correction during assembly.
	for i := 0; i < n; i++ {
		ws.prhs[pos[i]] = gs[i]
	}
	for u := 0; u < n; u++ {
		w3 := p.W[u] * p.W[u] * p.W[u]
		g1 := p.D - s[u] - d[u]
		c1 := mu / (g1 * g1)
		gl := d[u] - lbD[u]
		au := 6*w3/(d[u]*d[u]*d[u]*d[u]) + c1 + mu/(gl*gl)
		if !math.IsInf(ubD[u], 1) {
			gu := ubD[u] - d[u]
			au += mu / (gu * gu)
		}
		bu := c1
		qu := pos[u]
		// Deadline and s_u ≥ 0 contributions to the (s,s) block.
		ws.addS(qu, qu, c1+mu/(s[u]*s[u]))
		succs := p.cg.Succs(u)
		for k, v := range succs {
			ge := s[v] - s[u] - d[u]
			ce := mu / (ge * ge)
			ws.ce[k] = ce
			au += ce
			bu += ce
			qv := pos[v]
			ws.addS(qu, qu, ce)
			ws.addS(qv, qv, ce)
			ws.addS(qv, qu, -ce)
		}
		ws.a[u] = au
		ws.bdiag[u] = bu
		// Rank-1 Schur update −b_u·b_uᵀ/A_uu, where b_u is supported
		// on s_u (value bu) and the successors' s (value −ce).
		inv := 1 / au
		ws.addS(qu, qu, -bu*bu*inv)
		for k, v := range succs {
			qv := pos[v]
			ws.addS(qv, qu, bu*ws.ce[k]*inv)
			for l, v2 := range succs {
				if pos[v2] > qv {
					continue // lower triangle once; diagonal when equal
				}
				ws.addS(qv, pos[v2], -ws.ce[k]*ws.ce[l]*inv)
			}
		}
		// Right-hand side correction −Bᵀ A⁻¹ g_d.
		t := gd[u] * inv
		ws.prhs[qu] -= bu * t
		for k, v := range succs {
			ws.prhs[pos[v]] += ws.ce[k] * t
		}
	}
	if !ws.bandCholSolve() {
		return false
	}
	// Scatter x_s back and recover x_d from the diagonal block.
	xd, xs := step[:n], step[n:]
	for i := 0; i < n; i++ {
		xs[i] = ws.prhs[pos[i]]
	}
	for u := 0; u < n; u++ {
		acc := gd[u] - ws.bdiag[u]*xs[u]
		for _, v := range p.cg.Succs(u) {
			ge := s[v] - s[u] - d[u]
			acc += mu / (ge * ge) * xs[v]
		}
		xd[u] = acc / ws.a[u]
	}
	return true
}

// minimizeBarrier runs damped Newton on the barrier objective for a
// fixed μ, stopping on the Newton decrement. Returns iterations used.
func (p *problem) minimizeBarrier(z []float64, mu float64, maxIter int) int {
	dim := 2 * p.n
	grad := p.ws.grad
	step := p.ws.step
	trial := p.ws.trial
	fz := p.value(z, mu)
	it := 0
	for ; it < maxIter; it++ {
		p.gradient(z, mu, grad)
		if !p.newtonStep(z, mu, grad, step) {
			break
		}
		// Newton decrement² = gradᵀ·step.
		dec := 0.0
		for j := 0; j < dim; j++ {
			dec += grad[j] * step[j]
		}
		if dec < 1e-12*(1+math.Abs(fz)) {
			break
		}
		alpha := 1.0
		accepted := false
		for bt := 0; bt < 50; bt++ {
			for j := 0; j < dim; j++ {
				trial[j] = z[j] - alpha*step[j]
			}
			ft := p.value(trial, mu)
			if ft <= fz-0.25*alpha*dec {
				copy(z, trial)
				fz = ft
				accepted = true
				break
			}
			alpha *= 0.5
		}
		if !accepted {
			break
		}
	}
	return it
}
