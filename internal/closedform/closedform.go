// Package closedform implements the paper's Section III closed-form
// optimal solutions of the CONTINUOUS BI-CRIT problem for special
// graph structures: linear chains, forks (the theorem quoted in the
// paper), joins, trees and series-parallel graphs.
//
// The algebra rests on the *equivalent weight* composition: a chain
// behaves like a single task whose weight is the sum of its tasks'
// weights, and a parallel composition of components with equivalent
// weights W₁..W_k behaves like one task of weight (Σ Wⱼ³)^(1/3). For
// any series-parallel graph executed in a window of length T, the
// optimal energy is W_eq³/T², and time windows split proportionally to
// equivalent weights across series components.
package closedform

import (
	"errors"
	"fmt"

	"energysched/internal/dag"
	"energysched/internal/model"
)

// Result is a closed-form solution.
type Result struct {
	// Leaves lists the SP leaves in assignment order.
	Leaves []*dag.SP
	// Speeds[k] is the optimal speed of Leaves[k]. When the leaves
	// carry TaskIDs (≥ 0), SpeedByTask maps them too.
	Speeds []float64
	// SpeedByTask maps leaf TaskID → speed when TaskIDs are set.
	SpeedByTask map[int]float64
	// Durations[k] = weight/speed of leaf k.
	Durations []float64
	// Energy is the optimal total energy Σ wᵢfᵢ².
	Energy float64
	// EquivalentWeight is W_eq of the whole graph.
	EquivalentWeight float64
}

// ErrExceedsFMax is returned when the unconstrained optimum needs a
// speed above fmax; callers should fall back to the numerical solver
// (or, for forks, use SolveFork which implements the clamped case of
// the paper's theorem).
var ErrExceedsFMax = errors.New("closedform: optimal speed exceeds fmax")

// ErrBelowFMin is returned when the unconstrained optimum runs some
// task below fmin, so the lower speed bound binds.
var ErrBelowFMin = errors.New("closedform: optimal speed below fmin")

// ErrInfeasible is returned when no speed assignment meets the
// deadline within fmax.
var ErrInfeasible = errors.New("closedform: infeasible deadline")

// EquivalentWeight computes W_eq of a series-parallel tree: leaves
// contribute their weight, series nodes add, parallel nodes combine by
// cubic mean.
func EquivalentWeight(sp *dag.SP) float64 {
	switch sp.Kind {
	case dag.SPLeaf:
		return sp.Weight
	case dag.SPSeries:
		s := 0.0
		for _, c := range sp.Children {
			s += EquivalentWeight(c)
		}
		return s
	default: // parallel
		ws := make([]float64, len(sp.Children))
		for i, c := range sp.Children {
			ws[i] = EquivalentWeight(c)
		}
		return model.CubicCombine(ws...)
	}
}

// SolveSP returns the optimal CONTINUOUS solution of a series-parallel
// graph within the deadline, ignoring speed bounds (fmin = 0,
// fmax = ∞). SolveSPBounded enforces [fmin, fmax].
//
// The recursion assigns a time window to every subtree: the root gets
// [0, D]; a series node splits its window among children
// proportionally to their equivalent weights; a parallel node passes
// its full window to every child. A leaf with window length t runs at
// speed w/t.
func SolveSP(sp *dag.SP, deadline float64) (*Result, error) {
	if err := sp.Validate(); err != nil {
		return nil, err
	}
	if err := model.CheckDeadline(deadline); err != nil {
		return nil, err
	}
	res := &Result{EquivalentWeight: EquivalentWeight(sp), SpeedByTask: make(map[int]float64)}
	var assign func(n *dag.SP, t float64)
	assign = func(n *dag.SP, t float64) {
		switch n.Kind {
		case dag.SPLeaf:
			f := n.Weight / t
			res.Leaves = append(res.Leaves, n)
			res.Speeds = append(res.Speeds, f)
			res.Durations = append(res.Durations, t)
			res.Energy += model.Energy(n.Weight, f)
			if n.TaskID >= 0 {
				res.SpeedByTask[n.TaskID] = f
			}
		case dag.SPSeries:
			total := 0.0
			ws := make([]float64, len(n.Children))
			for i, c := range n.Children {
				ws[i] = EquivalentWeight(c)
				total += ws[i]
			}
			for i, c := range n.Children {
				assign(c, t*ws[i]/total)
			}
		default: // parallel
			for _, c := range n.Children {
				assign(c, t)
			}
		}
	}
	assign(sp, deadline)
	return res, nil
}

// SolveSPBounded is SolveSP followed by a speed-box check: it returns
// ErrExceedsFMax when any optimal speed exceeds fmax, and ErrBelowFMin
// when any falls below fmin (each by more than a relative 1e-12),
// signalling the caller to use the numerical solver. A result it
// returns is the optimum of the bounded program too, since the
// unbounded optimum is feasible there.
func SolveSPBounded(sp *dag.SP, deadline, fmin, fmax float64) (*Result, error) {
	res, err := SolveSP(sp, deadline)
	if err != nil {
		return nil, err
	}
	for _, f := range res.Speeds {
		if f > fmax*(1+1e-12) {
			return nil, ErrExceedsFMax
		}
		if f < fmin*(1-1e-12) {
			return nil, ErrBelowFMin
		}
	}
	return res, nil
}

// ChainResult is the closed form for a linear chain.
type ChainResult struct {
	Speed  float64 // the single uniform speed Σw/D
	Energy float64 // (Σw)³/D²
}

// SolveChain returns the optimal CONTINUOUS solution for a linear
// chain on one processor: all tasks run at the uniform speed Σw/D. If
// that exceeds fmax the instance is infeasible.
func SolveChain(weights []float64, deadline, fmax float64) (*ChainResult, error) {
	if len(weights) == 0 {
		return nil, errors.New("closedform: empty chain")
	}
	if err := model.CheckDeadline(deadline); err != nil {
		return nil, err
	}
	total := 0.0
	for i, w := range weights {
		if err := model.CheckWeight(w); err != nil {
			return nil, fmt.Errorf("closedform: task %d: %w", i, err)
		}
		total += w
	}
	f := total / deadline
	if f > fmax*(1+1e-12) {
		return nil, ErrInfeasible
	}
	return &ChainResult{Speed: f, Energy: model.Energy(total, f)}, nil
}

// ForkResult is the closed form of the paper's fork theorem.
type ForkResult struct {
	// F0 is the speed of the source T0.
	F0 float64
	// Branch[i] is the speed of branch task T_{i+1}.
	Branch []float64
	// Energy is the total energy.
	Energy float64
	// Clamped reports whether the fmax clamp of the theorem was taken.
	Clamped bool
}

// SolveFork implements the fork theorem of Section III verbatim:
//
//	f0 = ((Σ wᵢ³)^(1/3) + w0) / D
//	fᵢ = f0 · wᵢ / (Σ wᵢ³)^(1/3)      if f0 ≤ fmax
//
// otherwise T0 runs at fmax and the branches at wᵢ/D' with
// D' = D − w0/fmax, unless some branch then exceeds fmax, in which
// case there is no solution. In the unclamped case the energy is
// ((Σ wᵢ³)^(1/3) + w0)³ / D².
func SolveFork(w0 float64, branches []float64, deadline, fmax float64) (*ForkResult, error) {
	if err := model.CheckWeight(w0); err != nil {
		return nil, err
	}
	if len(branches) == 0 {
		return nil, errors.New("closedform: fork needs at least one branch")
	}
	if err := model.CheckDeadline(deadline); err != nil {
		return nil, err
	}
	for i, w := range branches {
		if err := model.CheckWeight(w); err != nil {
			return nil, fmt.Errorf("closedform: branch %d: %w", i, err)
		}
	}
	wpar := model.CubicCombine(branches...)
	f0 := (wpar + w0) / deadline
	res := &ForkResult{Branch: make([]float64, len(branches))}
	if f0 <= fmax*(1+1e-12) {
		res.F0 = f0
		for i, w := range branches {
			res.Branch[i] = f0 * w / wpar
		}
		res.Energy = (wpar + w0) * (wpar + w0) * (wpar + w0) / (deadline * deadline)
		return res, nil
	}
	// Clamped case.
	res.Clamped = true
	res.F0 = fmax
	dprime := deadline - w0/fmax
	if dprime <= 0 {
		return nil, ErrInfeasible
	}
	res.Energy = model.Energy(w0, fmax)
	for i, w := range branches {
		fi := w / dprime
		if fi > fmax*(1+1e-12) {
			return nil, ErrInfeasible
		}
		res.Branch[i] = fi
		res.Energy += model.Energy(w, fi)
	}
	return res, nil
}

// ForkEnergy returns the closed-form unclamped fork energy
// ((Σ wᵢ³)^(1/3) + w0)³ / D² without computing speeds.
func ForkEnergy(w0 float64, branches []float64, deadline float64) float64 {
	w := model.CubicCombine(branches...) + w0
	return w * w * w / (deadline * deadline)
}

// TreeEquivalentWeight computes the equivalent weight of an out-tree
// given as parent pointers (parent[root] = -1): node v behaves as
// Series(v, Parallel(children)), i.e. W(v) = w_v + (Σ_c W(c)³)^(1/3).
func TreeEquivalentWeight(parent []int, weights []float64) (float64, error) {
	n := len(parent)
	if len(weights) != n {
		return 0, fmt.Errorf("closedform: %d parents, %d weights", n, len(weights))
	}
	children := make([][]int, n)
	root := -1
	for v, p := range parent {
		if p == -1 {
			if root != -1 {
				return 0, errors.New("closedform: multiple roots")
			}
			root = v
			continue
		}
		if p < 0 || p >= n {
			return 0, fmt.Errorf("closedform: parent %d out of range", p)
		}
		children[p] = append(children[p], v)
	}
	if root == -1 {
		return 0, errors.New("closedform: no root")
	}
	visited := make([]bool, n)
	var weq func(v int) float64
	weq = func(v int) float64 {
		visited[v] = true
		if len(children[v]) == 0 {
			return weights[v]
		}
		ws := make([]float64, len(children[v]))
		for i, c := range children[v] {
			ws[i] = weq(c)
		}
		return weights[v] + model.CubicCombine(ws...)
	}
	w := weq(root)
	for v, ok := range visited {
		if !ok {
			return 0, fmt.Errorf("closedform: node %d unreachable from root (cycle?)", v)
		}
	}
	return w, nil
}

// TreeToSP converts the out-tree to its series-parallel decomposition
// tree; leaf TaskIDs are the node indices.
func TreeToSP(parent []int, weights []float64) (*dag.SP, error) {
	n := len(parent)
	if len(weights) != n {
		return nil, fmt.Errorf("closedform: %d parents, %d weights", n, len(weights))
	}
	children := make([][]int, n)
	root := -1
	for v, p := range parent {
		if p == -1 {
			if root != -1 {
				return nil, errors.New("closedform: multiple roots")
			}
			root = v
		} else if p < 0 || p >= n {
			return nil, fmt.Errorf("closedform: parent %d out of range", p)
		} else {
			children[p] = append(children[p], v)
		}
	}
	if root == -1 {
		return nil, errors.New("closedform: no root")
	}
	var build func(v int) *dag.SP
	build = func(v int) *dag.SP {
		leaf := dag.Leaf(fmt.Sprintf("T%d", v), weights[v])
		leaf.TaskID = v
		if len(children[v]) == 0 {
			return leaf
		}
		subs := make([]*dag.SP, len(children[v]))
		for i, c := range children[v] {
			subs[i] = build(c)
		}
		return dag.Series(leaf, dag.Parallel(subs...))
	}
	sp := build(root)
	if sp.NumTasks() != n {
		return nil, errors.New("closedform: tree is disconnected or cyclic")
	}
	return sp, nil
}

// MinDeadline returns the smallest deadline for which the SP graph is
// feasible at fmax: the critical path at full speed, computed as the
// "equivalent duration" recursion with durations w/fmax (series adds,
// parallel takes max).
func MinDeadline(sp *dag.SP, fmax float64) float64 {
	switch sp.Kind {
	case dag.SPLeaf:
		return sp.Weight / fmax
	case dag.SPSeries:
		s := 0.0
		for _, c := range sp.Children {
			s += MinDeadline(c, fmax)
		}
		return s
	default:
		m := 0.0
		for _, c := range sp.Children {
			if v := MinDeadline(c, fmax); v > m {
				m = v
			}
		}
		return m
	}
}
