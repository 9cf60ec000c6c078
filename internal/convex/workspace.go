package convex

import (
	"math"
	"sync"

	"energysched/internal/dag"
)

// Workspace holds every buffer the barrier solver needs: flat Hessian
// (Schur-complement) storage, gradient/step/scratch vectors, the topo
// ordering of the constraint graph and the banded Cholesky
// factorization arrays. A Workspace is resized lazily and may be
// reused across solves of any size; reuse makes the solver free of
// steady-state allocations. A Workspace is not safe for concurrent
// use.
type Workspace struct {
	n, bw int // tasks, Schur bandwidth (n-1 = effectively dense)

	// The last solve's final barrier iterate lives in z when iterOK;
	// mu and deadline are the barrier parameter and deadline it was
	// centred for. Dual reads its multipliers from there.
	iterOK       bool
	mu, deadline float64

	// Problem data derived per solve.
	lbD, ubD []float64

	// Topological machinery for the constraint graph.
	topo  []int // topo[k] = task at topological position k
	pos   []int // pos[task] = its position in topo
	indeg []int // Kahn scratch

	// Newton-iteration buffers.
	grad, step, trial []float64 // length 2n, layout (d, s)
	perTask           []float64 // longest-path scratch

	// Schur system S = C − Bᵀ A⁻¹ B over the s-variables, stored as a
	// lower band matrix in topological ordering: sb[q*(bw+1)+...] for
	// row q. A (the diagonal d-block) and the diagonal of B live in
	// flat vectors; per-edge B entries are recomputed during assembly.
	a      []float64 // A[u], diagonal of the d-block
	bdiag  []float64 // B[u][u]
	ce     []float64 // per-out-edge constraint curvatures of one task
	sb, sl []float64 // Schur matrix and its Cholesky factor, banded
	first  []int     // first[q]: column of row q's first structural nonzero
	prhs   []float64 // permuted right-hand side / solution scratch
	py     []float64 // forward-substitution scratch

	// Initial-point buffers.
	d0, s0, inflated, z []float64

	// forceDense disables the bandwidth optimization (bw := n−1); used
	// by the equivalence tests to exercise the dense-equivalent path on
	// instances where the banded path would normally be selected.
	forceDense bool
}

// NewWorkspace returns an empty workspace; buffers grow on first use.
func NewWorkspace() *Workspace { return &Workspace{} }

// wsPool backs MinimizeEnergy so that callers who do not manage a
// Workspace themselves still reuse buffers across solves.
var wsPool = sync.Pool{New: func() any { return NewWorkspace() }}

// growF resizes a float64 buffer to length n, reusing capacity.
func growF(s []float64, n int) []float64 {
	if cap(s) < n {
		return make([]float64, n)
	}
	return s[:n]
}

// growI resizes an int buffer to length n, reusing capacity.
func growI(s []int, n int) []int {
	if cap(s) < n {
		return make([]int, n)
	}
	return s[:n]
}

// prepare sizes the workspace for cg, computes the topological order
// (returning dag.ErrCycle on cyclic graphs) and the bandwidth of the
// Schur system under that ordering.
func (ws *Workspace) prepare(cg *dag.Graph) error {
	n := cg.N()
	ws.n = n
	ws.lbD = growF(ws.lbD, n)
	ws.ubD = growF(ws.ubD, n)
	ws.topo = growI(ws.topo, n)
	ws.pos = growI(ws.pos, n)
	ws.indeg = growI(ws.indeg, n)
	ws.grad = growF(ws.grad, 2*n)
	ws.step = growF(ws.step, 2*n)
	ws.trial = growF(ws.trial, 2*n)
	ws.perTask = growF(ws.perTask, n)
	ws.a = growF(ws.a, n)
	ws.bdiag = growF(ws.bdiag, n)
	ws.ce = growF(ws.ce, n)
	ws.prhs = growF(ws.prhs, n)
	ws.py = growF(ws.py, n)
	ws.d0 = growF(ws.d0, n)
	ws.s0 = growF(ws.s0, n)
	ws.inflated = growF(ws.inflated, n)
	ws.z = growF(ws.z, 2*n)
	ws.first = growI(ws.first, n)

	// Kahn's algorithm into ws.topo, queue embedded in the output
	// slice.
	for i := 0; i < n; i++ {
		ws.indeg[i] = len(cg.Preds(i))
	}
	head, tail := 0, 0
	for i := 0; i < n; i++ {
		if ws.indeg[i] == 0 {
			ws.topo[tail] = i
			tail++
		}
	}
	for head < tail {
		u := ws.topo[head]
		head++
		for _, v := range cg.Succs(u) {
			ws.indeg[v]--
			if ws.indeg[v] == 0 {
				ws.topo[tail] = v
				tail++
			}
		}
	}
	if tail != n {
		return dag.ErrCycle
	}
	for k, t := range ws.topo {
		ws.pos[t] = k
	}

	// Envelope and bandwidth of the Schur complement: the rank-1
	// update of task u touches the s-variables of {u} ∪ succ(u), and u
	// precedes its successors in topological order, so row pos[v]'s
	// first nonzero is its earliest predecessor. Sibling pairs of u lie
	// after pos[u] and never reach further left.
	for q := range ws.first {
		ws.first[q] = q
	}
	bw := 0
	for u := 0; u < n; u++ {
		qu := ws.pos[u]
		for _, v := range cg.Succs(u) {
			qv := ws.pos[v]
			if qu < ws.first[qv] {
				ws.first[qv] = qu
			}
			if qv-qu > bw {
				bw = qv - qu
			}
		}
	}
	if ws.forceDense && n > 0 {
		bw = n - 1
		for q := range ws.first {
			ws.first[q] = 0
		}
	}
	ws.bw = bw
	ws.sb = growF(ws.sb, n*(bw+1))
	ws.sl = growF(ws.sl, n*(bw+1))
	return nil
}

// longestPath is dag.Graph.LongestPath over the prepared topo order,
// writing per-task finish times into ws.perTask without allocating.
func (ws *Workspace) longestPath(cg *dag.Graph, durations []float64) (perTask []float64, max float64) {
	perTask = ws.perTask
	for _, u := range ws.topo {
		start := 0.0
		for _, p := range cg.Preds(u) {
			if perTask[p] > start {
				start = perTask[p]
			}
		}
		perTask[u] = start + durations[u]
		if perTask[u] > max {
			max = perTask[u]
		}
	}
	return perTask, max
}

// addS accumulates v into the lower-band Schur entry (qa, qb) given in
// topological (permuted) coordinates; callers guarantee |qa−qb| ≤ bw.
func (ws *Workspace) addS(qa, qb int, v float64) {
	if qa < qb {
		qa, qb = qb, qa
	}
	ws.sb[qa*(ws.bw+1)+(qb-qa+ws.bw)] += v
}

// bandCholSolve factors the assembled Schur band matrix and solves
// S·x = prhs in place (prhs holds the solution on return), applying
// the same adaptive diagonal regularization schedule as the historic
// dense solver. Returns false if the matrix resists regularization.
//
// Row i of the factor is nonzero only from column first[i] on (fill-in
// stays inside the envelope), so every loop starts there instead of
// at the band's edge. The entries left of the envelope are never
// written and hold whatever an earlier solve left, so no loop may
// read them: back-substitution skips rows k whose envelope starts
// after column i.
func (ws *Workspace) bandCholSolve() bool {
	n, bw := ws.n, ws.bw
	w := bw + 1
	sb, sl, first := ws.sb, ws.sl, ws.first
	reg := 0.0
	for attempt := 0; attempt < 8; attempt++ {
		ok := true
	factor:
		for i := 0; i < n; i++ {
			fi := first[i]
			for j := fi; j <= i; j++ {
				sum := sb[i*w+(j-i+bw)]
				if i == j {
					sum += reg
				}
				for k := max(fi, first[j]); k < j; k++ {
					sum -= sl[i*w+(k-i+bw)] * sl[j*w+(k-j+bw)]
				}
				if i == j {
					if sum <= 0 {
						ok = false
						break factor
					}
					sl[i*w+bw] = math.Sqrt(sum)
				} else {
					sl[i*w+(j-i+bw)] = sum / sl[j*w+bw]
				}
			}
		}
		if ok {
			y := ws.py
			for i := 0; i < n; i++ {
				sum := ws.prhs[i]
				for k := first[i]; k < i; k++ {
					sum -= sl[i*w+(k-i+bw)] * y[k]
				}
				y[i] = sum / sl[i*w+bw]
			}
			x := ws.prhs
			for i := n - 1; i >= 0; i-- {
				sum := y[i]
				for k := i + 1; k <= min(i+bw, n-1); k++ {
					if first[k] <= i {
						sum -= sl[k*w+(i-k+bw)] * x[k]
					}
				}
				x[i] = sum / sl[i*w+bw]
			}
			return true
		}
		if reg == 0 {
			reg = 1e-10
		} else {
			reg *= 100
		}
	}
	return false
}
