package dag

import (
	"errors"
	"fmt"
	"math/bits"
	"slices"
	"strings"
)

// SPKind discriminates series-parallel decomposition tree nodes.
type SPKind int

const (
	// SPLeaf is a single task.
	SPLeaf SPKind = iota
	// SPSeries executes its children one after the other: every sink of
	// child k precedes every source of child k+1.
	SPSeries
	// SPParallel executes its children independently side by side.
	SPParallel
)

func (k SPKind) String() string {
	switch k {
	case SPLeaf:
		return "leaf"
	case SPSeries:
		return "series"
	case SPParallel:
		return "parallel"
	default:
		return fmt.Sprintf("SPKind(%d)", int(k))
	}
}

// SP is a node of a series-parallel decomposition tree. Leaves carry a
// task name and weight; internal nodes carry ≥2 children. The fork
// graph of the paper's Section III theorem is
// Series(Leaf(w0), Parallel(Leaf(w1), ..., Leaf(wn))).
type SP struct {
	Kind     SPKind
	Name     string  // leaf only
	Weight   float64 // leaf only
	Children []*SP   // series/parallel only

	// TaskID is assigned by Graph(): the index of this leaf's task in
	// the materialized graph. Zero-valued before materialization.
	TaskID int
}

// Leaf returns a leaf node for a task of the given weight.
func Leaf(name string, weight float64) *SP {
	return &SP{Kind: SPLeaf, Name: name, Weight: weight, TaskID: -1}
}

// Series composes children sequentially. Single-child series collapse
// to the child; nested series flatten.
func Series(children ...*SP) *SP { return compose(SPSeries, children) }

// Parallel composes children side by side. Single-child parallels
// collapse; nested parallels flatten.
func Parallel(children ...*SP) *SP { return compose(SPParallel, children) }

func compose(kind SPKind, children []*SP) *SP {
	flat := make([]*SP, 0, len(children))
	for _, c := range children {
		if c == nil {
			continue
		}
		if c.Kind == kind {
			flat = append(flat, c.Children...)
		} else {
			flat = append(flat, c)
		}
	}
	if len(flat) == 1 {
		return flat[0]
	}
	return &SP{Kind: kind, Children: flat, TaskID: -1}
}

// Validate checks structural sanity: leaves have positive weight,
// internal nodes have ≥2 children.
func (sp *SP) Validate() error {
	switch sp.Kind {
	case SPLeaf:
		if sp.Weight <= 0 {
			return fmt.Errorf("dag: SP leaf %q has non-positive weight %v", sp.Name, sp.Weight)
		}
		return nil
	case SPSeries, SPParallel:
		if len(sp.Children) < 2 {
			return fmt.Errorf("dag: SP %v node with %d children", sp.Kind, len(sp.Children))
		}
		for _, c := range sp.Children {
			if err := c.Validate(); err != nil {
				return err
			}
		}
		return nil
	default:
		return fmt.Errorf("dag: unknown SP kind %d", int(sp.Kind))
	}
}

// Leaves returns the leaves in left-to-right order.
func (sp *SP) Leaves() []*SP {
	var out []*SP
	var walk func(*SP)
	walk = func(n *SP) {
		if n.Kind == SPLeaf {
			out = append(out, n)
			return
		}
		for _, c := range n.Children {
			walk(c)
		}
	}
	walk(sp)
	return out
}

// NumTasks returns the number of leaves.
func (sp *SP) NumTasks() int { return len(sp.Leaves()) }

// Graph materializes the decomposition tree into a task graph. Series
// composition adds all sink(left) × source(right) edges. Leaf TaskIDs
// are set to the created task indices.
func (sp *SP) Graph() (*Graph, error) {
	if err := sp.Validate(); err != nil {
		return nil, err
	}
	g := New()
	var build func(n *SP) (sources, sinks []int)
	build = func(n *SP) ([]int, []int) {
		switch n.Kind {
		case SPLeaf:
			id := g.AddTask(n.Name, n.Weight)
			n.TaskID = id
			return []int{id}, []int{id}
		case SPSeries:
			srcs, snks := build(n.Children[0])
			for _, c := range n.Children[1:] {
				cs, ck := build(c)
				for _, a := range snks {
					for _, b := range cs {
						g.MustEdge(a, b)
					}
				}
				snks = ck
			}
			return srcs, snks
		default: // SPParallel
			var srcs, snks []int
			for _, c := range n.Children {
				cs, ck := build(c)
				srcs = append(srcs, cs...)
				snks = append(snks, ck...)
			}
			return srcs, snks
		}
	}
	build(sp)
	return g, nil
}

// String renders the tree compactly, e.g. "ser(T0, par(T1, T2))".
func (sp *SP) String() string {
	var b strings.Builder
	var walk func(*SP)
	walk = func(n *SP) {
		switch n.Kind {
		case SPLeaf:
			fmt.Fprintf(&b, "%s:%.3g", n.Name, n.Weight)
		case SPSeries:
			b.WriteString("ser(")
			for i, c := range n.Children {
				if i > 0 {
					b.WriteString(", ")
				}
				walk(c)
			}
			b.WriteString(")")
		case SPParallel:
			b.WriteString("par(")
			for i, c := range n.Children {
				if i > 0 {
					b.WriteString(", ")
				}
				walk(c)
			}
			b.WriteString(")")
		}
	}
	walk(sp)
	return b.String()
}

// Clone returns a deep copy of the tree.
func (sp *SP) Clone() *SP {
	c := &SP{Kind: sp.Kind, Name: sp.Name, Weight: sp.Weight, TaskID: sp.TaskID}
	if len(sp.Children) > 0 {
		c.Children = make([]*SP, len(sp.Children))
		for i, ch := range sp.Children {
			c.Children[i] = ch.Clone()
		}
	}
	return c
}

// ErrNotSeriesParallel is returned by Decompose when the graph is not
// (transitively equivalent to) a series-parallel task graph.
var ErrNotSeriesParallel = errors.New("dag: graph is not series-parallel")

// Decompose recovers a series-parallel decomposition tree from a task
// graph, or returns ErrNotSeriesParallel.
//
// Two graphs with the same transitive closure describe the same
// scheduling constraints, so recognition works up to transitive
// equivalence: the result's materialization has the same closure as g.
// The algorithm recursively splits the vertex set: a parallel split
// groups the weakly connected components; a series split groups the
// connected components of the incomparability relation (u,v
// incomparable iff neither reaches the other), which in an N-free
// (series-parallel) order form a chain of "blocks".
//
// The tree is checked against g's transitive closure as it is built,
// which makes the recognizer sound by construction. Two tasks are
// ordered by the tree iff their lowest common ancestor is a series
// node, the earlier child holding the earlier task. Tasks in different
// parallel components are incomparable by the definition of a
// component, and tasks in different series blocks are comparable by
// the definition of a block, so the one pair condition left to check
// is that every task of a block reaches every task of the later blocks.
//
// Vertex sets and closure rows are bitsets of one uint64 word per 64
// tasks, and the tree's nodes come from two slabs, so a call makes a
// fixed handful of allocations whatever the size of the graph.
func Decompose(g *Graph) (*SP, error) {
	n := g.N()
	if n == 0 {
		return nil, errors.New("dag: empty graph")
	}
	order, err := g.TopoOrder()
	if err != nil {
		return nil, err
	}
	d := newSPDecomposer(g, order)
	root := d.newSet()
	all := d.set(root)
	for v := 0; v < n; v++ {
		all[v>>6] |= 1 << (v & 63)
	}
	sp := d.decompose(root)
	if sp == nil {
		return nil, ErrNotSeriesParallel
	}
	return sp, nil
}

// spDecomposer is Decompose's working memory. Rows and sets are
// w-word bitsets; sets are handed out by index from a stack that each
// decompose call pops back to where it found it, so a set is never
// held across a call that may grow the stack.
type spDecomposer struct {
	g     *Graph
	w     int
	reach []uint64 // row u: the tasks u reaches by a non-empty path
	cmp   []uint64 // row u: the tasks comparable with u
	sets  []uint64
	// blocks is the stack of series blocks being ordered and visited.
	blocks []spBlock
	bfs    []int
	nodes  []SP  // ≤ 2n−1 tree nodes: its capacity is never exceeded
	kids   []*SP // ≤ 2n−2 child pointers
}

// spBlock is a series block awaiting its place in the chain: its set,
// its lowest task and the number of tasks of the node that it reaches.
type spBlock struct{ set, rep, key int }

func newSPDecomposer(g *Graph, order []int) *spDecomposer {
	n := g.N()
	w := (n + 63) >> 6
	rows := make([]uint64, 2*n*w)
	d := &spDecomposer{
		g: g, w: w,
		reach: rows[:n*w], cmp: rows[n*w:],
		sets:  make([]uint64, 0, 4*n*w),
		bfs:   make([]int, 0, n),
		nodes: make([]SP, 0, 2*n-1),
		kids:  make([]*SP, 0, 2*n-2),
	}
	for i := n - 1; i >= 0; i-- {
		u := order[i]
		ru := d.reach[u*w : (u+1)*w]
		for _, v := range g.succs[u] {
			ru[v>>6] |= 1 << (v & 63)
			orInto(ru, d.reach[v*w:(v+1)*w])
		}
	}
	// cmp starts as the predecessor closure, then takes reach in.
	for _, v := range order {
		cv := d.cmp[v*w : (v+1)*w]
		for _, p := range g.preds[v] {
			cv[p>>6] |= 1 << (p & 63)
			orInto(cv, d.cmp[p*w:(p+1)*w])
		}
	}
	for i, x := range d.reach {
		d.cmp[i] |= x
	}
	return d
}

func orInto(dst, src []uint64) {
	for i, x := range src {
		dst[i] |= x
	}
}

// newSet pushes an empty set and returns its index.
func (d *spDecomposer) newSet() int {
	k := len(d.sets) / d.w
	for i := 0; i < d.w; i++ {
		d.sets = append(d.sets, 0)
	}
	return k
}

func (d *spDecomposer) set(k int) []uint64 { return d.sets[k*d.w : (k+1)*d.w] }

// lowest returns the lowest task of set s, or −1 if s is empty.
func lowest(s []uint64) int {
	for i, x := range s {
		if x != 0 {
			return i<<6 | bits.TrailingZeros64(x)
		}
	}
	return -1
}

func count(s []uint64) int {
	c := 0
	for _, x := range s {
		c += bits.OnesCount64(x)
	}
	return c
}

// decompose returns the tree of the tasks in set s, or nil if they do
// not form a series-parallel order.
func (d *spDecomposer) decompose(s int) *SP {
	if count(d.set(s)) == 1 {
		v := lowest(d.set(s))
		return d.node(SPLeaf, v, 0)
	}
	mark, bmark := len(d.sets), len(d.blocks)
	defer func() { d.sets, d.blocks = d.sets[:mark], d.blocks[:bmark] }()
	kind := SPParallel
	first, k := d.components(s, false)
	if k == 1 {
		d.sets = d.sets[:mark]
		kind = SPSeries
		if first, k = d.components(s, true); k == 1 {
			return nil
		}
	}
	for i := 0; i < k; i++ {
		c := first + 1 + i // set first is the BFS scratch
		b := spBlock{set: c, rep: lowest(d.set(c))}
		if kind == SPSeries {
			b.key = countAnd(d.reach[b.rep*d.w:(b.rep+1)*d.w], d.set(s))
		}
		d.blocks = append(d.blocks, b)
	}
	blocks := d.blocks[bmark:]
	if kind == SPSeries {
		// Along a valid chain the count of reached tasks strictly falls
		// block by block, so this order is the chain's if there is one.
		slices.SortFunc(blocks, func(a, b spBlock) int {
			if a.key != b.key {
				return b.key - a.key
			}
			return a.rep - b.rep
		})
		if !d.chained(first, blocks) {
			return nil
		}
	}
	node := d.node(kind, -1, k)
	for i := 0; i < k; i++ {
		c := d.decompose(d.blocks[bmark+i].set)
		if c == nil {
			return nil
		}
		node.Children[i] = c
	}
	return node
}

// components pushes a scratch set and then, in order of their lowest
// task, the connected components of set s under comparability (or
// incomparability), and returns the scratch set's index and the number
// of components.
func (d *spDecomposer) components(s int, incomparable bool) (first, k int) {
	first = d.newSet()
	copy(d.set(first), d.set(s))
	w := d.w
	for {
		v := lowest(d.set(first))
		if v < 0 {
			return first, k
		}
		c := d.newSet()
		k++
		rem, comp := d.set(first), d.set(c)
		rem[v>>6] &^= 1 << (v & 63)
		comp[v>>6] |= 1 << (v & 63)
		d.bfs = append(d.bfs[:0], v)
		for len(d.bfs) > 0 {
			u := d.bfs[len(d.bfs)-1]
			d.bfs = d.bfs[:len(d.bfs)-1]
			row := d.cmp[u*w : (u+1)*w]
			for i := range rem {
				nb := rem[i] & row[i]
				if incomparable {
					nb = rem[i] &^ row[i]
				}
				rem[i] &^= nb
				comp[i] |= nb
				for ; nb != 0; nb &= nb - 1 {
					d.bfs = append(d.bfs, i<<6|bits.TrailingZeros64(nb))
				}
			}
		}
	}
}

// chained reports whether every task of each block reaches every task
// of the blocks after it; set scratch (empty after components) holds
// the union of the later blocks.
func (d *spDecomposer) chained(scratch int, blocks []spBlock) bool {
	w := d.w
	after := d.set(scratch)
	for i := len(blocks) - 1; i >= 0; i-- {
		b := d.set(blocks[i].set)
		for j, x := range b {
			for ; x != 0; x &= x - 1 {
				u := (j<<6 | bits.TrailingZeros64(x)) * w
				for q, a := range after {
					if a&^d.reach[u+q] != 0 {
						return false
					}
				}
			}
		}
		orInto(after, b)
	}
	return true
}

func countAnd(a, b []uint64) int {
	c := 0
	for i, x := range a {
		c += bits.OnesCount64(x & b[i])
	}
	return c
}

// node takes a tree node from the slabs: leaf v, or an internal node
// with k child slots.
func (d *spDecomposer) node(kind SPKind, v, k int) *SP {
	d.nodes = append(d.nodes, SP{Kind: kind, TaskID: -1})
	nd := &d.nodes[len(d.nodes)-1]
	if kind == SPLeaf {
		t := d.g.tasks[v]
		nd.Name, nd.Weight, nd.TaskID = t.Name, t.Weight, v
		return nd
	}
	at := len(d.kids)
	d.kids = append(d.kids, make([]*SP, k)...)
	nd.Children = d.kids[at : at+k : at+k]
	return nd
}
