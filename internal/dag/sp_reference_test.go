package dag

import (
	"errors"
	"sort"
)

// decomposeReference is the recognizer Decompose replaced, kept as the
// oracle of TestDecomposeMatchesReference: [][]bool closures, map-based
// union-find components, and verification by materializing the tree
// and comparing its closure with g's.
func decomposeReference(g *Graph) (*SP, error) {
	if g.N() == 0 {
		return nil, errors.New("dag: empty graph")
	}
	reach, err := g.TransitiveClosure()
	if err != nil {
		return nil, err
	}
	all := make([]int, g.N())
	for i := range all {
		all[i] = i
	}
	sp, err := decomposeRef(g, reach, all)
	if err != nil {
		return nil, err
	}
	// Soundness check: materialize a clone (Graph() renumbers leaf
	// TaskIDs; the clone keeps the originals intact) and compare
	// transitive closures. Graph() numbers tasks in leaf order, so the
	// materialized id of leaf #pos is pos.
	leaves := sp.Leaves()
	orig := make([]int, len(leaves)) // materialized id -> original id
	for pos, lf := range leaves {
		orig[pos] = lf.TaskID
	}
	mg, err := sp.Clone().Graph()
	if err != nil {
		return nil, err
	}
	mreach, err := mg.TransitiveClosure()
	if err != nil {
		return nil, err
	}
	for u := 0; u < mg.N(); u++ {
		for v := 0; v < mg.N(); v++ {
			if mreach[u][v] != reach[orig[u]][orig[v]] {
				return nil, ErrNotSeriesParallel
			}
		}
	}
	return sp, nil
}

func decomposeRef(g *Graph, reach [][]bool, verts []int) (*SP, error) {
	if len(verts) == 1 {
		v := verts[0]
		lf := Leaf(g.Task(v).Name, g.Weight(v))
		lf.TaskID = v
		return lf, nil
	}
	// Parallel split: weakly connected components of the comparability
	// relation restricted to verts.
	comps := componentsRef(verts, func(u, v int) bool { return reach[u][v] || reach[v][u] })
	if len(comps) > 1 {
		children := make([]*SP, 0, len(comps))
		for _, c := range comps {
			ch, err := decomposeRef(g, reach, c)
			if err != nil {
				return nil, err
			}
			children = append(children, ch)
		}
		return Parallel(children...), nil
	}
	// Series split: components of the incomparability relation. In a
	// series-parallel order these blocks are totally ordered.
	blocks := componentsRef(verts, func(u, v int) bool { return !reach[u][v] && !reach[v][u] })
	if len(blocks) == 1 {
		return nil, ErrNotSeriesParallel
	}
	// Order blocks by reachability (any representative works if the
	// graph is SP; verification catches violations).
	sort.Slice(blocks, func(i, j int) bool {
		u, v := blocks[i][0], blocks[j][0]
		if reach[u][v] {
			return true
		}
		if reach[v][u] {
			return false
		}
		return u < v
	})
	children := make([]*SP, 0, len(blocks))
	for _, b := range blocks {
		ch, err := decomposeRef(g, reach, b)
		if err != nil {
			return nil, err
		}
		children = append(children, ch)
	}
	return Series(children...), nil
}

// components returns the connected components of verts under the
// symmetric relation rel.
func componentsRef(verts []int, rel func(u, v int) bool) [][]int {
	id := make(map[int]int, len(verts))
	for i, v := range verts {
		id[v] = i
	}
	parent := make([]int, len(verts))
	for i := range parent {
		parent[i] = i
	}
	var find func(int) int
	find = func(x int) int {
		for parent[x] != x {
			parent[x] = parent[parent[x]]
			x = parent[x]
		}
		return x
	}
	union := func(a, b int) {
		ra, rb := find(a), find(b)
		if ra != rb {
			parent[ra] = rb
		}
	}
	for i := 0; i < len(verts); i++ {
		for j := i + 1; j < len(verts); j++ {
			if rel(verts[i], verts[j]) {
				union(i, j)
			}
		}
	}
	groups := make(map[int][]int)
	for i, v := range verts {
		groups[find(i)] = append(groups[find(i)], v)
	}
	keys := make([]int, 0, len(groups))
	for k := range groups {
		keys = append(keys, k)
	}
	sort.Ints(keys)
	out := make([][]int, 0, len(groups))
	for _, k := range keys {
		out = append(out, groups[k])
	}
	return out
}
