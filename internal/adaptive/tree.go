// Package adaptive implements the paper's future-work direction (§8): a
// multi-step mechanism over a prior-adaptive hierarchical partition instead
// of a uniform grid. Two tree builders feed Mechanism, which runs the same
// Algorithm 1 engine (internal/descent) as internal/core's uniform GIHI:
//
//   - BuildTree (New) splits each node's rectangle into fanout x fanout
//     sub-rectangles by k-d-style mass-median cuts (slice and dice: the node
//     is cut into fanout vertical strips of roughly equal prior mass, each
//     strip into fanout cells of roughly equal mass), so dense downtown areas
//     get small cells while empty suburbs keep large cells;
//   - buildQuad (NewQuad) splits nodes into uniform 2x2 quadrants and adapts
//     by depth instead: a node splits only while it holds enough prior mass.
//
// The trees differ from the GIHI in two ways: candidate locations are the
// irregular child-cell centers (opt.BuildPoints), and the per-level Problem-1
// budget requirement is evaluated per node from its own child-cell geometry,
// with the final level of every root-to-leaf path absorbing the remaining
// budget so each path consumes exactly eps (composability per path).
package adaptive

import (
	"fmt"
	"math"

	"geoind/internal/budget"
	"geoind/internal/geo"
	"geoind/internal/prior"
)

// Node is one node of the adaptive partition tree.
type Node struct {
	// Rect is the node's spatial extent.
	Rect geo.Rect
	// Children partition Rect (nil for leaves). len == fanout*fanout.
	Children []*Node
	// Mass is the prior mass of Rect.
	Mass float64
	// Eps is the budget assigned to the descent step performed AT this node
	// (zero for leaves).
	Eps float64
	// Level is the node's depth (root = 0).
	Level int
	id    int
	inner int // dense index among the tree's inner nodes, -1 for a leaf (see Tree.index)
}

// ID returns a stable identifier for channel caching.
func (n *Node) ID() int { return n.id }

// Centers returns the child-cell centers (the node's logical locations).
func (n *Node) Centers() []geo.Point {
	out := make([]geo.Point, len(n.Children))
	for i, c := range n.Children {
		out[i] = c.Rect.Center()
	}
	return out
}

// ChildMasses returns the children's prior masses.
func (n *Node) ChildMasses() []float64 {
	out := make([]float64, len(n.Children))
	for i, c := range n.Children {
		out[i] = c.Mass
	}
	return out
}

// ChildContaining returns the index of the child whose rect contains p, or
// -1 when p is outside the node.
func (n *Node) ChildContaining(p geo.Point) int {
	for i, c := range n.Children {
		if c.Rect.Contains(p) {
			return i
		}
	}
	return -1
}

// Tree is a prior-adaptive partition of a region: Fanout slices per axis
// at each inner node, at most Height levels below the root.
type Tree struct {
	Root   *Node
	Fanout int
	Height int
	nodes  int
	inners int // inner nodes, numbered in construction order by index
}

// NumNodes returns the total number of tree nodes.
func (t *Tree) NumNodes() int { return t.nodes }

// walk visits every node in construction (pre-)order.
func (t *Tree) walk(fn func(*Node)) {
	var rec func(*Node)
	rec = func(n *Node) {
		fn(n)
		for _, c := range n.Children {
			rec(c)
		}
	}
	rec(t.Root)
}

// Leaves returns all leaf nodes in construction order.
func (t *Tree) Leaves() []*Node {
	var out []*Node
	t.walk(func(n *Node) {
		if n.Children == nil {
			out = append(out, n)
		}
	})
	return out
}

// MaxDepthUsed returns the deepest node level actually present.
func (t *Tree) MaxDepthUsed() int {
	depth := 0
	t.walk(func(n *Node) { depth = max(depth, n.Level) })
	return depth
}

// index numbers the inner nodes densely, in construction order, once the
// builder has finished; the engine's batch memo is indexed by these numbers.
func (t *Tree) index() {
	t.walk(func(n *Node) {
		n.inner = -1
		if n.Children != nil {
			n.inner, t.inners = t.inners, t.inners+1
		}
	})
}

// node appends a childless node over the fine-grid index range
// [rowLo,rowHi) x [colLo,colHi) at level, taking the next id.
func (t *Tree) node(p *prior.Prior, level, rowLo, rowHi, colLo, colHi int) *Node {
	n := &Node{
		Rect:  rectOf(p.Grid(), rowLo, rowHi, colLo, colHi),
		Mass:  p.BlockMass(rowLo, colLo, rowHi-rowLo, colHi-colLo),
		Level: level,
		id:    t.nodes,
	}
	t.nodes++
	return n
}

// BuildTree constructs the adaptive tree over the prior's region. The prior
// supplies both the mass distribution driving the splits and the split
// coordinates, which snap to the prior grid's cell boundaries (so a finer
// prior grid gives finer split resolution). rho drives the per-node budget
// requirement: each inner node receives the minimal budget that keeps the
// same-cell probability at least rho for its (geometry-averaged) child size,
// and every path's last step absorbs the remainder of eps.
func BuildTree(p *prior.Prior, eps float64, fanout, height int, rho float64) (*Tree, error) {
	if p == nil {
		return nil, fmt.Errorf("adaptive: nil prior")
	}
	if !(eps > 0) || math.IsInf(eps, 0) {
		return nil, fmt.Errorf("adaptive: eps=%g must be positive and finite", eps)
	}
	if fanout < 2 || fanout > 16 {
		return nil, fmt.Errorf("adaptive: fanout %d outside [2,16]", fanout)
	}
	if height < 1 {
		return nil, fmt.Errorf("adaptive: height %d < 1", height)
	}
	if !(rho > 0 && rho < 1) {
		return nil, fmt.Errorf("adaptive: rho=%g outside (0,1)", rho)
	}
	fineG := p.Grid().Granularity()
	minSpan := 1
	for i := 0; i < height; i++ {
		minSpan *= fanout
	}
	if fineG < minSpan {
		return nil, fmt.Errorf("adaptive: prior granularity %d too coarse for fanout^height = %d", fineG, minSpan)
	}

	t := &Tree{Fanout: fanout, Height: height}
	root, err := t.build(p, 0, 0, fineG, 0, fineG, eps, rho)
	if err != nil {
		return nil, err
	}
	t.Root = root
	t.index()
	return t, nil
}

// build recursively partitions the fine-grid index range
// [rowLo,rowHi) x [colLo,colHi).
func (t *Tree) build(p *prior.Prior, level, rowLo, rowHi, colLo, colHi int, remaining, rho float64) (*Node, error) {
	n := t.node(p, level, rowLo, rowHi, colLo, colHi)
	if level == t.Height {
		return n, nil
	}

	// Budget for this descent step: the Problem-1 minimum for the node's
	// average child dimension, except that the last level takes everything
	// left (and any level where the requirement exceeds the remainder
	// becomes the last).
	childSide := math.Sqrt(n.Rect.Width() * n.Rect.Height() / float64(t.Fanout*t.Fanout))
	need, err := budget.MinEpsilon(childSide, rho)
	if err != nil {
		return nil, err
	}
	last := level == t.Height-1 || need >= remaining
	if last {
		n.Eps = remaining
	} else {
		n.Eps = need
	}

	// Slice: columns into fanout strips of ~equal mass, then dice each
	// strip into fanout cells. Splits snap to fine-grid lines.
	colCuts := massQuantileCuts(t.Fanout, colLo, colHi, func(lo, hi int) float64 {
		return p.BlockMass(rowLo, lo, rowHi-rowLo, hi-lo)
	})
	for ci := 0; ci < t.Fanout; ci++ {
		cLo, cHi := colCuts[ci], colCuts[ci+1]
		rowCuts := massQuantileCuts(t.Fanout, rowLo, rowHi, func(lo, hi int) float64 {
			return p.BlockMass(lo, cLo, hi-lo, cHi-cLo)
		})
		for ri := 0; ri < t.Fanout; ri++ {
			var child *Node
			if last {
				// Children of the final step are leaves regardless of the
				// configured height (budget exhausted).
				child = t.node(p, level+1, rowCuts[ri], rowCuts[ri+1], cLo, cHi)
			} else {
				child, err = t.build(p, level+1, rowCuts[ri], rowCuts[ri+1], cLo, cHi,
					remaining-n.Eps, rho)
				if err != nil {
					return nil, err
				}
			}
			n.Children = append(n.Children, child)
		}
	}
	return n, nil
}

// rectOf converts a fine-grid index range into a spatial rectangle.
func rectOf(g interface {
	CellRect(int) geo.Rect
	Index(int, int) int
}, rowLo, rowHi, colLo, colHi int) geo.Rect {
	lo := g.CellRect(g.Index(rowLo, colLo))
	hi := g.CellRect(g.Index(rowHi-1, colHi-1))
	return geo.Rect{MinX: lo.MinX, MinY: lo.MinY, MaxX: hi.MaxX, MaxY: hi.MaxY}
}

// massQuantileCuts splits the index range [lo, hi) into parts contiguous
// ranges with approximately equal mass (per the supplied range-mass
// function), guaranteeing every part is non-empty. It returns parts+1 cut
// positions starting at lo and ending at hi.
func massQuantileCuts(parts, lo, hi int, mass func(lo, hi int) float64) []int {
	cuts := make([]int, parts+1)
	cuts[0] = lo
	total := mass(lo, hi)
	for i := 1; i < parts; i++ {
		target := total * float64(i) / float64(parts)
		// Binary search the smallest cut with mass(lo, cut) >= target.
		a, b := cuts[i-1]+1, hi-(parts-i) // leave room for remaining parts
		for a < b {
			mid := (a + b) / 2
			if mass(lo, mid) >= target {
				b = mid
			} else {
				a = mid + 1
			}
		}
		cuts[i] = a
	}
	cuts[parts] = hi
	return cuts
}
