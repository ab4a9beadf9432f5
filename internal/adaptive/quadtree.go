package adaptive

import (
	"fmt"
	"math"

	"geoind/internal/budget"
	"geoind/internal/channel"
	"geoind/internal/geo"
	"geoind/internal/lp"
	"geoind/internal/opt"
	"geoind/internal/prior"
)

// QuadConfig parameterizes the quadtree builder — the other index structure
// named by the paper's future work (§8). Unlike the k-d Tree, quadtree
// cells are uniform squares: adaptation comes from *depth*, not cell shape. A node keeps splitting into 2x2 quadrants while it still
// holds at least MassThreshold of the prior mass, the budget allows another
// level, and MaxDepth is not reached — so dense areas get deep, fine-grained
// subtrees while empty suburbs stay coarse.
type QuadConfig struct {
	// Eps is the total privacy budget (> 0).
	Eps float64
	// Region is the square planar domain.
	Region geo.Rect
	// MassThreshold stops splitting below this prior mass; 0 means 0.01.
	MassThreshold float64
	// MaxDepth caps the tree depth; 0 means 6.
	MaxDepth int
	// Rho is the per-step same-cell probability target; 0 means 0.8.
	Rho float64
	// Metric is the utility metric dQ.
	Metric geo.Metric
	// PriorPoints drives both the prior and the split decisions.
	PriorPoints []geo.Point
	// PriorGranularity is the fine prior grid resolution; 0 means 128
	// (must be a power of two at least 2^MaxDepth for exact alignment).
	PriorGranularity int
	// LP configures the per-node solves.
	LP *lp.IPMOptions
	// Workers bounds pipeline parallelism (LP block solves, Precompute
	// fan-out, and — when > 1 — lock-free per-query sampling streams).
	Workers int
	// Store optionally injects a shared channel store; nil means private.
	Store *channel.Store
	// Sampler selects the warm-path sampling implementation (see
	// core.Config.Sampler).
	Sampler opt.SamplerKind
	// PruneMass, when > 0, compacts solved node channels (see
	// Config.PruneMass). Must be in [0, opt.MaxPruneMass).
	PruneMass float64
}

// NewQuad builds the multi-step mechanism over a quadtree: the same engine
// as New, with buildQuad growing the tree.
func NewQuad(qc QuadConfig, seed uint64) (*Mechanism, error) {
	if !(qc.Eps > 0) || math.IsInf(qc.Eps, 0) {
		return nil, fmt.Errorf("adaptive: quad eps=%g must be positive and finite", qc.Eps)
	}
	if qc.MassThreshold == 0 {
		qc.MassThreshold = 0.01
	}
	if !(qc.MassThreshold > 0 && qc.MassThreshold < 1) {
		return nil, fmt.Errorf("adaptive: quad mass threshold %g outside (0,1)", qc.MassThreshold)
	}
	if qc.MaxDepth == 0 {
		qc.MaxDepth = 6
	}
	if qc.MaxDepth < 1 || qc.MaxDepth > 12 {
		return nil, fmt.Errorf("adaptive: quad max depth %d outside [1,12]", qc.MaxDepth)
	}
	if qc.Rho == 0 {
		qc.Rho = 0.8
	}
	if !(qc.Rho > 0 && qc.Rho < 1) {
		return nil, fmt.Errorf("adaptive: quad rho=%g outside (0,1)", qc.Rho)
	}
	if qc.PriorGranularity == 0 {
		qc.PriorGranularity = 128
	}
	minG := 1 << qc.MaxDepth
	if qc.PriorGranularity < minG || qc.PriorGranularity%minG != 0 {
		return nil, fmt.Errorf("adaptive: quad prior granularity %d must be a multiple of 2^MaxDepth = %d",
			qc.PriorGranularity, minG)
	}
	cfg := Config{
		Eps: qc.Eps, Region: qc.Region, Rho: qc.Rho, Metric: qc.Metric,
		PriorPoints: qc.PriorPoints, PriorGranularity: qc.PriorGranularity,
		LP: qc.LP, Workers: qc.Workers, Store: qc.Store, Sampler: qc.Sampler, PruneMass: qc.PruneMass,
	}
	h := channel.NewHasher()
	h.Int(qc.MaxDepth)
	h.Float64(qc.MassThreshold)
	return newMechanism(cfg, seed, family{ns: quadNamespace, salt: 0x90ad7ee, hash: h}, func(p *prior.Prior) (*Tree, error) {
		return buildQuad(p, qc.Eps, qc.MaxDepth, qc.MassThreshold, qc.Rho)
	})
}

// buildQuad grows the quadtree over the prior's fine grid. Node ids, levels
// and per-node budgets follow the same conventions as BuildTree.
func buildQuad(p *prior.Prior, eps float64, maxDepth int, threshold, rho float64) (*Tree, error) {
	t := &Tree{Fanout: 2, Height: maxDepth}
	g := p.Grid().Granularity()
	root, err := t.grow(p, 0, 0, g, 0, g, eps, threshold, rho)
	if err != nil {
		return nil, err
	}
	t.Root = root
	t.index()
	return t, nil
}

// grow recursively builds the quadtree over the fine-grid index range
// [rowLo,rowHi) x [colLo,colHi).
func (t *Tree) grow(p *prior.Prior, depth, rowLo, rowHi, colLo, colHi int, remaining, threshold, rho float64) (*Node, error) {
	n := t.node(p, depth, rowLo, rowHi, colLo, colHi)

	// Split? Only while dense enough, deep budget available, and the range
	// is still divisible.
	if depth >= t.Height || n.Mass < threshold || (rowHi-rowLo) < 2 {
		return n, nil
	}
	childSide := n.Rect.Width() / 2
	need, err := budget.MinEpsilon(math.Min(childSide, n.Rect.Height()/2), rho)
	if err != nil {
		return nil, err
	}
	// When another informative level is unaffordable here, this subtree's
	// descent ends one step below, absorbing all remaining budget.
	last := need >= remaining
	if last {
		n.Eps = remaining
	} else {
		n.Eps = need
	}
	midR, midC := (rowLo+rowHi)/2, (colLo+colHi)/2
	for _, r := range [][2]int{{rowLo, midR}, {midR, rowHi}} {
		for _, c := range [][2]int{{colLo, midC}, {midC, colHi}} {
			var child *Node
			if last {
				child = t.node(p, depth+1, r[0], r[1], c[0], c[1])
			} else {
				child, err = t.grow(p, depth+1, r[0], r[1], c[0], c[1], remaining-need, threshold, rho)
				if err != nil {
					return nil, err
				}
			}
			n.Children = append(n.Children, child)
		}
	}
	return n, nil
}
