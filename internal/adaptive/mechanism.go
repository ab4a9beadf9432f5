package adaptive

import (
	"context"
	"fmt"
	"math"

	"geoind/internal/channel"
	"geoind/internal/descent"
	"geoind/internal/geo"
	"geoind/internal/grid"
	"geoind/internal/lp"
	"geoind/internal/opt"
	"geoind/internal/prior"
)

// Store namespaces for the two adaptive index families sharing a channel
// store, and the PCG stream salt of the lock-free sampling path (distinct
// from internal/core's so per-query streams never overlap between mechanisms
// built from one seed).
const (
	kdNamespace      = "adaptive"
	quadNamespace    = "quad"
	reportStreamSalt = 0xbb67ae8584caa73b
)

// Config parameterizes the adaptive multi-step mechanism over the k-d tree
// (New). NewQuad maps its QuadConfig onto the same fields, leaving Fanout and
// Height, which only BuildTree reads, unset.
type Config struct {
	// Eps is the total privacy budget (> 0).
	Eps float64
	// Region is the square planar domain.
	Region geo.Rect
	// Fanout is the number of slices per axis at each node (children =
	// Fanout^2), in [2, 16].
	Fanout int
	// Height is the maximum tree depth; paths may terminate earlier when
	// the budget runs out. 0 means a default of 3.
	Height int
	// Rho is the per-step same-cell probability target; 0 means 0.8.
	Rho float64
	// Metric is the utility metric dQ.
	Metric geo.Metric
	// PriorPoints builds the adversarial prior (required: the whole point
	// of the adaptive index is prior skew; an empty set falls back to a
	// uniform prior, which degenerates to an equal-area partition).
	PriorPoints []geo.Point
	// PriorGranularity is the fine grid resolution the prior (and hence the
	// split coordinates) use; 0 means 128.
	PriorGranularity int
	// LP configures the per-node solves.
	LP *lp.IPMOptions
	// Workers bounds pipeline parallelism (LP block solves, Precompute
	// fan-out, and — when > 1 — lock-free per-query sampling streams).
	// 0 or 1 keeps the historical sequential behaviour; negative means one
	// worker per CPU.
	Workers int
	// Store optionally injects a shared channel store; nil means private.
	Store *channel.Store
	// Sampler selects the warm-path sampling implementation (see
	// core.Config.Sampler); the zero value is the bit-compatible cumulative
	// binary search.
	Sampler opt.SamplerKind
	// PruneMass, when > 0, compacts each solved node channel with the
	// eps-preserving pruning of opt.PointChannel.Prune (verifier-gated,
	// dense fallback on failure). Must be in [0, opt.MaxPruneMass). Pruned
	// channels carry a store-key variant so they never alias dense ones.
	PruneMass float64
}

// Mechanism is the adaptive multi-step mechanism: the descent engine over a
// tree grown by one of the package's builders (New or NewQuad). ReportCtx,
// ReportBatchCtx, PrecomputeCtx and the rest of the descent come from the
// embedded engine, SamplerInfo from the embedded prune policy.
type Mechanism struct {
	*descent.Engine[*Node, *opt.PointChannel]
	*descent.Pruner

	cfg       Config
	tree      *Tree
	fine      *prior.Prior
	ns        string // channel-store namespace of the tree family
	priorHash uint64
	variant   uint64 // store-key variant; 0 means unset (dense)
}

// family is what tells the tree builders apart inside the one engine.
type family struct {
	ns   string          // channel-store namespace
	salt uint64          // PCG salt of the shared sequential stream
	hash *channel.Hasher // the builder's own parameters, already mixed in
}

// New builds the adaptive mechanism over a mass-balanced k-d tree
// (BuildTree) with per-node budget assignment, and prepares lazy channel
// solving.
func New(cfg Config, seed uint64) (*Mechanism, error) {
	if cfg.Rho == 0 {
		cfg.Rho = 0.8
	}
	if cfg.Height == 0 {
		cfg.Height = 3
	}
	if cfg.PriorGranularity == 0 {
		cfg.PriorGranularity = 128
	}
	h := channel.NewHasher()
	h.Int(cfg.Fanout)
	h.Int(cfg.Height)
	return newMechanism(cfg, seed, family{ns: kdNamespace, salt: 0xada9717e, hash: h}, func(p *prior.Prior) (*Tree, error) {
		return BuildTree(p, cfg.Eps, cfg.Fanout, cfg.Height, cfg.Rho)
	})
}

// newMechanism is the constructor every builder shares: it validates the
// common fields, builds the fine prior, grows the tree over it with build,
// and finishes the family's prior hash with Rho, the region and the prior
// weights. cfg carries its builder's defaults already.
func newMechanism(cfg Config, seed uint64, fam family, build func(*prior.Prior) (*Tree, error)) (*Mechanism, error) {
	if cfg.Region.Width() <= 0 || cfg.Region.Height() <= 0 {
		return nil, fmt.Errorf("adaptive: degenerate region %v", cfg.Region)
	}
	if !cfg.Metric.Valid() {
		return nil, fmt.Errorf("adaptive: unknown metric %v", cfg.Metric)
	}
	if cfg.PruneMass != 0 && (!(cfg.PruneMass > 0) || cfg.PruneMass >= opt.MaxPruneMass) {
		return nil, fmt.Errorf("adaptive: prune mass %g outside [0, %g)", cfg.PruneMass, opt.MaxPruneMass)
	}
	fineGrid, err := grid.New(cfg.Region, cfg.PriorGranularity)
	if err != nil {
		return nil, fmt.Errorf("adaptive: %w", err)
	}
	var fine *prior.Prior
	if len(cfg.PriorPoints) > 0 {
		fine = prior.FromPoints(fineGrid, cfg.PriorPoints)
	} else {
		fine = prior.Uniform(fineGrid)
	}
	tree, err := build(fine)
	if err != nil {
		return nil, err
	}
	m := &Mechanism{Pruner: descent.NewPruner(cfg.Sampler, cfg.PruneMass), cfg: cfg, tree: tree, fine: fine, ns: fam.ns}
	m.Engine = descent.New[*Node, *opt.PointChannel](treeIndex{m}, cfg.Region, cfg.Store, cfg.Workers, cfg.Sampler, nil,
		seed, fam.salt, reportStreamSalt)
	h := fam.hash
	h.Float64(cfg.Rho)
	h.Float64(cfg.Region.MinX)
	h.Float64(cfg.Region.MinY)
	h.Float64(cfg.Region.MaxX)
	h.Float64(cfg.Region.MaxY)
	h.Floats(fine.Weights())
	m.priorHash = h.Sum()
	if cfg.PruneMass > 0 {
		vh := channel.NewHasher()
		vh.Uint64(math.Float64bits(cfg.PruneMass))
		m.variant = vh.Sum()
	}
	return m, nil
}

// Tree exposes the underlying partition (read-only).
func (m *Mechanism) Tree() *Tree { return m.tree }

// Epsilon returns the total budget. Quadtree paths that end early (sparse
// areas) spend less; unspent budget only strengthens privacy.
func (m *Mechanism) Epsilon() float64 { return m.cfg.Eps }

// treeIndex is the tree as a descent.Partition.
type treeIndex struct{ *Mechanism }

func (p treeIndex) Root() *Node                        { return p.tree.Root }
func (p treeIndex) Inner(n *Node) int                  { return n.inner }
func (p treeIndex) Inners() int                        { return p.tree.inners }
func (p treeIndex) Depth() int                         { return p.tree.Height }
func (p treeIndex) Children(n *Node) int               { return len(n.Children) }
func (p treeIndex) Enclosing(n *Node, x geo.Point) int { return n.ChildContaining(x) }
func (p treeIndex) Child(n *Node, i int) *Node         { return n.Children[i] }
func (p treeIndex) Release(n *Node) geo.Point          { return n.Rect.Center() }

func (p treeIndex) Key(n *Node) channel.Key {
	key := channel.NewKey(p.ns, 0, n.ID(), n.Eps, int(p.cfg.Metric), p.priorHash)
	if p.variant != 0 {
		key = key.WithVariant(p.variant)
	}
	return key
}

// Solve performs the LP solve for one inner node.
func (p treeIndex) Solve(ctx context.Context, n *Node) (*opt.PointChannel, error) {
	masses := n.ChildMasses()
	total := 0.0
	for _, v := range masses {
		total += v
	}
	if total == 0 {
		for i := range masses {
			masses[i] = 1
		}
	}
	ch, err := opt.BuildPointsCtx(ctx, n.Eps, n.Centers(), masses, p.cfg.Metric,
		&opt.Options{LP: descent.LPOptions(p.cfg.LP, p.cfg.Workers)})
	if err != nil {
		return nil, fmt.Errorf("adaptive: node %d: %w", n.ID(), err)
	}
	return descent.Prune(p.Pruner, ch, masses), nil
}

// MeanLeafSide returns the prior-mass-weighted average leaf cell side
// length, a compactness measure of the partition (smaller where it matters
// means better expected utility).
func (m *Mechanism) MeanLeafSide() float64 {
	total, mass := 0.0, 0.0
	for _, leaf := range m.tree.Leaves() {
		side := math.Sqrt(leaf.Rect.Width() * leaf.Rect.Height())
		total += leaf.Mass * side
		mass += leaf.Mass
	}
	if mass == 0 {
		return 0
	}
	return total / mass
}
