// Package core implements the paper's primary contribution: the Multi-Step
// Mechanism (MSM, §4) for geo-indistinguishable location reporting over a
// GeoInd-preserving Hierarchical Index (GIHI).
//
// MSM splits the total privacy budget eps across the levels of a
// hierarchical grid using the analytical model of §5 (package budget), then
// descends the index top-down (Algorithm 1): at level i it builds the
// optimal mechanism OPT (package opt) on the g x g subgrid of the cell
// selected at level i-1, using budget eps_i and the adversarial prior
// restricted to that subgrid, and samples the next cell from the resulting
// channel. The center of the leaf-level cell selected at the final step is
// reported. By the composability property of GeoInd (§2.2), the pipeline
// satisfies eps-GeoInd with eps = sum_i eps_i.
//
// Each per-level channel depends only on (level, parent cell), so solved
// channels are memoized: the first query through a region pays h small LP
// solves, subsequent queries only sample. PrecomputeCtx warms the whole
// cache, mirroring the paper's offline-download deployment model (§3.1).
package core

import (
	"context"
	"fmt"
	"math"
	"sync/atomic"

	"geoind/internal/budget"
	"geoind/internal/channel"
	"geoind/internal/descent"
	"geoind/internal/geo"
	"geoind/internal/grid"
	"geoind/internal/lp"
	"geoind/internal/opt"
	"geoind/internal/prior"
)

// Default configuration values.
const (
	// DefaultRho is the per-level same-cell probability target (§6.1 uses
	// 0.8 as the default).
	DefaultRho = 0.8
	// DefaultMaxLeafGranularity bounds g^h: the index stops deepening when
	// the leaf grid would exceed this many cells per side.
	DefaultMaxLeafGranularity = 1024
	// MaxFanout bounds the per-level granularity so each LP stays small.
	MaxFanout = 16
)

// Config parameterizes an MSM mechanism.
type Config struct {
	// Eps is the total privacy budget (required, > 0).
	Eps float64
	// G is the per-level grid granularity (fanout per side), in [2, MaxFanout].
	G int
	// Region is the square planar domain (side L) locations live in.
	Region geo.Rect
	// Rho is the per-level target for Pr[x|x]; 0 means DefaultRho.
	Rho float64
	// Metric is the utility metric dQ optimized at each level.
	Metric geo.Metric
	// MaxHeight optionally caps the index height; 0 means "as deep as the
	// budget and DefaultMaxLeafGranularity allow".
	MaxHeight int
	// ForceHeight pins the index to exactly this many levels, distributing
	// the budget with budget.AllocateFixedHeight. Used for like-for-like
	// comparisons against OPT at a fixed effective granularity (Table 2).
	// 0 means adaptive height (Algorithm 2).
	ForceHeight int
	// CustomBudgets, if non-empty, bypasses the allocation strategy
	// entirely: level i gets CustomBudgets[i-1] and the height is the slice
	// length. Eps is then ignored except that the total budget becomes
	// sum(CustomBudgets). Used by the budget-allocation ablation.
	CustomBudgets []float64
	// Prior is the adversarial prior. Its grid must cover Region with a
	// granularity divisible by the leaf granularity g^h. Nil means uniform
	// (or PriorPoints, if given).
	Prior *prior.Prior
	// PriorPoints, if non-empty and Prior is nil, is a set of check-in
	// locations from which the leaf-granularity empirical prior is built.
	PriorPoints []geo.Point
	// LP configures the per-level interior-point solves.
	LP *lp.IPMOptions
	// Workers bounds the parallelism of the whole channel pipeline: the
	// per-column block factorizations inside each LP solve (unless LP
	// already pins its own worker count), the Precompute fan-out across the
	// hierarchy, and — when greater than one — the warm sampling path, which
	// switches from one mutex-guarded RNG to an independent seeded PCG
	// stream per query so concurrent Reports never serialize. 0 or 1 keeps
	// the historical fully sequential behaviour (bit-identical outputs);
	// negative means one worker per CPU.
	Workers int
	// Store optionally injects a shared channel store (e.g. one store for
	// several mechanisms in a server). Nil means a private store. Keys
	// include the level budget, metric and a prior fingerprint, so distinct
	// mechanisms sharing a store never collide.
	Store *channel.Store
	// Owns, when non-nil, restricts PrecomputeCtx to the channel keys it
	// returns true for (the fabric installs its consistent-hash ownership
	// test here, so a fleet's replicas precompute disjoint partitions of
	// the key space — each unique channel is solved by exactly one
	// replica). Query-time descent is unaffected: a non-owned channel is
	// fetched from its owner through the store's backing, or solved
	// locally as a last resort.
	Owns func(key channel.Key) bool
	// SpannerStretch, when > 0, replaces each per-level full-constraint LP
	// with the spanner-reduced formulation of Bordenabe et al. at this
	// stretch factor (>= 1; stretch -> 1 recovers the exact LP). Reduced
	// channels satisfy eps-GeoInd exactly but are keyed separately in the
	// store (Key.Variant carries the stretch bits), so exact and reduced
	// channels — including persisted snapshots — never alias. 0 keeps the
	// exact formulation.
	SpannerStretch float64
	// Sampler selects the warm-path sampling implementation: opt.SamplerCum
	// (the default — cumulative binary search, bit-identical to historical
	// output streams) or opt.SamplerAlias (O(1) Walker alias tables, built
	// once per channel and shared across goroutines).
	Sampler opt.SamplerKind
	// PruneMass, when > 0, compacts each solved channel by pruning per-row
	// probability mass up to this bound into a uniform background row (the
	// eps-preserving construction of opt.Channel.Prune), shrinking resident
	// and persisted channels. Every pruned channel is re-verified against
	// the full GeoInd constraint set; a verification failure falls back to
	// the dense channel (counted in SamplerInfo). Must be in
	// [0, opt.MaxPruneMass); pruned channels are keyed separately in the
	// store (Key.Variant covers the prune mass), so dense and compact
	// channels — including persisted snapshots — never alias.
	PruneMass float64
	// LocalRadius, when > 0 (km), switches every per-level solve to the
	// locally relevant OPT construction (opt.BuildLocal): the LP runs only
	// over the relevance set — the heaviest-prior cells covering 1 -
	// LocalMassFloor of the subdomain's mass, dilated by this radius — and
	// the excluded tail receives the analytically padded β background.
	// Each local channel is re-gated by the GeoInd verifier restricted to
	// its domain; a gate failure falls back to the dense (or spanner)
	// solve, counted in LocalInfo. Composes with SpannerStretch (the
	// reduced LP then uses spanner constraints) and is keyed separately in
	// the store via Key.Variant. PruneMass is ignored for local channels —
	// they are already compact.
	LocalRadius float64
	// LocalMassFloor bounds the prior mass left outside the relevance core
	// (and the per-row prune budget inside it). 0 means
	// opt.DefaultLocalMassFloor; must stay in (0, opt.MaxPruneMass). Only
	// meaningful when LocalRadius > 0.
	LocalMassFloor float64
}

// storeNamespace is the Key namespace of MSM grid channels.
const storeNamespace = "msm"

// reportStreamSalt derives the per-query PCG stream sequence numbers used by
// the lock-free sampling path (Workers > 1). The sequential path keeps the
// historical stream constant, so the two modes can never collide.
const reportStreamSalt = 0x6a09e667f3bcc909

// Mechanism is a ready-to-use multi-step mechanism: the descent engine over
// the GIHI this package builds. ReportCtx, ReportBatchCtx, PrecomputeCtx and
// the rest of the descent come from the embedded engine, SamplerInfo from
// the embedded prune policy.
type Mechanism struct {
	*descent.Engine[cell, *opt.Channel]
	*descent.Pruner

	cfg       Config
	alloc     budget.Allocation
	hier      *grid.Hierarchy
	leafPrior *prior.Prior
	priorHash uint64
	variant   uint64 // store-key variant; 0 means unset (exact, dense)
	levelOff  []int  // start of each level's cells among the inner nodes; the last entry is their count

	localChannels  atomic.Int64 // solves done over a locally relevant domain
	localFallbacks atomic.Int64 // local builds that fell back to a dense solve
}

// New builds an MSM mechanism: it runs the budget allocation of §5 to fix
// the index height and per-level budgets, constructs the hierarchy, and
// prepares the leaf-granularity prior. Channels are solved lazily on first
// use (or eagerly via PrecomputeCtx). The seed makes all sampling reproducible.
func New(cfg Config, seed uint64) (*Mechanism, error) {
	if !(cfg.Eps > 0) || math.IsInf(cfg.Eps, 0) {
		return nil, fmt.Errorf("msm: eps=%g must be positive and finite", cfg.Eps)
	}
	if cfg.G < 2 || cfg.G > MaxFanout {
		return nil, fmt.Errorf("msm: granularity g=%d outside [2,%d]", cfg.G, MaxFanout)
	}
	if cfg.Region.Width() <= 0 || cfg.Region.Height() <= 0 {
		return nil, fmt.Errorf("msm: degenerate region %v", cfg.Region)
	}
	if cfg.Rho == 0 {
		cfg.Rho = DefaultRho
	}
	if !(cfg.Rho > 0 && cfg.Rho < 1) {
		return nil, fmt.Errorf("msm: rho=%g outside (0,1)", cfg.Rho)
	}
	if !cfg.Metric.Valid() {
		return nil, fmt.Errorf("msm: unknown metric %v", cfg.Metric)
	}
	if cfg.SpannerStretch != 0 && (!(cfg.SpannerStretch >= 1) || math.IsInf(cfg.SpannerStretch, 0)) {
		return nil, fmt.Errorf("msm: spanner stretch %g must be 0 (exact) or >= 1", cfg.SpannerStretch)
	}
	if cfg.PruneMass != 0 && (!(cfg.PruneMass > 0) || cfg.PruneMass >= opt.MaxPruneMass) {
		return nil, fmt.Errorf("msm: prune mass %g outside [0, %g)", cfg.PruneMass, opt.MaxPruneMass)
	}
	if cfg.LocalRadius != 0 && (!(cfg.LocalRadius > 0) || math.IsInf(cfg.LocalRadius, 0)) {
		return nil, fmt.Errorf("msm: local radius %g must be 0 (off) or positive and finite", cfg.LocalRadius)
	}
	if cfg.LocalMassFloor != 0 {
		if cfg.LocalRadius == 0 {
			return nil, fmt.Errorf("msm: local mass floor set without a local radius")
		}
		if !(cfg.LocalMassFloor > 0) || cfg.LocalMassFloor >= opt.MaxPruneMass {
			return nil, fmt.Errorf("msm: local mass floor %g outside (0, %g)", cfg.LocalMassFloor, opt.MaxPruneMass)
		}
	}

	// Height cap from the leaf-granularity bound (and the user's cap).
	maxH := 0
	for side := cfg.G; side <= DefaultMaxLeafGranularity; side *= cfg.G {
		maxH++
	}
	if maxH == 0 {
		maxH = 1
	}
	if cfg.MaxHeight > 0 && cfg.MaxHeight < maxH {
		maxH = cfg.MaxHeight
	}

	// The paper assumes a square domain (footnote 3); use the longer side
	// as L for allocation purposes.
	sideL := math.Max(cfg.Region.Width(), cfg.Region.Height())
	var (
		alloc budget.Allocation
		err   error
	)
	switch {
	case len(cfg.CustomBudgets) > 0:
		total := 0.0
		for i, e := range cfg.CustomBudgets {
			if !(e > 0) || math.IsInf(e, 0) {
				return nil, fmt.Errorf("msm: custom budget %d is %g, must be positive and finite", i+1, e)
			}
			total += e
		}
		alloc = budget.Allocation{Rho: cfg.Rho, Eps: append([]float64(nil), cfg.CustomBudgets...)}
		cfg.Eps = total
	case cfg.ForceHeight > 0:
		alloc, err = budget.AllocateFixedHeight(cfg.Eps, sideL, cfg.G, cfg.Rho, cfg.ForceHeight)
	default:
		alloc, err = budget.Allocate(cfg.Eps, sideL, cfg.G, cfg.Rho, maxH)
	}
	if err != nil {
		return nil, fmt.Errorf("msm: budget allocation: %w", err)
	}

	hier, err := grid.NewHierarchy(cfg.Region, cfg.G, alloc.Height())
	if err != nil {
		return nil, fmt.Errorf("msm: %w", err)
	}

	leafGrid := hier.LevelGrid(alloc.Height())
	var leaf *prior.Prior
	switch {
	case cfg.Prior != nil:
		leaf, err = adaptPrior(cfg.Prior, leafGrid)
		if err != nil {
			return nil, fmt.Errorf("msm: %w", err)
		}
	case len(cfg.PriorPoints) > 0:
		leaf = prior.FromPoints(leafGrid, cfg.PriorPoints)
	default:
		leaf = prior.Uniform(leafGrid)
	}

	m := &Mechanism{Pruner: descent.NewPruner(cfg.Sampler, cfg.PruneMass), cfg: cfg, alloc: alloc, hier: hier, leafPrior: leaf}
	m.Engine = descent.New[cell, *opt.Channel](gihi{m}, cfg.Region, cfg.Store, cfg.Workers, cfg.Sampler, cfg.Owns,
		seed, 0x9e3779b97f4a7c15, reportStreamSalt)
	m.levelOff = make([]int, alloc.Height()+1)
	for level := 0; level < alloc.Height(); level++ {
		m.levelOff[level+1] = m.levelOff[level] + m.levelCells(level)
	}
	// Fingerprint everything the per-key fields don't already capture:
	// geometry, fanout, height and the exact leaf prior.
	h := channel.NewHasher()
	h.Int(cfg.G)
	h.Int(alloc.Height())
	h.Float64(cfg.Region.MinX)
	h.Float64(cfg.Region.MinY)
	h.Float64(cfg.Region.MaxX)
	h.Float64(cfg.Region.MaxY)
	h.Floats(leaf.Weights())
	m.priorHash = h.Sum()
	// Non-default channel constructions (spanner-reduced LPs, pruned compact
	// representations, locally relevant domains) get a store-key variant
	// fingerprinting every knob, so they never alias the exact dense
	// channels — or each other — in a shared store or its persisted
	// snapshots.
	if cfg.SpannerStretch > 0 || cfg.PruneMass > 0 || cfg.LocalRadius > 0 {
		vh := channel.NewHasher()
		vh.Uint64(math.Float64bits(cfg.SpannerStretch))
		vh.Uint64(math.Float64bits(cfg.PruneMass))
		vh.Uint64(math.Float64bits(cfg.LocalRadius))
		vh.Uint64(math.Float64bits(cfg.LocalMassFloor))
		m.variant = vh.Sum()
	}
	return m, nil
}

// adaptPrior brings a user-supplied prior onto the leaf grid: identical
// granularity is used as-is, a finer divisible granularity is aggregated.
func adaptPrior(p *prior.Prior, leaf *grid.Grid) (*prior.Prior, error) {
	pg := p.Grid()
	if pg.Bounds() != leaf.Bounds() {
		return nil, fmt.Errorf("prior bounds %v do not match region %v", pg.Bounds(), leaf.Bounds())
	}
	if pg.Granularity() == leaf.Granularity() {
		return p, nil
	}
	if pg.Granularity()%leaf.Granularity() == 0 {
		return p.Aggregate(leaf)
	}
	return nil, fmt.Errorf("prior granularity %d incompatible with leaf granularity %d (must be an exact multiple)",
		pg.Granularity(), leaf.Granularity())
}

// Allocation returns the budget split chosen at construction.
func (m *Mechanism) Allocation() budget.Allocation { return m.alloc }

// Height returns the index height h.
func (m *Mechanism) Height() int { return m.alloc.Height() }

// LeafGrid returns the finest-level grid (granularity g^h).
func (m *Mechanism) LeafGrid() *grid.Grid { return m.hier.LevelGrid(m.Height()) }

// Hierarchy exposes the underlying GIHI.
func (m *Mechanism) Hierarchy() *grid.Hierarchy { return m.hier }

// Epsilon returns the total privacy budget.
func (m *Mechanism) Epsilon() float64 { return m.cfg.Eps }

// LocalInfo reports the locally relevant OPT configuration and its solve
// counters: channels solved over a reduced domain, and local builds whose
// restricted verifier gate (or LP) failed so the solve fell back to the
// dense formulation. Radius 0 means the variant is off.
func (m *Mechanism) LocalInfo() (radius, massFloor float64, localChannels, denseFallbacks int64) {
	massFloor = m.cfg.LocalMassFloor
	if m.cfg.LocalRadius > 0 && massFloor == 0 {
		massFloor = opt.DefaultLocalMassFloor
	}
	return m.cfg.LocalRadius, massFloor, m.localChannels.Load(), m.localFallbacks.Load()
}

// levelSubPrior returns the normalized prior over the g x g children of
// cell c. Zero-mass subdomains fall back to uniform.
func (m *Mechanism) levelSubPrior(c cell) []float64 {
	g := m.cfg.G
	ratio := m.LeafGrid().Granularity() / (c.side * g) // leaf cells per child cell side
	baseRow := c.row * g * ratio
	baseCol := c.col * g * ratio
	w := make([]float64, g*g)
	total := 0.0
	for r := 0; r < g; r++ {
		for c := 0; c < g; c++ {
			mass := m.leafPrior.BlockMass(baseRow+r*ratio, baseCol+c*ratio, ratio, ratio)
			w[r*g+c] = mass
			total += mass
		}
	}
	if total == 0 {
		u := 1 / float64(len(w))
		for i := range w {
			w[i] = u
		}
		return w
	}
	inv := 1 / total
	for i := range w {
		w[i] *= inv
	}
	return w
}

// storeKey assembles the store key for the channel descending from
// parentIdx at level. Every replica with the same configuration derives the
// same key (the prior hash and variant are content fingerprints), which is
// what lets a fleet address each other's snapshots.
func (m *Mechanism) storeKey(level, parentIdx int) channel.Key {
	key := channel.NewKey(storeNamespace, level, parentIdx, m.alloc.Eps[level], int(m.cfg.Metric), m.priorHash)
	if m.variant != 0 {
		key = key.WithVariant(m.variant)
	}
	return key
}

// levelCells returns the number of parent cells at level (the virtual root
// is the single level-0 parent).
func (m *Mechanism) levelCells(level int) int {
	if level == 0 {
		return 1
	}
	return m.hier.LevelGrid(level).NumCells()
}

// ChannelSnapshot serves one channel in the persisted GICH frame format for
// the fabric's snapshot endpoint. The key is validated against this
// mechanism's own configuration — namespace, level range, exact level
// budget, cell range, metric, prior fingerprint and variant — so a peer can
// never make this replica solve (or leak) a channel outside its index;
// mismatches return ErrUnknownKey. With solve set the channel is obtained
// through the store's full path (singleflight, read-through, admission
// control — the caller should be the key's owner); without it only resident
// or locally cached channels are served, and a cold key returns
// ErrNotCached so a hedged fetch can never cause a duplicate solve.
func (m *Mechanism) ChannelSnapshot(ctx context.Context, key channel.Key, solve bool) ([]byte, error) {
	if key.Namespace != storeNamespace {
		return nil, fmt.Errorf("%w: namespace %q", channel.ErrUnknownKey, key.Namespace)
	}
	if key.Level < 0 || key.Level >= m.Height() {
		return nil, fmt.Errorf("%w: level %d outside [0,%d)", channel.ErrUnknownKey, key.Level, m.Height())
	}
	if key.Cell < 0 || key.Cell >= m.levelCells(key.Level) {
		return nil, fmt.Errorf("%w: cell %d outside level %d", channel.ErrUnknownKey, key.Cell, key.Level)
	}
	if want := m.storeKey(key.Level, key.Cell); key != want {
		return nil, fmt.Errorf("%w: budget/metric/prior/variant mismatch", channel.ErrUnknownKey)
	}
	var v any
	if solve {
		ch, err := m.Channel(ctx, m.cellAt(key.Level, key.Cell))
		if err != nil {
			return nil, err
		}
		v = ch
	} else {
		var ok bool
		if v, ok = m.Store().LoadCached(ctx, key); !ok {
			return nil, channel.ErrNotCached
		}
	}
	payload, err := opt.SnapshotCodec{}.Encode(v)
	if err != nil {
		return nil, fmt.Errorf("msm: encode snapshot: %w", err)
	}
	return channel.Snapshot(key, payload), nil
}

// cell is a node of the GIHI: the cell at (row, col) of the side x side
// grid of level (the virtual root is level 0, side 1).
type cell struct {
	level, side, row, col int
}

func (c cell) idx() int { return c.row*c.side + c.col }

// cellAt returns cell idx of level.
func (m *Mechanism) cellAt(level, idx int) cell {
	if level == 0 {
		return cell{side: 1}
	}
	lg := m.hier.LevelGrid(level)
	row, col := lg.RowCol(idx)
	return cell{level: level, side: lg.Granularity(), row: row, col: col}
}

// gihi is the GIHI as a descent.Partition. Inner node ids run level by
// level: levelOff[level] + the cell's index in its level grid.
type gihi struct{ *Mechanism }

func (p gihi) Root() cell               { return cell{side: 1} }
func (p gihi) Inners() int              { return p.levelOff[p.Height()] }
func (p gihi) Depth() int               { return p.Height() }
func (p gihi) Children(cell) int        { return p.cfg.G * p.cfg.G }
func (p gihi) Release(c cell) geo.Point { return p.LeafGrid().Center(c.idx()) }
func (p gihi) Key(c cell) channel.Key   { return p.storeKey(c.level, c.idx()) }

func (p gihi) Inner(c cell) int {
	if c.level == p.Height() {
		return -1
	}
	return p.levelOff[c.level] + c.idx()
}

// Enclosing is SubGrid(level, cell).CellIndex, without building the subgrid.
func (p gihi) Enclosing(c cell, x geo.Point) int {
	i, _ := p.hier.ChildCell(c.level, c.row, c.col, x)
	return i
}

func (p gihi) Child(c cell, i int) cell {
	g := p.cfg.G
	return cell{level: c.level + 1, side: c.side * g, row: c.row*g + i/g, col: c.col*g + i%g}
}

// Solve performs the LP solve for the subdomain of cell c, using the locally
// relevant construction when LocalRadius is set (with a counted dense
// fallback if its restricted verifier gate rejects) and the spanner-reduced
// formulation when SpannerStretch is set.
func (p gihi) Solve(ctx context.Context, c cell) (*opt.Channel, error) {
	m, eps := p.Mechanism, p.alloc.Eps[c.level]
	sub := m.hier.SubGrid(c.level, c.idx())
	pw := m.levelSubPrior(c)
	lpOpts := descent.LPOptions(m.cfg.LP, m.cfg.Workers)
	var (
		ch  *opt.Channel
		err error
	)
	if m.cfg.LocalRadius > 0 {
		lo := &opt.LocalOptions{
			MassFloor:      m.cfg.LocalMassFloor,
			SpannerStretch: m.cfg.SpannerStretch,
			LP:             lpOpts,
			Workers:        m.cfg.Workers,
		}
		ch, err = opt.BuildLocalCtx(ctx, eps, &sub, pw, m.cfg.Metric, m.cfg.LocalRadius, lo)
		if err == nil {
			m.localChannels.Add(1)
			// Already compact: PruneMass has nothing left to prune.
			return ch, nil
		}
		if ctx.Err() != nil {
			return nil, fmt.Errorf("msm: level %d cell %d: %w", c.level+1, c.idx(), err)
		}
		// The local construction is an optimization, never a correctness
		// dependency: fall back to the dense (or spanner) solve and count it.
		m.localFallbacks.Add(1)
	}
	if m.cfg.SpannerStretch > 0 {
		ch, err = opt.BuildSpannerCtx(ctx, eps, &sub, pw, m.cfg.Metric, m.cfg.SpannerStretch, &opt.Options{LP: lpOpts})
	} else {
		ch, err = opt.BuildCtx(ctx, eps, &sub, pw, m.cfg.Metric, &opt.Options{LP: lpOpts})
	}
	if err != nil {
		return nil, fmt.Errorf("msm: level %d cell %d: %w", c.level+1, c.idx(), err)
	}
	return descent.Prune(m.Pruner, ch, pw), nil
}
