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
// solves, subsequent queries only sample. Precompute warms the whole cache,
// mirroring the paper's offline-download deployment model (§3.1).
package core

import (
	"context"
	"fmt"
	"math"
	"math/rand/v2"
	"sync"
	"sync/atomic"

	"geoind/internal/budget"
	"geoind/internal/channel"
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
	// DisableCache turns off channel memoization (used by benchmarks to
	// measure cold-path cost): every descent step re-solves its LP, and the
	// channel store is bypassed entirely.
	DisableCache bool
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

// Mechanism is a ready-to-use multi-step mechanism.
type Mechanism struct {
	cfg       Config
	alloc     budget.Allocation
	hier      *grid.Hierarchy
	leafPrior *prior.Prior
	seed      uint64

	store     *channel.Store
	priorHash uint64
	variant   uint64 // store-key variant; 0 means unset (exact, dense)

	queries        atomic.Int64
	solves         atomic.Int64 // LP solves performed (store misses + bypass solves)
	prunedChannels atomic.Int64 // solves whose channel was compacted
	pruneFallbacks atomic.Int64 // solves kept dense after a failed prune
	localChannels  atomic.Int64 // solves done over a locally relevant domain
	localFallbacks atomic.Int64 // local builds that fell back to a dense solve
	queryIdx       atomic.Uint64

	rng   *rand.Rand
	rngMu sync.Mutex // guards rng for sequential-mode Report

	levelOff []int     // start of each level's cells in a batch slot index; last entry is the total
	slotPool sync.Pool // *[]int32 batch slot indexes, all zero while pooled
}

// New builds an MSM mechanism: it runs the budget allocation of §5 to fix
// the index height and per-level budgets, constructs the hierarchy, and
// prepares the leaf-granularity prior. Channels are solved lazily on first
// use (or eagerly via Precompute). The seed makes all sampling reproducible.
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

	m := &Mechanism{
		cfg:       cfg,
		alloc:     alloc,
		hier:      hier,
		leafPrior: leaf,
		seed:      seed,
		rng:       rand.New(rand.NewPCG(seed, 0x9e3779b97f4a7c15)),
		store:     cfg.Store,
	}
	if m.store == nil {
		m.store = channel.New(channel.Options{})
	}
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

// Metric returns the configured utility metric.
func (m *Mechanism) Metric() geo.Metric { return m.cfg.Metric }

// Stats reports cache behaviour: total queries answered and LP solves
// performed (equivalently, channel-store misses; with DisableCache, every
// descent step). Both counters are maintained atomically, so Stats is safe
// and accurate under concurrent Report/Precompute load.
func (m *Mechanism) Stats() (queries, solves int) {
	return int(m.queries.Load()), int(m.solves.Load())
}

// SamplerInfo reports the warm-path sampling configuration and the pruning
// counters: how many solved channels were compacted and how many fell back
// to dense after failing the post-prune GeoInd verification.
func (m *Mechanism) SamplerInfo() (kind string, pruneMass float64, pruned, fallbacks int64) {
	return m.cfg.Sampler.String(), m.cfg.PruneMass, m.prunedChannels.Load(), m.pruneFallbacks.Load()
}

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

// sample draws one descent step from ch with the configured sampler kind
// (the alias table is built lazily on first use and shared thereafter).
func (m *Mechanism) sample(ch *opt.Channel, xLocal int, rng *rand.Rand) int {
	return ch.Sampler(m.cfg.Sampler).Sample(xLocal, rng)
}

// StoreStats returns a snapshot of the underlying channel store's counters
// (hits, misses, in-flight solves, resident entries). With an injected
// shared store the numbers aggregate every mechanism using it.
func (m *Mechanism) StoreStats() channel.Stats { return m.store.Stats() }

// DirCacheStats returns the persistent backing cache's counters (loads,
// version misses, decode errors) when one is configured; ok is false
// otherwise.
func (m *Mechanism) DirCacheStats() (channel.DirStats, bool) { return m.store.BackingStats() }

// SyncStore blocks until the store's write-behind persistence goroutines
// (if a backing cache is configured) have drained. Call after Precompute or
// before shutdown to guarantee solved channels reached disk.
func (m *Mechanism) SyncStore() { m.store.Sync() }

// Workers returns the effective parallelism degree of the pipeline.
func (m *Mechanism) Workers() int { return channel.Workers(m.cfg.Workers) }

// levelSubPrior returns the normalized prior over the g x g children of
// parentIdx at the given level (0 = root). Zero-mass subdomains fall back
// to uniform.
func (m *Mechanism) levelSubPrior(level, parentIdx int) []float64 {
	g := m.cfg.G
	leafG := m.LeafGrid().Granularity()
	childG := 1
	for i := 0; i <= level; i++ {
		childG *= g
	}
	ratio := leafG / childG // leaf cells per child cell side
	var pRow, pCol int
	if level > 0 {
		pRow, pCol = m.hier.LevelGrid(level).RowCol(parentIdx)
	}
	baseRow := pRow * g * ratio
	baseCol := pCol * g * ratio
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

// lpOpts resolves the interior-point options for one solve: an explicit
// Config.LP wins field by field, with the pipeline worker count filled in
// when LP does not pin its own.
func (m *Mechanism) lpOpts() *lp.IPMOptions {
	var o lp.IPMOptions
	if m.cfg.LP != nil {
		o = *m.cfg.LP
	}
	if o.Workers == 0 {
		o.Workers = m.cfg.Workers
	}
	return &o
}

// channel returns the OPT channel for descending from parentIdx at level
// (into level+1). The shared store deduplicates concurrent solves of the
// same key (singleflight), so a cold channel is solved exactly once no
// matter how many goroutines race for it; with DisableCache the store is
// bypassed and every call re-solves.
func (m *Mechanism) channel(ctx context.Context, level, parentIdx int) (*opt.Channel, error) {
	if m.cfg.DisableCache {
		return m.solveChannel(ctx, level, parentIdx)
	}
	key := m.storeKey(level, parentIdx)
	v, _, err := m.store.GetOrComputeCtx(ctx, key, func(solveCtx context.Context) (any, error) {
		// solveCtx is the store's detached solve context, not the caller's
		// request ctx: the solve outlives any individual waiter and is only
		// canceled when every waiter has abandoned it (or SolveTimeout fires).
		return m.solveChannel(solveCtx, level, parentIdx)
	})
	if err != nil {
		return nil, err
	}
	// A persisted snapshot passed checksum, key and codec validation, but a
	// foreign backing could in principle hand back the wrong shape; never
	// trust it over a fresh solve.
	ch, ok := v.(*opt.Channel)
	if !ok || ch.N() != m.cfg.G*m.cfg.G {
		return m.solveChannel(ctx, level, parentIdx)
	}
	return ch, nil
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
	if m.cfg.DisableCache {
		return nil, fmt.Errorf("%w: channel cache disabled", channel.ErrUnknownKey)
	}
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
		var err error
		v, _, err = m.store.GetOrComputeCtx(ctx, key, func(solveCtx context.Context) (any, error) {
			return m.solveChannel(solveCtx, key.Level, key.Cell)
		})
		if err != nil {
			return nil, err
		}
	} else {
		var ok bool
		if v, ok = m.store.LoadCached(ctx, key); !ok {
			return nil, channel.ErrNotCached
		}
	}
	payload, err := opt.SnapshotCodec{}.Encode(v)
	if err != nil {
		return nil, fmt.Errorf("msm: encode snapshot: %w", err)
	}
	return channel.Snapshot(key, payload), nil
}

// solveChannel performs the LP solve for one (level, parent) subdomain,
// using the locally relevant construction when LocalRadius is set (with a
// counted dense fallback if its restricted verifier gate rejects) and the
// spanner-reduced formulation when SpannerStretch is set.
func (m *Mechanism) solveChannel(ctx context.Context, level, parentIdx int) (*opt.Channel, error) {
	sub := m.hier.SubGrid(level, parentIdx)
	pw := m.levelSubPrior(level, parentIdx)
	var (
		ch  *opt.Channel
		err error
	)
	if m.cfg.LocalRadius > 0 {
		lo := &opt.LocalOptions{
			MassFloor:      m.cfg.LocalMassFloor,
			SpannerStretch: m.cfg.SpannerStretch,
			LP:             m.lpOpts(),
			Workers:        m.cfg.Workers,
		}
		ch, err = opt.BuildLocalCtx(ctx, m.alloc.Eps[level], &sub, pw, m.cfg.Metric, m.cfg.LocalRadius, lo)
		if err == nil {
			m.solves.Add(1)
			m.localChannels.Add(1)
			// Already compact: PruneMass has nothing left to prune.
			return ch, nil
		}
		if ctx.Err() != nil {
			return nil, fmt.Errorf("msm: level %d cell %d: %w", level+1, parentIdx, err)
		}
		// The local construction is an optimization, never a correctness
		// dependency: fall back to the dense (or spanner) solve and count it.
		m.localFallbacks.Add(1)
	}
	if m.cfg.SpannerStretch > 0 {
		ch, err = opt.BuildSpannerCtx(ctx, m.alloc.Eps[level], &sub, pw, m.cfg.Metric, m.cfg.SpannerStretch, &opt.Options{LP: m.lpOpts()})
	} else {
		ch, err = opt.BuildCtx(ctx, m.alloc.Eps[level], &sub, pw, m.cfg.Metric, &opt.Options{LP: m.lpOpts()})
	}
	if err != nil {
		return nil, fmt.Errorf("msm: level %d cell %d: %w", level+1, parentIdx, err)
	}
	m.solves.Add(1)
	if m.cfg.PruneMass > 0 {
		if pruned, perr := ch.Prune(m.cfg.PruneMass, pw); perr == nil {
			ch = pruned
			m.prunedChannels.Add(1)
		} else {
			// Keep the dense channel: pruning is an optimization, never a
			// correctness dependency. The verifier gate inside Prune already
			// rejected the compact form, so dense is the only safe answer.
			m.pruneFallbacks.Add(1)
		}
	}
	return ch, nil
}

// Report runs Algorithm 1 for the actual location x using the mechanism's
// seeded randomness and returns the sanitized location (a leaf cell
// center). Locations outside the region are clamped onto it first.
//
// With Workers <= 1 all reports draw from one shared RNG under a mutex,
// reproducing the historical sequential output stream bit for bit. With
// Workers > 1 the i-th report (in arrival order) draws from its own PCG
// stream split off the seed by the query index, so concurrent reports are
// lock-free on the sampling path while remaining deterministic: the same
// seed and the same arrival order produce the same outputs.
func (m *Mechanism) Report(x geo.Point) (geo.Point, error) {
	return m.ReportCtx(context.Background(), x)
}

// ReportCtx is Report under a context: the descent polls ctx between levels
// (through the channel store), so canceling ctx makes an in-flight cold
// report return promptly with ctx.Err() — abandoning, not aborting, any
// shared solve that still has other waiters. Warm reports never block and
// are unaffected. With ctx == context.Background() the sampling output is
// bit-identical to Report.
func (m *Mechanism) ReportCtx(ctx context.Context, x geo.Point) (geo.Point, error) {
	m.queries.Add(1)
	if channel.Workers(m.cfg.Workers) <= 1 {
		m.rngMu.Lock()
		defer m.rngMu.Unlock()
		return m.reportWithCtx(ctx, x, m.rng)
	}
	qi := m.queryIdx.Add(1) - 1
	rng := rand.New(rand.NewPCG(m.seed, reportStreamSalt^qi))
	return m.reportWithCtx(ctx, x, rng)
}

// ReportBatch sanitizes a slice of locations in one call, amortizing the
// per-report overhead of the sampling path, and returns the results in input
// order. With Workers <= 1 the shared RNG mutex is acquired once for the
// whole batch and the points are processed sequentially, so the output is
// bit-identical to calling Report in a loop. With Workers > 1 the batch
// reserves a contiguous block of query indices and runs Algorithm 1 level by
// level over the whole batch: each level's distinct (level, parent) channels
// and subgrids are acquired from the store exactly once per batch — instead
// of once per point — and the per-point descent steps fan across up to
// Workers goroutines. Every point draws from the PCG stream of its own query
// index in per-point order, so the result is independent of the worker count
// and identical to what a sequential Report loop in the same arrival order
// would produce.
//
// Sampling errors abort the batch: the returned slice is nil and the first
// error (by completion order) is reported.
func (m *Mechanism) ReportBatch(xs []geo.Point) ([]geo.Point, error) {
	return m.ReportBatchCtx(context.Background(), xs)
}

// ReportBatchCtx is ReportBatch under a context: the pooled fan-out polls
// ctx once per chunk of points (the sequential path every 32 points), so a
// cancel drains the workers promptly and the call returns ctx.Err(). When
// ctx is never canceled the output is bit-identical to ReportBatch (the
// polls consume no randomness).
func (m *Mechanism) ReportBatchCtx(ctx context.Context, xs []geo.Point) ([]geo.Point, error) {
	m.queries.Add(int64(len(xs)))
	out := make([]geo.Point, len(xs))
	if len(xs) == 0 {
		return out, nil
	}
	workers := channel.Workers(m.cfg.Workers)
	if workers <= 1 {
		m.rngMu.Lock()
		defer m.rngMu.Unlock()
		if err := m.reportBatchSeq(ctx, xs, out, m.rng); err != nil {
			return nil, err
		}
		return out, nil
	}
	base := m.queryIdx.Add(uint64(len(xs))) - uint64(len(xs))
	if err := m.reportBatchLevels(ctx, xs, out, base, workers); err != nil {
		return nil, err
	}
	return out, nil
}

// batchChunk is the number of consecutive points one worker claims at a
// time in the pooled batch descent: large enough that the shared claim
// counter and the ctx poll vanish from the per-point cost, small enough that
// a 1k-point batch still spreads over 16 claims.
const batchChunk = 64

// batchSlot is one (level, parent cell) a batch descends through: its
// subgrid and the sampler of its channel, acquired once per batch. pos is
// the slot's entry in the mechanism's slot index.
type batchSlot struct {
	pos     int
	sub     grid.Grid
	sampler opt.Sampler
}

// acquire fetches the slot's channel and subgrid and resolves its sampler.
func (m *Mechanism) acquire(ctx context.Context, s *batchSlot, level, parent int) error {
	ch, err := m.channel(ctx, level, parent)
	if err != nil {
		return err
	}
	s.sub = m.hier.SubGrid(level, parent)
	s.sampler = ch.Sampler(m.cfg.Sampler)
	return nil
}

// getSlotIndex borrows a slot index: one int32 per (level, parent cell) of
// the whole hierarchy, level l starting at levelOff[l], holding slot+1 for a
// cell the batch has acquired and 0 otherwise. Indexes are pooled and come
// back all zero (putSlotIndex clears exactly the entries a batch set), so a
// small batch over a deep hierarchy never pays to clear the untouched cells.
func (m *Mechanism) getSlotIndex() *[]int32 {
	if idx, ok := m.slotPool.Get().(*[]int32); ok {
		return idx
	}
	idx := make([]int32, m.levelOff[m.Height()])
	return &idx
}

// putSlotIndex zeroes the entries of slots and returns idx to the pool.
func (m *Mechanism) putSlotIndex(idx *[]int32, slots []batchSlot) {
	for _, s := range slots {
		(*idx)[s.pos] = 0
	}
	m.slotPool.Put(idx)
}

// reportBatchLevels is the pooled Workers>1 batch descent. Per level it
// assigns the batch's distinct parent cells dense slots, acquires each
// slot's channel, subgrid and sampler once, and then advances every point
// one step, fanning contiguous chunks of batchChunk points across the
// workers. Point i draws from its own PCG stream (query index base+i) in the
// same order a per-point ReportCell descent would, so outputs are
// bit-identical to the per-point path for any worker count. The streams and
// generators live in two per-batch value slices, so the descent allocates
// per batch, not per point.
func (m *Mechanism) reportBatchLevels(ctx context.Context, xs, out []geo.Point, base uint64, workers int) error {
	n := len(xs)
	pcgs := make([]rand.PCG, n)
	rngs := make([]rand.Rand, n)
	clamped := make([]geo.Point, n)
	parents := make([]int, n) // level-0 parent is the virtual root, index 0
	idxp := m.getSlotIndex()
	idx := *idxp
	var slots []batchSlot
	defer func() { m.putSlotIndex(idxp, slots) }()
	chunks := (n + batchChunk - 1) / batchChunk
	for level := 0; level < m.Height(); level++ {
		first := len(slots)
		off := m.levelOff[level]
		for _, p := range parents {
			if idx[off+p] == 0 {
				slots = append(slots, batchSlot{pos: off + p})
				idx[off+p] = int32(len(slots))
			}
		}
		cur := slots[first:] // this level's slots, just appended
		if err := channel.ForEachCtx(ctx, workers, len(cur), func(j int) error {
			return m.acquire(ctx, &cur[j], level, cur[j].pos-off)
		}); err != nil {
			return err
		}
		if err := channel.ForEachCtx(ctx, workers, chunks, func(c int) error {
			lo, hi := c*batchChunk, min((c+1)*batchChunk, n)
			if level == 0 {
				for i := lo; i < hi; i++ {
					pcgs[i].Seed(m.seed, reportStreamSalt^(base+uint64(i)))
					rngs[i] = *rand.New(&pcgs[i])
					clamped[i] = m.cfg.Region.Clamp(xs[i])
				}
			}
			for i := lo; i < hi; i++ {
				s := &slots[idx[off+parents[i]]-1]
				rng := &rngs[i]
				// Algorithm 1 line 10: points outside the selected subdomain
				// substitute a uniformly random logical location.
				xLocal, ok := s.sub.CellIndex(clamped[i])
				if !ok {
					xLocal = rng.IntN(s.sub.NumCells())
				}
				parents[i] = m.hier.ChildIndex(level, parents[i], s.sampler.Sample(xLocal, rng))
			}
			return nil
		}); err != nil {
			return err
		}
	}
	leaf := m.LeafGrid()
	for i, p := range parents {
		out[i] = leaf.Center(p)
	}
	return nil
}

// reportBatchSeq runs the sequential batch descent: points in input order,
// every sample drawn from rng, so the output is bit-identical to a ReportWith
// loop. The only difference from the loop is that each (level, parent)
// channel, subgrid and sampler is acquired once per batch, on first use, into
// a slot of the mechanism's slot index — the acquisition consumes no
// randomness, so the draw stream is unchanged. (With DisableCache this means
// one solve per distinct subdomain per batch rather than one per point: a
// batch acquires each channel once by contract.)
func (m *Mechanism) reportBatchSeq(ctx context.Context, xs, out []geo.Point, rng *rand.Rand) error {
	idxp := m.getSlotIndex()
	idx := *idxp
	var slots []batchSlot
	defer func() { m.putSlotIndex(idxp, slots) }()
	leaf := m.LeafGrid()
	h := m.Height()
	cancelable := ctx.Done() != nil
	for i, x := range xs {
		// Poll with a stride: one warm descent is a few hundred ns, so a
		// 32-point stride still cancels within ~10µs while keeping the
		// ctx.Err() cost off the per-point hot path.
		if cancelable && i&31 == 0 {
			if err := ctx.Err(); err != nil {
				return err
			}
		}
		x = m.cfg.Region.Clamp(x)
		parent := 0 // virtual root
		for level := 0; level < h; level++ {
			pos := m.levelOff[level] + parent
			if idx[pos] == 0 {
				slots = append(slots, batchSlot{pos: pos})
				if err := m.acquire(ctx, &slots[len(slots)-1], level, parent); err != nil {
					return err
				}
				idx[pos] = int32(len(slots))
			}
			s := &slots[idx[pos]-1]
			// Algorithm 1 line 10: points outside the selected subdomain
			// substitute a uniformly random logical location.
			xLocal, inSub := s.sub.CellIndex(x)
			if !inSub {
				xLocal = rng.IntN(s.sub.NumCells())
			}
			parent = m.hier.ChildIndex(level, parent, s.sampler.Sample(xLocal, rng))
		}
		out[i] = leaf.Center(parent)
	}
	return nil
}

// ReportBatchWith is ReportBatch with a caller-supplied RNG: always
// sequential in input order regardless of Workers, drawing every sample from
// rng, so the output matches a ReportWith loop exactly. The evaluation
// harness uses it to keep experiment output bit-identical to the historical
// per-point loop.
func (m *Mechanism) ReportBatchWith(xs []geo.Point, rng *rand.Rand) ([]geo.Point, error) {
	out := make([]geo.Point, len(xs))
	if err := m.reportBatchSeq(context.Background(), xs, out, rng); err != nil {
		return nil, err
	}
	return out, nil
}

// ReportWith is Report with a caller-supplied RNG (not counted in Stats'
// query counter when called directly).
func (m *Mechanism) ReportWith(x geo.Point, rng *rand.Rand) (geo.Point, error) {
	return m.reportWithCtx(context.Background(), x, rng)
}

func (m *Mechanism) reportWithCtx(ctx context.Context, x geo.Point, rng *rand.Rand) (geo.Point, error) {
	idx, err := m.ReportCellCtx(ctx, x, rng)
	if err != nil {
		return geo.Point{}, err
	}
	return m.LeafGrid().Center(idx), nil
}

// ReportCell runs the multi-step descent and returns the index of the
// selected leaf cell.
func (m *Mechanism) ReportCell(x geo.Point, rng *rand.Rand) (int, error) {
	return m.ReportCellCtx(context.Background(), x, rng)
}

// ReportCellCtx is ReportCell under a context; the per-level channel
// acquisitions observe ctx, so canceling it aborts a cold descent promptly.
func (m *Mechanism) ReportCellCtx(ctx context.Context, x geo.Point, rng *rand.Rand) (int, error) {
	x = m.cfg.Region.Clamp(x)
	parent := 0 // virtual root
	for level := 0; level < m.Height(); level++ {
		ch, err := m.channel(ctx, level, parent)
		if err != nil {
			return 0, err
		}
		sub := m.hier.SubGrid(level, parent)
		// x-hat_i: the user's logical location at this level. When the
		// actual location falls outside the selected subdomain (possible by
		// design: the previous level may have reported a different cell),
		// Algorithm 1 line 10 substitutes a uniformly random location.
		xLocal, ok := sub.CellIndex(x)
		if !ok {
			xLocal = rng.IntN(sub.NumCells())
		}
		zLocal := m.sample(ch, xLocal, rng)
		parent = m.hier.ChildIndex(level, parent, zLocal)
	}
	return parent, nil
}

// Precompute eagerly solves every channel in the index (the paper's offline
// phase). The number of LPs is 1 + g^2 + g^4 + ... + g^{2(h-1)}. Each
// level's solves fan out across up to Workers goroutines — the cold path is
// then bounded by the slowest level sum instead of the serial total — and
// the store's singleflight keeps concurrent Precompute/Report traffic from
// duplicating work.
func (m *Mechanism) Precompute() error {
	return m.PrecomputeCtx(context.Background())
}

// PrecomputeCtx is Precompute under a context: the per-level fan-out polls
// ctx before each solve, so canceling it (e.g. on SIGINT during warmup)
// stops issuing new solves and returns ctx.Err() promptly. Channels already
// solved stay in the store.
func (m *Mechanism) PrecomputeCtx(ctx context.Context) error {
	if m.cfg.DisableCache {
		return fmt.Errorf("msm: cannot precompute with cache disabled")
	}
	workers := channel.Workers(m.cfg.Workers)
	parents := []int{0}
	for level := 0; level < m.Height(); level++ {
		level := level
		ps := parents
		if err := channel.ForEachCtx(ctx, workers, len(ps), func(i int) error {
			// Owner-only precompute: replicas in a fabric fleet warm
			// disjoint key partitions, so each unique channel is solved by
			// exactly one replica. Non-owned channels are pulled lazily from
			// their owner (or solved as a fallback) at query time.
			if m.cfg.Owns != nil && !m.cfg.Owns(m.storeKey(level, ps[i])) {
				return nil
			}
			_, err := m.channel(ctx, level, ps[i])
			return err
		}); err != nil {
			return err
		}
		var next []int
		if level+1 < m.Height() {
			for _, p := range ps {
				for local := 0; local < m.cfg.G*m.cfg.G; local++ {
					next = append(next, m.hier.ChildIndex(level, p, local))
				}
			}
		}
		parents = next
	}
	return nil
}

// ChannelCount returns the number of resident channels. With an injected
// shared store the count covers every mechanism using that store.
func (m *Mechanism) ChannelCount() int {
	if m.cfg.DisableCache {
		return 0
	}
	return m.store.Len()
}

// ClearCache drops all cached channels (benchmarking aid). With an injected
// shared store this clears the other users' channels too.
func (m *Mechanism) ClearCache() {
	m.store.Clear()
}
