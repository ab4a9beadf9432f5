package geoind

import (
	"context"
	"fmt"
	"math"
	"math/rand/v2"
	"sync"
	"sync/atomic"
	"time"

	"geoind/internal/channel"
	"geoind/internal/core"
	"geoind/internal/fabric"
	"geoind/internal/geo"
	"geoind/internal/grid"
	"geoind/internal/laplace"
	"geoind/internal/lp"
	"geoind/internal/opt"
	"geoind/internal/prior"
	"geoind/internal/server"
)

// Point is a location in planar kilometre coordinates.
type Point = geo.Point

// Rect is an axis-aligned rectangle in planar kilometre coordinates.
type Rect = geo.Rect

// LatLon is a geodetic coordinate in degrees.
type LatLon = geo.LatLon

// Metric identifies a utility-loss metric (Euclidean or SquaredEuclidean).
type Metric = geo.Metric

// Utility metrics (see §2.2 of the paper).
const (
	Euclidean        = geo.Euclidean
	SquaredEuclidean = geo.SquaredEuclidean
)

// Square returns the square region [0, side) x [0, side).
func Square(side float64) Rect { return geo.NewSquare(side) }

// ErrSolveOverload is returned (wrapped) by Report/ReportCtx when
// MSMConfig.MaxSolves (or AdaptiveMSMConfig.MaxSolves) is set and both the
// solve slots and the admission queue are full: the cold report was shed
// immediately instead of queueing unboundedly. The caller should retry after
// a short backoff; warm reports are never shed. Test with errors.Is.
var ErrSolveOverload = channel.ErrSolveOverload

// ProjectRegion builds a planar region from a geodetic bounding box using an
// equirectangular projection; use its Project/Unproject to convert check-in
// coordinates.
func ProjectRegion(minLat, minLon, maxLat, maxLon float64) (*geo.Region, error) {
	return geo.NewRegion(minLat, minLon, maxLat, maxLon)
}

// Mechanism is a location-sanitization mechanism satisfying eps-GeoInd.
type Mechanism interface {
	// Report returns a privacy-preserving version of the true location x.
	Report(x Point) (Point, error)
	// Epsilon returns the total privacy budget the mechanism consumes per
	// report.
	Epsilon() float64
	// Name returns a short identifier for experiment output.
	Name() string
}

// BatchMechanism is a Mechanism with a pooled batch path: ReportBatch
// sanitizes a slice of locations in one call, amortizing per-report overhead
// (lock acquisitions, RNG stream setup) and — for the hierarchical mechanisms
// with Workers > 1 — fanning the points across the worker pool. Results are
// always returned in input order, deterministically for any worker count:
// at Workers <= 1 the output is bit-identical to calling Report in a loop,
// and at Workers > 1 it matches a sequential Report loop in the same arrival
// order. Every mechanism in this package implements BatchMechanism.
type BatchMechanism interface {
	Mechanism
	// ReportBatch returns privacy-preserving versions of all points, in
	// input order. The privacy cost is len(points) * Epsilon().
	ReportBatch(points []Point) ([]Point, error)
}

// MechanismCtx is a Mechanism whose reports observe a context: canceling ctx
// (client disconnect, deadline) makes an in-flight report return promptly
// with ctx.Err() instead of blocking on a cold channel solve. Every
// mechanism in this package implements MechanismCtx; the plain Report
// methods remain as context.Background() wrappers.
type MechanismCtx interface {
	Mechanism
	// ReportCtx is Report under ctx. With a background context the output is
	// bit-identical to Report.
	ReportCtx(ctx context.Context, x Point) (Point, error)
}

// BatchMechanismCtx is a BatchMechanism whose batch path observes a context:
// a cancel drains the pooled fan-out promptly and the call returns ctx.Err().
type BatchMechanismCtx interface {
	BatchMechanism
	// ReportBatchCtx is ReportBatch under ctx.
	ReportBatchCtx(ctx context.Context, points []Point) ([]Point, error)
}

// ReportBatch sanitizes a slice of points with any Mechanism: mechanisms
// implementing BatchMechanism use their pooled batch path, everything else
// falls back to a sequential Report loop. The privacy cost is
// len(points) * m.Epsilon() either way.
func ReportBatch(m Mechanism, points []Point) ([]Point, error) {
	if bm, ok := m.(BatchMechanism); ok {
		return bm.ReportBatch(points)
	}
	out := make([]Point, len(points))
	for i, x := range points {
		z, err := m.Report(x)
		if err != nil {
			return nil, err
		}
		out[i] = z
	}
	return out, nil
}

// ReportBatchCtx is ReportBatch under a context: it uses the mechanism's
// ctx-aware batch path when available, falling back to per-point ReportCtx
// or, last, a plain Report loop with a ctx poll between points.
func ReportBatchCtx(ctx context.Context, m Mechanism, points []Point) ([]Point, error) {
	if bm, ok := m.(BatchMechanismCtx); ok {
		return bm.ReportBatchCtx(ctx, points)
	}
	mc, hasCtx := m.(MechanismCtx)
	out := make([]Point, len(points))
	for i, x := range points {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		var (
			z   Point
			err error
		)
		if hasCtx {
			z, err = mc.ReportCtx(ctx, x)
		} else {
			z, err = m.Report(x)
		}
		if err != nil {
			return nil, err
		}
		out[i] = z
	}
	return out, nil
}

// ---------------------------------------------------------------------------
// Planar Laplace

// LaplaceConfig configures NewPlanarLaplace.
type LaplaceConfig struct {
	// Eps is the privacy budget (required, > 0; units 1/km).
	Eps float64
	// Seed fixes the sampling randomness.
	Seed uint64
	// Remap, if true, projects outputs to the nearest cell center of a
	// Granularity x Granularity grid over Region — the post-processing step
	// used for the PL benchmark in the paper's evaluation.
	Remap       bool
	Region      Rect
	Granularity int
}

// PlanarLaplace is the planar Laplace mechanism (optionally grid-remapped).
type PlanarLaplace struct {
	mech *laplace.Mechanism
	grid *grid.Grid // nil when not remapping
	mu   sync.Mutex
}

// NewPlanarLaplace builds a planar Laplace mechanism.
func NewPlanarLaplace(cfg LaplaceConfig) (*PlanarLaplace, error) {
	rng := rand.New(rand.NewPCG(cfg.Seed, 0x9d2c5680))
	m, err := laplace.New(cfg.Eps, rng)
	if err != nil {
		return nil, err
	}
	pl := &PlanarLaplace{mech: m}
	if cfg.Remap {
		g, err := grid.New(cfg.Region, cfg.Granularity)
		if err != nil {
			return nil, fmt.Errorf("geoind: remap grid: %w", err)
		}
		pl.grid = g
	}
	return pl, nil
}

// Report implements Mechanism.
func (p *PlanarLaplace) Report(x Point) (Point, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.grid != nil {
		return p.mech.SampleRemapped(x, p.grid), nil
	}
	return p.mech.Sample(x), nil
}

// ReportCtx implements MechanismCtx. Sampling is a handful of float
// operations, so the only ctx observance needed is an upfront poll.
func (p *PlanarLaplace) ReportCtx(ctx context.Context, x Point) (Point, error) {
	if err := ctx.Err(); err != nil {
		return Point{}, err
	}
	return p.Report(x)
}

// ReportBatch implements BatchMechanism: the RNG mutex is acquired once for
// the whole batch and the points are sampled sequentially, so the output is
// bit-identical to a Report loop.
func (p *PlanarLaplace) ReportBatch(points []Point) ([]Point, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.mech.SampleBatch(points, p.grid), nil
}

// ReportBatchCtx implements BatchMechanismCtx with an upfront ctx poll; the
// batch itself is pure in-memory sampling and never blocks.
func (p *PlanarLaplace) ReportBatchCtx(ctx context.Context, points []Point) ([]Point, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return p.ReportBatch(points)
}

// Epsilon implements Mechanism.
func (p *PlanarLaplace) Epsilon() float64 { return p.mech.Epsilon() }

// Name implements Mechanism.
func (p *PlanarLaplace) Name() string {
	if p.grid != nil {
		return "PL+remap"
	}
	return "PL"
}

// ---------------------------------------------------------------------------
// Optimal mechanism (OPT)

// OptimalConfig configures NewOptimal.
type OptimalConfig struct {
	// Eps is the privacy budget (required, > 0).
	Eps float64
	// Region is the square planar domain.
	Region Rect
	// Granularity g discretizes the region into g x g candidate cells.
	// Beware: LP cost grows steeply (the paper could not finish g=16 within
	// 72 hours with a commercial solver; this implementation handles it in
	// minutes, but g is still practically bounded).
	Granularity int
	// Metric is the utility metric dQ to optimize (default Euclidean).
	Metric Metric
	// PriorPoints builds the adversarial prior from check-ins; empty means
	// uniform.
	PriorPoints []Point
	// Seed fixes the sampling randomness.
	Seed uint64
	// Workers bounds the parallelism of the LP solve's per-column block
	// factorizations. 0 or 1 solves serially; negative uses one worker per
	// CPU. The solution is bit-identical for every worker count.
	Workers int
	// Sampler selects the warm-path sampling implementation: "" or "cum"
	// (cumulative binary search, bit-identical to historical output
	// streams) or "alias" (O(1) Walker alias table, built once at
	// construction time).
	Sampler string
	// PruneMass, when > 0, compacts the solved channel by pruning per-row
	// probability mass up to this bound into a uniform background row — an
	// eps-preserving transformation re-verified against the full GeoInd
	// constraint set (construction fails closed: the dense channel is kept
	// if verification rejects the compact one). Must be in
	// [0, opt.MaxPruneMass).
	PruneMass float64
	// LocalRadius, when > 0 (km), solves the LP only over the locally
	// relevant cells — the heaviest-prior cells covering 1 - LocalMassFloor
	// of the mass, dilated by this radius — and pads the excluded tail with
	// the analytic β background (opt.BuildLocal). The channel then
	// satisfies eps-GeoInd restricted to that domain (re-verified at
	// construction); a gate failure falls back to the dense solve, fail
	// closed. 0 keeps the full-domain LP.
	LocalRadius float64
	// LocalMassFloor bounds the prior mass left outside the relevance core;
	// 0 means opt.DefaultLocalMassFloor. Only meaningful with LocalRadius.
	LocalMassFloor float64
}

// optBatchStreamSalt derives the per-point PCG stream sequence numbers of
// Optimal.ReportBatch with Workers > 1 (distinct from the internal/core and
// internal/adaptive salts, so streams never overlap across mechanisms built
// from one seed).
const optBatchStreamSalt = 0x3c6ef372fe94f82b

// Optimal is the optimal GeoInd mechanism over a regular grid.
type Optimal struct {
	ch      *opt.Channel
	sampler opt.Sampler
	local   server.LocalStats // fixed at construction
	rng     *rand.Rand
	mu      sync.Mutex
	seed    uint64
	workers int
	pointID atomic.Uint64
}

// NewOptimal solves the OPT linear program and returns a sampling-ready
// mechanism.
func NewOptimal(cfg OptimalConfig) (*Optimal, error) {
	kind, err := opt.ParseSamplerKind(cfg.Sampler)
	if err != nil {
		return nil, fmt.Errorf("geoind: %w", err)
	}
	if cfg.PruneMass != 0 && (!(cfg.PruneMass > 0) || cfg.PruneMass >= opt.MaxPruneMass) {
		return nil, fmt.Errorf("geoind: prune mass %g outside [0, %g)", cfg.PruneMass, opt.MaxPruneMass)
	}
	if cfg.LocalRadius != 0 && (!(cfg.LocalRadius > 0) || math.IsInf(cfg.LocalRadius, 0)) {
		return nil, fmt.Errorf("geoind: local radius %g must be 0 (off) or positive and finite", cfg.LocalRadius)
	}
	if cfg.LocalMassFloor != 0 && cfg.LocalRadius == 0 {
		return nil, fmt.Errorf("geoind: local mass floor set without a local radius")
	}
	g, err := grid.New(cfg.Region, cfg.Granularity)
	if err != nil {
		return nil, fmt.Errorf("geoind: %w", err)
	}
	var weights []float64
	if len(cfg.PriorPoints) > 0 {
		weights = prior.FromPoints(g, cfg.PriorPoints).Weights()
	} else {
		weights = prior.Uniform(g).Weights()
	}
	var (
		ch      *opt.Channel
		localFB int64
	)
	if cfg.LocalRadius > 0 {
		// Fail closed like pruning: a local build rejected by the restricted
		// GeoInd gate (or an unconverged reduced LP) falls back to the dense
		// solve.
		ch, err = opt.BuildLocal(cfg.Eps, g, weights, cfg.Metric, cfg.LocalRadius, &opt.LocalOptions{
			MassFloor: cfg.LocalMassFloor,
			LP:        &lp.IPMOptions{Workers: cfg.Workers},
			Workers:   cfg.Workers,
		})
		if err != nil {
			ch, localFB = nil, 1
		}
	}
	if ch == nil {
		ch, err = opt.Build(cfg.Eps, g, weights, cfg.Metric, &opt.Options{
			LP: &lp.IPMOptions{Workers: cfg.Workers},
		})
		if err != nil {
			return nil, fmt.Errorf("geoind: %w", err)
		}
	}
	if cfg.PruneMass > 0 && !ch.IsCompact() {
		// Fail closed: a prune rejected by the GeoInd re-verification keeps
		// the dense channel (pruning is an optimization, never required).
		if compact, perr := ch.Prune(cfg.PruneMass, weights); perr == nil {
			ch = compact
		}
	}
	local := server.LocalStats{RadiusKm: cfg.LocalRadius, MassFloor: cfg.LocalMassFloor, DenseFallbacks: localFB}
	if cfg.LocalRadius > 0 && local.MassFloor == 0 {
		local.MassFloor = opt.DefaultLocalMassFloor
	}
	if ch.IsLocal() {
		local.LocalChannels = 1
	}
	return &Optimal{
		ch:      ch,
		sampler: ch.Sampler(kind),
		local:   local,
		rng:     rand.New(rand.NewPCG(cfg.Seed, 0xb5297a4d)),
		seed:    cfg.Seed,
		workers: cfg.Workers,
	}, nil
}

// Report implements Mechanism.
func (o *Optimal) Report(x Point) (Point, error) {
	o.mu.Lock()
	defer o.mu.Unlock()
	return o.ch.SampleVia(o.sampler, x, o.rng), nil
}

// ReportCtx implements MechanismCtx. The channel is solved at construction,
// so reporting is pure sampling; an upfront poll is the only ctx observance
// needed.
func (o *Optimal) ReportCtx(ctx context.Context, x Point) (Point, error) {
	if err := ctx.Err(); err != nil {
		return Point{}, err
	}
	return o.Report(x)
}

// ReportBatch implements BatchMechanism. With Workers <= 1 the batch holds
// the RNG mutex once and samples sequentially (bit-identical to a Report
// loop); with Workers > 1 it reserves a contiguous block of point indices
// and fans the samples across the worker pool, each point drawing from the
// PCG stream of its own index, so the output is order-deterministic for any
// worker count.
func (o *Optimal) ReportBatch(points []Point) ([]Point, error) {
	out := make([]Point, len(points))
	if len(points) == 0 {
		return out, nil
	}
	workers := channel.Workers(o.workers)
	if workers <= 1 {
		o.mu.Lock()
		defer o.mu.Unlock()
		for i, x := range points {
			out[i] = o.ch.SampleVia(o.sampler, x, o.rng)
		}
		return out, nil
	}
	base := o.pointID.Add(uint64(len(points))) - uint64(len(points))
	_ = channel.ForEach(workers, len(points), func(i int) error {
		rng := rand.New(rand.NewPCG(o.seed, optBatchStreamSalt^(base+uint64(i))))
		out[i] = o.ch.SampleVia(o.sampler, points[i], rng)
		return nil
	})
	return out, nil
}

// ReportBatchCtx implements BatchMechanismCtx with an upfront ctx poll; the
// batch itself is pure in-memory sampling and never blocks.
func (o *Optimal) ReportBatchCtx(ctx context.Context, points []Point) ([]Point, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return o.ReportBatch(points)
}

// Epsilon implements Mechanism.
func (o *Optimal) Epsilon() float64 { return o.ch.Eps }

// Name implements Mechanism.
func (o *Optimal) Name() string { return "OPT" }

// ExpectedLoss returns the analytic expected utility loss of the channel
// under the construction prior.
func (o *Optimal) ExpectedLoss() float64 { return o.ch.ExpectedLoss }

// Channel returns a copy of the row-major channel matrix K(X)(Z)
// (materialized when the channel is compact).
func (o *Optimal) Channel() []float64 {
	return append([]float64(nil), o.ch.DenseK()...)
}

// VerifyGeoInd exhaustively re-checks the GeoInd constraints on the solved
// channel and returns the maximum log-ratio excess (<= 0 means satisfied).
func (o *Optimal) VerifyGeoInd() float64 {
	return o.ch.VerifyMaxExcess()
}

// MechStats implements server.Statser with the locally relevant OPT
// section (radius 0 means the variant is off; this flat mechanism solves at
// most one local channel).
func (o *Optimal) MechStats() server.MechStats {
	local := o.local
	return server.MechStats{Local: &local}
}

// ---------------------------------------------------------------------------
// Multi-Step Mechanism (MSM)

// MSMConfig configures NewMSM.
type MSMConfig struct {
	// Eps is the total privacy budget (required, > 0).
	Eps float64
	// Region is the square planar domain.
	Region Rect
	// Granularity g is the per-level fanout (g x g cells per step).
	Granularity int
	// Rho is the per-level target probability of staying in the same cell;
	// 0 means the paper's default 0.8.
	Rho float64
	// Metric is the utility metric dQ (default Euclidean).
	Metric Metric
	// MaxHeight optionally caps the index height.
	MaxHeight int
	// PriorPoints builds the adversarial prior; empty means uniform.
	PriorPoints []Point
	// Seed fixes the sampling randomness.
	Seed uint64
	// Workers bounds the parallelism of the channel pipeline: LP block
	// factorizations, Precompute fan-out across the hierarchy, and — when
	// greater than one — lock-free per-query sampling streams so concurrent
	// Reports scale with cores. 0 or 1 keeps the fully sequential historical
	// behaviour (bit-identical outputs for a fixed seed); a negative value
	// uses one worker per CPU. Same seed + same worker count ⇒ identical
	// outputs.
	Workers int
	// CacheDir, when non-empty, persists every solved channel as a
	// checksummed snapshot file under this directory and reloads matching
	// snapshots instead of re-solving — a restarted process (or a fleet of
	// processes sharing the volume) skips the LP solve phase entirely.
	// Snapshots are verified (full key + CRC) before use; any mismatch
	// falls back to solving. Sampling from a loaded channel is bit-identical
	// to sampling from the channel it mirrors.
	CacheDir string
	// CacheBytes bounds the resident bytes of cached channel matrices
	// (K + cumulative rows); least-recently-used channels are evicted when
	// the bound is exceeded. 0 means unbounded. With CacheDir set, evicted
	// channels remain loadable from disk.
	CacheBytes int64
	// SpannerStretch, when > 0 (must then be >= 1), solves each per-level
	// channel with the spanner-reduced constraint set at this stretch factor
	// instead of the full O(n^2) pair families — same eps-GeoInd guarantee,
	// slightly conservative for nearby pairs, much smaller LP. Reduced
	// channels are cached and persisted under a distinct key variant so they
	// never alias exact ones. 0 keeps the exact formulation.
	SpannerStretch float64
	// SolveTimeout bounds the wall-clock time of each channel solve. Solves
	// run detached from any individual request — a waiter abandoning a solve
	// (request canceled) leaves it running for the remaining waiters, and the
	// solve is aborted only when no waiters remain — so this is the only cap
	// on how long a pathological LP can run. 0 means no timeout.
	SolveTimeout time.Duration
	// MaxSolves, when > 0, bounds the number of concurrently executing cold
	// channel solves; up to MaxSolves further solves queue for a slot, and
	// beyond that new cold reports fail fast with a wrapped ErrSolveOverload
	// instead of accumulating goroutines. Warm reports and joins of
	// in-flight solves are never shed. 0 means unbounded (the historical
	// behaviour).
	MaxSolves int
	// Sampler selects the warm-path sampling implementation: "" or "cum"
	// (cumulative binary search, bit-identical to historical output
	// streams) or "alias" (O(1) Walker alias tables, built lazily once per
	// channel and shared across goroutines).
	Sampler string
	// PruneMass, when > 0, compacts every solved channel by pruning
	// per-row probability mass up to this bound into a uniform background
	// row — an eps-preserving transformation re-verified per channel
	// against the full GeoInd constraint set (a failed verification keeps
	// that channel dense). Compact channels shrink both resident cache
	// bytes and persisted snapshots, and are cached under a distinct key
	// variant so they never alias dense ones. Must be in
	// [0, opt.MaxPruneMass).
	PruneMass float64
	// LocalRadius, when > 0 (km), switches every per-level LP to the
	// locally relevant construction: the solve runs only over the
	// relevance set (prior-mass core dilated by this radius) and the
	// excluded tail is padded with the analytic β background. Local
	// channels satisfy eps-GeoInd restricted to their domain (re-verified
	// at construction and again when loaded from CacheDir); failures fall
	// back to the dense solve, counted in LocalInfo. Composes with
	// SpannerStretch; PruneMass is ignored for local channels (already
	// compact). Keyed separately in the store and snapshot cache.
	LocalRadius float64
	// LocalMassFloor bounds the prior mass left outside the relevance
	// core; 0 means opt.DefaultLocalMassFloor. Requires LocalRadius > 0.
	LocalMassFloor float64
	// Fabric, when non-nil, joins this mechanism to a replica fleet: the
	// channel store is backed by the tiered fabric chain (memory → CacheDir
	// snapshots → hedged remote fetches from the key's owner), and
	// Precompute is restricted to the keys this replica owns under the
	// fleet's rendezvous hash, so each unique channel is solved exactly
	// once fleet-wide. Peers must list every replica's base URL
	// (identically on all replicas) and Self must be one of them. The
	// fabric is an optimization only: an unreachable or corrupt peer
	// degrades to a local solve, never a query failure.
	Fabric *FabricConfig
}

// FabricConfig configures the distributed channel fabric (MSMConfig.Fabric).
type FabricConfig struct {
	// Peers is the full replica set as base URLs ("http://host:port"),
	// identical on every replica; Self must be one of them. A single-entry
	// set is a degenerate fleet: this replica owns every key and no remote
	// tier is built.
	Peers []string
	Self  string
	// MemBytes bounds the fabric's in-memory snapshot tier (0 means
	// fabric.DefaultMemBytes, negative disables the tier). This tier sits
	// behind the store's own resident cache (MSMConfig.CacheBytes) and
	// mainly serves /v1/channels peers without touching disk.
	MemBytes int64
	// HedgeDelay is how long a remote fetch waits for the owner before
	// issuing a cached-only hedge to the next ring replica; 0 means the
	// package default, negative disables hedging.
	HedgeDelay time.Duration
	// FetchTimeout bounds one remote fetch attempt including hedges (0 =
	// default).
	FetchTimeout time.Duration
	// FetchRetries is how many extra attempts follow a retryable fetch
	// failure (0 = default; negative means no retries).
	FetchRetries int
	// FetchBackoff is the initial delay between attempts, doubling each
	// retry (0 = default).
	FetchBackoff time.Duration
}

// MSM is the paper's multi-step mechanism.
type MSM struct {
	m   *core.Mechanism
	fab *fabric.Fabric // nil without MSMConfig.Fabric
}

// NewMSM allocates the budget across index levels (§5) and prepares the
// hierarchical mechanism (§4). Channels are solved lazily; call Precompute
// to warm them eagerly.
func NewMSM(cfg MSMConfig) (*MSM, error) {
	kind, err := opt.ParseSamplerKind(cfg.Sampler)
	if err != nil {
		return nil, fmt.Errorf("geoind: %w", err)
	}
	store, fab, err := newChannelStore(cfg)
	if err != nil {
		return nil, fmt.Errorf("geoind: %w", err)
	}
	var owns func(channel.Key) bool
	if fab != nil {
		owns = fab.Owns
	}
	m, err := core.New(core.Config{
		Eps:            cfg.Eps,
		G:              cfg.Granularity,
		Region:         cfg.Region,
		Rho:            cfg.Rho,
		Metric:         cfg.Metric,
		MaxHeight:      cfg.MaxHeight,
		PriorPoints:    cfg.PriorPoints,
		Workers:        cfg.Workers,
		Store:          store,
		SpannerStretch: cfg.SpannerStretch,
		Sampler:        kind,
		PruneMass:      cfg.PruneMass,
		LocalRadius:    cfg.LocalRadius,
		LocalMassFloor: cfg.LocalMassFloor,
		Owns:           owns,
	}, cfg.Seed)
	if err != nil {
		return nil, fmt.Errorf("geoind: %w", err)
	}
	return &MSM{m: m, fab: fab}, nil
}

// newChannelStore builds the channel store implied by the facade cache,
// solve-lifecycle and fleet settings: nil (each mechanism gets a private
// in-memory store) when everything is zero, otherwise a store with
// snapshot-byte cost accounting, an optional per-solve timeout, optional
// solve admission control, and — with a cache directory or a fabric — a
// read-through/write-behind backing. With cfg.Fabric set the backing is the
// fabric's tiered chain (which owns the snapshot directory); otherwise it is
// the plain DirCache.
func newChannelStore(cfg MSMConfig) (*channel.Store, *fabric.Fabric, error) {
	if cfg.Fabric == nil && cfg.CacheDir == "" && cfg.CacheBytes == 0 &&
		cfg.SolveTimeout == 0 && cfg.MaxSolves == 0 {
		return nil, nil, nil
	}
	opts := channel.Options{
		MaxCost:      cfg.CacheBytes,
		CostFn:       opt.SnapshotCost,
		SolveTimeout: cfg.SolveTimeout,
		MaxSolves:    cfg.MaxSolves,
	}
	var fab *fabric.Fabric
	switch {
	case cfg.Fabric != nil:
		fc := cfg.Fabric
		var err error
		fab, err = fabric.New(fabric.Config{
			Peers:        fc.Peers,
			Self:         fc.Self,
			CacheDir:     cfg.CacheDir,
			Codec:        opt.SnapshotCodec{},
			Cost:         opt.SnapshotCost,
			MemBytes:     fc.MemBytes,
			HedgeDelay:   fc.HedgeDelay,
			FetchTimeout: fc.FetchTimeout,
			FetchRetries: fc.FetchRetries,
			FetchBackoff: fc.FetchBackoff,
		})
		if err != nil {
			return nil, nil, err
		}
		opts.Backing = fab.Backing()
	case cfg.CacheDir != "":
		dc, err := channel.NewDirCache(cfg.CacheDir, opt.SnapshotCodec{})
		if err != nil {
			return nil, nil, err
		}
		opts.Backing = dc
	}
	return channel.New(opts), fab, nil
}

// Report implements Mechanism.
func (m *MSM) Report(x Point) (Point, error) { return m.m.ReportCtx(context.Background(), x) }

// ReportCtx implements MechanismCtx: canceling ctx aborts an in-flight cold
// report promptly (abandoning — not killing — any channel solve that still
// has other waiters). Warm reports never block and are unaffected.
func (m *MSM) ReportCtx(ctx context.Context, x Point) (Point, error) {
	return m.m.ReportCtx(ctx, x)
}

// ReportBatch implements BatchMechanism: the batch acquires the sampling
// stream once and, with Workers > 1, fans the descents across the worker
// pool. Results come back in input order, identical to a sequential Report
// loop for the same seed and arrival order at any worker count.
func (m *MSM) ReportBatch(points []Point) ([]Point, error) {
	return m.m.ReportBatchCtx(context.Background(), points)
}

// ReportBatchCtx implements BatchMechanismCtx: a cancel drains the pooled
// fan-out promptly and returns ctx.Err(); uncanceled output is bit-identical
// to ReportBatch.
func (m *MSM) ReportBatchCtx(ctx context.Context, points []Point) ([]Point, error) {
	return m.m.ReportBatchCtx(ctx, points)
}

// Epsilon implements Mechanism.
func (m *MSM) Epsilon() float64 { return m.m.Epsilon() }

// Name implements Mechanism.
func (m *MSM) Name() string { return "MSM" }

// Height returns the index height h chosen by the budget allocator.
func (m *MSM) Height() int { return m.m.Height() }

// BudgetSplit returns the per-level budgets eps_1..eps_h (summing to Eps).
func (m *MSM) BudgetSplit() []float64 {
	return append([]float64(nil), m.m.Allocation().Eps...)
}

// LeafGranularity returns the effective granularity g^h of the leaf level.
func (m *MSM) LeafGranularity() int { return m.m.LeafGrid().Granularity() }

// Precompute solves every channel in the index up front (the paper's
// offline phase), so that subsequent reports only sample.
func (m *MSM) Precompute() error { return m.m.PrecomputeCtx(context.Background()) }

// PrecomputeCtx is Precompute under a context: canceling ctx (e.g. SIGINT
// during warmup) stops issuing new solves and returns ctx.Err(); channels
// already solved stay cached.
func (m *MSM) PrecomputeCtx(ctx context.Context) error { return m.m.PrecomputeCtx(ctx) }

// Stats returns the number of reports served and LP solves performed.
func (m *MSM) Stats() (queries, solves int) { return m.m.Stats() }

// StoreStats returns the full channel-store counter snapshot, including
// snapshot-persistence activity (disk hits and write-behind writes).
func (m *MSM) StoreStats() channel.Stats { return m.m.Store().Stats() }

// MechStats implements server.Statser: the store, snapshot cache and sampler
// sections, the locally relevant OPT section (radius 0 means off) and, with
// MSMConfig.Fabric, the fabric counters and fetch-latency histogram.
func (m *MSM) MechStats() server.MechStats {
	st := storeMechStats(m.m)
	radius, floor, local, fallbacks := m.m.LocalInfo()
	st.Local = &server.LocalStats{RadiusKm: radius, MassFloor: floor, LocalChannels: local, DenseFallbacks: fallbacks}
	if m.fab != nil {
		fst := m.fab.Stats()
		st.Fabric, st.FetchLatency = &fst, m.fab.FetchLatency()
	}
	return st
}

// storeMechStats is the stats snapshot every mechanism over a channel store
// shares: the store, its snapshot cache when one is configured, and the
// warm-path sampler with its pruning counters.
func storeMechStats(m interface {
	Store() *channel.Store
	SamplerInfo() (kind string, pruneMass float64, pruned, fallbacks int64)
}) server.MechStats {
	store := m.Store().Stats()
	st := server.MechStats{Store: &store, Sampler: &server.SamplerStats{}}
	sam := st.Sampler
	sam.Kind, sam.PruneMass, sam.PrunedChannels, sam.PruneFallbacks = m.SamplerInfo()
	if dir, ok := m.Store().BackingStats(); ok {
		st.Dir = &dir
	}
	return st
}

// FlushCache blocks until every solved channel handed to the persistent
// snapshot cache (MSMConfig.CacheDir) has been written to disk — including,
// with a fabric, in-flight promotions between tiers. A no-op without a cache
// directory or fabric. Call after Precompute, or before shutdown, to
// guarantee the next process finds a fully populated cache.
func (m *MSM) FlushCache() {
	m.m.Store().Sync()
	if m.fab != nil {
		m.fab.Sync()
	}
}

// OwnsChannel reports whether this replica owns key under the fleet's
// rendezvous hash. Without a fabric every key is owned (single authority).
func (m *MSM) OwnsChannel(key channel.Key) bool {
	if m.fab == nil {
		return true
	}
	return m.fab.Owns(key)
}

// ChannelSnapshot serves one channel in the persisted snapshot frame format
// for the fleet's /v1/channels endpoint. The key is validated against this
// mechanism's configuration (wrapped channel.ErrUnknownKey on mismatch).
// With solve set, a cold channel is solved through the store's full
// admission-controlled path; without it, only resident or locally cached
// channels are served and a cold key returns channel.ErrNotCached — which is
// what keeps hedged peer fetches from ever causing a duplicate solve.
func (m *MSM) ChannelSnapshot(ctx context.Context, key channel.Key, solve bool) ([]byte, error) {
	return m.m.ChannelSnapshot(ctx, key, solve)
}

// Static interface conformance checks.
var (
	_ Mechanism         = (*PlanarLaplace)(nil)
	_ Mechanism         = (*Optimal)(nil)
	_ Mechanism         = (*MSM)(nil)
	_ BatchMechanism    = (*PlanarLaplace)(nil)
	_ BatchMechanism    = (*Optimal)(nil)
	_ BatchMechanism    = (*MSM)(nil)
	_ MechanismCtx      = (*PlanarLaplace)(nil)
	_ MechanismCtx      = (*Optimal)(nil)
	_ MechanismCtx      = (*MSM)(nil)
	_ BatchMechanismCtx = (*PlanarLaplace)(nil)
	_ BatchMechanismCtx = (*Optimal)(nil)
	_ BatchMechanismCtx = (*MSM)(nil)
	_ server.Statser    = (*Optimal)(nil)
	_ server.Statser    = (*MSM)(nil)
)
