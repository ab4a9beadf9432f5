package geoind

import (
	"context"
	"fmt"
	"time"

	"geoind/internal/adaptive"
	"geoind/internal/channel"
	"geoind/internal/opt"
	"geoind/internal/server"
)

// AdaptiveMSMConfig configures NewAdaptiveMSM, the prior-adaptive variant of
// the multi-step mechanism (the paper's §8 future-work direction). Instead
// of a uniform grid, the index is a k-d-style tree whose nodes split into
// Fanout x Fanout cells of roughly equal prior mass, so reporting
// granularity is fine exactly where users actually are.
type AdaptiveMSMConfig struct {
	// Eps is the total privacy budget (required, > 0).
	Eps float64
	// Region is the square planar domain.
	Region Rect
	// Fanout is the slices per axis at each node (children = Fanout^2).
	Fanout int
	// Height caps the tree depth; paths end early when the budget runs
	// out. 0 means 3.
	Height int
	// Rho is the per-step same-cell probability target; 0 means 0.8.
	Rho float64
	// Metric is the utility metric dQ.
	Metric Metric
	// PriorPoints drives both the adversarial prior and the partition
	// geometry. Empty degenerates to an equal-area partition.
	PriorPoints []Point
	// PriorGranularity is the resolution of the fine prior grid supplying
	// split coordinates; 0 means 128.
	PriorGranularity int
	// Seed fixes the sampling randomness.
	Seed uint64
	// Workers bounds the parallelism of the channel pipeline (LP block
	// solves, Precompute fan-out, lock-free per-query sampling streams when
	// greater than one). 0 or 1 is fully sequential; negative means one
	// worker per CPU.
	Workers int
	// CacheDir, when non-empty, persists solved node channels as checksummed
	// snapshot files under this directory and reloads verified snapshots
	// instead of re-solving (see MSMConfig.CacheDir).
	CacheDir string
	// CacheBytes bounds resident channel-matrix bytes with LRU eviction;
	// 0 means unbounded (see MSMConfig.CacheBytes).
	CacheBytes int64
	// SolveTimeout bounds the wall-clock time of each detached node-channel
	// solve; 0 means no timeout (see MSMConfig.SolveTimeout).
	SolveTimeout time.Duration
	// MaxSolves, when > 0, bounds concurrently executing cold node-channel
	// solves with a same-size admission queue; overflow is shed with a
	// wrapped ErrSolveOverload (see MSMConfig.MaxSolves).
	MaxSolves int
	// Sampler selects the warm-path sampling implementation: "" or "cum"
	// or "alias" (see MSMConfig.Sampler).
	Sampler string
	// PruneMass, when > 0, compacts solved node channels with the
	// eps-preserving, verifier-gated pruning (see MSMConfig.PruneMass).
	PruneMass float64
}

// AdaptiveMSM is the adaptive-index multi-step mechanism.
type AdaptiveMSM struct {
	m *adaptive.Mechanism
}

// NewAdaptiveMSM builds the adaptive mechanism.
func NewAdaptiveMSM(cfg AdaptiveMSMConfig) (*AdaptiveMSM, error) {
	kind, err := opt.ParseSamplerKind(cfg.Sampler)
	if err != nil {
		return nil, fmt.Errorf("geoind: %w", err)
	}
	store, _, err := newChannelStore(MSMConfig{
		CacheDir:     cfg.CacheDir,
		CacheBytes:   cfg.CacheBytes,
		SolveTimeout: cfg.SolveTimeout,
		MaxSolves:    cfg.MaxSolves,
	})
	if err != nil {
		return nil, fmt.Errorf("geoind: %w", err)
	}
	m, err := adaptive.New(adaptive.Config{
		Eps:              cfg.Eps,
		Region:           cfg.Region,
		Fanout:           cfg.Fanout,
		Height:           cfg.Height,
		Rho:              cfg.Rho,
		Metric:           cfg.Metric,
		PriorPoints:      cfg.PriorPoints,
		PriorGranularity: cfg.PriorGranularity,
		Workers:          cfg.Workers,
		Store:            store,
		Sampler:          kind,
		PruneMass:        cfg.PruneMass,
	}, cfg.Seed)
	if err != nil {
		return nil, fmt.Errorf("geoind: %w", err)
	}
	return &AdaptiveMSM{m: m}, nil
}

// ReportCtx implements Mechanism: canceling ctx aborts an in-flight cold
// report promptly (abandoning shared node solves, not killing them while
// other waiters remain).
func (a *AdaptiveMSM) ReportCtx(ctx context.Context, x Point) (Point, error) {
	return a.m.ReportCtx(ctx, x)
}

// ReportBatchCtx implements Mechanism: the batch acquires the sampling
// stream once and, with Workers > 1, fans the tree descents across the
// worker pool. Results come back in input order, identical to a sequential
// ReportCtx loop for the same seed and arrival order at any worker count; a
// cancel drains the fan-out promptly and returns ctx.Err().
func (a *AdaptiveMSM) ReportBatchCtx(ctx context.Context, points []Point) ([]Point, error) {
	return a.m.ReportBatchCtx(ctx, points)
}

// Epsilon implements Mechanism.
func (a *AdaptiveMSM) Epsilon() float64 { return a.m.Epsilon() }

// Name implements Mechanism.
func (a *AdaptiveMSM) Name() string { return "MSM-adaptive" }

// Precompute eagerly solves every node channel.
func (a *AdaptiveMSM) Precompute() error { return a.m.PrecomputeCtx(context.Background()) }

// PrecomputeCtx is Precompute under a context: canceling ctx stops issuing
// new solves and returns ctx.Err(); solved channels stay cached.
func (a *AdaptiveMSM) PrecomputeCtx(ctx context.Context) error { return a.m.PrecomputeCtx(ctx) }

// MeanLeafSide returns the prior-weighted mean leaf cell side (km), a
// measure of the effective reporting granularity where users actually are.
func (a *AdaptiveMSM) MeanLeafSide() float64 { return a.m.MeanLeafSide() }

// NumNodes returns the partition-tree size.
func (a *AdaptiveMSM) NumNodes() int { return a.m.Tree().NumNodes() }

// StoreStats returns the full channel-store counter snapshot, including
// snapshot-persistence activity (disk hits and write-behind writes).
func (a *AdaptiveMSM) StoreStats() channel.Stats { return a.m.Store().Stats() }

// MechStats implements server.Statser: the channel store, the persistent
// snapshot cache (when configured) and the sampler sections.
func (a *AdaptiveMSM) MechStats() server.MechStats { return storeMechStats(a.m) }

// FlushCache blocks until every solved channel handed to the persistent
// snapshot cache (AdaptiveMSMConfig.CacheDir) has been written to disk; a
// no-op without a cache directory.
func (a *AdaptiveMSM) FlushCache() { a.m.Store().Sync() }

var (
	_ Mechanism      = (*AdaptiveMSM)(nil)
	_ server.Statser = (*AdaptiveMSM)(nil)
)
