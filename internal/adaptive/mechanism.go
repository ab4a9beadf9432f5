package adaptive

import (
	"context"
	"fmt"
	"math"
	"math/rand/v2"
	"sync"
	"sync/atomic"

	"geoind/internal/channel"
	"geoind/internal/geo"
	"geoind/internal/grid"
	"geoind/internal/lp"
	"geoind/internal/opt"
	"geoind/internal/prior"
)

// Store namespaces for the two adaptive index families sharing a channel
// store, the PCG stream salt of the lock-free sampling path (distinct from
// internal/core's so per-query streams never overlap between mechanisms
// built from one seed), and the number of consecutive points one worker
// claims at a time in the pooled batch descent.
const (
	kdNamespace      = "adaptive"
	quadNamespace    = "quad"
	reportStreamSalt = 0xbb67ae8584caa73b
	batchChunk       = 64
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

// Mechanism is the adaptive multi-step mechanism: Algorithm 1 over a tree
// grown by one of the package's builders (New or NewQuad). The descent,
// channel pipeline and batch paths are the same for every tree.
type Mechanism struct {
	cfg  Config
	tree *Tree
	fine *prior.Prior
	seed uint64
	ns   string // channel-store namespace of the tree family

	store     *channel.Store
	priorHash uint64
	variant   uint64 // store-key variant; 0 means unset (dense)

	solves         atomic.Int64
	prunedChannels atomic.Int64
	pruneFallbacks atomic.Int64
	queryIdx       atomic.Uint64

	rng   *rand.Rand
	rngMu sync.Mutex
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
	m := &Mechanism{
		cfg:   cfg,
		tree:  tree,
		fine:  fine,
		seed:  seed,
		ns:    fam.ns,
		rng:   rand.New(rand.NewPCG(seed, fam.salt)),
		store: cfg.Store,
	}
	if m.store == nil {
		m.store = channel.New(channel.Options{})
	}
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

// Stats returns the number of LP solves performed so far (maintained
// atomically, safe under concurrent load).
func (m *Mechanism) Stats() (solves int) {
	return int(m.solves.Load())
}

// StoreStats returns a snapshot of the channel store's counters.
func (m *Mechanism) StoreStats() channel.Stats { return m.store.Stats() }

// DirCacheStats returns the persistent backing cache's counters when one is
// configured; ok is false otherwise.
func (m *Mechanism) DirCacheStats() (channel.DirStats, bool) { return m.store.BackingStats() }

// SamplerInfo reports the warm-path sampling configuration and the pruning
// counters (channels compacted / dense fallbacks after a failed prune).
func (m *Mechanism) SamplerInfo() (kind string, pruneMass float64, pruned, fallbacks int64) {
	return m.cfg.Sampler.String(), m.cfg.PruneMass, m.prunedChannels.Load(), m.pruneFallbacks.Load()
}

// SyncStore blocks until the store's write-behind persistence goroutines
// (if a backing cache is configured) have drained.
func (m *Mechanism) SyncStore() { m.store.Sync() }

// lpOpts resolves interior-point options, defaulting the worker count to
// the pipeline's.
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

// channel returns the OPT channel of a node through the singleflight store:
// concurrent requests for one node perform exactly one solve. A resident
// channel is read through Lookup, which counts the hit as GetOrComputeCtx
// would, so a warm lookup builds no solve closure.
func (m *Mechanism) channel(ctx context.Context, n *Node) (*opt.PointChannel, error) {
	key := channel.NewKey(m.ns, 0, n.ID(), n.Eps, int(m.cfg.Metric), m.priorHash)
	if m.variant != 0 {
		key = key.WithVariant(m.variant)
	}
	v, ok := m.store.Lookup(key)
	if !ok {
		var err error
		v, _, err = m.store.GetOrComputeCtx(ctx, key, func(solveCtx context.Context) (any, error) {
			return m.solveChannel(solveCtx, n)
		})
		if err != nil {
			return nil, err
		}
	}
	// Persisted snapshots are checksum- and key-verified, but never trust a
	// foreign backing value over a fresh solve if the shape is wrong.
	ch, ok := v.(*opt.PointChannel)
	if !ok || ch.N() != len(n.Children) {
		return m.solveChannel(ctx, n)
	}
	return ch, nil
}

// solveChannel performs the LP solve for one inner node.
func (m *Mechanism) solveChannel(ctx context.Context, n *Node) (*opt.PointChannel, error) {
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
	ch, err := opt.BuildPointsCtx(ctx, n.Eps, n.Centers(), masses, m.cfg.Metric, &opt.Options{LP: m.lpOpts()})
	if err != nil {
		return nil, fmt.Errorf("adaptive: node %d: %w", n.ID(), err)
	}
	m.solves.Add(1)
	if m.cfg.PruneMass > 0 {
		if pruned, perr := ch.Prune(m.cfg.PruneMass, masses); perr == nil {
			ch = pruned
			m.prunedChannels.Add(1)
		} else {
			// Keep dense: the verifier gate inside Prune rejected the
			// compact form, and pruning is never a correctness dependency.
			m.pruneFallbacks.Add(1)
		}
	}
	return ch, nil
}

// batchMemo holds, for one batch, the sampler of every inner node the batch
// has resolved, indexed by Node.inner and shared by the batch's workers.
// state[i] goes memoEmpty -> memoBusy -> memoReady exactly once; only the
// worker that wins the first transition writes samplers[i], and readers
// touch samplers[i] only after observing memoReady.
type batchMemo struct {
	state    []atomic.Uint32
	samplers []opt.Sampler
}

const (
	memoEmpty uint32 = iota
	memoBusy
	memoReady
)

func (m *Mechanism) newMemo() *batchMemo {
	n := len(m.tree.inner)
	return &batchMemo{state: make([]atomic.Uint32, n), samplers: make([]opt.Sampler, n)}
}

// sampler resolves the sampler of inner node n: from memo when the batch
// already holds it, otherwise through the channel store (publishing it to
// memo, if any). A worker that finds the entry mid-publication resolves
// through the store too: the singleflight store hands both the same channel.
func (m *Mechanism) sampler(ctx context.Context, n *Node, memo *batchMemo) (opt.Sampler, error) {
	if memo != nil && memo.state[n.inner].Load() == memoReady {
		return memo.samplers[n.inner], nil
	}
	ch, err := m.channel(ctx, n)
	if err != nil {
		return nil, err
	}
	s := ch.Sampler(m.cfg.Sampler)
	if memo != nil && memo.state[n.inner].CompareAndSwap(memoEmpty, memoBusy) {
		memo.samplers[n.inner] = s
		memo.state[n.inner].Store(memoReady)
	}
	return s, nil
}

// descend runs Algorithm 1 for x: at each inner node it runs the node's OPT
// channel on x's child cell (or a uniformly random child when x lies outside
// the node, line 10) and moves into the drawn child; the final cell's center
// is reported. Resolving a sampler consumes no randomness, so the draw
// stream is the same with or without memo.
func (m *Mechanism) descend(ctx context.Context, x geo.Point, rng *rand.Rand, memo *batchMemo) (geo.Point, error) {
	x = m.cfg.Region.Clamp(x)
	node := m.tree.Root
	for node.Children != nil {
		s, err := m.sampler(ctx, node, memo)
		if err != nil {
			return geo.Point{}, err
		}
		xi := node.ChildContaining(x)
		if xi < 0 {
			xi = rng.IntN(len(node.Children))
		}
		node = node.Children[s.Sample(xi, rng)]
	}
	return node.Rect.Center(), nil
}

// ReportCtx sanitizes x with the mechanism's seeded randomness. Workers <= 1
// reproduces the historical shared-RNG stream under a mutex; Workers > 1
// gives each query its own PCG stream split by arrival index, so concurrent
// reports never serialize on a lock. Canceling ctx aborts an in-flight cold
// descent promptly (abandoning shared solves, not killing them while other
// waiters remain).
func (m *Mechanism) ReportCtx(ctx context.Context, x geo.Point) (geo.Point, error) {
	if channel.Workers(m.cfg.Workers) <= 1 {
		m.rngMu.Lock()
		defer m.rngMu.Unlock()
		return m.descend(ctx, x, m.rng, nil)
	}
	s := opt.GetStream()
	defer opt.PutStream(s)
	return m.descend(ctx, x, s.Seed(m.seed, reportStreamSalt^(m.queryIdx.Add(1)-1)), nil)
}

// ReportWith descends the tree drawing every sample from rng.
func (m *Mechanism) ReportWith(x geo.Point, rng *rand.Rand) (geo.Point, error) {
	return m.descend(context.Background(), x, rng, nil)
}

// ReportBatchCtx sanitizes a slice of locations in one call and returns the
// results in input order, bit-identical to a ReportCtx loop in the same
// arrival order. Each inner node's sampler is resolved once per batch.
// Workers <= 1 holds the shared RNG mutex once and processes points
// sequentially. Workers > 1 reserves a contiguous block of query indices and
// fans chunks of batchChunk points across the worker pool, each point
// drawing from the PCG stream of its own index, so the output is independent
// of the worker count. A cancel is seen within 32 points sequentially and
// at the next chunk claim when pooled; the call then returns ctx.Err().
func (m *Mechanism) ReportBatchCtx(ctx context.Context, xs []geo.Point) ([]geo.Point, error) {
	out := make([]geo.Point, len(xs))
	if len(xs) == 0 {
		return out, nil
	}
	memo := m.newMemo()
	workers := channel.Workers(m.cfg.Workers)
	if workers <= 1 {
		m.rngMu.Lock()
		defer m.rngMu.Unlock()
		cancelable := ctx.Done() != nil
		for i, x := range xs {
			// Poll with a stride: one warm descent is a few hundred ns, so a
			// 32-point stride still cancels within ~10µs while keeping the
			// ctx.Err() cost off the per-point hot path.
			if cancelable && i&31 == 0 {
				if err := ctx.Err(); err != nil {
					return nil, err
				}
			}
			z, err := m.descend(ctx, x, m.rng, memo)
			if err != nil {
				return nil, err
			}
			out[i] = z
		}
		return out, nil
	}
	n := uint64(len(xs))
	base := m.queryIdx.Add(n) - n
	// One stream per chunk, re-seeded per point: a chunk belongs to one
	// worker, so the descent allocates per batch, not per point.
	chunks := (len(xs) + batchChunk - 1) / batchChunk
	streams := make([]opt.Stream, chunks)
	if err := channel.ForEachCtx(ctx, workers, chunks, func(c int) error {
		for i := c * batchChunk; i < min((c+1)*batchChunk, len(xs)); i++ {
			z, err := m.descend(ctx, xs[i], streams[c].Seed(m.seed, reportStreamSalt^(base+uint64(i))), memo)
			if err != nil {
				return err
			}
			out[i] = z
		}
		return nil
	}); err != nil {
		return nil, err
	}
	return out, nil
}

// PrecomputeCtx eagerly solves every inner node's channel, fanning the
// independent solves out across up to Workers goroutines. The fan-out polls
// ctx before each solve and stops issuing new ones once canceled; solved
// channels stay in the store.
func (m *Mechanism) PrecomputeCtx(ctx context.Context) error {
	inner := m.tree.inner
	return channel.ForEachCtx(ctx, channel.Workers(m.cfg.Workers), len(inner), func(i int) error {
		_, err := m.channel(ctx, inner[i])
		return err
	})
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
