// Package descent runs the paper's multi-step mechanism (Algorithm 1) over
// any hierarchical partition: at each inner node it draws a child from the
// OPT channel over the node's children, solved once and kept in the channel
// store, and moves down; the leaf it ends at is released. internal/core's
// uniform GIHI and internal/adaptive's k-d tree and quadtree are three
// Partition builders over this one Engine.
package descent

import (
	"context"
	"math"
	"math/rand/v2"
	"sync"
	"sync/atomic"

	"geoind/internal/channel"
	"geoind/internal/geo"
	"geoind/internal/lp"
	"geoind/internal/opt"
)

// Channel is a solved OPT channel over one node's children.
type Channel interface {
	N() int
	Sampler(kind opt.SamplerKind) opt.Sampler
}

// Partition is a hierarchical index with channels of type C and node
// handles N, passed by value several times per level (keep them a few
// words). Children, Enclosing, Child, Key and Solve get inner nodes only.
type Partition[N any, C Channel] interface {
	Root() N
	// Inner returns n's index in [0, Inners()), or -1 when n is a leaf.
	Inner(n N) int
	Inners() int
	// Depth bounds the number of inner nodes on a root-to-leaf path.
	Depth() int
	Children(n N) int
	// Enclosing returns the child of n whose cell contains x, or -1 when x
	// lies outside n.
	Enclosing(n N, x geo.Point) int
	Child(n N, i int) N
	// Release returns the location a descent ending at leaf n reports.
	Release(n N) geo.Point
	Key(n N) channel.Key
	Solve(ctx context.Context, n N) (C, error)
}

// batchChunk is the number of consecutive points one worker claims at a
// time in the batch descent: large enough that the shared claim counter and
// the ctx poll vanish from the per-point cost, small enough that a 1k-point
// batch still spreads over 16 claims.
const batchChunk = 64

// cacheLine is the coherence granule chunkStream pads to.
const cacheLine = 64

// chunkStream is one batch chunk's stream, re-seeded and drawn from for
// every point of the chunk. The padding keeps cacheLine bytes between the
// streams of adjacent chunks, so whatever the slice's alignment no two
// workers write the same cache line on the per-point path.
type chunkStream struct {
	opt.Stream
	_ [cacheLine]byte
}

// Engine runs Algorithm 1 over one Partition. A sequential engine (workers
// <= 1) draws every report from one seeded generator under a mutex: each
// mechanism's historical output stream. Otherwise the i-th report in arrival
// order draws from its own PCG stream (seed, streamSalt^i): lock-free, and
// still the same outputs for the same seed and arrival order.
type Engine[N any, C Channel] struct {
	part       Partition[N, C]
	lo, hi     geo.Point // clamp bounds: the region's min corner and its last point inside
	store      *channel.Store
	workers    int
	kind       opt.SamplerKind
	owns       func(channel.Key) bool
	seed       uint64
	streamSalt uint64

	queries  atomic.Int64
	solves   atomic.Int64
	queryIdx atomic.Uint64

	rngMu sync.Mutex
	rng   *rand.Rand

	memoPool sync.Pool // *memo, every entry empty while pooled
}

// New returns an engine over p that clamps inputs onto region, as
// geo.Rect.Clamp does, and keeps channels in store (nil: a private one).
// workers is the pipeline's Workers setting (0 or 1 sequential, negative one
// per CPU), kind its sampler, and owns, when non-nil, the filter of the keys
// PrecomputeCtx solves. The sequential generator is PCG(seed, salt).
func New[N any, C Channel](p Partition[N, C], region geo.Rect, store *channel.Store, workers int, kind opt.SamplerKind,
	owns func(channel.Key) bool, seed, salt, streamSalt uint64) *Engine[N, C] {
	if store == nil {
		store = channel.New(channel.Options{})
	}
	return &Engine[N, C]{
		part: p, store: store, workers: channel.Workers(workers), kind: kind, owns: owns,
		lo:   geo.Point{X: region.MinX, Y: region.MinY},
		hi:   geo.Point{X: math.Nextafter(region.MaxX, region.MinX), Y: math.Nextafter(region.MaxY, region.MinY)},
		seed: seed, streamSalt: streamSalt, rng: rand.New(rand.NewPCG(seed, salt)),
	}
}

// LPOptions resolves the interior-point options of one solve: base, if any,
// with the pipeline's worker count filled in when base does not pin one.
func LPOptions(base *lp.IPMOptions, workers int) *lp.IPMOptions {
	var o lp.IPMOptions
	if base != nil {
		o = *base
	}
	if o.Workers == 0 {
		o.Workers = workers
	}
	return &o
}

// Pruner is a mechanism's warm-path sampling policy: its sampler kind and
// the prune mass each fresh solve is compacted with, and the outcome counts.
// Mechanisms embed one for its SamplerInfo.
type Pruner struct {
	kind      opt.SamplerKind
	mass      float64
	pruned    atomic.Int64 // solves whose channel was compacted
	fallbacks atomic.Int64 // solves kept dense after a failed prune
}

// NewPruner returns the policy for sampler kind and prune mass (0: off).
func NewPruner(kind opt.SamplerKind, mass float64) *Pruner {
	return &Pruner{kind: kind, mass: mass}
}

// SamplerInfo reports the sampler kind, the prune mass and how many solved
// channels were compacted or kept dense after failing the post-prune GeoInd
// verification.
func (p *Pruner) SamplerInfo() (kind string, pruneMass float64, pruned, fallbacks int64) {
	return p.kind.String(), p.mass, p.pruned.Load(), p.fallbacks.Load()
}

// Prune compacts a freshly solved ch under prior weights w when the policy
// prunes, and returns ch itself otherwise. A prune the verifier gate inside
// ch.Prune rejects keeps the dense channel: pruning is an optimization,
// never a correctness dependency.
func Prune[C interface {
	Prune(mass float64, w []float64) (C, error)
}](p *Pruner, ch C, w []float64) C {
	if p.mass <= 0 {
		return ch
	}
	pruned, err := ch.Prune(p.mass, w)
	if err != nil {
		p.fallbacks.Add(1)
		return ch
	}
	p.pruned.Add(1)
	return pruned
}

// Store returns the channel store (an injected one is shared).
func (e *Engine[N, C]) Store() *channel.Store { return e.store }

// Stats returns the reports answered through ReportCtx and ReportBatchCtx
// and the channels solved, both counted atomically.
func (e *Engine[N, C]) Stats() (queries, solves int) {
	return int(e.queries.Load()), int(e.solves.Load())
}

// Channel returns inner node n's channel. The store's singleflight solves a
// cold channel once however many goroutines race for it; a warm one is read
// through Lookup, which counts the hit as GetOrComputeCtx would but builds
// no solve closure. A value of the wrong type or shape, which only a foreign
// backing could hand back, is never trusted over a fresh solve.
func (e *Engine[N, C]) Channel(ctx context.Context, n N) (C, error) {
	key := e.part.Key(n)
	v, ok := e.store.Lookup(key)
	if !ok {
		var err error
		// The solve runs under the store's detached context: it outlives any
		// one waiter and stops only when every waiter has abandoned it.
		if v, _, err = e.store.GetOrComputeCtx(ctx, key, func(solveCtx context.Context) (any, error) {
			return e.solve(solveCtx, n)
		}); err != nil {
			var zero C
			return zero, err
		}
	}
	if ch, ok := v.(C); ok && ch.N() == e.part.Children(n) {
		return ch, nil
	}
	return e.solve(ctx, n)
}

func (e *Engine[N, C]) solve(ctx context.Context, n N) (C, error) {
	ch, err := e.part.Solve(ctx, n)
	if err == nil {
		e.solves.Add(1)
	}
	return ch, err
}

// ReportCtx releases x with the engine's seeded randomness. ctx is polled
// through the channel store, so a canceled cold report returns ctx.Err()
// promptly, abandoning (not aborting) solves other waiters still share.
func (e *Engine[N, C]) ReportCtx(ctx context.Context, x geo.Point) (geo.Point, error) {
	e.queries.Add(1)
	if e.workers <= 1 {
		e.rngMu.Lock()
		defer e.rngMu.Unlock()
		return e.descend(ctx, x, e.rng, nil)
	}
	s := opt.GetStream()
	defer opt.PutStream(s)
	return e.descend(ctx, x, s.Seed(e.seed, e.streamSalt^(e.queryIdx.Add(1)-1)), nil)
}

// ReportWith releases x drawing every sample from rng, uncounted in Stats.
func (e *Engine[N, C]) ReportWith(x geo.Point, rng *rand.Rand) (geo.Point, error) {
	return e.descend(context.Background(), x, rng, nil)
}

// ReportBatchCtx releases xs in input order, exactly as a ReportCtx loop in
// the same arrival order would, resolving each inner node once per batch. A
// sequential engine holds its generator for the whole batch; otherwise the
// batch reserves a block of query indices and fans chunks of batchChunk
// points across the workers, so the output does not depend on the worker
// count. ctx is polled once per chunk. The first error aborts the batch.
func (e *Engine[N, C]) ReportBatchCtx(ctx context.Context, xs []geo.Point) ([]geo.Point, error) {
	e.queries.Add(int64(len(xs)))
	if e.workers <= 1 {
		e.rngMu.Lock()
		defer e.rngMu.Unlock()
		return e.release(ctx, xs, e.rng, 0, 1)
	}
	n := uint64(len(xs))
	return e.release(ctx, xs, nil, e.queryIdx.Add(n)-n, e.workers)
}

// ReportBatchWith releases xs drawing from rng in input order, whatever the
// worker count, so it matches a ReportWith loop exactly.
func (e *Engine[N, C]) ReportBatchWith(xs []geo.Point, rng *rand.Rand) ([]geo.Point, error) {
	return e.release(context.Background(), xs, rng, 0, 1)
}

// release descends every point of xs, fanning chunks of batchChunk points
// across workers with one memo for the whole batch. With rng set the points
// draw from it in input order (workers must then be 1); otherwise point i
// draws from the stream of query index base+i, through one stream per chunk
// re-seeded per point.
func (e *Engine[N, C]) release(ctx context.Context, xs []geo.Point, rng *rand.Rand, base uint64, workers int) ([]geo.Point, error) {
	memo := e.getMemo(len(xs))
	defer e.putMemo(memo)
	out := make([]geo.Point, len(xs))
	chunks := (len(xs) + batchChunk - 1) / batchChunk
	var streams []chunkStream
	if rng == nil {
		streams = make([]chunkStream, chunks)
	}
	if err := channel.ForEachCtx(ctx, workers, chunks, func(c int) error {
		r := rng
		for i := c * batchChunk; i < min((c+1)*batchChunk, len(xs)); i++ {
			if streams != nil {
				r = streams[c].Seed(e.seed, e.streamSalt^(base+uint64(i)))
			}
			z, err := e.descend(ctx, xs[i], r, memo)
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

// slot is one inner node a batch descends through: its Inner index and its
// channel's sampler.
type slot struct {
	id      int
	sampler opt.Sampler
}

// memo holds the slots of the inner nodes one batch has resolved, shared by
// its workers. state[id] is memoEmpty, memoBusy, or memoReady+k once
// slots[k] holds node id; it goes empty -> busy -> ready at most once per
// batch, only the worker winning the first transition writes the slot, and
// readers touch a slot only after observing ready. Pooled memos come back
// with every entry empty (putMemo clears exactly the entries a batch set),
// so a small batch over a large index never pays to clear untouched nodes.
type memo struct {
	state []atomic.Uint32
	slots []slot
	used  atomic.Int32 // slots claimed
}

const (
	memoEmpty uint32 = iota
	memoBusy
	memoReady
)

// getMemo borrows a memo with room for every inner node n points can visit.
func (e *Engine[N, C]) getMemo(n int) *memo {
	m, ok := e.memoPool.Get().(*memo)
	if !ok {
		m = &memo{state: make([]atomic.Uint32, e.part.Inners())}
	}
	if need := min(len(m.state), n*e.part.Depth()); len(m.slots) < need {
		m.slots = make([]slot, need)
	}
	return m
}

func (e *Engine[N, C]) putMemo(m *memo) {
	for k := range m.used.Load() {
		m.state[m.slots[k].id].Store(memoEmpty)
		m.slots[k].sampler = nil
	}
	m.used.Store(0)
	e.memoPool.Put(m)
}

// sampler returns the sampler of inner node n with index id: from memo when
// the batch holds it, otherwise through the store, publishing it to memo, if
// any. A worker that finds the entry busy resolves through the store too:
// the singleflight store hands both the same channel.
func (e *Engine[N, C]) sampler(ctx context.Context, n N, id int, memo *memo) (opt.Sampler, error) {
	if memo != nil {
		if v := memo.state[id].Load(); v >= memoReady {
			return memo.slots[v-memoReady].sampler, nil
		}
	}
	ch, err := e.Channel(ctx, n)
	if err != nil {
		return nil, err
	}
	s := ch.Sampler(e.kind)
	if memo != nil && memo.state[id].CompareAndSwap(memoEmpty, memoBusy) {
		k := memo.used.Add(1) - 1
		memo.slots[k] = slot{id: id, sampler: s}
		memo.state[id].Store(memoReady + uint32(k))
	}
	return s, nil
}

// clamp is geo.Rect.Clamp onto the engine's region, with the bounds New
// computed once instead of two math.Nextafter calls per point.
func (e *Engine[N, C]) clamp(x geo.Point) geo.Point {
	return geo.Point{X: min(max(x.X, e.lo.X), e.hi.X), Y: min(max(x.Y, e.lo.Y), e.hi.Y)}
}

// descend runs Algorithm 1 for x: at each inner node it runs the channel on
// the child enclosing x and moves into the drawn child. When x lies outside
// the node (an earlier step drew a cell other than x's), line 10 substitutes
// a uniformly random child. Resolving a sampler draws nothing, so the
// stream of draws is the same with or without memo.
func (e *Engine[N, C]) descend(ctx context.Context, x geo.Point, rng *rand.Rand, memo *memo) (geo.Point, error) {
	x = e.clamp(x)
	n := e.part.Root()
	for id := e.part.Inner(n); id >= 0; id = e.part.Inner(n) {
		s, err := e.sampler(ctx, n, id, memo)
		if err != nil {
			return geo.Point{}, err
		}
		xi := e.part.Enclosing(n, x)
		if xi < 0 {
			xi = rng.IntN(e.part.Children(n))
		}
		n = e.part.Child(n, s.Sample(xi, rng))
	}
	return e.part.Release(n), nil
}

// PrecomputeCtx solves every inner node's channel up front (the paper's
// offline phase), in Inner order, fanned across the workers and polling ctx
// before each solve. Under an owns filter only the accepted keys are solved:
// a fleet's replicas warm disjoint partitions, and reports fetch the rest
// from their owners, or solve them as a last resort. Solved channels stay in
// the store after a cancel.
func (e *Engine[N, C]) PrecomputeCtx(ctx context.Context) error {
	nodes := make([]N, e.part.Inners())
	var walk func(n N)
	walk = func(n N) {
		if id := e.part.Inner(n); id >= 0 {
			nodes[id] = n
			for i := range e.part.Children(n) {
				walk(e.part.Child(n, i))
			}
		}
	}
	walk(e.part.Root())
	return channel.ForEachCtx(ctx, e.workers, len(nodes), func(i int) error {
		if e.owns != nil && !e.owns(e.part.Key(nodes[i])) {
			return nil
		}
		_, err := e.Channel(ctx, nodes[i])
		return err
	})
}
