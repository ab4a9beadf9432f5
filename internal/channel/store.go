// Package channel owns the channel lifecycle shared by every mechanism in
// the repository: the Multi-Step Mechanism (internal/core), the adaptive
// k-d-style index and the quadtree index (internal/adaptive) all construct
// per-(level, cell) optimal channels by solving the OPT linear program and
// then reuse them for every subsequent query. The paper treats these solves
// as pure post-processing-safe precomputation (§4, §6.2): a channel depends
// only on the subdomain geometry, the level budget eps_i, the utility metric
// and the restricted prior — never on user locations — so caching and
// sharing them across queries (and across users, in the server deployment)
// does not affect the GeoInd guarantee.
//
// Store is a sharded, singleflight-deduplicated concurrent cache keyed by
// exactly those inputs. Concurrent requests for the same key perform one LP
// solve: the solve runs in its own detached goroutine under a store-owned
// context while every caller — including the one that triggered it — waits
// on the entry's done channel. Waiters can abandon the flight individually
// when their request context is canceled; the solve itself is aborted only
// when its refcount of live waiters drops to zero (there is no one left who
// wants the result), or when the store's SolveTimeout elapses. Shards keep
// unrelated keys from contending on a single lock, so the warm path (pure
// map lookups) scales with cores. Optional cost-aware eviction bounds
// resident channel mass for long-lived servers with very large hierarchies.
package channel

import (
	"context"
	"errors"
	"hash/maphash"
	"math"
	"sync"
	"sync/atomic"
	"time"
)

// Key identifies one solved channel. All the inputs the solve depends on
// participate, so distinct mechanisms (or distinct priors) sharing one Store
// can never collide: Namespace separates mechanism families, Level/Cell
// locate the subdomain in the index, EpsBits is the exact level budget,
// Metric the utility metric, and PriorHash fingerprints the prior (plus any
// partition geometry derived from it).
type Key struct {
	// Namespace separates mechanism families sharing a store ("msm",
	// "adaptive", "quad", ...).
	Namespace string
	// Level is the index level (0 = descent from the virtual root) or tree
	// depth of the node.
	Level int
	// Cell is the parent cell index at Level (grid mechanisms) or the node
	// ID (tree mechanisms).
	Cell int
	// EpsBits is math.Float64bits of the budget the channel satisfies.
	EpsBits uint64
	// Metric is the utility metric identifier.
	Metric int
	// PriorHash fingerprints the adversarial prior (and, for adaptive
	// indexes, the partition geometry derived from it).
	PriorHash uint64
	// Variant distinguishes alternative constructions of the same
	// subdomain channel: 0 is the exact full-constraint LP; a
	// spanner-reduced channel stores math.Float64bits of its stretch
	// factor. Reduced and exact channels thereby share singleflight,
	// stats, eviction and persistence without colliding.
	Variant uint64
}

// NewKey assembles a Key, converting eps to its exact bit pattern.
func NewKey(namespace string, level, cell int, eps float64, metric int, priorHash uint64) Key {
	return Key{
		Namespace: namespace,
		Level:     level,
		Cell:      cell,
		EpsBits:   math.Float64bits(eps),
		Metric:    metric,
		PriorHash: priorHash,
	}
}

// WithVariant returns a copy of k tagged with the given variant bits
// (conventionally math.Float64bits of a spanner stretch factor; 0 means the
// exact channel).
func (k Key) WithVariant(variant uint64) Key {
	k.Variant = variant
	return k
}

// ErrSolveOverload is returned by GetOrComputeCtx when admission control is
// enabled (Options.MaxSolves > 0), every solve slot is busy and the bounded
// admission queue is full. The rejection is immediate — the caller is never
// parked and no goroutine is spawned — so an overloaded store sheds load
// instead of accumulating blocked solves. Callers should surface it as a
// retryable condition (the HTTP server maps it to 429 + Retry-After).
var ErrSolveOverload = errors.New("channel: solve admission queue full")

// Stats is a snapshot of store behaviour. Hits+Misses equals the number of
// GetOrCompute calls that completed; Misses equals the number of solves
// actually performed (deduplicated waiters count as hits).
type Stats struct {
	// Hits counts lookups satisfied without a new solve (including calls
	// that waited on an in-flight solve for the same key).
	Hits int64
	// Misses counts lookups that performed the solve.
	Misses int64
	// Inflight is the number of solves currently executing.
	Inflight int64
	// Entries is the number of resident channels.
	Entries int64
	// Cost is the total resident cost (CostFn units).
	Cost int64
	// Evictions counts entries removed by the cost-aware eviction policy.
	Evictions int64
	// BackingHits counts lookups satisfied by the backing cache instead of
	// a solve (counted as Hits, not Misses: no solve happened).
	BackingHits int64
	// BackingWrites counts freshly solved channels handed to the backing
	// cache for write-behind persistence.
	BackingWrites int64
	// Abandoned counts waiters that gave up on an in-flight solve because
	// their own context was canceled or timed out. Abandoning is per caller:
	// the solve keeps running as long as at least one other waiter remains.
	Abandoned int64
	// Canceled counts solves aborted before completion — because every
	// waiter abandoned the flight (refcount hit zero) or the store's
	// SolveTimeout elapsed. A canceled solve caches nothing; a later call
	// for the same key starts a fresh one.
	Canceled int64
	// Queued is the number of admitted solves currently waiting for a free
	// solve slot (only nonzero with Options.MaxSolves set).
	Queued int64
	// Rejected counts misses refused outright with ErrSolveOverload because
	// every solve slot was busy and the admission queue was full.
	Rejected int64
}

// Options configures a Store.
type Options struct {
	// MaxCost bounds the total resident cost; 0 means unbounded. When an
	// insert pushes the total above MaxCost, least-recently-used entries are
	// evicted (approximately: eviction scans shards independently) until the
	// store fits again. In-flight entries are never evicted.
	MaxCost int64
	// CostFn assigns a cost to a computed value; nil means every entry costs
	// 1 (MaxCost then bounds the entry count).
	CostFn func(v any) int64
	// Backing, when non-nil, is consulted read-through on every miss before
	// solving and written behind (asynchronously) after every successful
	// solve. Evicted entries therefore remain loadable: a later miss for the
	// same key reloads from the backing instead of re-solving.
	Backing Backing
	// SolveTimeout bounds the wall-clock time of one detached solve
	// (including the backing read-through preceding it); 0 means unbounded.
	// The timeout is owned by the store, not by any caller: a solve that
	// outlives the request that triggered it still completes — and is cached
	// for the next caller — unless this deadline expires first.
	SolveTimeout time.Duration
	// MaxSolves bounds the number of detached solves (including their
	// backing read-through) executing concurrently; 0 means unbounded. A
	// miss arriving while every slot is busy queues for admission — up to
	// SolveQueue deep — and beyond that is rejected immediately with
	// ErrSolveOverload. Joining an in-flight solve for the same key is never
	// subject to admission: singleflight deduplication happens first.
	MaxSolves int
	// SolveQueue bounds how many admitted solves may wait for a free slot
	// before further misses are rejected; 0 with MaxSolves > 0 defaults to
	// MaxSolves. Each queued solve costs one parked goroutine, so the
	// worst-case goroutine commitment is MaxSolves + SolveQueue regardless
	// of offered load.
	SolveQueue int
}

const numShards = 32

// Store is the sharded singleflight channel cache. The zero value is not
// usable; construct with New.
type Store struct {
	shards       [numShards]shard
	seed         maphash.Seed
	costFn       func(v any) int64
	maxCost      int64
	backing      Backing
	solveTimeout time.Duration
	solveSem     chan struct{} // nil = unbounded; else capacity MaxSolves
	queueCap     int64

	hits          atomic.Int64
	misses        atomic.Int64
	inflight      atomic.Int64
	entries       atomic.Int64
	cost          atomic.Int64
	evictions     atomic.Int64
	backingHits   atomic.Int64
	backingWrites atomic.Int64
	abandoned     atomic.Int64
	canceled      atomic.Int64
	queued        atomic.Int64
	rejected      atomic.Int64
	clock         atomic.Int64 // logical time for LRU ordering

	backingWG sync.WaitGroup // tracks in-flight write-behind goroutines
}

type shard struct {
	mu sync.Mutex
	m  map[Key]*entry
}

type entry struct {
	done        chan struct{} // closed when val/err are set
	val         any
	err         error
	cost        int64
	fromBacking bool
	lastUsed    atomic.Int64

	// waiters is the refcount of callers currently blocked on done; guarded
	// by the owning shard's mutex. When an abandoning waiter drops it to
	// zero while the solve is still running, the entry is unmapped and
	// cancel is invoked, aborting the detached solve.
	waiters int64
	cancel  context.CancelFunc
}

// New builds an empty store.
func New(opts Options) *Store {
	s := &Store{
		seed:         maphash.MakeSeed(),
		maxCost:      opts.MaxCost,
		costFn:       opts.CostFn,
		backing:      opts.Backing,
		solveTimeout: opts.SolveTimeout,
	}
	if s.costFn == nil {
		s.costFn = func(any) int64 { return 1 }
	}
	if opts.MaxSolves > 0 {
		s.solveSem = make(chan struct{}, opts.MaxSolves)
		s.queueCap = int64(opts.SolveQueue)
		if s.queueCap == 0 {
			s.queueCap = int64(opts.MaxSolves)
		}
	}
	for i := range s.shards {
		s.shards[i].m = make(map[Key]*entry)
	}
	return s
}

func (s *Store) shardFor(k Key) *shard {
	var h maphash.Hash
	h.SetSeed(s.seed)
	h.WriteString(k.Namespace)
	var buf [48]byte
	put64 := func(off int, v uint64) {
		for i := 0; i < 8; i++ {
			buf[off+i] = byte(v >> (8 * i))
		}
	}
	put64(0, uint64(k.Level))
	put64(8, uint64(k.Cell))
	put64(16, k.EpsBits)
	put64(24, uint64(k.Metric))
	put64(32, k.PriorHash)
	put64(40, k.Variant)
	h.Write(buf[:])
	return &s.shards[h.Sum64()%numShards]
}

// GetOrCompute is GetOrComputeCtx with a background context: the caller
// never abandons, and the solve function ignores cancellation.
func (s *Store) GetOrCompute(key Key, solve func() (any, error)) (any, bool, error) {
	return s.GetOrComputeCtx(context.Background(), key, func(context.Context) (any, error) {
		return solve()
	})
}

// GetOrComputeCtx returns the channel for key, invoking solve at most once
// per key across all concurrent callers (singleflight). The second return
// value reports whether the call was satisfied without solving (resident
// entry, joined flight, or backing-cache load). A failed solve is not
// cached: the error is delivered to every caller still waiting on the
// flight, and a later call retries.
//
// Solve lifecycle is decoupled from any single caller. The solve runs in a
// detached goroutine under a store-owned context (bounded by
// Options.SolveTimeout when set), and every caller — including the one whose
// miss triggered it — merely waits on the result. When ctx is canceled the
// caller abandons the flight immediately and returns ctx.Err(); the solve
// keeps running for the benefit of the other waiters and is aborted only
// when the last live waiter has abandoned. solve receives the detached solve
// context, not ctx, and should poll it at its cancellation checkpoints.
//
// With a Backing configured, a miss first attempts a read-through load —
// still under the singleflight, so concurrent callers share one disk read —
// and only solves if the backing declines. Freshly solved values are handed
// to the backing asynchronously (write-behind); call Sync to wait for those
// writes, e.g. before process exit.
func (s *Store) GetOrComputeCtx(ctx context.Context, key Key, solve func(ctx context.Context) (any, error)) (any, bool, error) {
	sh := s.shardFor(key)
	sh.mu.Lock()
	if e, ok := sh.m[key]; ok {
		select {
		case <-e.done:
			// Warm path: the value is resident, no waiter accounting needed.
			sh.mu.Unlock()
			if e.err != nil {
				return nil, false, e.err
			}
			e.lastUsed.Store(s.clock.Add(1))
			s.hits.Add(1)
			return e.val, true, nil
		default:
		}
		e.waiters++
		sh.mu.Unlock()
		return s.wait(ctx, sh, key, e, true)
	}
	// A caller whose context is already dead starts no flight: otherwise a
	// fast solve could settle before wait observes the cancel, and the solve
	// would be burned (and the result returned) for a canceled request.
	if err := ctx.Err(); err != nil {
		sh.mu.Unlock()
		return nil, false, err
	}
	// Admission control: reserve a solve slot — or a bounded queue position —
	// before the flight exists, so an overloaded store rejects in O(1)
	// without allocating an entry or spawning a goroutine. Only genuinely new
	// flights are subject to admission; callers joining an in-flight solve
	// for the same key were already deduplicated above.
	queuedSolve := false
	if s.solveSem != nil {
		select {
		case s.solveSem <- struct{}{}:
		default:
			if s.queued.Add(1) > s.queueCap {
				s.queued.Add(-1)
				s.rejected.Add(1)
				sh.mu.Unlock()
				return nil, false, ErrSolveOverload
			}
			queuedSolve = true
		}
	}
	e := &entry{done: make(chan struct{}), waiters: 1}
	e.lastUsed.Store(s.clock.Add(1))
	solveCtx, cancel := s.newSolveContext()
	e.cancel = cancel
	sh.m[key] = e
	sh.mu.Unlock()

	go s.runSolve(solveCtx, sh, key, e, solve, queuedSolve)
	return s.wait(ctx, sh, key, e, false)
}

// newSolveContext builds the detached context one solve runs under: rooted
// in Background — never in a request context — so the solve outlives any
// individual caller, with the store's SolveTimeout applied when configured.
func (s *Store) newSolveContext() (context.Context, context.CancelFunc) {
	if s.solveTimeout > 0 {
		return context.WithTimeout(context.Background(), s.solveTimeout)
	}
	return context.WithCancel(context.Background())
}

// runSolve executes one detached flight: queue admission (when the flight
// did not win a solve slot immediately), backing read-through, then the
// solve itself, then result publication. It owns the entry's map slot until
// the flight settles.
func (s *Store) runSolve(ctx context.Context, sh *shard, key Key, e *entry, solve func(ctx context.Context) (any, error), queuedSolve bool) {
	defer e.cancel() // release the timeout timer, if any
	if queuedSolve {
		// Parked in the bounded admission queue: wait for a slot unless the
		// flight is aborted first (every waiter abandoned, or SolveTimeout).
		select {
		case s.solveSem <- struct{}{}:
			s.queued.Add(-1)
		case <-ctx.Done():
			s.queued.Add(-1)
			e.err = ctx.Err()
			s.settleFailed(sh, key, e)
			return
		}
	}
	if s.solveSem != nil {
		defer func() { <-s.solveSem }()
	}
	s.inflight.Add(1)
	fromBacking := false
	if s.backing != nil && ctx.Err() == nil {
		if v, ok := s.backing.Load(ctx, key); ok {
			e.val = v
			fromBacking = true
		}
	}
	if !fromBacking {
		if err := ctx.Err(); err != nil {
			e.err = err
		} else {
			e.val, e.err = solve(ctx)
		}
	}
	s.inflight.Add(-1)
	if e.err != nil {
		s.settleFailed(sh, key, e)
		return
	}
	e.cost = s.costFn(e.val)
	e.fromBacking = fromBacking
	keep := true
	sh.mu.Lock()
	if cur, ok := sh.m[key]; !ok {
		// Every waiter abandoned and the slot was cleared, but the solve
		// finished before noticing the cancel: the result is valid, cache it.
		sh.m[key] = e
	} else if cur != e {
		// A fresh flight replaced the abandoned one; let it win.
		keep = false
	}
	sh.mu.Unlock()
	var total int64
	if keep {
		s.entries.Add(1)
		total = s.cost.Add(e.cost)
	}
	if fromBacking {
		s.hits.Add(1)
		s.backingHits.Add(1)
	} else {
		s.misses.Add(1)
		if s.backing != nil && keep {
			// Register the write-behind BEFORE publishing done: a waiter
			// that returns from GetOrComputeCtx and immediately calls Sync
			// must observe this Add, and WaitGroup forbids Add racing with
			// Wait at zero.
			s.backingWrites.Add(1)
			s.backingWG.Add(1)
			val := e.val
			go func() {
				defer s.backingWG.Done()
				s.backing.Store(key, val)
			}()
		}
	}
	// Evict before publishing done, so no caller can return from
	// GetOrComputeCtx while the store is over MaxCost. The entry itself is
	// still in flight here, so eviction never picks it.
	if keep && s.maxCost > 0 && total > s.maxCost {
		s.evict(total - s.maxCost)
	}
	close(e.done)
}

// settleFailed publishes a failed flight: counts the cancellation, unmaps
// the entry — unless the abandonment path already did, or a fresh flight
// owns the slot — and wakes every waiter with e.err.
func (s *Store) settleFailed(sh *shard, key Key, e *entry) {
	if errors.Is(e.err, context.Canceled) || errors.Is(e.err, context.DeadlineExceeded) {
		s.canceled.Add(1)
	}
	sh.mu.Lock()
	if cur, ok := sh.m[key]; ok && cur == e {
		delete(sh.m, key)
	}
	sh.mu.Unlock()
	close(e.done)
}

// wait blocks one caller on a flight until the result is published or the
// caller's own context is canceled. joined reports whether the caller merely
// joined an existing flight (it then counts as a hit) rather than triggering
// it.
func (s *Store) wait(ctx context.Context, sh *shard, key Key, e *entry, joined bool) (any, bool, error) {
	select {
	case <-e.done:
	case <-ctx.Done():
		s.abandoned.Add(1)
		sh.mu.Lock()
		e.waiters--
		if e.waiters == 0 {
			select {
			case <-e.done:
				// Finished in the meantime; leave the cached result alone.
			default:
				// Last waiter out: unmap the doomed flight so late arrivals
				// start fresh, then abort the detached solve.
				if cur, ok := sh.m[key]; ok && cur == e {
					delete(sh.m, key)
				}
				e.cancel()
			}
		}
		sh.mu.Unlock()
		return nil, false, ctx.Err()
	}
	sh.mu.Lock()
	e.waiters--
	sh.mu.Unlock()
	if e.err != nil {
		return nil, false, e.err
	}
	e.lastUsed.Store(s.clock.Add(1))
	if joined {
		s.hits.Add(1)
	}
	return e.val, joined || e.fromBacking, nil
}

// Sync blocks until every write-behind persistence goroutine started so far
// has completed. It does not prevent new writes from starting; callers
// should quiesce queries first (e.g. after Precompute, or during shutdown).
func (s *Store) Sync() {
	s.backingWG.Wait()
}

// Get returns the channel for key if resident and fully computed.
func (s *Store) Get(key Key) (any, bool) {
	sh := s.shardFor(key)
	sh.mu.Lock()
	e, ok := sh.m[key]
	sh.mu.Unlock()
	if !ok {
		return nil, false
	}
	select {
	case <-e.done:
	default:
		return nil, false // still computing
	}
	if e.err != nil {
		return nil, false
	}
	e.lastUsed.Store(s.clock.Add(1))
	return e.val, true
}

// evict removes completed entries in least-recently-used order until at
// least need cost has been reclaimed. It scans all shards to rank entries;
// entries still in flight are skipped.
func (s *Store) evict(need int64) {
	type victim struct {
		sh   *shard
		key  Key
		e    *entry
		used int64
	}
	var victims []victim
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.Lock()
		for k, e := range sh.m {
			select {
			case <-e.done:
				if e.err == nil {
					victims = append(victims, victim{sh, k, e, e.lastUsed.Load()})
				}
			default:
			}
		}
		sh.mu.Unlock()
	}
	// Selection sort over the (small) victim set ordered by recency.
	for need > 0 && len(victims) > 0 {
		oldest := 0
		for i := 1; i < len(victims); i++ {
			if victims[i].used < victims[oldest].used {
				oldest = i
			}
		}
		v := victims[oldest]
		victims[oldest] = victims[len(victims)-1]
		victims = victims[:len(victims)-1]
		v.sh.mu.Lock()
		if cur, ok := v.sh.m[v.key]; ok && cur == v.e {
			delete(v.sh.m, v.key)
			v.sh.mu.Unlock()
			s.entries.Add(-1)
			s.cost.Add(-v.e.cost)
			s.evictions.Add(1)
			need -= v.e.cost
		} else {
			v.sh.mu.Unlock()
		}
	}
}

// Len returns the number of resident channels (including in-flight solves).
func (s *Store) Len() int {
	n := 0
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.Lock()
		n += len(sh.m)
		sh.mu.Unlock()
	}
	return n
}

// Clear drops every resident channel. Solves in flight complete normally but
// their results are discarded from the cache.
func (s *Store) Clear() {
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.Lock()
		for k, e := range sh.m {
			select {
			case <-e.done:
				if e.err == nil {
					s.entries.Add(-1)
					s.cost.Add(-e.cost)
				}
				delete(sh.m, k)
			default:
				// Leave in-flight entries: their computing goroutine still
				// owns the map slot and will complete the flight.
			}
		}
		sh.mu.Unlock()
	}
}

// BackingStats returns the counters of the backing's durable disk tier; ok
// is false when there is no backing, no disk tier, or no stats at all. A
// composite backing (DiskStatser) reports its disk tier specifically so the
// long-standing /v1/stats disk_errors and version_misses fields keep meaning
// "the local snapshot directory" even when the chain also has mem and remote
// tiers; a plain single-tier backing (DirCache) reports itself as before.
func (s *Store) BackingStats() (DirStats, bool) {
	switch b := s.backing.(type) {
	case DiskStatser:
		return b.DiskStats()
	case interface{ Stats() DirStats }:
		return b.Stats(), true
	}
	return DirStats{}, false
}

// BackingTierStats returns the per-tier breakdown of a composite backing.
// A single-tier backing with stats is reported as one "disk" tier so callers
// can render uniformly; ok is false only when no stats exist at all.
func (s *Store) BackingTierStats() ([]TierStats, bool) {
	switch b := s.backing.(type) {
	case TierStatser:
		return b.TierStats(), true
	case interface{ Stats() DirStats }:
		return []TierStats{{Name: "disk", DirStats: b.Stats()}}, true
	}
	return nil, false
}

// LoadCached returns the channel for key only if it is already available
// without solving and without leaving the machine: a resident completed
// entry, or a hit in the backing's local tiers. It never starts a solve,
// never joins a flight, and never performs a remote fetch, so peers can ask
// "do you already have this?" (hedged snapshot fetches) at pure lookup cost.
// The loaded value is not installed in the store: serving a snapshot to a
// peer should not perturb this replica's resident set or LRU order.
func (s *Store) LoadCached(ctx context.Context, key Key) (any, bool) {
	if v, ok := s.Get(key); ok {
		return v, true
	}
	switch b := s.backing.(type) {
	case nil:
		return nil, false
	case LocalLoader:
		return b.LoadLocal(ctx, key)
	default:
		return b.Load(ctx, key)
	}
}

// Stats returns a snapshot of the store counters.
func (s *Store) Stats() Stats {
	return Stats{
		Hits:          s.hits.Load(),
		Misses:        s.misses.Load(),
		Inflight:      s.inflight.Load(),
		Entries:       s.entries.Load(),
		Cost:          s.cost.Load(),
		Evictions:     s.evictions.Load(),
		BackingHits:   s.backingHits.Load(),
		BackingWrites: s.backingWrites.Load(),
		Abandoned:     s.abandoned.Load(),
		Canceled:      s.canceled.Load(),
		Queued:        s.queued.Load(),
		Rejected:      s.rejected.Load(),
	}
}

// MaxSolves returns the configured solve-concurrency bound (0 = unbounded).
func (s *Store) MaxSolves() int {
	if s.solveSem == nil {
		return 0
	}
	return cap(s.solveSem)
}
