// Package session owns durable per-user serving state: the rolling-window
// privacy-budget ledger enforcing the composability accounting of §2.2, the
// last-release memo the predictive trace mechanism re-releases while a user
// is stationary, and the temporal-composition counters behind /v1/stats.
//
// The store is sharded by an FNV-1a hash of the user ID with one mutex per
// shard, so millions of users contend only within their shard. When opened
// with a directory it is crash-safe: every accepted mutation appends an
// absolute-state record to a checksummed journal (see journal.go) which is
// periodically compacted into a snapshot and replayed on startup, so a
// restart never forgets spend and never lets a user over-spend. Mutations
// return only after an fsync covers their record (group commit), and a
// journal that cannot write or fsync turns the store read-only.
//
// Step runs a multi-operation change to one user (a trace step's test
// spend, report spend and memo write) as a single transaction that the
// journal records once.
package session

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"geoind/internal/geo"
)

// ErrBudgetExhausted is returned by Spend when a user's window budget cannot
// cover the request. internal/server re-exports this value, so errors.Is and
// direct equality both keep working across the layers.
var ErrBudgetExhausted = errors.New("privacy budget exhausted for this window")

// ErrUserID rejects a mutation whose user ID is empty or longer than
// MaxUserLen: the journal could not frame its record.
var ErrUserID = errors.New("session: invalid user ID")

const (
	numShards = 64
	// sweepOps is the per-shard mutation count between opportunistic GC
	// sweeps. A sweep walks one shard's map (1/numShards of the users), so
	// the amortized cost per operation is bounded by users/(numShards*sweepOps).
	sweepOps = 512
)

// Config parameterizes Open.
type Config struct {
	// Limit is the per-window budget each user may spend. Required, > 0.
	Limit float64
	// Window is the rolling accounting window. Required, > 0.
	Window time.Duration
	// Clock overrides time.Now (tests). Nil uses time.Now.
	Clock func() time.Time
	// Dir, when non-empty, enables the durable journal in that directory.
	// Empty means a memory-only store (state dies with the process).
	Dir string
	// SyncEvery is the number of journal records between fsyncs. 1 (the
	// default) makes every mutation wait until an fsync covers its record,
	// with concurrent mutations sharing one fsync: a crash loses only
	// records nobody was told were durable. Larger values wait only once
	// SyncEvery records are unsynced, trading bounded loss for throughput.
	SyncEvery int
	// CompactEvery triggers snapshot compaction after this many journal
	// records. Defaults to DefaultCompactEvery.
	CompactEvery int
	// Owns reports whether this replica owns a user. Non-owned users are
	// served from memory but never journaled — in a fabric each replica
	// persists only the users the rendezvous hash assigns to it. Nil means
	// own everything.
	Owns func(user string) bool
}

// State is one user's exported session state (Export/Import and snapshots).
type State struct {
	User        string
	Seq         uint64
	Spent       float64
	WindowStart time.Time
	HasMemo     bool
	Memo        geo.Point
}

type entry struct {
	seq         uint64
	spent       float64
	windowStart time.Time
	hasMemo     bool
	memo        geo.Point
}

type shard struct {
	mu    sync.Mutex
	users map[string]*entry
	steps map[string]*stepLock // users with a Step running or waiting
	ops   int                  // mutations since the last opportunistic sweep
}

// stepLock serializes one user's Steps. It lives outside the entry, so a
// sweep that evicts the entry mid-step cannot split the lock; refs counts
// the Steps holding or waiting on it, and the last one out deletes it.
type stepLock struct {
	mu   sync.Mutex
	refs int
}

// Store is the sharded session store. The zero value is not usable; call
// Open.
type Store struct {
	limit  float64
	window time.Duration
	now    func() time.Time
	owns   func(string) bool
	j      *journal // nil for memory-only stores

	// seq orders mutations across the whole store. Journal replay applies a
	// record only if its seq is newer than the state already loaded, which
	// makes snapshot-vs-journal overlap commutative regardless of the order
	// compaction interleaved with live appends.
	seq    atomic.Uint64
	shards [numShards]shard

	evicted    atomic.Int64
	spends     atomic.Int64
	refunds    atomic.Int64
	memoReads  atomic.Int64
	memoHits   atomic.Int64
	memoWrites atomic.Int64
}

// Stats is a point-in-time snapshot of store counters.
type Stats struct {
	Users      int           `json:"users"`
	Evicted    int64         `json:"evicted"`
	Spends     int64         `json:"spends"`
	Refunds    int64         `json:"refunds"`
	MemoReads  int64         `json:"memo_reads"`
	MemoHits   int64         `json:"memo_hits"`
	MemoWrites int64         `json:"memo_writes"`
	Journal    *JournalStats `json:"journal,omitempty"`
}

// Open creates a session store. With cfg.Dir set it replays the journal in
// that directory (the newest snapshot, then the segments it does not cover),
// sweeps stale entries, and compacts so the journal starts the run empty.
func Open(cfg Config) (*Store, error) {
	return open(cfg, osFS)
}

// open is Open with the journal's file system calls going through fs.
func open(cfg Config, fs fsys) (*Store, error) {
	if !(cfg.Limit > 0) {
		return nil, fmt.Errorf("session: limit %g must be positive", cfg.Limit)
	}
	if cfg.Window <= 0 {
		return nil, fmt.Errorf("session: window %v must be positive", cfg.Window)
	}
	s := &Store{
		limit:  cfg.Limit,
		window: cfg.Window,
		now:    cfg.Clock,
		owns:   cfg.Owns,
	}
	if s.now == nil {
		s.now = time.Now
	}
	if s.owns == nil {
		s.owns = func(string) bool { return true }
	}
	for i := range s.shards {
		s.shards[i].users = make(map[string]*entry)
		s.shards[i].steps = make(map[string]*stepLock)
	}
	if cfg.Dir != "" {
		j, states, err := openJournal(cfg, fs)
		if err != nil {
			return nil, err
		}
		s.j = j
		var maxSeq uint64
		for _, st := range states {
			if st.Seq > maxSeq {
				maxSeq = st.Seq
			}
			sh := s.shard(st.User)
			sh.users[st.User] = &entry{
				seq:         st.Seq,
				spent:       st.Spent,
				windowStart: st.WindowStart,
				hasMemo:     st.HasMemo,
				memo:        st.Memo,
			}
		}
		s.seq.Store(maxSeq)
		s.Sweep()
		// Compact immediately so startup replay cost stays bounded: the
		// snapshot now carries everything and appends start a fresh segment.
		if err := s.j.compact(s.exportOwned); err != nil {
			_ = s.j.close()
			return nil, err
		}
	}
	return s, nil
}

// shard picks the user's shard by FNV-1a over the user ID.
func (s *Store) shard(user string) *shard {
	h := uint64(14695981039346656037)
	for i := 0; i < len(user); i++ {
		h ^= uint64(user[i])
		h *= 1099511628211
	}
	return &s.shards[h%numShards]
}

// Limit returns the per-window budget.
func (s *Store) Limit() float64 { return s.limit }

// Window returns the accounting window.
func (s *Store) Window() time.Duration { return s.window }

// entryLocked returns the user's current-window entry, creating it and
// rolling an elapsed window as needed. Caller holds sh.mu; mutating callers
// only — pure reads must not go through here (they would allocate state for
// arbitrary queried IDs).
func (s *Store) entryLocked(sh *shard, user string, now time.Time) *entry {
	e := sh.users[user]
	if e == nil {
		e = &entry{windowStart: now}
		sh.users[user] = e
	} else if now.Sub(e.windowStart) >= s.window {
		e.spent = 0
		e.windowStart = now
	}
	return e
}

// checkMutation refuses a mutation before it touches memory: the user ID
// must be journalable, and a failed journal refuses everything.
func (s *Store) checkMutation(user string) error {
	if len(user) == 0 || len(user) > MaxUserLen {
		return fmt.Errorf("%w: %d bytes (want 1 to %d)", ErrUserID, len(user), MaxUserLen)
	}
	if s.j != nil {
		return s.j.failure()
	}
	return nil
}

// logLocked bumps the entry's seq and writes its absolute state to the
// journal, returning the group-commit ticket to settle once every lock is
// dropped. Caller holds sh.mu; the journal mutex is a leaf below every
// shard mutex.
func (s *Store) logLocked(user string, e *entry, now time.Time) (uint64, error) {
	e.seq = s.seq.Add(1)
	if s.j == nil || !s.owns(user) {
		return 0, nil
	}
	return s.j.append(record{
		at:          now.UnixNano(),
		seq:         e.seq,
		user:        user,
		spent:       e.spent,
		windowStart: e.windowStart.UnixNano(),
		hasMemo:     e.hasMemo,
		memoX:       e.memo.X,
		memoY:       e.memo.Y,
	})
}

// settle finishes a journaled mutation with no lock held: it waits until an
// fsync covers the ticket, then kicks compaction when the segment is due.
func (s *Store) settle(ticket uint64, err error) error {
	if s.j == nil {
		return err
	}
	if err == nil {
		err = s.j.wait(ticket)
	}
	s.maybeCompact()
	return err
}

// Spend debits eps from the user's window budget, or returns
// ErrBudgetExhausted (leaving the store unchanged) when the remaining budget
// is insufficient. An accepted spend returns only once its record is
// durable (under SyncEvery=1), so a crash can never forget a spend it
// admitted. A journal failure returns an error wrapping ErrJournalFailed;
// the spend stays charged in memory, since nothing may be released for it.
func (s *Store) Spend(user string, eps float64) error {
	if !(eps > 0) {
		return fmt.Errorf("session: spend amount %g must be positive", eps)
	}
	if err := s.checkMutation(user); err != nil {
		return err
	}
	sh := s.shard(user)
	sh.mu.Lock()
	now := s.now()
	s.maybeSweepLocked(sh, now)
	e := s.entryLocked(sh, user, now)
	if err := s.spendLocked(e, eps); err != nil {
		sh.mu.Unlock()
		return err
	}
	t, err := s.logLocked(user, e, now)
	sh.mu.Unlock()
	return s.settle(t, err)
}

// spendLocked is the admission rule every spend goes through: debit eps
// from e, or return ErrBudgetExhausted leaving e unchanged. Caller holds
// e's shard mutex.
func (s *Store) spendLocked(e *entry, eps float64) error {
	if e.spent+eps > s.limit+1e-12 {
		return ErrBudgetExhausted
	}
	e.spent += eps
	s.spends.Add(1)
	return nil
}

// refundLocked credits eps back to e, clamping at zero spend. Caller holds
// e's shard mutex.
func (s *Store) refundLocked(e *entry, eps float64) {
	e.spent = max(e.spent-eps, 0)
	s.refunds.Add(1)
}

// Refund credits eps back to the user's window budget, clamping at zero
// spend. It undoes a Spend whose report never happened (request canceled,
// deadline exceeded, mechanism failure): the user revealed nothing, so the
// composability accounting of §2.2 owes them the budget back. Refunding
// after the window rolled over is harmless — the fresh window already has
// zero spend and the clamp keeps it there. A failed journal refuses the
// refund, which only ever errs toward more spend.
func (s *Store) Refund(user string, eps float64) error {
	if !(eps > 0) {
		return nil
	}
	if err := s.checkMutation(user); err != nil {
		return err
	}
	sh := s.shard(user)
	sh.mu.Lock()
	now := s.now()
	e := s.entryLocked(sh, user, now)
	s.refundLocked(e, eps)
	t, err := s.logLocked(user, e, now)
	sh.mu.Unlock()
	return s.settle(t, err)
}

// Remaining returns the user's unspent budget in the current window. It is a
// pure read: unknown users and users whose window has elapsed report the
// full limit without any state being created or rolled.
func (s *Store) Remaining(user string) float64 {
	sh := s.shard(user)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	e := sh.users[user]
	if e == nil || s.now().Sub(e.windowStart) >= s.window {
		return s.limit
	}
	if r := s.limit - e.spent; r > 0 {
		return r
	}
	return 0
}

// Memo returns the user's last released location, if any. Pure read.
func (s *Store) Memo(user string) (geo.Point, bool) {
	sh := s.shard(user)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	s.memoReads.Add(1)
	e := sh.users[user]
	if e == nil || !e.hasMemo {
		return geo.Point{}, false
	}
	s.memoHits.Add(1)
	return e.memo, true
}

// Tx is one user's state inside Store.Step. Each method changes or reads
// the user's in-memory entry under the shard mutex, looking the entry up
// afresh every time, so a sweep between calls cannot orphan it. Nothing is
// journaled until the step ends.
type Tx struct {
	s       *Store
	sh      *shard
	user    string
	before  entry // the entry at the first change, for the net-zero check
	touched bool

	spends, refunds   int
	charged, refunded float64
}

// entryLocked returns the live entry, remembering its state at the first
// touch. Caller holds tx.sh.mu.
func (tx *Tx) entryLocked(now time.Time) *entry {
	e := tx.s.entryLocked(tx.sh, tx.user, now)
	if !tx.touched {
		tx.before, tx.touched = *e, true
	}
	return e
}

// Spend debits eps like Store.Spend, without journaling.
func (tx *Tx) Spend(eps float64) error {
	if !(eps > 0) {
		return fmt.Errorf("session: spend amount %g must be positive", eps)
	}
	s, sh := tx.s, tx.sh
	sh.mu.Lock()
	now := s.now()
	s.maybeSweepLocked(sh, now)
	err := s.spendLocked(tx.entryLocked(now), eps)
	sh.mu.Unlock()
	if err != nil {
		return err
	}
	tx.spends++
	tx.charged += eps
	return nil
}

// Refund credits eps back like Store.Refund, without journaling.
func (tx *Tx) Refund(eps float64) {
	if !(eps > 0) {
		return
	}
	s, sh := tx.s, tx.sh
	sh.mu.Lock()
	s.refundLocked(tx.entryLocked(s.now()), eps)
	sh.mu.Unlock()
	tx.refunds++
	tx.refunded += eps
}

// Memo returns the user's last released location, if any.
func (tx *Tx) Memo() (geo.Point, bool) { return tx.s.Memo(tx.user) }

// SetMemo records the user's last released location. The memo does not
// expire with the budget window; it is lost only when the whole entry is
// evicted after a long idle period (costing the user one fresh report).
func (tx *Tx) SetMemo(p geo.Point) {
	s, sh := tx.s, tx.sh
	sh.mu.Lock()
	e := tx.entryLocked(s.now())
	e.hasMemo = true
	e.memo = p
	sh.mu.Unlock()
	s.memoWrites.Add(1)
}

// Remaining returns the user's unspent budget in the current window.
func (tx *Tx) Remaining() float64 { return tx.s.Remaining(tx.user) }

// Charged returns how many spends this transaction has made so far and the
// budget they debited.
func (tx *Tx) Charged() (int, float64) { return tx.spends, tx.charged }

// Refunded returns how many refunds this transaction has made so far and
// the budget they credited back.
func (tx *Tx) Refunded() (int, float64) { return tx.refunds, tx.refunded }

// Step runs fn as one transaction on user's state and journals the final
// state as a single record. Steps for the same user run one at a time
// under a per-user lock; fn runs under that lock only, never under a shard
// mutex, so a slow fn (a cold channel solve) blocks no other user. Other
// writers to the same user (Spend, Refund) still interleave with fn.
//
// The record is written even when fn fails, because budget fn spent stays
// spent; a step whose changes cancel out (a spend refunded in full) writes
// nothing. Step returns after an fsync covers the record, with fn's error,
// or with the journal error, which takes precedence: the caller must not
// release anything the journal could not record.
func (s *Store) Step(user string, fn func(*Tx) error) error {
	if err := s.checkMutation(user); err != nil {
		return err
	}
	sh := s.shard(user)
	sh.mu.Lock()
	l := sh.steps[user]
	if l == nil {
		l = &stepLock{}
		sh.steps[user] = l
	}
	l.refs++
	sh.mu.Unlock()
	l.mu.Lock()

	tx := &Tx{s: s, sh: sh, user: user}
	ferr := fn(tx)

	sh.mu.Lock()
	t, jerr := tx.commitLocked()
	if l.refs--; l.refs == 0 {
		delete(sh.steps, user)
	}
	sh.mu.Unlock()
	l.mu.Unlock()
	if jerr = s.settle(t, jerr); jerr != nil {
		return jerr
	}
	return ferr
}

// commitLocked journals the user's state if the transaction changed it.
// Caller holds tx.sh.mu.
func (tx *Tx) commitLocked() (uint64, error) {
	if !tx.touched {
		return 0, nil
	}
	e := tx.sh.users[tx.user]
	if e == nil || *e == tx.before {
		// Evicted (nothing left to remember) or a net-zero step whose entry
		// nobody else journaled meanwhile (seq unchanged).
		return 0, nil
	}
	return tx.s.logLocked(tx.user, e, tx.s.now())
}

// evictableLocked reports whether an entry is garbage: its window has fully
// elapsed with nothing spent (nothing to remember for admission control), or
// it has been idle for two full windows (stale regardless of last spend —
// the rollover would zero it anyway; a memoized release is also dropped,
// costing that user one fresh report if they ever return).
func (s *Store) evictableLocked(e *entry, now time.Time) bool {
	idle := now.Sub(e.windowStart)
	return (idle >= s.window && e.spent == 0) || idle >= 2*s.window
}

// maybeSweepLocked runs an opportunistic GC sweep of one shard every
// sweepOps mutations. Caller holds sh.mu.
func (s *Store) maybeSweepLocked(sh *shard, now time.Time) {
	sh.ops++
	if sh.ops < sweepOps {
		return
	}
	sh.ops = 0
	s.sweepShardLocked(sh, now)
}

func (s *Store) sweepShardLocked(sh *shard, now time.Time) int {
	n := 0
	for u, e := range sh.users {
		if s.evictableLocked(e, now) {
			delete(sh.users, u)
			n++
		}
	}
	if n > 0 {
		s.evicted.Add(int64(n))
	}
	return n
}

// Sweep evicts all garbage entries across every shard and returns how many
// were dropped. Spend/Refund also sweep opportunistically; Sweep exists for
// deterministic tests and shutdown compaction.
func (s *Store) Sweep() int {
	now := s.now()
	n := 0
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.Lock()
		n += s.sweepShardLocked(sh, now)
		sh.ops = 0
		sh.mu.Unlock()
	}
	return n
}

// Users returns the number of users with live session entries.
func (s *Store) Users() int {
	n := 0
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.Lock()
		n += len(sh.users)
		sh.mu.Unlock()
	}
	return n
}

// Export copies every live entry out of the store. Shards are locked one at
// a time, so the result is per-user consistent (each State is a snapshot of
// that user at some point during the call) — exactly what seq-gated replay
// needs, and what the JSON ledger Save serializes.
func (s *Store) Export() []State {
	out := make([]State, 0, 256)
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.Lock()
		for u, e := range sh.users {
			out = append(out, State{
				User:        u,
				Seq:         e.seq,
				Spent:       e.spent,
				WindowStart: e.windowStart,
				HasMemo:     e.hasMemo,
				Memo:        e.memo,
			})
		}
		sh.mu.Unlock()
	}
	return out
}

// exportOwned is Export restricted to users this replica owns — what
// snapshot compaction persists (the journal never carries non-owned users,
// so the snapshot must not either).
func (s *Store) exportOwned() []State {
	all := s.Export()
	out := all[:0]
	for _, st := range all {
		if s.owns(st.User) {
			out = append(out, st)
		}
	}
	return out
}

// Replace atomically-per-shard replaces all session state with the given
// entries (ledger Load). Every imported entry is journaled, and durable
// stores then compact synchronously: the pre-import segments still carry
// the replaced users' records and the journal has no tombstone op, so
// without a fresh snapshot a restart would resurrect users absent from the
// import. After Replace returns, the on-disk state reflects exactly the
// imported entries.
func (s *Store) Replace(states []State) error {
	for _, st := range states {
		if err := s.checkMutation(st.User); err != nil {
			return fmt.Errorf("session: import: %w", err)
		}
		if st.Spent < 0 {
			return fmt.Errorf("session: import: invalid entry for user %q", st.User)
		}
	}
	now := s.now()
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.Lock()
		sh.users = make(map[string]*entry)
		sh.mu.Unlock()
	}
	for _, st := range states {
		sh := s.shard(st.User)
		sh.mu.Lock()
		e := &entry{
			spent:       st.Spent,
			windowStart: st.WindowStart,
			hasMemo:     st.HasMemo,
			memo:        st.Memo,
		}
		sh.users[st.User] = e
		_, err := s.logLocked(st.User, e, now)
		sh.mu.Unlock()
		if err != nil {
			return fmt.Errorf("session: import: %w", err)
		}
	}
	if s.j != nil {
		// The compaction's rotation fsyncs every record written above.
		if err := s.j.compact(s.exportOwned); err != nil {
			return fmt.Errorf("session: import compact: %w", err)
		}
	}
	return nil
}

// maybeCompact kicks off asynchronous journal compaction when the current
// segment has grown past the configured threshold. The compactor never holds
// a shard mutex and the journal mutex at the same time (rotation happens
// under j.mu alone, the export locks shards one by one afterwards), so it
// cannot deadlock with the append path's shard→journal lock order.
func (s *Store) maybeCompact() {
	if s.j == nil || !s.j.shouldCompact() {
		return
	}
	if !s.j.compacting.CompareAndSwap(false, true) {
		return
	}
	s.j.wg.Add(1)
	go func() {
		defer s.j.wg.Done()
		defer s.j.compacting.Store(false)
		if err := s.j.compact(s.exportOwned); err != nil {
			s.j.failures.Add(1)
		}
	}()
}

// Sync makes every journal record written so far durable, fsyncing if any
// is not yet (no-op for memory-only stores).
func (s *Store) Sync() error {
	if s.j == nil {
		return nil
	}
	return s.j.sync()
}

// Compact synchronously compacts the journal into a snapshot (tests,
// shutdown). No-op for memory-only stores.
func (s *Store) Compact() error {
	if s.j == nil {
		return nil
	}
	return s.j.compact(s.exportOwned)
}

// Close compacts one final time and closes the journal. The store remains
// readable afterwards, and further mutations are applied in memory only
// (counted in the journal's failures). A failed journal is closed without
// another fsync and Close returns its failure.
func (s *Store) Close() error {
	if s.j == nil {
		return nil
	}
	s.j.wg.Wait()
	err := s.Compact()
	if cerr := s.j.close(); err == nil {
		err = cerr
	}
	return err
}

// Err returns the latched journal failure (wrapping ErrJournalFailed), or
// nil while the store accepts mutations. Memory-only stores never fail.
func (s *Store) Err() error {
	if s.j == nil {
		return nil
	}
	return s.j.failure()
}

// journalStats exposes the journal counters when durability is enabled.
func (s *Store) journalStats() *JournalStats {
	if s.j == nil {
		return nil
	}
	return s.j.stats()
}

// Stats returns a point-in-time snapshot of the store counters.
func (s *Store) Stats() Stats {
	return Stats{
		Users:      s.Users(),
		Evicted:    s.evicted.Load(),
		Spends:     s.spends.Load(),
		Refunds:    s.refunds.Load(),
		MemoReads:  s.memoReads.Load(),
		MemoHits:   s.memoHits.Load(),
		MemoWrites: s.memoWrites.Load(),
		Journal:    s.journalStats(),
	}
}
