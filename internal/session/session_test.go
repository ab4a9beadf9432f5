package session

import (
	"errors"
	"fmt"
	"math"
	"sync"
	"testing"
	"time"

	"geoind/internal/geo"
)

// fakeClock is a mutable test clock shared by store and test.
type fakeClock struct {
	mu  sync.Mutex
	now time.Time
}

func newFakeClock() *fakeClock {
	return &fakeClock{now: time.Date(2026, 8, 8, 0, 0, 0, 0, time.UTC)}
}

func (c *fakeClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.now
}

func (c *fakeClock) Advance(d time.Duration) {
	c.mu.Lock()
	c.now = c.now.Add(d)
	c.mu.Unlock()
}

func mustOpen(t *testing.T, cfg Config) *Store {
	t.Helper()
	s, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	return s
}

// setMemo writes user's memo through a one-operation Step, the store's
// only memo writer.
func setMemo(s *Store, user string, p geo.Point) error {
	return s.Step(user, func(tx *Tx) error { tx.SetMemo(p); return nil })
}

func TestOpenValidation(t *testing.T) {
	if _, err := Open(Config{Limit: 0, Window: time.Hour}); err == nil {
		t.Error("zero limit accepted")
	}
	if _, err := Open(Config{Limit: 1, Window: 0}); err == nil {
		t.Error("zero window accepted")
	}
}

func TestSpendAndExhaust(t *testing.T) {
	s := mustOpen(t, Config{Limit: 1.0, Window: time.Hour})
	for i := 0; i < 4; i++ {
		if err := s.Spend("alice", 0.25); err != nil {
			t.Fatalf("spend %d: %v", i, err)
		}
	}
	if err := s.Spend("alice", 0.25); err != ErrBudgetExhausted {
		t.Fatalf("5th spend: got %v, want ErrBudgetExhausted", err)
	}
	if err := s.Spend("alice", -1); err == nil || errors.Is(err, ErrBudgetExhausted) {
		t.Fatalf("negative spend: got %v", err)
	}
	if err := s.Spend("bob", 0.5); err != nil {
		t.Fatalf("bob: %v", err)
	}
	if got := s.Users(); got != 2 {
		t.Fatalf("Users() = %d, want 2", got)
	}
	if r := s.Remaining("bob"); math.Abs(r-0.5) > 1e-12 {
		t.Fatalf("bob remaining = %g, want 0.5", r)
	}
}

func TestReadsDoNotAllocate(t *testing.T) {
	s := mustOpen(t, Config{Limit: 1.0, Window: time.Hour})
	if err := s.Spend("real", 0.5); err != nil {
		t.Fatal(err)
	}
	// A scan of bogus user IDs through every read path must not create
	// ledger state (the old server.Ledger allocated an entry per queried ID).
	for i := 0; i < 100; i++ {
		u := fmt.Sprintf("bogus-%d", i)
		if r := s.Remaining(u); r != 1.0 {
			t.Fatalf("Remaining(%s) = %g, want full limit", u, r)
		}
		if _, ok := s.Memo(u); ok {
			t.Fatalf("Memo(%s) reported a memo", u)
		}
	}
	if got := s.Users(); got != 1 {
		t.Fatalf("Users() = %d after read-only scan, want 1", got)
	}
}

func TestWindowRollover(t *testing.T) {
	clock := newFakeClock()
	s := mustOpen(t, Config{Limit: 1.0, Window: 24 * time.Hour, Clock: clock.Now})
	if err := s.Spend("u", 1.0); err != nil {
		t.Fatal(err)
	}
	clock.Advance(23 * time.Hour)
	if err := s.Spend("u", 0.1); err != ErrBudgetExhausted {
		t.Fatalf("inside window: got %v", err)
	}
	// Remaining must report the virtual rollover without mutating.
	clock.Advance(2 * time.Hour)
	if r := s.Remaining("u"); r != 1.0 {
		t.Fatalf("after window elapsed: Remaining = %g, want 1.0", r)
	}
	if err := s.Spend("u", 0.7); err != nil {
		t.Fatalf("spend after rollover: %v", err)
	}
	if r := s.Remaining("u"); math.Abs(r-0.3) > 1e-12 {
		t.Fatalf("post-rollover remaining = %g, want 0.3", r)
	}
}

// TestRefundAfterRolloverProperty is the satellite property test: refunding
// after the window rolled over must never produce negative spend, and must
// never resurrect the previous window's spend.
func TestRefundAfterRolloverProperty(t *testing.T) {
	clock := newFakeClock()
	s := mustOpen(t, Config{Limit: 10, Window: time.Hour, Clock: clock.Now})
	// Deterministic pseudo-random schedule of spends, refunds and rollovers.
	state := uint64(0x9e3779b97f4a7c15)
	next := func(n int) int {
		state ^= state << 13
		state ^= state >> 7
		state ^= state << 17
		return int(state % uint64(n))
	}
	var pendingSpend float64
	for i := 0; i < 5000; i++ {
		switch next(5) {
		case 0, 1: // spend
			amt := 0.25 * float64(1+next(4))
			if err := s.Spend("u", amt); err == nil {
				pendingSpend = amt
			}
		case 2: // refund the last accepted spend (possibly after rollover)
			if pendingSpend > 0 {
				s.Refund("u", pendingSpend)
				pendingSpend = 0
			}
		case 3: // refund something never spent this window
			s.Refund("u", 0.5)
		case 4: // roll the window
			clock.Advance(time.Hour + time.Duration(next(60))*time.Minute)
		}
		rem := s.Remaining("u")
		if rem < 0 || rem > s.Limit()+1e-9 {
			t.Fatalf("step %d: remaining %g outside [0, %g]", i, rem, s.Limit())
		}
	}
	// After a final rollover the fresh window must be exactly full: no
	// resurrected spend, no accumulated refund credit.
	clock.Advance(2 * time.Hour)
	s.Refund("u", 3.0)
	if r := s.Remaining("u"); r != s.Limit() {
		t.Fatalf("post-rollover refund: remaining %g, want full limit %g", r, s.Limit())
	}
	if err := s.Spend("u", s.Limit()); err != nil {
		t.Fatalf("full-limit spend after rollover refund: %v", err)
	}
}

// TestIdleEntryGC is the satellite regression test: entries whose window has
// fully elapsed with zero spend are evicted, observable via Users().
func TestIdleEntryGC(t *testing.T) {
	clock := newFakeClock()
	s := mustOpen(t, Config{Limit: 1, Window: time.Hour, Clock: clock.Now})
	for i := 0; i < 50; i++ {
		if err := s.Spend(fmt.Sprintf("idle-%d", i), 0.5); err != nil {
			t.Fatal(err)
		}
		s.Refund(fmt.Sprintf("idle-%d", i), 0.5) // zero net spend
	}
	if err := s.Spend("active", 0.5); err != nil {
		t.Fatal(err)
	}
	setMemo(s, "memoized", geo.Point{X: 1, Y: 2})
	if got := s.Users(); got != 52 {
		t.Fatalf("pre-GC Users() = %d, want 52", got)
	}

	clock.Advance(time.Hour + time.Minute)
	evicted := s.Sweep()
	// idle-* entries have zero spend and an elapsed window: gone. "active"
	// spent within the (now elapsed) window: kept until 2 windows idle.
	// "memoized" never spent, so its entry is garbage too — but the memo
	// evicting with it must only cost a future fresh report, never an error.
	if evicted != 51 {
		t.Fatalf("Sweep evicted %d, want 51", evicted)
	}
	if got := s.Users(); got != 1 {
		t.Fatalf("post-GC Users() = %d, want 1 (active only)", got)
	}

	clock.Advance(time.Hour + time.Minute)
	s.Sweep()
	if got := s.Users(); got != 0 {
		t.Fatalf("after 2 idle windows Users() = %d, want 0", got)
	}
	if st := s.Stats(); st.Evicted != 52 {
		t.Fatalf("Stats.Evicted = %d, want 52", st.Evicted)
	}
}

func TestOpportunisticSweep(t *testing.T) {
	clock := newFakeClock()
	s := mustOpen(t, Config{Limit: 1, Window: time.Minute, Clock: clock.Now})
	// Park idle users in the same shard as the hot user, roll the window,
	// then hammer the hot user: the in-band periodic sweep must reap the
	// idle pile without anyone calling Sweep(). (Sweeps are per-shard, so
	// the test pins every entry to one shard.)
	hotShard := s.shard("hot")
	parked := 0
	for i := 0; parked < 20; i++ {
		u := fmt.Sprintf("park-%d", i)
		if s.shard(u) == hotShard {
			s.Refund(u, 1) // creates a zero-spend entry
			parked++
		}
	}
	clock.Advance(2 * time.Minute)
	for i := 0; i < sweepOps+1; i++ {
		if err := s.Spend("hot", 0.0001); err != nil {
			t.Fatal(err)
		}
		s.Refund("hot", 0.0001)
	}
	if got := s.Users(); got != 1 {
		t.Fatalf("opportunistic sweep left %d users, want 1 (hot only)", got)
	}
}

func TestMemoRoundTrip(t *testing.T) {
	s := mustOpen(t, Config{Limit: 1, Window: time.Hour})
	if _, ok := s.Memo("u"); ok {
		t.Fatal("memo before setMemo")
	}
	want := geo.Point{X: 3.5, Y: -1.25}
	setMemo(s, "u", want)
	got, ok := s.Memo("u")
	if !ok || got != want {
		t.Fatalf("Memo = %v/%v, want %v/true", got, ok, want)
	}
	st := s.Stats()
	if st.MemoReads != 2 || st.MemoHits != 1 || st.MemoWrites != 1 {
		t.Fatalf("memo counters = %d/%d/%d, want 2/1/1", st.MemoReads, st.MemoHits, st.MemoWrites)
	}
}

func TestExportReplace(t *testing.T) {
	clock := newFakeClock()
	s := mustOpen(t, Config{Limit: 2, Window: time.Hour, Clock: clock.Now})
	if err := s.Spend("a", 1.5); err != nil {
		t.Fatal(err)
	}
	setMemo(s, "a", geo.Point{X: 7, Y: 8})
	if err := s.Spend("b", 0.25); err != nil {
		t.Fatal(err)
	}
	exported := s.Export()
	if len(exported) != 2 {
		t.Fatalf("exported %d states, want 2", len(exported))
	}

	s2 := mustOpen(t, Config{Limit: 2, Window: time.Hour, Clock: clock.Now})
	if err := s2.Replace(exported); err != nil {
		t.Fatal(err)
	}
	if r := s2.Remaining("a"); math.Abs(r-0.5) > 1e-12 {
		t.Fatalf("a remaining after import = %g, want 0.5", r)
	}
	if m, ok := s2.Memo("a"); !ok || (m != geo.Point{X: 7, Y: 8}) {
		t.Fatalf("a memo after import = %v/%v", m, ok)
	}
	if err := s2.Replace([]State{{User: "", Spent: 1}}); err == nil {
		t.Error("empty user accepted by Replace")
	}
	if err := s2.Replace([]State{{User: "x", Spent: -1}}); err == nil {
		t.Error("negative spend accepted by Replace")
	}
}

// TestConcurrentSpendExact verifies admission is exact under contention:
// with limit 100 and 500 attempted spends of 0.25 per-user across shards,
// exactly 400 must succeed for each user.
func TestConcurrentSpendExact(t *testing.T) {
	s := mustOpen(t, Config{Limit: 100, Window: time.Hour})
	users := []string{"u1", "u2", "u3"}
	var wg sync.WaitGroup
	okCh := make(chan string, 3*500)
	for w := 0; w < 10; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				for _, u := range users {
					if err := s.Spend(u, 0.25); err == nil {
						okCh <- u
					}
				}
			}
		}()
	}
	wg.Wait()
	close(okCh)
	counts := map[string]int{}
	for u := range okCh {
		counts[u]++
	}
	for _, u := range users {
		if counts[u] != 400 {
			t.Errorf("user %s: %d spends admitted, want exactly 400", u, counts[u])
		}
		if r := s.Remaining(u); r != 0 {
			t.Errorf("user %s: remaining %g, want 0", u, r)
		}
	}
}

// TestConcurrentMixedOps races Spend/Refund/Memo/Export/Sweep across shards
// (run under -race via `make race`) and checks the invariant 0 <= remaining
// <= limit throughout.
func TestConcurrentMixedOps(t *testing.T) {
	clock := newFakeClock()
	s := mustOpen(t, Config{Limit: 50, Window: time.Hour, Clock: clock.Now})
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				u := fmt.Sprintf("u%d", (w*31+i)%64)
				switch i % 5 {
				case 0, 1:
					_ = s.Spend(u, 0.5)
				case 2:
					s.Refund(u, 0.5)
				case 3:
					setMemo(s, u, geo.Point{X: float64(i), Y: float64(w)})
					_, _ = s.Memo(u)
				case 4:
					if r := s.Remaining(u); r < 0 || r > s.Limit()+1e-9 {
						t.Errorf("remaining %g outside [0, %g]", r, s.Limit())
						return
					}
				}
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 50; i++ {
			_ = s.Export()
			s.Sweep()
			_ = s.Users()
			clock.Advance(time.Minute)
		}
	}()
	time.Sleep(100 * time.Millisecond)
	close(stop)
	wg.Wait()
}
