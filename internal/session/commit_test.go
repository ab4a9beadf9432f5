package session

import (
	"errors"
	"fmt"
	"io"
	"math"
	"sort"
	"sync"
	"syscall"
	"testing"
	"time"

	"geoind/internal/geo"
)

// faultSegment wraps the active journal segment. It logs which ticket each
// user's records got and which tickets each completed fsync covered, and it
// injects write and fsync failures.
type faultSegment struct {
	file

	mu        sync.Mutex
	writeErr  error // returned by every WriteAt once set
	short     int   // with writeErr: bytes of the frame written before failing
	syncErr   error // returned by every Sync once set
	syncDelay time.Duration
	writes    uint64            // frames written: the last frame's ticket
	tickets   map[string]uint64 // user -> ticket of their latest record
	covered   []uint64          // per completed fsync: the tickets it covered
	syncCalls int
}

// injectSegment installs fs over the store's active segment. Use with a
// CompactEvery large enough that no rotation replaces it.
func injectSegment(s *Store, fs *faultSegment) {
	s.j.mu.Lock()
	defer s.j.mu.Unlock()
	fs.file = s.j.f
	fs.tickets = make(map[string]uint64)
	s.j.f = fs
}

func (fs *faultSegment) WriteAt(p []byte, off int64) (int, error) {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	if fs.writeErr != nil {
		n, _ := fs.file.WriteAt(p[:fs.short], off)
		return n, fs.writeErr
	}
	n, err := fs.file.WriteAt(p, off)
	if err != nil {
		return n, err
	}
	rec, _, derr := decodeRecord(p)
	if derr != nil {
		return n, derr
	}
	fs.writes++
	fs.tickets[rec.user] = fs.writes
	return n, nil
}

func (fs *faultSegment) Sync() error {
	fs.mu.Lock()
	fs.syncCalls++
	start, err, delay := fs.writes, fs.syncErr, fs.syncDelay
	fs.mu.Unlock()
	if err != nil {
		return err
	}
	if err := fs.file.Sync(); err != nil {
		return err
	}
	time.Sleep(delay)
	fs.mu.Lock()
	fs.covered = append(fs.covered, start)
	fs.mu.Unlock()
	return nil
}

func (fs *faultSegment) set(writeErr error, short int, syncErr error) {
	fs.mu.Lock()
	fs.writeErr, fs.short, fs.syncErr = writeErr, short, syncErr
	fs.mu.Unlock()
}

// durable reports whether a completed fsync covers user's latest record.
func (fs *faultSegment) durable(user string) bool {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	t, ok := fs.tickets[user]
	if !ok {
		return false
	}
	for _, c := range fs.covered {
		if c >= t {
			return true
		}
	}
	return false
}

func (fs *faultSegment) counts() (writes uint64, syncs int) {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	return fs.writes, len(fs.covered)
}

// durableCfg is a journaled store config that never compacts on its own, so
// an injected segment stays in place.
func durableCfg(t *testing.T, limit float64, clock *fakeClock) Config {
	return Config{Limit: limit, Window: time.Hour, Clock: clock.Now, Dir: t.TempDir(), CompactEvery: 1 << 30}
}

// TestJournalConcurrentStepsWaitForSync: concurrent Steps on distinct users
// each return only after a completed fsync covers their record's ticket,
// and each step writes exactly one record however many operations it ran.
func TestJournalConcurrentStepsWaitForSync(t *testing.T) {
	s := mustOpen(t, durableCfg(t, 100, newFakeClock()))
	fs := &faultSegment{syncDelay: 200 * time.Microsecond}
	injectSegment(s, fs)

	const workers, steps = 8, 25
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			user := fmt.Sprintf("u%d", w)
			for i := 0; i < steps; i++ {
				err := s.Step(user, func(tx *Tx) error {
					if err := tx.Spend(0.25); err != nil {
						return err
					}
					if err := tx.Spend(1); err != nil {
						return err
					}
					tx.SetMemo(geo.Point{X: float64(i), Y: float64(w)})
					return nil
				})
				if err != nil {
					errs <- err
					return
				}
				if !fs.durable(user) {
					errs <- fmt.Errorf("step %d of %s returned before an fsync covered its record", i, user)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if writes, _ := fs.counts(); writes != workers*steps {
		t.Fatalf("%d records for %d steps, want one per step", writes, workers*steps)
	}
	for w := 0; w < workers; w++ {
		if r := s.Remaining(fmt.Sprintf("u%d", w)); math.Abs(r-(100-steps*1.25)) > 1e-9 {
			t.Fatalf("u%d remaining %g, want %g", w, r, 100-steps*1.25)
		}
	}
}

// TestJournalConcurrentGroupCommit: with many writers and a slow fsync, one
// fsync covers several records, so fsyncs are fewer than records.
func TestJournalConcurrentGroupCommit(t *testing.T) {
	s := mustOpen(t, durableCfg(t, 100, newFakeClock()))
	fs := &faultSegment{syncDelay: 2 * time.Millisecond}
	injectSegment(s, fs)

	const workers, spends = 16, 5
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < spends; i++ {
				if err := s.Spend(fmt.Sprintf("u%d", w), 1); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	writes, syncs := fs.counts()
	if writes != workers*spends {
		t.Fatalf("%d records, want %d", writes, workers*spends)
	}
	if uint64(syncs) >= writes {
		t.Fatalf("%d fsyncs for %d records: group commit never shared an fsync", syncs, writes)
	}
	if js := s.Stats().Journal; js.Syncs != int64(syncs) || js.Records != int64(writes) {
		t.Fatalf("journal stats %d syncs / %d records, segment saw %d / %d", js.Syncs, js.Records, syncs, writes)
	}
	t.Logf("%d records, %d fsyncs", writes, syncs)
}

// TestJournalStepDenialWaitsForTestRecord: a predictive step whose test
// fails and whose report spend is then denied still spent epsTest. The
// denial is returned only after the one record carrying epsTest is durable.
func TestJournalStepDenialWaitsForTestRecord(t *testing.T) {
	const limit, eps, epsTest = 3.0, 2.0, 0.5
	clock := newFakeClock()
	cfg := durableCfg(t, limit, clock)
	s := mustOpen(t, cfg)
	if err := s.Spend("u", 1); err != nil {
		t.Fatal(err)
	}
	fs := &faultSegment{syncDelay: time.Millisecond}
	injectSegment(s, fs)

	err := s.Step("u", func(tx *Tx) error {
		if err := tx.Spend(epsTest); err != nil {
			return err
		}
		return tx.Spend(eps) // 1 + 0.5 + 2 > 3: denied
	})
	if !errors.Is(err, ErrBudgetExhausted) {
		t.Fatalf("step error %v, want ErrBudgetExhausted", err)
	}
	if !fs.durable("u") {
		t.Fatal("denial returned before the epsTest record was durable")
	}
	if writes, _ := fs.counts(); writes != 1 {
		t.Fatalf("%d records for the denied step, want 1", writes)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s2 := mustOpen(t, cfg)
	if r := s2.Remaining("u"); math.Abs(r-(limit-1-epsTest)) > 1e-12 {
		t.Fatalf("remaining after reopen %g, want %g (epsTest stays spent)", r, limit-1-epsTest)
	}
}

// TestJournalStepNetZero: an independent-mode step whose report fails
// refunds its whole charge, and writes at most one record, which leaves the
// journaled state unchanged.
func TestJournalStepNetZero(t *testing.T) {
	clock := newFakeClock()
	cfg := durableCfg(t, 5, clock)
	s := mustOpen(t, cfg)
	if err := s.Spend("u", 1); err != nil {
		t.Fatal(err)
	}
	fs := &faultSegment{}
	injectSegment(s, fs)

	errReport := errors.New("report failed")
	err := s.Step("u", func(tx *Tx) error {
		if err := tx.Spend(2); err != nil {
			return err
		}
		tx.Refund(2)
		return errReport
	})
	if !errors.Is(err, errReport) {
		t.Fatalf("step error %v, want the report error", err)
	}
	if writes, _ := fs.counts(); writes > 1 {
		t.Fatalf("%d records for a net-zero step, want at most 1", writes)
	}
	if r := s.Remaining("u"); r != 4 {
		t.Fatalf("remaining %g, want 4", r)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if r := mustOpen(t, cfg).Remaining("u"); r != 4 {
		t.Fatalf("remaining after reopen %g, want 4", r)
	}
}

// TestJournalStepCloseOpenExport: whatever mix of Steps and single
// mutations ran, Close then Open gives back an identical Export.
func TestJournalStepCloseOpenExport(t *testing.T) {
	clock := newFakeClock()
	cfg := Config{Limit: 10, Window: time.Hour, Clock: clock.Now, Dir: t.TempDir(), CompactEvery: 7}
	s := mustOpen(t, cfg)
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 30; i++ {
				user := fmt.Sprintf("u%d", (w+i)%6)
				switch i % 3 {
				case 0:
					_ = s.Step(user, func(tx *Tx) error {
						if err := tx.Spend(0.5); err != nil {
							return err
						}
						tx.SetMemo(geo.Point{X: float64(w), Y: float64(i)})
						return nil
					})
				case 1:
					_ = s.Spend(user, 0.25)
				default:
					_ = s.Refund(user, 0.1)
				}
			}
		}(w)
	}
	wg.Wait()
	before := sortedExport(s)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	after := sortedExport(mustOpen(t, cfg))
	if len(before) != len(after) {
		t.Fatalf("%d users before close, %d after open", len(before), len(after))
	}
	for i := range before {
		b, a := before[i], after[i]
		if b.User != a.User || b.Seq != a.Seq || b.Spent != a.Spent || !b.WindowStart.Equal(a.WindowStart) ||
			b.HasMemo != a.HasMemo || b.Memo != a.Memo {
			t.Fatalf("user %s: before %+v, after %+v", b.User, b, a)
		}
	}
}

func sortedExport(s *Store) []State {
	out := s.Export()
	sort.Slice(out, func(i, j int) bool { return out[i].User < out[j].User })
	return out
}

// TestJournalLongUserIDRejected: a user ID the journal cannot frame is
// refused by every mutation, so it never reaches memory, the journal or the
// next snapshot, and the store still reopens.
func TestJournalLongUserIDRejected(t *testing.T) {
	clock := newFakeClock()
	cfg := Config{Limit: 5, Window: time.Hour, Clock: clock.Now, Dir: t.TempDir()}
	s := mustOpen(t, cfg)
	long := string(make([]byte, MaxUserLen+1))
	checks := map[string]error{
		"Spend":   s.Spend(long, 1),
		"Refund":  s.Refund(long, 1),
		"Step":    s.Step(long, func(*Tx) error { return nil }),
		"Replace": s.Replace([]State{{User: long, WindowStart: clock.Now()}}),
		"empty":   s.Spend("", 1),
	}
	for name, err := range checks {
		if !errors.Is(err, ErrUserID) {
			t.Errorf("%s: error %v, want ErrUserID", name, err)
		}
	}
	if err := s.Spend(string(make([]byte, MaxUserLen)), 1); err != nil {
		t.Fatalf("user ID of exactly MaxUserLen bytes: %v", err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s2 := mustOpen(t, cfg)
	if n := s2.Users(); n != 1 {
		t.Fatalf("users after reopen %d, want 1", n)
	}
	if a := s2.Stats().Journal.Anomalies; a != 0 {
		t.Fatalf("anomalies after reopen %d, want 0", a)
	}
}

// faultCase opens a store, spends once durably, injects a fault, and
// returns the store, its config and the segment double.
func faultCase(t *testing.T) (*Store, Config, *faultSegment) {
	t.Helper()
	cfg := durableCfg(t, 5, newFakeClock())
	s, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Spend("a", 1); err != nil {
		t.Fatal(err)
	}
	fs := &faultSegment{}
	injectSegment(s, fs)
	return s, cfg, fs
}

// assertLatched checks deny-all after a journal fault: the failing spend
// stays charged in memory, later mutations are refused without touching
// memory, and Err/Stats report the failure.
func assertLatched(t *testing.T, s *Store, cause error) {
	t.Helper()
	err := s.Spend("b", 1)
	if !errors.Is(err, ErrJournalFailed) || !errors.Is(err, cause) {
		t.Fatalf("spend on a faulty journal: %v, want ErrJournalFailed wrapping %v", err, cause)
	}
	if r := s.Remaining("b"); r != 4 {
		t.Fatalf("remaining after the failed spend %g, want 4 (never refunded)", r)
	}
	if err := s.Spend("c", 1); !errors.Is(err, ErrJournalFailed) {
		t.Fatalf("spend after the latch: %v, want ErrJournalFailed", err)
	}
	if r := s.Remaining("c"); r != 5 {
		t.Fatalf("refused spend changed memory: remaining %g", r)
	}
	ran := false
	if err := s.Step("d", func(*Tx) error { ran = true; return nil }); !errors.Is(err, ErrJournalFailed) || ran {
		t.Fatalf("step after the latch: err %v, fn ran %v", err, ran)
	}
	if err := s.Refund("a", 1); !errors.Is(err, ErrJournalFailed) {
		t.Fatalf("refund after the latch: %v", err)
	}
	if err := s.Err(); !errors.Is(err, ErrJournalFailed) {
		t.Fatalf("Err() = %v", err)
	}
	if js := s.Stats().Journal; js.Error == "" || js.Failures == 0 {
		t.Fatalf("journal stats do not show the failure: %+v", js)
	}
	if err := s.Sync(); !errors.Is(err, ErrJournalFailed) {
		t.Fatalf("Sync on a failed journal: %v", err)
	}
	if err := s.Compact(); !errors.Is(err, ErrJournalFailed) {
		t.Fatalf("Compact on a failed journal: %v", err)
	}
	if err := s.Close(); !errors.Is(err, ErrJournalFailed) {
		t.Fatalf("Close on a failed journal: %v", err)
	}
}

func TestJournalFaultENOSPC(t *testing.T) {
	s, cfg, fs := faultCase(t)
	fs.set(syscall.ENOSPC, 0, nil)
	assertLatched(t, s, syscall.ENOSPC)
	s2 := mustOpen(t, cfg)
	if r := s2.Remaining("a"); r != 4 {
		t.Fatalf("durable spend lost: remaining %g, want 4", r)
	}
	if r := s2.Remaining("b"); r != 5 {
		t.Fatalf("unwritten spend replayed: remaining %g, want 5", r)
	}
}

// TestJournalFaultShortWrite: a write that lands part of a frame latches,
// and the reopen truncates the torn tail it left.
func TestJournalFaultShortWrite(t *testing.T) {
	s, cfg, fs := faultCase(t)
	fs.set(io.ErrShortWrite, 10, nil)
	assertLatched(t, s, io.ErrShortWrite)
	s2 := mustOpen(t, cfg)
	if r := s2.Remaining("a"); r != 4 {
		t.Fatalf("durable spend lost: remaining %g, want 4", r)
	}
	if a := s2.Stats().Journal.Anomalies; a != 1 {
		t.Fatalf("anomalies after reopen %d, want 1 (the torn tail)", a)
	}
}

// TestJournalFaultSyncEIO: a failed fsync latches, and the journal never
// calls fsync on that descriptor again, not from Sync, Compact or Close.
func TestJournalFaultSyncEIO(t *testing.T) {
	s, cfg, fs := faultCase(t)
	fs.set(nil, 0, syscall.EIO)
	assertLatched(t, s, syscall.EIO)
	fs.mu.Lock()
	calls := fs.syncCalls
	fs.mu.Unlock()
	if calls != 1 {
		t.Fatalf("%d fsync calls, want exactly 1 (no retry after EIO)", calls)
	}
	if r := mustOpen(t, cfg).Remaining("a"); r != 4 {
		t.Fatalf("durable spend lost: remaining %g, want 4", r)
	}
}

// TestJournalConcurrentStepSameUserSerialized: Steps for one user never
// overlap, so each sees the memo the previous one wrote.
func TestJournalConcurrentStepSameUserSerialized(t *testing.T) {
	s := mustOpen(t, durableCfg(t, 1000, newFakeClock()))
	const workers = 16
	var inside, overlaps int32
	var mu sync.Mutex
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			err := s.Step("u", func(tx *Tx) error {
				mu.Lock()
				inside++
				if inside > 1 {
					overlaps++
				}
				mu.Unlock()
				m, _ := tx.Memo()
				time.Sleep(time.Millisecond) // a report between read and write
				tx.SetMemo(geo.Point{X: m.X + 1})
				mu.Lock()
				inside--
				mu.Unlock()
				return nil
			})
			if err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
	if overlaps != 0 {
		t.Fatalf("%d Steps for one user overlapped", overlaps)
	}
	if m, _ := s.Memo("u"); m.X != workers {
		t.Fatalf("memo counter %g after %d serialized steps, want %d", m.X, workers, workers)
	}
}

// TestJournalConcurrentStepOtherUserNotBlocked: a Step blocked inside fn
// (a cold channel solve) holds up only its own user.
func TestJournalConcurrentStepOtherUserNotBlocked(t *testing.T) {
	s := mustOpen(t, durableCfg(t, 10, newFakeClock()))
	release, entered := make(chan struct{}), make(chan struct{})
	done := make(chan error, 1)
	go func() {
		done <- s.Step("slow", func(tx *Tx) error {
			if err := tx.Spend(1); err != nil {
				return err
			}
			close(entered)
			<-release
			return nil
		})
	}()
	<-entered
	for i := 0; i < 64; i++ { // many users: some share the slow user's shard
		user := fmt.Sprintf("other%d", i)
		if err := s.Step(user, func(tx *Tx) error { return tx.Spend(1) }); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Spend("slow", 1); err != nil {
		t.Fatalf("plain Spend for the stepping user blocked or failed: %v", err)
	}
	close(release)
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if r := s.Remaining("slow"); r != 8 {
		t.Fatalf("slow user remaining %g, want 8", r)
	}
}
