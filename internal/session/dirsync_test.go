package session

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"syscall"
	"testing"
	"time"
)

// dirSyncLog stands in for the journal's directory fsync. It checks the
// on-disk state each call is meant to make durable, then really fsyncs.
type dirSyncLog struct {
	t     *testing.T
	mu    sync.Mutex
	calls int
	check func(call int, dir string) error // nil: no check
	fail  int                              // 1-based call to fail with EIO; 0: none
}

func (l *dirSyncLog) sync(dir string) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.calls++
	if l.check != nil {
		if err := l.check(l.calls, dir); err != nil {
			l.t.Errorf("directory fsync %d: %v", l.calls, err)
		}
	}
	if l.calls == l.fail {
		return syscall.EIO
	}
	return fsyncDir(dir)
}

func (l *dirSyncLog) count() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.calls
}

func fileSize(dir, name string) (int64, error) {
	info, err := os.Stat(filepath.Join(dir, name))
	if err != nil {
		return 0, err
	}
	return info.Size(), nil
}

// TestJournalDirSyncPoints: the directory is fsynced after a fresh segment
// is created at open, after every rotation (the old segment renamed aside,
// the fresh one created, nothing appended to it yet) and after every
// snapshot publication (while the rotated segment it replaces still
// exists).
func TestJournalDirSyncPoints(t *testing.T) {
	clock := newFakeClock()
	cfg := Config{Limit: 100, Window: time.Hour, Clock: clock.Now, Dir: t.TempDir(), CompactEvery: 7}

	open := &dirSyncLog{t: t, check: func(_ int, dir string) error {
		if n, err := fileSize(dir, walName); err != nil || n != walHeaderLen {
			return fmt.Errorf("at open: %s size %d (%v), want a bare header", walName, n, err)
		}
		return nil
	}}
	j, _, err := openJournal(cfg, open.sync)
	if err != nil {
		t.Fatal(err)
	}
	if err := j.close(); err != nil {
		t.Fatal(err)
	}
	if open.count() != 1 {
		t.Fatalf("%d directory fsyncs opening a fresh journal, want 1", open.count())
	}

	s, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var spent atomic.Int64 // users spent so far; bumped before each Spend
	log := &dirSyncLog{t: t, check: func(call int, dir string) error {
		if _, err := os.Stat(filepath.Join(dir, walOldName)); err != nil {
			return fmt.Errorf("rotated segment missing: %v", err)
		}
		if call%2 == 1 { // rotation
			if n, err := fileSize(dir, walName); err != nil || n != walHeaderLen {
				return fmt.Errorf("after rotate: %s size %d (%v), want a bare header", walName, n, err)
			}
			return nil
		}
		data, err := os.ReadFile(filepath.Join(dir, snapName))
		if err != nil {
			return err
		}
		states, err := decodeSnapshot(data, cfg.Limit, cfg.Window)
		if err != nil {
			return err
		}
		if want := spent.Load(); int64(len(states)) != want {
			return fmt.Errorf("published snapshot holds %d users, want %d", len(states), want)
		}
		return nil
	}}
	s.j.syncDir = log.sync
	for round := 1; round <= 2; round++ {
		for i := 0; i < cfg.CompactEvery; i++ {
			if err := s.Spend(fmt.Sprintf("u%d", spent.Add(1)), 1); err != nil {
				t.Fatal(err)
			}
		}
		s.j.wg.Wait()
		if got := log.count(); got != 2*round {
			t.Fatalf("after compaction %d: %d directory fsyncs, want %d", round, got, 2*round)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if got := log.count(); got != 6 {
		t.Fatalf("after Close: %d directory fsyncs, want 6", got)
	}
}

// TestJournalDirSyncFailureLatches: a failed directory fsync, at rotation or
// after the snapshot rename, latches the store like a failed segment fsync,
// and nothing acknowledged before it is lost. A fresh journal whose
// directory cannot be fsynced does not open.
func TestJournalDirSyncFailureLatches(t *testing.T) {
	for _, tc := range []struct {
		name string
		fail int
	}{{"rotate", 1}, {"snapshot", 2}} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := durableCfg(t, 5, newFakeClock())
			s, err := Open(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if err := s.Spend("a", 1); err != nil {
				t.Fatal(err)
			}
			log := &dirSyncLog{t: t, fail: tc.fail}
			s.j.syncDir = log.sync
			if err := s.Compact(); !errors.Is(err, ErrJournalFailed) || !errors.Is(err, syscall.EIO) {
				t.Fatalf("compact with a failing directory fsync: %v, want ErrJournalFailed wrapping EIO", err)
			}
			if log.count() != tc.fail {
				t.Fatalf("%d directory fsyncs, want %d", log.count(), tc.fail)
			}
			if err := s.Spend("b", 1); !errors.Is(err, ErrJournalFailed) {
				t.Fatalf("spend after the latch: %v, want ErrJournalFailed", err)
			}
			if r := s.Remaining("b"); r != 5 {
				t.Fatalf("refused spend changed memory: remaining %g", r)
			}
			if err := s.Err(); !errors.Is(err, ErrJournalFailed) {
				t.Fatalf("Err() = %v", err)
			}
			if err := s.Close(); !errors.Is(err, ErrJournalFailed) {
				t.Fatalf("Close on a failed journal: %v", err)
			}
			if r := mustOpen(t, cfg).Remaining("a"); r != 4 {
				t.Fatalf("durable spend lost: remaining %g, want 4", r)
			}
		})
	}

	cfg := durableCfg(t, 5, newFakeClock())
	if _, _, err := openJournal(cfg, (&dirSyncLog{t: t, fail: 1}).sync); !errors.Is(err, syscall.EIO) {
		t.Fatalf("open with a failing directory fsync: %v, want EIO", err)
	}
}
