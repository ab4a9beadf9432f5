package session

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
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

// fs is the real file system with l as its directory fsync.
func (l *dirSyncLog) fs() fsys {
	fs := osFS
	fs.syncDir = l.sync
	return fs
}

// TestJournalDirSyncPoints: the directory is fsynced once, when Open has
// created all four journal files and before anything is written to them,
// and never again: not by compactions, Close, or an Open that creates
// nothing.
func TestJournalDirSyncPoints(t *testing.T) {
	clock := newFakeClock()
	cfg := Config{Limit: 100, Window: time.Hour, Clock: clock.Now, Dir: t.TempDir(), CompactEvery: 7}

	log := &dirSyncLog{t: t, check: func(_ int, dir string) error {
		for _, name := range []string{segName(0), segName(1), slotName(0), slotName(1)} {
			if n, err := fileSize(dir, name); err != nil || n != 0 {
				return fmt.Errorf("at open: %s size %d (%v), want an empty file", name, n, err)
			}
		}
		return nil
	}}
	s, err := open(cfg, log.fs())
	if err != nil {
		t.Fatal(err)
	}
	if log.count() != 1 {
		t.Fatalf("%d directory fsyncs opening a fresh journal, want 1", log.count())
	}
	for round := 1; round <= 2; round++ {
		for i := 0; i < cfg.CompactEvery; i++ {
			if err := s.Spend(fmt.Sprintf("u%d-%d", round, i), 1); err != nil {
				t.Fatal(err)
			}
		}
		s.j.wg.Wait()
		if c := s.Stats().Journal.Compactions; c != int64(1+round) {
			t.Fatalf("after round %d: %d compactions, want %d", round, c, 1+round)
		}
		if got := log.count(); got != 1 {
			t.Fatalf("after compaction %d: %d directory fsyncs, want 1", round, got)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s2, err := open(cfg, log.fs())
	if err != nil {
		t.Fatal(err)
	}
	if err := s2.Close(); err != nil {
		t.Fatal(err)
	}
	if got := log.count(); got != 1 {
		t.Fatalf("after Close and a reopen: %d directory fsyncs, want 1", got)
	}
}

// TestJournalDirSyncFailureLatches: a failed directory fsync after Open
// created the journal's files latches the journal being opened, so Open
// returns ErrJournalFailed wrapping EIO before anything depends on those
// entries. The next Open fsyncs the directory again, though it creates
// nothing, and keeps every spend durable before the failure, in a fresh
// directory and in one migrating from the version-1 layout.
func TestJournalDirSyncFailureLatches(t *testing.T) {
	for _, tc := range []struct {
		name string
		v1   bool
	}{{"fresh", false}, {"v1", true}} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := Config{Limit: 10, Window: 24 * time.Hour, Clock: v1Clock, Dir: t.TempDir()}
			if tc.v1 {
				copyV1(t, cfg.Dir)
			}
			log := &dirSyncLog{t: t, fail: 1}
			if _, err := open(cfg, log.fs()); !errors.Is(err, ErrJournalFailed) || !errors.Is(err, syscall.EIO) {
				t.Fatalf("open with a failing directory fsync: %v, want ErrJournalFailed wrapping EIO", err)
			}
			retry := &dirSyncLog{t: t}
			s, err := open(cfg, retry.fs())
			if err != nil {
				t.Fatal(err)
			}
			if retry.count() != 1 {
				t.Fatalf("reopen after the failure: %d directory fsyncs, want 1", retry.count())
			}
			want := 10.0
			if tc.v1 {
				want = v1Users["carol"].remaining
			}
			if r := s.Remaining("carol"); r != want {
				t.Fatalf("remaining %g, want %g", r, want)
			}
			if err := s.Close(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

func fileSize(dir, name string) (int64, error) {
	info, err := os.Stat(filepath.Join(dir, name))
	if err != nil {
		return 0, err
	}
	return info.Size(), nil
}
