package session

import (
	"os"
	"path/filepath"
	"testing"
	"time"

	"geoind/internal/geo"
)

// testdata/v1 is a ledger directory written by the version-1 journal with
// Limit 10, Window 24h and every clock reading at v1Clock: a snapshot
// (alice with a memo, bob, erin), a rotated segment sessions.wal.old (alice,
// carol, a refund to bob) and an active segment sessions.wal (dave and
// alice with memos, carol), left as a compaction that died between rotation
// and snapshot would leave them.
var v1Users = map[string]struct {
	remaining float64
	memo      *geo.Point
}{
	"alice": {8.25, &geo.Point{X: 5, Y: 6}},
	"bob":   {8, nil},
	"carol": {8.25, nil},
	"dave":  {6, &geo.Point{X: -3.5, Y: 7.25}},
	"erin":  {8, nil},
}

func v1Clock() time.Time { return time.Date(2026, 8, 8, 0, 0, 0, 0, time.UTC) }

// copyV1 copies testdata/v1 into dir.
func copyV1(t *testing.T, dir string) {
	t.Helper()
	for _, name := range []string{snapName, walOldName, walName} {
		data, err := os.ReadFile(filepath.Join("testdata", "v1", name))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, name), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

// TestJournalOpensV1Layout: a version-1 directory replays exactly, is
// converted to the two-segment, two-slot layout with the old files gone,
// and the converted directory replays exactly again.
func TestJournalOpensV1Layout(t *testing.T) {
	cfg := Config{Limit: 10, Window: 24 * time.Hour, Clock: v1Clock, Dir: t.TempDir()}
	copyV1(t, cfg.Dir)
	check := func(s *Store) {
		t.Helper()
		if n := s.Users(); n != len(v1Users) {
			t.Fatalf("%d users, want %d", n, len(v1Users))
		}
		for u, want := range v1Users {
			if r := s.Remaining(u); r != want.remaining {
				t.Errorf("%s remaining %g, want %g", u, r, want.remaining)
			}
			m, ok := s.Memo(u)
			if ok != (want.memo != nil) || (ok && m != *want.memo) {
				t.Errorf("%s memo %v/%v, want %v", u, m, ok, want.memo)
			}
		}
	}
	s, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	check(s)
	assertJournalFiles(t, cfg.Dir)
	if err := s.Spend("bob", 1); err != nil {
		t.Fatal(err)
	}
	if err := s.Refund("bob", 1); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s2 := mustOpen(t, cfg)
	check(s2)
	assertJournalFiles(t, cfg.Dir)
}
