package session

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"slices"
	"testing"
	"time"

	"geoind/internal/geo"
)

func TestJournalReplayRoundTrip(t *testing.T) {
	dir := t.TempDir()
	clock := newFakeClock()
	cfg := Config{Limit: 5, Window: time.Hour, Clock: clock.Now, Dir: dir}

	s := mustOpen(t, cfg)
	if err := s.Spend("alice", 1.5); err != nil {
		t.Fatal(err)
	}
	if err := s.Spend("bob", 0.25); err != nil {
		t.Fatal(err)
	}
	s.Refund("bob", 0.25)
	setMemo(s, "alice", geo.Point{X: 4, Y: -2})
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s2 := mustOpen(t, cfg)
	if r := s2.Remaining("alice"); math.Abs(r-3.5) > 1e-12 {
		t.Fatalf("alice remaining after replay = %g, want 3.5", r)
	}
	if r := s2.Remaining("bob"); r != 5 {
		t.Fatalf("bob remaining after replay = %g, want 5", r)
	}
	if m, ok := s2.Memo("alice"); !ok || (m != geo.Point{X: 4, Y: -2}) {
		t.Fatalf("alice memo after replay = %v/%v", m, ok)
	}
	st := s2.Stats()
	if st.Journal == nil || st.Journal.Replayed == 0 {
		t.Fatalf("journal stats after replay = %+v", st.Journal)
	}
}

// TestJournalReplayWithoutClose simulates a crash: the first store is never
// closed (no final compaction), so recovery runs purely off the snapshot
// written at open plus the record-by-record journal.
func TestJournalReplayWithoutClose(t *testing.T) {
	dir := t.TempDir()
	clock := newFakeClock()
	cfg := Config{Limit: 5, Window: time.Hour, Clock: clock.Now, Dir: dir}

	s, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if err := s.Spend("u", 0.4); err != nil {
			t.Fatal(err)
		}
	}
	setMemo(s, "u", geo.Point{X: 1, Y: 1})
	// Abandon s without Close: SyncEvery=1 means every record hit disk.

	s2 := mustOpen(t, cfg)
	if r := s2.Remaining("u"); math.Abs(r-1.0) > 1e-12 {
		t.Fatalf("remaining after crash replay = %g, want 1.0", r)
	}
	// The replayed user must not be able to over-spend.
	if err := s2.Spend("u", 1.5); err != ErrBudgetExhausted {
		t.Fatalf("over-spend after replay: got %v, want ErrBudgetExhausted", err)
	}
	_ = s.j.close()
}

// TestJournalTornTail appends garbage and a truncated record to the segment
// and verifies replay keeps everything before the tear, truncates the rest,
// and counts the anomaly.
func TestJournalTornTail(t *testing.T) {
	dir := t.TempDir()
	cfg := Config{Limit: 5, Window: time.Hour, Dir: dir}
	s, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Spend("u", 2); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	// Close wrote a snapshot and an empty segment; tear the *snapshotted*
	// state path by instead appending a half record to the fresh segment:
	// write a full valid record followed by a truncated copy of it.
	rec, err := encodeRecord(record{at: 1, seq: 99, user: "u", spent: 4, windowStart: time.Now().UnixNano()})
	if err != nil {
		t.Fatal(err)
	}
	walPath := segPath(s, true)
	f, err := os.OpenFile(walPath, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write(rec); err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write(rec[:len(rec)-5]); err != nil {
		t.Fatal(err)
	}
	f.Close()

	s2 := mustOpen(t, cfg)
	// The full record (seq 99, spent 4) wins over the snapshot; the torn
	// copy is dropped.
	if r := s2.Remaining("u"); r != 1 {
		t.Fatalf("remaining = %g, want 1 (absolute record applied once)", r)
	}
	if st := s2.Stats(); st.Journal.Anomalies == 0 {
		t.Fatal("torn tail not counted as an anomaly")
	}
}

// TestJournalTornHeaderRecovers simulates a crash while the spare segment's
// header was being written: a segment shorter than its header must be
// recovered like a torn tail (re-headed, anomaly counted), not treated as
// positive corruption that refuses to open.
func TestJournalTornHeaderRecovers(t *testing.T) {
	dir := t.TempDir()
	cfg := Config{Limit: 5, Window: time.Hour, Dir: dir}
	s, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Spend("u", 2); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	// Close compacted: the state lives in the snapshot and the spare
	// segment holds nothing but its header. Tear that header short.
	walPath := segPath(s, false)
	if err := os.Truncate(walPath, int64(walHeaderLen/2)); err != nil {
		t.Fatal(err)
	}

	s2 := mustOpen(t, cfg)
	if r := s2.Remaining("u"); r != 3 {
		t.Fatalf("remaining after torn-header recovery = %g, want 3", r)
	}
	if st := s2.Stats(); st.Journal.Anomalies == 0 {
		t.Fatal("torn header not counted as an anomaly")
	}
	// The recovered store must be fully writable again.
	if err := s2.Spend("u", 1); err != nil {
		t.Fatal(err)
	}
	if err := s2.Close(); err != nil {
		t.Fatal(err)
	}
	s3 := mustOpen(t, cfg)
	if r := s3.Remaining("u"); r != 2 {
		t.Fatalf("remaining after recovery round trip = %g, want 2", r)
	}
}

// TestJournalCorruptHeaderWithRecordsFails: a broken header on a segment
// that does contain records is positive corruption, not a torn creation —
// replaying records framed by an unverified header could mis-account spend.
func TestJournalCorruptHeaderWithRecordsFails(t *testing.T) {
	dir := t.TempDir()
	cfg := Config{Limit: 5, Window: time.Hour, Dir: dir}
	s, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Spend("u", 1); err != nil {
		t.Fatal(err)
	}
	_ = s.j.close() // keep the record in the segment (no compaction)

	walPath := segPath(s, true)
	data, err := os.ReadFile(walPath)
	if err != nil {
		t.Fatal(err)
	}
	data[5] ^= 0xFF // corrupt the header, records follow
	if err := os.WriteFile(walPath, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(cfg); !errors.Is(err, ErrJournal) {
		t.Fatalf("open over corrupt header with records: got %v, want ErrJournal", err)
	}
}

// TestJournalCountsDroppedAppends: once the journal has no writable segment
// (here: a closed store), mutations keep being admitted in memory but every
// dropped record must surface in the failures counter.
func TestJournalCountsDroppedAppends(t *testing.T) {
	dir := t.TempDir()
	cfg := Config{Limit: 5, Window: time.Hour, Dir: dir}
	s, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if err := s.Spend("u", 1); err != nil {
		t.Fatal(err)
	}
	s.Refund("u", 0.5)
	if f := s.Stats().Journal.Failures; f != 2 {
		t.Fatalf("failures after 2 unjournalable mutations = %d, want 2", f)
	}
}

// TestJournalReplaceCompacts: Replace on a durable store must not let a
// restart resurrect users absent from the import — the journal has no
// tombstones, so Replace has to publish a fresh snapshot synchronously.
func TestJournalReplaceCompacts(t *testing.T) {
	dir := t.TempDir()
	clock := newFakeClock()
	cfg := Config{Limit: 5, Window: time.Hour, Clock: clock.Now, Dir: dir}
	s, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Spend("old", 4); err != nil {
		t.Fatal(err)
	}
	if err := s.Replace([]State{{User: "new", Spent: 1, WindowStart: clock.Now()}}); err != nil {
		t.Fatal(err)
	}
	// Abandon without Close, as a crash would: the synchronous compaction
	// inside Replace is all the durability the import gets.
	_ = s.j.close()

	s2 := mustOpen(t, cfg)
	if r := s2.Remaining("new"); math.Abs(r-4) > 1e-12 {
		t.Fatalf("imported user remaining = %g, want 4", r)
	}
	if r := s2.Remaining("old"); r != 5 {
		t.Fatalf("replaced user resurrected: remaining = %g, want 5", r)
	}
	if n := s2.Users(); n != 1 {
		t.Fatalf("users after replayed import = %d, want 1 (old entry replaced)", n)
	}
}

// TestJournalCorruptRecordFails verifies that a bit flip in the middle of a
// segment (not a torn tail) refuses to open: serving from damaged budget
// history could let users over-spend.
func TestJournalCorruptRecordFails(t *testing.T) {
	dir := t.TempDir()
	cfg := Config{Limit: 5, Window: time.Hour, Dir: dir}
	s, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Spend("u", 1); err != nil {
		t.Fatal(err)
	}
	if err := s.Spend("u", 1); err != nil {
		t.Fatal(err)
	}
	_ = s.j.close() // leave the records in the segment (no compaction)

	walPath := segPath(s, true)
	data, err := os.ReadFile(walPath)
	if err != nil {
		t.Fatal(err)
	}
	data[walHeaderLen+10] ^= 0xFF // flip a bit inside the first record body
	if err := os.WriteFile(walPath, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(cfg); !errors.Is(err, ErrJournal) {
		t.Fatalf("open over corrupt record: got %v, want ErrJournal", err)
	}
}

// TestJournalLostSnapshotFails: when the newest snapshot slot is damaged
// after the segment it covered was recycled, the older slot no longer
// matches the segments on disk, and Open refuses rather than forget the
// spends only the lost snapshot held.
func TestJournalLostSnapshotFails(t *testing.T) {
	dir := t.TempDir()
	cfg := Config{Limit: 5, Window: time.Hour, Dir: dir}
	s, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Spend("u", 1); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	newest := 0
	if s.j.slotGen[1] > s.j.slotGen[0] {
		newest = 1
	}
	path := filepath.Join(dir, slotName(newest))
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0xFF
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(cfg); !errors.Is(err, ErrJournal) {
		t.Fatalf("open with the newest snapshot lost: got %v, want ErrJournal", err)
	}
}

// TestJournalCorruptLengthFails: a bit flip that lengthens an acknowledged
// frame over the acknowledged frame after it, to past the last nonzero
// byte, is corruption, not a torn tail that would forget that spend.
func TestJournalCorruptLengthFails(t *testing.T) {
	dir := t.TempDir()
	cfg := Config{Limit: 5, Window: time.Hour, Dir: dir}
	s, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if err := s.Spend("u", 1); err != nil {
			t.Fatal(err)
		}
	}
	_ = s.j.close() // leave the records in the segment (no compaction)

	walPath := segPath(s, true)
	data, err := os.ReadFile(walPath)
	if err != nil {
		t.Fatal(err)
	}
	frame := 4 + recordFixed + 1 + 4 // user "u"
	data[walHeaderLen+frame] ^= 0x40 // the second frame's length grows by 64 bytes
	if err := os.WriteFile(walPath, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(cfg); !errors.Is(err, ErrJournal) {
		t.Fatalf("open over a corrupt record length: got %v, want ErrJournal", err)
	}
}

func TestJournalConfigMismatch(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(Config{Limit: 5, Window: time.Hour, Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Spend("u", 1); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(Config{Limit: 9, Window: time.Hour, Dir: dir}); err == nil {
		t.Fatal("limit mismatch accepted")
	}
	if _, err := Open(Config{Limit: 5, Window: 2 * time.Hour, Dir: dir}); err == nil {
		t.Fatal("window mismatch accepted")
	}
}

// TestJournalCompaction drives enough records through a tiny CompactEvery to
// force several compactions, then replays and checks exact state.
func TestJournalCompaction(t *testing.T) {
	dir := t.TempDir()
	clock := newFakeClock()
	cfg := Config{Limit: 1000, Window: time.Hour, Clock: clock.Now, Dir: dir, CompactEvery: 16, SyncEvery: 4}
	s, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]float64{}
	for i := 0; i < 400; i++ {
		u := fmt.Sprintf("u%d", i%7)
		if err := s.Spend(u, 0.5); err != nil {
			t.Fatal(err)
		}
		want[u] += 0.5
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	st := s.Stats()
	if st.Journal.Compactions < 2 {
		t.Fatalf("compactions = %d, want >= 2 (open + size-triggered)", st.Journal.Compactions)
	}
	assertJournalFiles(t, dir)

	s2 := mustOpen(t, cfg)
	for u, spent := range want {
		if r := s2.Remaining(u); math.Abs(r-(1000-spent)) > 1e-9 {
			t.Fatalf("user %s remaining = %g, want %g", u, r, 1000-spent)
		}
	}
}

// TestJournalLeftoverRotatedSegment simulates a compaction that crashed
// between rotation and snapshot publication: both segments plus a stale
// snapshot must replay to the exact final state.
func TestJournalLeftoverRotatedSegment(t *testing.T) {
	dir := t.TempDir()
	cfg := Config{Limit: 100, Window: time.Hour, Dir: dir}
	s, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Spend("u", 10); err != nil { // goes to the active segment
		t.Fatal(err)
	}
	// Rotate without snapshotting, as if compaction died right after the
	// switch to the spare.
	if err := s.j.rotate(); err != nil {
		t.Fatal(err)
	}
	s.Spend("u", 5) // lands in the fresh segment
	_ = s.j.close()

	s2 := mustOpen(t, cfg)
	if r := s2.Remaining("u"); math.Abs(r-85) > 1e-9 {
		t.Fatalf("remaining = %g, want 85 (10 from rotated + 5 from active)", r)
	}
	// Open's compaction must have retired the leftover: the segment that
	// is not active is an all-zero spare one generation ahead.
	data, err := os.ReadFile(segPath(s2, false))
	if err != nil {
		t.Fatal(err)
	}
	gen, err := checkWALHeader(data, JournalVersion, cfg.Limit, cfg.Window)
	if err != nil || gen != s2.j.segs[s2.j.act].gen+1 || lastNonzero(data) > walHeaderLen {
		t.Fatalf("leftover rotated segment survived open: generation %d (%v), active %d, %d bytes up to the last nonzero",
			gen, err, s2.j.segs[s2.j.act].gen, lastNonzero(data))
	}
}

// TestJournalOwnership: non-owned users are served but never journaled.
func TestJournalOwnership(t *testing.T) {
	dir := t.TempDir()
	cfg := Config{Limit: 5, Window: time.Hour, Dir: dir,
		Owns: func(u string) bool { return u == "mine" }}
	s, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Spend("mine", 2); err != nil {
		t.Fatal(err)
	}
	if err := s.Spend("theirs", 3); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s2 := mustOpen(t, cfg)
	if r := s2.Remaining("mine"); r != 3 {
		t.Fatalf("owned user remaining = %g, want 3", r)
	}
	if r := s2.Remaining("theirs"); r != 5 {
		t.Fatalf("non-owned user remaining = %g, want 5 (never journaled)", r)
	}
}

// segPath returns the path of s's active segment, or of the other one.
func segPath(s *Store, active bool) string {
	i := s.j.act
	if !active {
		i = 1 - i
	}
	return filepath.Join(s.j.dir, segName(i))
}

// assertJournalFiles checks that dir holds the journal's four files and
// nothing else.
func assertJournalFiles(t *testing.T, dir string) {
	t.Helper()
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, e := range ents {
		names = append(names, e.Name())
	}
	want := []string{slotName(0), slotName(1), segName(0), segName(1)}
	if !slices.Equal(names, want) {
		t.Fatalf("journal directory holds %v, want %v", names, want)
	}
}

func TestRecordCodecRoundTrip(t *testing.T) {
	recs := []record{
		{at: 123, seq: 1, user: "u", spent: 0.5, windowStart: 456, hasMemo: false},
		{at: -1, seq: 1 << 60, user: "user-with-a-longer-id", spent: 1e-9,
			windowStart: time.Now().UnixNano(), hasMemo: true, memoX: -3.25, memoY: 7.5},
	}
	for _, rec := range recs {
		frame, err := encodeRecord(rec)
		if err != nil {
			t.Fatal(err)
		}
		got, n, err := decodeRecord(frame)
		if err != nil {
			t.Fatal(err)
		}
		if n != len(frame) || got != rec {
			t.Fatalf("round trip: got %+v (%d bytes), want %+v (%d)", got, n, rec, len(frame))
		}
		// Decoding with trailing bytes consumes exactly one record.
		if _, n2, err := decodeRecord(append(bytes.Clone(frame), 0xAA)); err != nil || n2 != len(frame) {
			t.Fatalf("decode with trailing bytes: n=%d err=%v", n2, err)
		}
	}
	if _, err := encodeRecord(record{user: ""}); err == nil {
		t.Error("empty user encoded")
	}
	if _, err := encodeRecord(record{user: string(make([]byte, MaxUserLen+1))}); err == nil {
		t.Error("oversized user encoded")
	}
}

func TestSnapshotCodecRoundTrip(t *testing.T) {
	states := []State{
		{User: "a", Seq: 5, Spent: 1.5, WindowStart: time.Unix(0, 12345), HasMemo: true, Memo: geo.Point{X: 1, Y: 2}},
		{User: "b", Seq: 9, Spent: 0, WindowStart: time.Unix(0, 999)},
	}
	data := encodeSnapshot(3, time.Hour, states)
	got, err := decodeSnapshot(data, 3, time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(states) {
		t.Fatalf("decoded %d states, want %d", len(got), len(states))
	}
	for i := range states {
		if !got[i].WindowStart.Equal(states[i].WindowStart) {
			t.Fatalf("state %d window start %v != %v", i, got[i].WindowStart, states[i].WindowStart)
		}
		got[i].WindowStart = states[i].WindowStart
		if got[i] != states[i] {
			t.Fatalf("state %d = %+v, want %+v", i, got[i], states[i])
		}
	}
	// Corruption anywhere must fail the checksum.
	bad := bytes.Clone(data)
	bad[len(bad)/2] ^= 1
	if _, err := decodeSnapshot(bad, 3, time.Hour); !errors.Is(err, ErrJournal) {
		t.Fatalf("corrupt snapshot: got %v", err)
	}
	if _, err := decodeSnapshot(data, 4, time.Hour); err == nil {
		t.Fatal("limit mismatch accepted")
	}
}

// FuzzJournalRecord fuzzes the record codec: arbitrary bytes must never
// panic, and any successfully decoded record must re-encode to exactly the
// bytes consumed (canonical framing).
func FuzzJournalRecord(f *testing.F) {
	seed, _ := encodeRecord(record{at: 1, seq: 2, user: "seed", spent: 0.5,
		windowStart: 3, hasMemo: true, memoX: 1, memoY: 2})
	f.Add(seed)
	f.Add([]byte{})
	f.Add([]byte{0xFF, 0xFF, 0xFF, 0xFF})
	f.Add(seed[:len(seed)-3])
	f.Fuzz(func(t *testing.T, data []byte) {
		rec, n, err := decodeRecord(data)
		if err != nil {
			return
		}
		if n <= 0 || n > len(data) {
			t.Fatalf("decoded %d bytes from %d", n, len(data))
		}
		re, err := encodeRecord(rec)
		if err != nil {
			t.Fatalf("re-encode of decoded record failed: %v", err)
		}
		if !bytes.Equal(re, data[:n]) {
			t.Fatalf("non-canonical framing: %x != %x", re, data[:n])
		}
	})
}

// FuzzSessionSnapshot fuzzes the snapshot codec for panics and for
// round-trip stability of valid decodes.
func FuzzSessionSnapshot(f *testing.F) {
	f.Add(encodeSnapshot(3, time.Hour, []State{{User: "s", Seq: 1, Spent: 1, WindowStart: time.Unix(0, 7)}}))
	f.Add([]byte("GISS"))
	f.Fuzz(func(t *testing.T, data []byte) {
		states, err := decodeSnapshot(data, 3, time.Hour)
		if err != nil {
			return
		}
		for _, st := range states {
			// UnixNano is undefined outside ~[1678, 2262]; a crafted
			// timestamp there decodes fine but cannot re-encode bit-exactly.
			if !st.WindowStart.Equal(time.Unix(0, st.WindowStart.UnixNano())) {
				return
			}
		}
		re := encodeSnapshot(3, time.Hour, states)
		if !bytes.Equal(re, data) {
			t.Fatalf("non-canonical snapshot: %d vs %d bytes", len(re), len(data))
		}
	})
}
