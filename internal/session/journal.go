// Journal: crash-safe durability for the session store, mirroring the
// versioned-framing + CRC idiom of internal/channel/persist.go ("GICH").
//
// Layout inside the directory:
//
//	sessions.wal      append-only segment of absolute-state records
//	sessions.wal.old  previous segment, present only between rotation and
//	                  snapshot publication during compaction
//	sessions.snap     snapshot of all user state at the last compaction
//
// Segment framing (all little-endian):
//
//	magic "GISJ" | version uint32 | limit float64 bits | window int64 ns |
//	crc32 uint32 of the preceding 20 bytes
//
// followed by records, each:
//
//	length uint32 | body | crc32 uint32 of body
//
// where body is op uint8 (1 = state) | at int64 | seq uint64 |
// userLen uint32 | user | spent float64 | windowStart int64 |
// hasMemo uint8 | memoX float64 | memoY float64.
//
// Records carry the user's *absolute* post-mutation state stamped with a
// store-wide sequence number; replay applies a record only when its seq is
// newer than what is already loaded. That makes replay idempotent and makes
// the snapshot/segment overlap produced by concurrent compaction
// commutative: snapshot, then sessions.wal.old, then sessions.wal can be
// applied in order at any crash point without double-counting or
// resurrecting stale state.
//
// Snapshot framing ("GISS"): magic | version uint32 | limit float64 bits |
// window int64 | count uint64 | per-user (seq uint64 | userLen uint32 |
// user | spent float64 | windowStart int64 | hasMemo uint8 | memoX |
// memoY) | crc32 uint32 of everything preceding. Snapshots are published
// with the temp-file + atomic-rename pattern of channel.DirCache.
//
// Group commit: append writes a record's frame under the journal mutex and
// returns a ticket, the count of records written so far. The caller drops
// every lock and then waits on the sync mutex, which serializes fsyncs. A
// waiter whose ticket the durable watermark already covers returns at once;
// otherwise it reads the highest written ticket, fsyncs and advances the
// watermark to that ticket, covering every waiter queued behind it. Frames
// reach the file in ticket order, so an fsync that starts after ticket t was
// written covers every record up to t. Memory may therefore show a mutation
// before its record is durable, but no caller is told "done" before it is.
//
// Fail closed: a failed write or fsync latches the journal. The mutation
// that hit it, and every later one, gets an error wrapping ErrJournalFailed,
// and the watermark never moves again. An fsync is never retried on the
// same descriptor (a failed fsync may already have dropped the dirty pages,
// so a later success would prove nothing). A restart replays what reached
// the disk.
//
// Compaction: (1) under the journal mutex, fsync and rotate sessions.wal to
// sessions.wal.old and start a fresh segment; (2) export the live store;
// (3) write the snapshot; (4) delete sessions.wal.old. A crash between any
// two steps is recovered by ordered seq-gated replay. A torn record at the
// tail of a segment (crash mid-append) ends that segment's replay and is
// truncated away; with SyncEvery=1 every acknowledged record was fsynced,
// so the torn tail holds only records nobody was told were durable. A
// segment no longer than its header whose header fails structural checks
// (crash between creation and the header write landing) is recovered the
// same way: truncated and re-headed, since no record can have followed it.
package session

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"geoind/internal/geo"
)

const (
	walMagic  = "GISJ"
	snapMagic = "GISS"
	// JournalVersion is bumped on any incompatible framing change.
	JournalVersion = 1
	// DefaultCompactEvery is the records-per-segment threshold that
	// triggers background compaction.
	DefaultCompactEvery = 4096

	opState uint8 = 1

	walName    = "sessions.wal"
	walOldName = "sessions.wal.old"
	snapName   = "sessions.snap"

	walHeaderLen = 4 + 4 + 8 + 8 + 4
	recordFixed  = 1 + 8 + 8 + 4 + 8 + 8 + 1 + 8 + 8 // body minus the user bytes
)

// MaxUserLen is the longest user ID, in bytes, the journal can frame. Store
// mutations reject longer (and empty) IDs with ErrUserID.
const MaxUserLen = 4096

var (
	// ErrJournal wraps any framing/CRC violation found while decoding.
	ErrJournal = errors.New("session: corrupt journal")
	// ErrJournalVersion marks a well-formed header with an unknown version.
	ErrJournalVersion = errors.New("session: unsupported journal version")
	// errTorn marks an incomplete record at the tail of a segment — the
	// expected shape of a crash mid-append, recovered by truncation.
	errTorn = errors.New("session: torn journal tail")
	// ErrJournalFailed marks a mutation that could not be made durable
	// because a journal write or fsync failed. The store latches on the
	// first one and refuses every later mutation with it until restart.
	ErrJournalFailed = errors.New("session: journal failed, store is read-only")
)

// segment is the active journal file as the append and sync paths use it.
// *os.File implements it; tests substitute fault-injecting doubles.
type segment interface {
	Write(p []byte) (int, error)
	Sync() error
	Close() error
}

// record is one absolute-state journal entry.
type record struct {
	at          int64 // clock reading at append time (unix ns)
	seq         uint64
	user        string
	spent       float64
	windowStart int64 // unix ns
	hasMemo     bool
	memoX       float64
	memoY       float64
}

type journal struct {
	dir          string
	limit        float64
	window       time.Duration
	syncEvery    int
	compactEvery int
	// syncDir fsyncs the journal directory (fsyncDir outside tests), so
	// that segment creations and renames survive power loss before any
	// acknowledgement depends on them.
	syncDir func(dir string) error

	// syncMu serializes fsyncs and everything that replaces or closes the
	// segment, so no fsync is in flight on a descriptor being closed. Lock
	// order: syncMu before mu; it is never taken under mu or a shard mutex.
	syncMu sync.Mutex
	// durable is the highest ticket an fsync has covered. It is written
	// under syncMu and read by append under mu.
	durable atomic.Uint64

	// mu guards the active segment. It is a leaf lock: the append path
	// acquires it while holding a shard mutex, so nothing acquired under mu
	// may ever wait on a shard. No fsync runs under it except compaction's
	// rotation and close, which also hold syncMu.
	mu         sync.Mutex
	f          segment
	segRecords int    // records in the active segment since last rotation
	written    uint64 // ticket of the last record written
	// err latches the first write or fsync failure (wraps
	// ErrJournalFailed). Once set, nothing is written or synced again.
	err error

	// compactMu serializes compactions (background and explicit).
	compactMu  sync.Mutex
	compacting atomic.Bool
	wg         sync.WaitGroup

	appended    atomic.Int64
	bytes       atomic.Int64
	syncs       atomic.Int64
	compactions atomic.Int64
	replayed    atomic.Int64
	anomalies   atomic.Int64
	failures    atomic.Int64
}

// JournalStats is a point-in-time snapshot of journal counters.
type JournalStats struct {
	// Records and Bytes count appends since the store was opened.
	Records int64 `json:"records"`
	Bytes   int64 `json:"bytes"`
	Syncs   int64 `json:"syncs"`
	// Compactions counts snapshot publications (including the one at open).
	Compactions int64 `json:"compactions"`
	// Replayed counts records applied during startup replay.
	Replayed int64 `json:"replayed"`
	// Anomalies counts torn tails, CRC failures and over-limit clamps seen
	// during replay. Nonzero after an unclean shutdown is expected (the torn
	// tail); growth during steady state is not.
	Anomalies int64 `json:"anomalies"`
	// Failures counts journal write and fsync failures (each latches the
	// store read-only), background compactions that errored (the records
	// stay in the segment, so nothing acknowledged is lost; the segment
	// keeps growing until a compaction succeeds), and mutations made after
	// Close, which are kept in memory but never journaled.
	Failures int64 `json:"failures"`
	// Error is the latched journal failure, empty while the journal is
	// healthy. Set, it means every mutation is refused until restart.
	Error string `json:"error,omitempty"`
}

func (j *journal) stats() *JournalStats {
	st := &JournalStats{
		Records:     j.appended.Load(),
		Bytes:       j.bytes.Load(),
		Syncs:       j.syncs.Load(),
		Compactions: j.compactions.Load(),
		Replayed:    j.replayed.Load(),
		Anomalies:   j.anomalies.Load(),
		Failures:    j.failures.Load(),
	}
	if err := j.failure(); err != nil {
		st.Error = err.Error()
	}
	return st
}

// ---- record codec ----

func appendUint32(b []byte, v uint32) []byte { return binary.LittleEndian.AppendUint32(b, v) }
func appendUint64(b []byte, v uint64) []byte { return binary.LittleEndian.AppendUint64(b, v) }
func appendFloat(b []byte, v float64) []byte {
	return binary.LittleEndian.AppendUint64(b, math.Float64bits(v))
}

// encodeRecord frames one record: length | body | crc32(body).
func encodeRecord(rec record) ([]byte, error) {
	if len(rec.user) == 0 || len(rec.user) > MaxUserLen {
		return nil, fmt.Errorf("%w: user ID length %d", ErrJournal, len(rec.user))
	}
	body := make([]byte, 0, recordFixed+len(rec.user))
	body = append(body, opState)
	body = appendUint64(body, uint64(rec.at))
	body = appendUint64(body, rec.seq)
	body = appendUint32(body, uint32(len(rec.user)))
	body = append(body, rec.user...)
	body = appendFloat(body, rec.spent)
	body = appendUint64(body, uint64(rec.windowStart))
	if rec.hasMemo {
		body = append(body, 1)
	} else {
		body = append(body, 0)
	}
	body = appendFloat(body, rec.memoX)
	body = appendFloat(body, rec.memoY)

	out := make([]byte, 0, 4+len(body)+4)
	out = appendUint32(out, uint32(len(body)))
	out = append(out, body...)
	out = appendUint32(out, crc32.ChecksumIEEE(body))
	return out, nil
}

// decodeRecord parses one framed record from the front of data, returning
// the bytes consumed. errTorn means data ends mid-record (valid crash
// tail); ErrJournal means the bytes are positively malformed.
func decodeRecord(data []byte) (record, int, error) {
	var rec record
	if len(data) < 4 {
		return rec, 0, errTorn
	}
	n := int(binary.LittleEndian.Uint32(data))
	if n < recordFixed || n > recordFixed+MaxUserLen {
		return rec, 0, fmt.Errorf("%w: record length %d", ErrJournal, n)
	}
	if len(data) < 4+n+4 {
		return rec, 0, errTorn
	}
	body := data[4 : 4+n]
	sum := binary.LittleEndian.Uint32(data[4+n:])
	if crc32.ChecksumIEEE(body) != sum {
		return rec, 0, fmt.Errorf("%w: record checksum mismatch", ErrJournal)
	}
	if body[0] != opState {
		return rec, 0, fmt.Errorf("%w: unknown op %d", ErrJournal, body[0])
	}
	rec.at = int64(binary.LittleEndian.Uint64(body[1:]))
	rec.seq = binary.LittleEndian.Uint64(body[9:])
	userLen := int(binary.LittleEndian.Uint32(body[17:]))
	if userLen == 0 || userLen > MaxUserLen || recordFixed+userLen != n {
		return rec, 0, fmt.Errorf("%w: user length %d in %d-byte record", ErrJournal, userLen, n)
	}
	p := 21
	rec.user = string(body[p : p+userLen])
	p += userLen
	rec.spent = math.Float64frombits(binary.LittleEndian.Uint64(body[p:]))
	rec.windowStart = int64(binary.LittleEndian.Uint64(body[p+8:]))
	rec.hasMemo = body[p+16] != 0
	rec.memoX = math.Float64frombits(binary.LittleEndian.Uint64(body[p+17:]))
	rec.memoY = math.Float64frombits(binary.LittleEndian.Uint64(body[p+25:]))
	return rec, 4 + n + 4, nil
}

// ---- segment header ----

func encodeWALHeader(limit float64, window time.Duration) []byte {
	b := make([]byte, 0, walHeaderLen)
	b = append(b, walMagic...)
	b = appendUint32(b, JournalVersion)
	b = appendFloat(b, limit)
	b = appendUint64(b, uint64(window))
	b = appendUint32(b, crc32.ChecksumIEEE(b))
	return b
}

func checkWALHeader(data []byte, limit float64, window time.Duration) error {
	if len(data) < walHeaderLen {
		return fmt.Errorf("%w: segment shorter than its header", ErrJournal)
	}
	if string(data[:4]) != walMagic {
		return fmt.Errorf("%w: bad magic %q", ErrJournal, data[:4])
	}
	if crc32.ChecksumIEEE(data[:walHeaderLen-4]) != binary.LittleEndian.Uint32(data[walHeaderLen-4:]) {
		return fmt.Errorf("%w: header checksum mismatch", ErrJournal)
	}
	if v := binary.LittleEndian.Uint32(data[4:]); v != JournalVersion {
		return fmt.Errorf("%w: segment version %d", ErrJournalVersion, v)
	}
	gotLimit := math.Float64frombits(binary.LittleEndian.Uint64(data[8:]))
	gotWindow := time.Duration(binary.LittleEndian.Uint64(data[16:]))
	if gotLimit != limit || gotWindow != window {
		return fmt.Errorf("session: journal limit/window (%g, %v) do not match configuration (%g, %v)",
			gotLimit, gotWindow, limit, window)
	}
	return nil
}

// ---- snapshot codec ----

func encodeSnapshot(limit float64, window time.Duration, states []State) []byte {
	b := make([]byte, 0, 32+len(states)*64)
	b = append(b, snapMagic...)
	b = appendUint32(b, JournalVersion)
	b = appendFloat(b, limit)
	b = appendUint64(b, uint64(window))
	b = appendUint64(b, uint64(len(states)))
	for _, st := range states {
		b = appendUint64(b, st.Seq)
		b = appendUint32(b, uint32(len(st.User)))
		b = append(b, st.User...)
		b = appendFloat(b, st.Spent)
		b = appendUint64(b, uint64(st.WindowStart.UnixNano()))
		if st.HasMemo {
			b = append(b, 1)
		} else {
			b = append(b, 0)
		}
		b = appendFloat(b, st.Memo.X)
		b = appendFloat(b, st.Memo.Y)
	}
	return appendUint32(b, crc32.ChecksumIEEE(b))
}

func decodeSnapshot(data []byte, limit float64, window time.Duration) ([]State, error) {
	if len(data) < 32+4 {
		return nil, fmt.Errorf("%w: snapshot too short", ErrJournal)
	}
	if string(data[:4]) != snapMagic {
		return nil, fmt.Errorf("%w: bad snapshot magic %q", ErrJournal, data[:4])
	}
	body, tail := data[:len(data)-4], data[len(data)-4:]
	if crc32.ChecksumIEEE(body) != binary.LittleEndian.Uint32(tail) {
		return nil, fmt.Errorf("%w: snapshot checksum mismatch", ErrJournal)
	}
	if v := binary.LittleEndian.Uint32(data[4:]); v != JournalVersion {
		return nil, fmt.Errorf("%w: snapshot version %d", ErrJournalVersion, v)
	}
	gotLimit := math.Float64frombits(binary.LittleEndian.Uint64(data[8:]))
	gotWindow := time.Duration(binary.LittleEndian.Uint64(data[16:]))
	if gotLimit != limit || gotWindow != window {
		return nil, fmt.Errorf("session: snapshot limit/window (%g, %v) do not match configuration (%g, %v)",
			gotLimit, gotWindow, limit, window)
	}
	count := binary.LittleEndian.Uint64(data[24:])
	if count > uint64(len(data)) { // cheap upper bound before allocating
		return nil, fmt.Errorf("%w: snapshot claims %d users in %d bytes", ErrJournal, count, len(data))
	}
	states := make([]State, 0, count)
	p := 32
	for i := uint64(0); i < count; i++ {
		if len(body)-p < 8+4 {
			return nil, fmt.Errorf("%w: snapshot truncated at user %d", ErrJournal, i)
		}
		seq := binary.LittleEndian.Uint64(body[p:])
		userLen := int(binary.LittleEndian.Uint32(body[p+8:]))
		p += 12
		if userLen == 0 || userLen > MaxUserLen || len(body)-p < userLen+33 {
			return nil, fmt.Errorf("%w: snapshot user %d length %d", ErrJournal, i, userLen)
		}
		user := string(body[p : p+userLen])
		p += userLen
		st := State{
			User:        user,
			Seq:         seq,
			Spent:       math.Float64frombits(binary.LittleEndian.Uint64(body[p:])),
			WindowStart: time.Unix(0, int64(binary.LittleEndian.Uint64(body[p+8:]))),
			HasMemo:     body[p+16] != 0,
		}
		st.Memo.X = math.Float64frombits(binary.LittleEndian.Uint64(body[p+17:]))
		st.Memo.Y = math.Float64frombits(binary.LittleEndian.Uint64(body[p+25:]))
		states = append(states, st)
		p += 33
	}
	if p != len(body) {
		return nil, fmt.Errorf("%w: %d trailing snapshot bytes", ErrJournal, len(body)-p)
	}
	return states, nil
}

// ---- open / replay ----

// openJournal loads the directory's persisted state (snapshot, rotated
// segment, active segment — in that order, seq-gated) and returns the
// journal positioned to append to the active segment. Config mismatches and
// positive corruption (a bad CRC anywhere but a segment tail) are errors:
// serving with a damaged budget history could let users over-spend. syncDir
// is the directory fsync the journal uses (fsyncDir).
func openJournal(cfg Config, syncDir func(dir string) error) (*journal, map[string]State, error) {
	if err := os.MkdirAll(cfg.Dir, 0o755); err != nil {
		return nil, nil, fmt.Errorf("session: journal dir: %w", err)
	}
	j := &journal{
		dir:          cfg.Dir,
		limit:        cfg.Limit,
		window:       cfg.Window,
		syncEvery:    cfg.SyncEvery,
		compactEvery: cfg.CompactEvery,
		syncDir:      syncDir,
	}
	if j.syncEvery <= 0 {
		j.syncEvery = 1
	}
	if j.compactEvery <= 0 {
		j.compactEvery = DefaultCompactEvery
	}

	states := make(map[string]State)
	if data, err := os.ReadFile(filepath.Join(cfg.Dir, snapName)); err == nil {
		loaded, derr := decodeSnapshot(data, cfg.Limit, cfg.Window)
		if derr != nil {
			return nil, nil, derr
		}
		for _, st := range loaded {
			states[st.User] = st
			j.replayed.Add(1)
		}
	} else if !errors.Is(err, os.ErrNotExist) {
		return nil, nil, fmt.Errorf("session: read snapshot: %w", err)
	}

	for _, name := range []string{walOldName, walName} {
		if err := j.replaySegment(filepath.Join(cfg.Dir, name), states); err != nil {
			return nil, nil, err
		}
	}

	// Clamp any replayed over-spend defensively: records are only written
	// for accepted operations, so this fires only on tampered or anomalous
	// history — never silently grant budget beyond the limit.
	for u, st := range states {
		if st.Spent > cfg.Limit {
			st.Spent = cfg.Limit
			states[u] = st
			j.anomalies.Add(1)
		}
	}

	if err := j.openSegment(); err != nil {
		return nil, nil, err
	}
	return j, states, nil
}

// replaySegment applies one segment's records (seq-gated) into states. A
// torn tail is truncated in place; a missing file is fine.
func (j *journal) replaySegment(path string, states map[string]State) error {
	data, err := os.ReadFile(path)
	if errors.Is(err, os.ErrNotExist) {
		return nil
	}
	if err != nil {
		return fmt.Errorf("session: read journal segment: %w", err)
	}
	if len(data) == 0 {
		return nil
	}
	if err := checkWALHeader(data, j.limit, j.window); err != nil {
		// A structurally broken header on a segment no longer than the
		// header itself is the footprint of a crash between segment
		// creation and the header write reaching disk. No record can have
		// followed, so nothing is lost: recover like a torn record tail
		// (truncate; openSegment rewrites the header) instead of refusing
		// to open. Version and limit/window mismatches require a valid CRC
		// and stay fatal, as does any broken header with records after it.
		if len(data) <= walHeaderLen && errors.Is(err, ErrJournal) {
			j.anomalies.Add(1)
			if terr := os.Truncate(path, 0); terr != nil {
				return fmt.Errorf("session: truncate torn journal header: %w", terr)
			}
			return nil
		}
		return fmt.Errorf("%s: %w", filepath.Base(path), err)
	}
	p := walHeaderLen
	for p < len(data) {
		rec, n, err := decodeRecord(data[p:])
		if errors.Is(err, errTorn) {
			// Crash mid-append: drop the torn tail and stop. Everything
			// before it was fully framed and checksummed.
			j.anomalies.Add(1)
			if terr := os.Truncate(path, int64(p)); terr != nil {
				return fmt.Errorf("session: truncate torn journal tail: %w", terr)
			}
			break
		}
		if err != nil {
			return fmt.Errorf("%s at offset %d: %w", filepath.Base(path), p, err)
		}
		p += n
		prev, ok := states[rec.user]
		if ok && rec.seq <= prev.Seq {
			continue // stale relative to the snapshot or a later record
		}
		states[rec.user] = State{
			User:        rec.user,
			Seq:         rec.seq,
			Spent:       rec.spent,
			WindowStart: time.Unix(0, rec.windowStart),
			HasMemo:     rec.hasMemo,
			Memo:        geo.Point{X: rec.memoX, Y: rec.memoY},
		}
		j.replayed.Add(1)
	}
	return nil
}

// fsyncDir fsyncs directory dir, making the entries created, renamed or
// removed in it durable.
func fsyncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	return err
}

// openSegment opens (or creates) the active segment for appending,
// validating the header when the file already has one. A segment it had to
// start is made durable, directory entry included, before it is used.
func (j *journal) openSegment() error {
	path := filepath.Join(j.dir, walName)
	f, err := os.OpenFile(path, os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		return fmt.Errorf("session: open journal: %w", err)
	}
	info, err := f.Stat()
	if err != nil {
		f.Close()
		return fmt.Errorf("session: stat journal: %w", err)
	}
	if info.Size() == 0 {
		if _, err := f.Write(encodeWALHeader(j.limit, j.window)); err != nil {
			f.Close()
			return fmt.Errorf("session: write journal header: %w", err)
		}
		if err := f.Sync(); err != nil {
			f.Close()
			return fmt.Errorf("session: sync journal header: %w", err)
		}
		if err := j.syncDir(j.dir); err != nil {
			f.Close()
			return fmt.Errorf("session: fsync journal dir: %w", err)
		}
	} else if _, err := f.Seek(0, 2); err != nil {
		f.Close()
		return fmt.Errorf("session: seek journal: %w", err)
	}
	j.mu.Lock()
	j.f = f
	j.segRecords = 0
	j.mu.Unlock()
	return nil
}

// append writes one record's frame to the active segment and returns the
// ticket the caller must pass to wait once it has dropped every lock. A
// zero ticket means there is nothing to wait for: the segment is below its
// SyncEvery backlog, or the store was closed (the record is dropped and
// counted in failures; after Close the store is memory-only by contract).
// A failed or short write latches the journal and returns the error: the
// caller has already changed memory and must not acknowledge the mutation.
// Called with a shard mutex held; it never blocks on anything but j.mu and
// one write.
func (j *journal) append(rec record) (uint64, error) {
	frame, err := encodeRecord(rec)
	if err != nil {
		return 0, err
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.err != nil {
		return 0, j.err
	}
	if j.f == nil {
		j.failures.Add(1)
		return 0, nil
	}
	if n, err := j.f.Write(frame); err != nil || n != len(frame) {
		if err == nil {
			err = io.ErrShortWrite
		}
		return 0, j.failLocked(fmt.Errorf("write: %w", err))
	}
	j.written++
	j.appended.Add(1)
	j.bytes.Add(int64(len(frame)))
	j.segRecords++
	if j.written-j.durable.Load() < uint64(j.syncEvery) {
		return 0, nil
	}
	return j.written, nil
}

// wait returns once an fsync has covered ticket t, running one itself when
// no earlier fsync did, or returns the latched failure. Callers hold no lock.
func (j *journal) wait(t uint64) error {
	if t == 0 {
		return nil
	}
	j.syncMu.Lock()
	defer j.syncMu.Unlock()
	if j.durable.Load() >= t {
		return nil
	}
	j.mu.Lock()
	f, target, err := j.f, j.written, j.err
	j.mu.Unlock()
	if err != nil {
		return err
	}
	if f == nil {
		// Unreachable: rotation and close advance durable before they drop
		// the segment, and a lost segment latches err.
		return fmt.Errorf("%w: no active segment", ErrJournalFailed)
	}
	if err := f.Sync(); err != nil {
		j.mu.Lock()
		defer j.mu.Unlock()
		return j.failLocked(fmt.Errorf("fsync: %w", err))
	}
	j.syncs.Add(1)
	j.durable.Store(target)
	return nil
}

// failLocked latches the first journal failure and returns the latched
// error. Caller holds j.mu.
func (j *journal) failLocked(err error) error {
	if j.err == nil {
		j.err = fmt.Errorf("%w: %w", ErrJournalFailed, err)
		j.failures.Add(1)
	}
	return j.err
}

// failure returns the latched journal failure, or nil.
func (j *journal) failure() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.err
}

func (j *journal) shouldCompact() bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.segRecords >= j.compactEvery
}

// sync makes every record written so far durable (Store.Sync).
func (j *journal) sync() error {
	j.mu.Lock()
	t, err := j.written, j.err
	j.mu.Unlock()
	if err != nil {
		return err
	}
	return j.wait(t)
}

// compact rotates the active segment aside, snapshots the exported state and
// drops the rotated segment. export runs with no journal lock held. If a
// previous compaction crashed or failed after rotation (sessions.wal.old
// still present), rotation is skipped: the snapshot about to be written
// covers that segment too, so it is simply deleted afterwards.
func (j *journal) compact(export func() []State) error {
	j.compactMu.Lock()
	defer j.compactMu.Unlock()

	oldPath := filepath.Join(j.dir, walOldName)
	walPath := filepath.Join(j.dir, walName)

	_, statErr := os.Stat(oldPath)
	leftover := statErr == nil

	if err := j.rotate(oldPath, walPath, leftover); err != nil {
		return err
	}

	states := export()
	snap := encodeSnapshot(j.limit, j.window, states)
	tmp, err := os.CreateTemp(j.dir, "snap-*.tmp")
	if err != nil {
		return fmt.Errorf("session: snapshot temp: %w", err)
	}
	tmpName := tmp.Name()
	if _, err := tmp.Write(snap); err != nil {
		tmp.Close()
		os.Remove(tmpName)
		return fmt.Errorf("session: write snapshot: %w", err)
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		os.Remove(tmpName)
		return fmt.Errorf("session: sync snapshot: %w", err)
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmpName)
		return fmt.Errorf("session: close snapshot: %w", err)
	}
	if err := os.Rename(tmpName, filepath.Join(j.dir, snapName)); err != nil {
		os.Remove(tmpName)
		return fmt.Errorf("session: publish snapshot: %w", err)
	}
	// The rotated segment may only go once the snapshot replacing it is
	// durably in place. The fsync runs without j.mu, so appends go on.
	if err := j.syncDir(j.dir); err != nil {
		j.mu.Lock()
		defer j.mu.Unlock()
		return j.failLocked(fmt.Errorf("fsync dir after snapshot: %w", err))
	}
	if err := os.Remove(oldPath); err != nil && !errors.Is(err, os.ErrNotExist) {
		return fmt.Errorf("session: drop rotated segment: %w", err)
	}
	j.compactions.Add(1)
	return nil
}

// rotate fsyncs the active segment, moves it to sessions.wal.old and starts
// a fresh one; with leftover set (a rotated segment is already waiting for
// its snapshot) it only checks that the journal is usable. It holds syncMu,
// so no fsync is in flight on the segment it closes.
func (j *journal) rotate(oldPath, walPath string, leftover bool) error {
	j.syncMu.Lock()
	defer j.syncMu.Unlock()
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.err != nil {
		// A failed journal is never synced again, and a snapshot would make
		// memory that was refused durability look durable.
		return j.err
	}
	if j.f == nil {
		return fmt.Errorf("session: journal closed")
	}
	if leftover {
		return nil
	}
	if err := j.f.Sync(); err != nil {
		return j.failLocked(fmt.Errorf("sync before rotate: %w", err))
	}
	j.durable.Store(j.written)
	if err := j.f.Close(); err != nil {
		return fmt.Errorf("session: close before rotate: %w", err)
	}
	j.f = nil
	if err := os.Rename(walPath, oldPath); err != nil {
		// Reopen so appends keep flowing even though rotation failed.
		if rerr := j.reopenAppend(walPath); rerr != nil {
			return errors.Join(err, rerr)
		}
		return fmt.Errorf("session: rotate journal: %w", err)
	}
	f, err := os.OpenFile(walPath, os.O_CREATE|os.O_EXCL|os.O_WRONLY, 0o644)
	if err != nil {
		return errors.Join(fmt.Errorf("session: fresh journal segment: %w", err), j.restoreRotated(oldPath, walPath))
	}
	if _, err := f.Write(encodeWALHeader(j.limit, j.window)); err != nil {
		f.Close()
		return errors.Join(fmt.Errorf("session: fresh segment header: %w", err), j.restoreRotated(oldPath, walPath))
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return errors.Join(fmt.Errorf("session: sync fresh segment: %w", err), j.restoreRotated(oldPath, walPath))
	}
	// Records on the fresh segment are acknowledged once fsynced; make its
	// directory entry (and the rename before it) durable first.
	if err := j.syncDir(j.dir); err != nil {
		f.Close()
		return j.failLocked(fmt.Errorf("fsync dir after rotate: %w", err))
	}
	j.f = f
	j.segRecords = 0
	return nil
}

// reopenAppend re-opens the active segment for appending after a failed
// rotation. Every record in it was fsynced before the rotation began. If it
// cannot be reopened the journal has no segment and latches. Caller holds
// j.mu.
func (j *journal) reopenAppend(path string) error {
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return j.failLocked(fmt.Errorf("reopen journal: %w", err))
	}
	j.f = f
	return nil
}

// restoreRotated undoes a rotation whose fresh segment could not be
// created: the partial fresh file (at most a header, never any records) is
// removed, the rotated segment is renamed back into place, and appending
// resumes on it — so one bad compaction degrades to a retried compaction,
// not a silently dead journal. If the restore itself fails, j.f stays nil
// and the journal latches: every later mutation is refused. Caller holds
// j.mu.
func (j *journal) restoreRotated(oldPath, walPath string) error {
	if err := os.Remove(walPath); err != nil && !errors.Is(err, os.ErrNotExist) {
		return j.failLocked(fmt.Errorf("remove partial fresh segment: %w", err))
	}
	if err := os.Rename(oldPath, walPath); err != nil {
		return j.failLocked(fmt.Errorf("restore rotated segment: %w", err))
	}
	if err := j.syncDir(j.dir); err != nil {
		return j.failLocked(fmt.Errorf("fsync dir after restore: %w", err))
	}
	return j.reopenAppend(walPath)
}

// close makes every written record durable and closes the segment. A
// latched journal is closed without another fsync and reports its failure.
func (j *journal) close() error {
	j.syncMu.Lock()
	defer j.syncMu.Unlock()
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.f == nil {
		return j.err
	}
	err := j.err
	if err == nil {
		if serr := j.f.Sync(); serr != nil {
			err = j.failLocked(fmt.Errorf("fsync on close: %w", serr))
		} else {
			j.durable.Store(j.written)
		}
	}
	if cerr := j.f.Close(); err == nil {
		err = cerr
	}
	j.f = nil
	return err
}
