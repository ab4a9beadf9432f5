// Journal: crash-safe durability for the session store, mirroring the
// versioned-framing + CRC idiom of internal/channel/persist.go ("GICH").
//
// Layout inside the directory: four files, created once and then only
// overwritten in place.
//
//	sessions.wal.0, sessions.wal.1    two segments, used in turn
//	sessions.snap.0, sessions.snap.1  two snapshot slots, used in turn
//
// Segment framing (all little-endian):
//
//	magic "GISJ" | version uint32 (2) | limit float64 bits | window int64 ns |
//	generation uint64 | crc32 uint32 of the preceding 32 bytes
//
// followed by records, each:
//
//	length uint32 | body | crc32 uint32 of body
//
// where body is op uint8 (1 = state) | at int64 | seq uint64 |
// userLen uint32 | user | spent float64 | windowStart int64 |
// hasMemo uint8 | memoX float64 | memoY float64. The bytes after the last
// record are zero.
//
// Records carry the user's *absolute* post-mutation state stamped with a
// store-wide sequence number; replay applies a record only when its seq is
// newer than what is already loaded. That makes replay idempotent and makes
// the snapshot/segment overlap produced by concurrent compaction
// commutative.
//
// Snapshot slot: magic "GISL" | generation uint64 | length uint64 | crc32c
// (Castagnoli) of the preceding 20 bytes and the body | body, where body is
// the snapshot
// ("GISS"): magic | version uint32 (1) | limit float64 bits | window int64 |
// count uint64 | per-user (seq uint64 | userLen uint32 | user | spent
// float64 | windowStart int64 | hasMemo uint8 | memoX | memoY) | crc32
// uint32 of everything preceding. Bytes after the body are ignored.
//
// Generations: appends go to the active segment. The other segment is
// either the spare (all zeros under a header one generation newer than the
// active one) or pending (its records are not yet covered by a snapshot).
// Compaction (1) rotates: under the journal mutex it fsyncs the active
// segment and makes the spare active, so the old active segment is pending;
// (2) exports the live store; (3) writes the snapshot, stamped with the new
// active generation, over the older slot and fsyncs it; (4) retires the
// pending segment: it zero-fills the records, fsyncs, writes a header one
// generation newer than the active segment and fsyncs again, which makes it
// the spare. A snapshot of generation G covers every segment older than G,
// so Open takes the newest valid slot and replays only the segments of
// generation G and G+1, in that order. Nothing is renamed, removed or
// truncated, so no compaction frees a disk block, and the directory is
// fsynced only when a file is first created.
//
// Crash argument. A torn slot write fails the slot's checksum and Open falls
// back to the other slot, whose segments are still intact: a segment is
// retired only after the snapshot covering it is durable. A segment of an
// older generation than the snapshot is never replayed, so a crash during
// retirement leaves nothing to replay from it; its new header is written
// only once its zeros are durable, so a segment whose header names a live
// generation holds no frame of an earlier one. Frames are written in ticket
// order into zeros, so a frame that fails to decode and has nothing but
// zeros after it is a torn tail — records nobody was told were durable —
// and replay stops there; a bad frame with anything after it, or with a
// whole frame inside its claimed length, is corruption and fails Open with
// ErrJournal. A segment whose header is broken but whose
// body is all zeros died during preparation and holds nothing. If the
// newest snapshot is lost, the segment generations no longer match the
// surviving slot and Open fails rather than forget spends.
//
// Migration: a directory written by the version-1 layout (sessions.snap,
// sessions.wal.old, sessions.wal) is replayed as before when no snapshot
// slot is valid yet; the compaction at Open writes the first slot and then
// removes the old files.
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
// the disk. Snapshot and retirement writes are the exception: a failed
// compaction leaves a torn slot or a pending segment that the next
// compaction rewrites in full, so it returns its error without latching.
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
	slotMagic = "GISL"
	// JournalVersion is the segment header version, bumped on any
	// incompatible framing change. Version 1 segments carry no generation;
	// they are read only to migrate them.
	JournalVersion = 2
	// snapVersion is the snapshot body version, unchanged since version 1.
	snapVersion = 1
	// DefaultCompactEvery is the records-per-segment threshold that
	// triggers background compaction.
	DefaultCompactEvery = 4096

	opState uint8 = 1

	// Version-1 layout, migrated at Open.
	walName    = "sessions.wal"
	walOldName = "sessions.wal.old"
	snapName   = "sessions.snap"

	walHeaderLen   = 4 + 4 + 8 + 8 + 8 + 4
	walHeaderLenV1 = 4 + 4 + 8 + 8 + 4
	slotHeaderLen  = 4 + 8 + 8 + 4
	recordFixed    = 1 + 8 + 8 + 4 + 8 + 8 + 1 + 8 + 8 // body minus the user bytes
	maxFrame       = 4 + recordFixed + MaxUserLen + 4
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
	// expected shape of a crash mid-append.
	errTorn = errors.New("session: torn journal tail")
	// ErrJournalFailed marks a mutation that could not be made durable
	// because a journal write or fsync failed. The store latches on the
	// first one and refuses every later mutation with it until restart.
	ErrJournalFailed = errors.New("session: journal failed, store is read-only")
)

func segName(i int) string  { return fmt.Sprintf("sessions.wal.%d", i) }
func slotName(i int) string { return fmt.Sprintf("sessions.snap.%d", i) }

// file is one journal file as the journal uses it. *os.File implements it;
// tests substitute logging and fault-injecting doubles.
type file interface {
	io.ReaderAt
	io.WriterAt
	Sync() error
	Close() error
	Stat() (os.FileInfo, error)
}

// fsys is the journal's only way to create, open and remove files and to
// fsync its directory, so tests can count and log every such call. osFS is
// the value outside tests.
type fsys struct {
	openFile func(name string, flag int, perm os.FileMode) (file, error)
	remove   func(name string) error
	syncDir  func(dir string) error
}

var osFS = fsys{
	openFile: func(name string, flag int, perm os.FileMode) (file, error) {
		f, err := os.OpenFile(name, flag, perm)
		if err != nil {
			return nil, err
		}
		return f, nil
	},
	remove:  os.Remove,
	syncDir: fsyncDir,
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

// segFile is one of the two segment files.
type segFile struct {
	f   file
	gen uint64
	// end bounds the bytes that may be nonzero: what retirement must zero.
	// Appends past it move it at the next rotation.
	end int64
}

type journal struct {
	dir          string
	limit        float64
	window       time.Duration
	syncEvery    int
	compactEvery int
	fs           fsys

	// syncMu serializes fsyncs and everything that switches or closes the
	// segment, so no fsync is in flight on a descriptor being switched out.
	// Lock order: compactMu before syncMu before mu; syncMu is never taken
	// under mu or a shard mutex.
	syncMu sync.Mutex
	// durable is the highest ticket an fsync has covered. It is written
	// under syncMu and read by append under mu.
	durable atomic.Uint64

	// mu guards the active segment. It is a leaf lock: the append path
	// acquires it while holding a shard mutex, so nothing acquired under mu
	// may ever wait on a shard. No fsync runs under it except rotation's
	// and close's, which also hold syncMu.
	mu         sync.Mutex
	f          file   // active segment; nil once closed
	off        int64  // where the next frame goes in f
	segRecords int    // records in the active segment since last rotation
	written    uint64 // ticket of the last record written
	// err latches the first write or fsync failure (wraps
	// ErrJournalFailed). Once set, nothing is written or synced again.
	err error

	// compactMu serializes compactions (background and explicit) and
	// guards segs through legacy; act changes only under mu as well.
	compactMu   sync.Mutex
	segs        [2]segFile
	act         int  // index of the active segment in segs
	spare       bool // segs[1-act] is zeroed under generation segs[act].gen+1
	pendingLive bool // segs[1-act] holds records no durable snapshot covers
	slots       [2]file
	slotGen     [2]uint64 // generation in each slot; 0 = none valid
	legacy      []string  // version-1 files to remove after the next snapshot
	compacting  atomic.Bool
	wg          sync.WaitGroup

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

func encodeWALHeader(limit float64, window time.Duration, gen uint64) []byte {
	b := make([]byte, 0, walHeaderLen)
	b = append(b, walMagic...)
	b = appendUint32(b, JournalVersion)
	b = appendFloat(b, limit)
	b = appendUint64(b, uint64(window))
	b = appendUint64(b, gen)
	b = appendUint32(b, crc32.ChecksumIEEE(b))
	return b
}

// checkWALHeader validates a segment header laid out as version (1 or
// JournalVersion) prescribes and returns its generation (0 for version 1).
func checkWALHeader(data []byte, version uint32, limit float64, window time.Duration) (uint64, error) {
	n := walHeaderLen
	if version == 1 {
		n = walHeaderLenV1
	}
	if len(data) < n {
		return 0, fmt.Errorf("%w: segment shorter than its header", ErrJournal)
	}
	if string(data[:4]) != walMagic {
		return 0, fmt.Errorf("%w: bad magic %q", ErrJournal, data[:4])
	}
	if crc32.ChecksumIEEE(data[:n-4]) != binary.LittleEndian.Uint32(data[n-4:]) {
		return 0, fmt.Errorf("%w: header checksum mismatch", ErrJournal)
	}
	if v := binary.LittleEndian.Uint32(data[4:]); v != version {
		return 0, fmt.Errorf("%w: segment version %d", ErrJournalVersion, v)
	}
	gotLimit := math.Float64frombits(binary.LittleEndian.Uint64(data[8:]))
	gotWindow := time.Duration(binary.LittleEndian.Uint64(data[16:]))
	if gotLimit != limit || gotWindow != window {
		return 0, fmt.Errorf("session: journal limit/window (%g, %v) do not match configuration (%g, %v)",
			gotLimit, gotWindow, limit, window)
	}
	if version == 1 {
		return 0, nil
	}
	gen := binary.LittleEndian.Uint64(data[24:])
	if gen == 0 {
		return 0, fmt.Errorf("%w: segment generation 0", ErrJournal)
	}
	return gen, nil
}

// ---- snapshot codec ----

func encodeSnapshot(limit float64, window time.Duration, states []State) []byte {
	b := make([]byte, 0, 32+len(states)*64)
	b = append(b, snapMagic...)
	b = appendUint32(b, snapVersion)
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
	if v := binary.LittleEndian.Uint32(data[4:]); v != snapVersion {
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

// slotTable is the slot checksum's polynomial (Castagnoli). It must not be
// the body's own (IEEE): an IEEE CRC over a body that ends in its own IEEE
// CRC takes the same value for every body of that length, so it could not
// tell a torn slot (new header, old body) from a whole one.
var slotTable = crc32.MakeTable(crc32.Castagnoli)

// slotSum is the slot checksum over the header's first 20 bytes and body.
func slotSum(hdr, body []byte) uint32 {
	return crc32.Update(crc32.Checksum(hdr, slotTable), slotTable, body)
}

// encodeSlot frames a snapshot body for a slot: header, then body.
func encodeSlot(gen uint64, body []byte) []byte {
	b := make([]byte, 0, slotHeaderLen+len(body))
	b = append(b, slotMagic...)
	b = appendUint64(b, gen)
	b = appendUint64(b, uint64(len(body)))
	b = appendUint32(b, slotSum(b, body))
	return append(b, body...)
}

// decodeSlot returns a slot's generation and snapshot body, or ok false
// for a slot that was never written or whose last write was torn.
func decodeSlot(data []byte) (gen uint64, body []byte, ok bool) {
	if len(data) < slotHeaderLen || string(data[:4]) != slotMagic {
		return 0, nil, false
	}
	gen = binary.LittleEndian.Uint64(data[4:])
	n := binary.LittleEndian.Uint64(data[12:])
	if gen == 0 || n > uint64(len(data)-slotHeaderLen) {
		return 0, nil, false
	}
	body = data[slotHeaderLen : slotHeaderLen+int(n)]
	if slotSum(data[:20], body) != binary.LittleEndian.Uint32(data[20:]) {
		return 0, nil, false
	}
	return gen, body, true
}

// ---- open / replay ----

// openJournal loads the directory's persisted state (the newest valid
// snapshot slot, then its segments in generation order, seq-gated; or the
// version-1 files when no slot is valid yet) and returns the journal
// positioned to append to the active segment. Config mismatches and
// positive corruption (a bad CRC anywhere but a segment tail, a lost
// snapshot) are errors: serving with a damaged budget history could let
// users over-spend.
func openJournal(cfg Config, fs fsys) (*journal, map[string]State, error) {
	if err := os.MkdirAll(cfg.Dir, 0o755); err != nil {
		return nil, nil, fmt.Errorf("session: journal dir: %w", err)
	}
	j := &journal{
		dir:          cfg.Dir,
		limit:        cfg.Limit,
		window:       cfg.Window,
		syncEvery:    cfg.SyncEvery,
		compactEvery: cfg.CompactEvery,
		fs:           fs,
	}
	if j.syncEvery <= 0 {
		j.syncEvery = 1
	}
	if j.compactEvery <= 0 {
		j.compactEvery = DefaultCompactEvery
	}
	states, err := j.load()
	if err != nil {
		j.closeFiles()
		return nil, nil, err
	}
	return j, states, nil
}

// load opens the four files and replays them; see openJournal.
func (j *journal) load() (map[string]State, error) {
	created := false
	var segData [2][]byte
	var snaps [2][]State
	for i := 0; i < 2; i++ {
		f, c, data, err := j.openOrCreate(slotName(i))
		if err != nil {
			return nil, err
		}
		j.slots[i], created = f, created || c
		if gen, body, ok := decodeSlot(data); ok {
			// The checksum holds, so this is no torn write: a body that
			// does not decode, or another limit or window, is an error.
			if snaps[i], err = decodeSnapshot(body, j.limit, j.window); err != nil {
				return nil, fmt.Errorf("%s: %w", slotName(i), err)
			}
			j.slotGen[i] = gen
		}
		if f, c, segData[i], err = j.openOrCreate(segName(i)); err != nil {
			return nil, err
		}
		j.segs[i].f, created = f, created || c
	}
	newest := 0
	if j.slotGen[1] > j.slotGen[0] {
		newest = 1
	}
	snapGen := j.slotGen[newest]
	// Until a snapshot exists, no acknowledgement depends on these files'
	// directory entries except through this fsync, including entries an
	// earlier Open created before its own fsync failed.
	if created || snapGen == 0 {
		if err := j.fs.syncDir(j.dir); err != nil {
			j.failures.Add(1)
			return nil, fmt.Errorf("%w: fsync journal dir: %w", ErrJournalFailed, err)
		}
	}

	states := make(map[string]State)
	for _, name := range []string{snapName, walOldName, walName} {
		f, data, err := j.openRead(name, os.O_RDONLY)
		if errors.Is(err, os.ErrNotExist) {
			continue
		}
		if err != nil {
			return nil, err
		}
		f.Close()
		j.legacy = append(j.legacy, filepath.Join(j.dir, name))
		if snapGen > 0 {
			continue // the first slot already covers the version-1 files
		}
		if name == snapName {
			loaded, err := decodeSnapshot(data, j.limit, j.window)
			if err != nil {
				return nil, err
			}
			for _, st := range loaded {
				j.apply(states, st)
			}
		} else if _, err := j.replaySegment(name, data, 1, states); err != nil {
			return nil, err
		}
	}
	for _, st := range snaps[newest] {
		j.apply(states, st)
	}

	// Segment generations: a segment older than the snapshot is covered by
	// it; the live ones must be exactly the snapshot's generation and the
	// one after it (1 and 2 before the first snapshot).
	lo := max(snapGen, 1)
	var live []int
	for i := 0; i < 2; i++ {
		gen, err := checkWALHeader(segData[i], JournalVersion, j.limit, j.window)
		if err != nil {
			// A broken header over an all-zero body is a segment that died
			// while it was being prepared: nothing can follow it. Version
			// and limit/window mismatches need a valid CRC and stay fatal,
			// as does a broken header with records after it.
			if !errors.Is(err, ErrJournal) || lastNonzero(segData[i]) > walHeaderLen {
				return nil, fmt.Errorf("%s: %w", segName(i), err)
			}
			if len(segData[i]) > 0 {
				j.anomalies.Add(1)
			}
		}
		j.segs[i].gen, j.segs[i].end = gen, int64(len(segData[i]))
		if gen >= lo {
			if gen > lo+1 {
				return nil, fmt.Errorf("%w: %s has generation %d but the newest snapshot has %d",
					ErrJournal, segName(i), gen, snapGen)
			}
			live = append(live, i)
		}
	}
	if len(live) == 2 && j.segs[0].gen == j.segs[1].gen {
		return nil, fmt.Errorf("%w: both segments have generation %d", ErrJournal, j.segs[0].gen)
	}
	if len(live) == 2 && j.segs[live[0]].gen > j.segs[live[1]].gen {
		live[0], live[1] = live[1], live[0]
	}
	if snapGen > 0 && (len(live) == 0 || j.segs[live[0]].gen != snapGen) {
		return nil, fmt.Errorf("%w: no segment of the newest snapshot's generation %d", ErrJournal, snapGen)
	}
	var ends [2]int64
	for _, i := range live {
		end, err := j.replaySegment(segName(i), segData[i], JournalVersion, states)
		if err != nil {
			return nil, err
		}
		ends[i] = end
	}

	// Clamp any replayed over-spend defensively: records are only written
	// for accepted operations, so this fires only on tampered or anomalous
	// history — never silently grant budget beyond the limit.
	for u, st := range states {
		if st.Spent > j.limit {
			st.Spent = j.limit
			states[u] = st
			j.anomalies.Add(1)
		}
	}

	switch {
	case len(live) == 0:
		// A fresh directory, or one migrating: start generation 1.
		if err := j.prepare(&j.segs[0], 1); err != nil {
			return nil, err
		}
		j.act, ends[0] = 0, walHeaderLen
	case len(live) == 2 && lastNonzero(segData[live[1]]) <= walHeaderLen:
		// The newer segment is the untouched spare: keep appending to the
		// older one.
		j.act, j.spare = live[0], true
	default:
		// Append to the newest segment. An older live one is pending.
		j.act = live[len(live)-1]
		j.pendingLive = len(live) == 2
	}
	// A torn tail stays where it is: the compaction that Open runs next
	// rotates away from this segment before anything is appended, and
	// retirement zeros it, up to end.
	j.f, j.off = j.segs[j.act].f, ends[j.act]
	return states, nil
}

// openOrCreate opens name in the journal directory read-write, creating it
// empty if it does not exist, and returns its contents.
func (j *journal) openOrCreate(name string) (file, bool, []byte, error) {
	f, data, err := j.openRead(name, os.O_RDWR)
	created := errors.Is(err, os.ErrNotExist)
	if created {
		f, data, err = j.openRead(name, os.O_RDWR|os.O_CREATE|os.O_EXCL)
	}
	return f, created, data, err
}

// openRead opens name in the journal directory with flag and returns it
// with its contents. A missing file is an error wrapping os.ErrNotExist.
func (j *journal) openRead(name string, flag int) (file, []byte, error) {
	f, err := j.fs.openFile(filepath.Join(j.dir, name), flag, 0o644)
	if err != nil {
		return nil, nil, fmt.Errorf("session: open %s: %w", name, err)
	}
	info, err := f.Stat()
	if err == nil {
		data := make([]byte, info.Size())
		var n int
		if n, err = f.ReadAt(data, 0); err == nil || (errors.Is(err, io.EOF) && n == len(data)) {
			return f, data, nil
		}
	}
	f.Close()
	return nil, nil, fmt.Errorf("session: read %s: %w", name, err)
}

// lastNonzero returns the index just past data's last nonzero byte.
func lastNonzero(data []byte) int {
	n := len(data)
	for n > 0 && data[n-1] == 0 {
		n--
	}
	return n
}

// apply loads one state, seq-gated: a state no newer than the loaded one is
// stale relative to a snapshot or a later record.
func (j *journal) apply(states map[string]State, st State) {
	if prev, ok := states[st.User]; ok && st.Seq <= prev.Seq {
		return
	}
	states[st.User] = st
	j.replayed.Add(1)
}

// replaySegment applies one segment's records (seq-gated) into states and
// returns the offset just past the last whole record. A frame that fails
// to decode ends the segment when nothing but zeros and no whole frame
// follows it (a torn tail); otherwise it is corruption. A version-1 segment whose header is
// broken and followed by nothing is a torn creation and holds no records.
func (j *journal) replaySegment(name string, data []byte, version uint32, states map[string]State) (int64, error) {
	if len(data) == 0 {
		return 0, nil
	}
	last := lastNonzero(data)
	if _, err := checkWALHeader(data, version, j.limit, j.window); err != nil {
		if version == 1 && len(data) <= walHeaderLenV1 && errors.Is(err, ErrJournal) {
			j.anomalies.Add(1)
			return 0, nil
		}
		return 0, fmt.Errorf("%s: %w", name, err)
	}
	p := walHeaderLen
	if version == 1 {
		p = walHeaderLenV1
	}
	for p < last {
		rec, n, err := decodeRecord(data[p:])
		if err != nil {
			extent := p + 4
			if errors.Is(err, errTorn) {
				extent = len(data)
			} else if l := int(binary.LittleEndian.Uint32(data[p:])); l >= recordFixed && l <= recordFixed+MaxUserLen {
				extent = p + 4 + l + 4
			}
			// A torn frame has nothing after it: no nonzero byte past its
			// claimed extent, and no whole frame inside it (a flipped
			// length can make a frame claim the ones after it).
			if extent < last || frameWithin(data, p+1, min(last, p+maxFrame)) {
				if errors.Is(err, errTorn) {
					err = fmt.Errorf("%w: frame overruns the frames after it", ErrJournal)
				}
				return 0, fmt.Errorf("%s at offset %d: %w", name, p, err)
			}
			// Crash mid-append: everything before p was fully framed and
			// checksummed, and nothing was written after the torn frame.
			j.anomalies.Add(1)
			break
		}
		p += n
		j.apply(states, State{
			User:        rec.user,
			Seq:         rec.seq,
			Spent:       rec.spent,
			WindowStart: time.Unix(0, rec.windowStart),
			HasMemo:     rec.hasMemo,
			Memo:        geo.Point{X: rec.memoX, Y: rec.memoY},
		})
	}
	return int64(p), nil
}

// frameWithin reports whether a whole frame starts in data[from:to].
func frameWithin(data []byte, from, to int) bool {
	for q := from; q < to; q++ {
		if _, _, err := decodeRecord(data[q:]); err == nil {
			return true
		}
	}
	return false
}

// fsyncDir fsyncs directory dir, making the entries created in it durable.
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

// zeros is the source of zero-fill writes; nothing writes to it.
var zeros [64 << 10]byte

// zeroFill overwrites f's bytes [from, to) with zeros, in place.
func zeroFill(f file, from, to int64) error {
	for from < to {
		n := min(to-from, int64(len(zeros)))
		if _, err := f.WriteAt(zeros[:n], from); err != nil {
			return fmt.Errorf("session: zero-fill journal segment: %w", err)
		}
		from += n
	}
	return nil
}

// prepare turns s into an empty segment of generation gen: it zeros the
// old records, makes the zeros durable, then writes and fsyncs the header.
// The order means a header naming gen never sits over older frames.
func (j *journal) prepare(s *segFile, gen uint64) error {
	if s.end > walHeaderLen {
		if err := zeroFill(s.f, walHeaderLen, s.end); err != nil {
			return err
		}
		if err := s.f.Sync(); err != nil {
			return fmt.Errorf("session: sync zeroed segment: %w", err)
		}
	}
	if _, err := s.f.WriteAt(encodeWALHeader(j.limit, j.window, gen), 0); err != nil {
		return fmt.Errorf("session: write segment header: %w", err)
	}
	if err := s.f.Sync(); err != nil {
		return fmt.Errorf("session: sync segment header: %w", err)
	}
	s.gen, s.end = gen, walHeaderLen
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
	if n, err := j.f.WriteAt(frame, j.off); err != nil || n != len(frame) {
		if err == nil {
			err = io.ErrShortWrite
		}
		return 0, j.failLocked(fmt.Errorf("write: %w", err))
	}
	j.off += int64(len(frame))
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
		// Unreachable: rotation and close advance durable before they
		// switch or drop the segment.
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

// compact rotates to the spare segment, snapshots the exported state over
// the older slot and retires the segment it rotated away from. export runs
// with no journal lock held. When no spare is ready (a crash or a failed
// compaction between rotation and retirement), it first covers the pending
// segment with a snapshot, if no durable one does yet, and retires it, so
// that the snapshot published last always starts a fresh segment: records
// older than it, such as those of users a Replace dropped, never replay.
func (j *journal) compact(export func() []State) error {
	j.compactMu.Lock()
	defer j.compactMu.Unlock()
	j.mu.Lock()
	err := j.usableLocked()
	j.mu.Unlock()
	if err != nil {
		return err
	}
	if !j.spare {
		if j.pendingLive {
			if err := j.snapshot(export()); err != nil {
				return err
			}
		}
		if err := j.retire(); err != nil {
			return err
		}
	}
	if err := j.rotate(); err != nil {
		return err
	}
	if err := j.snapshot(export()); err != nil {
		return err
	}
	if err := j.retire(); err != nil {
		return err
	}
	// A version-1 layout is now fully converted. These removals happen once,
	// at Open; should one not survive a crash, the valid slot makes the
	// next Open ignore the file and remove it again.
	for _, path := range j.legacy {
		if err := j.fs.remove(path); err != nil && !errors.Is(err, os.ErrNotExist) {
			return fmt.Errorf("session: remove version-1 journal file: %w", err)
		}
	}
	j.legacy = nil
	j.compactions.Add(1)
	return nil
}

// usableLocked returns the latched failure, or an error once the journal
// is closed. A failed journal is never synced again, and a snapshot would
// make memory that was refused durability look durable. Caller holds j.mu.
func (j *journal) usableLocked() error {
	if j.err != nil {
		return j.err
	}
	if j.f == nil {
		return fmt.Errorf("session: journal closed")
	}
	return nil
}

// rotate fsyncs the active segment and switches appends to the spare; the
// old active segment becomes pending. It holds syncMu, so no fsync is in
// flight on the segment it switches out, and makes no directory operation.
func (j *journal) rotate() error {
	j.syncMu.Lock()
	defer j.syncMu.Unlock()
	j.mu.Lock()
	defer j.mu.Unlock()
	if err := j.usableLocked(); err != nil {
		return err
	}
	if err := j.f.Sync(); err != nil {
		return j.failLocked(fmt.Errorf("sync before rotate: %w", err))
	}
	j.durable.Store(j.written)
	j.segs[j.act].end = max(j.segs[j.act].end, j.off)
	j.act = 1 - j.act
	j.f, j.off = j.segs[j.act].f, walHeaderLen
	j.segRecords = 0
	j.spare, j.pendingLive = false, true
	return nil
}

// snapshot writes states over the older slot, stamped with the active
// segment's generation, and fsyncs it. From then on it covers the pending
// segment.
func (j *journal) snapshot(states []State) error {
	i := 0
	if j.slotGen[1] < j.slotGen[0] {
		i = 1
	}
	gen := j.segs[j.act].gen
	j.slotGen[i] = 0 // torn until the fsync returns
	if _, err := j.slots[i].WriteAt(encodeSlot(gen, encodeSnapshot(j.limit, j.window, states)), 0); err != nil {
		return fmt.Errorf("session: write snapshot: %w", err)
	}
	if err := j.slots[i].Sync(); err != nil {
		return fmt.Errorf("session: sync snapshot: %w", err)
	}
	j.slotGen[i] = gen
	j.pendingLive = false
	return nil
}

// retire prepares the pending segment, which a durable snapshot covers, as
// the spare.
func (j *journal) retire() error {
	if err := j.prepare(&j.segs[1-j.act], j.segs[j.act].gen+1); err != nil {
		return err
	}
	j.spare = true
	return nil
}

// close makes every written record durable and closes the journal's files.
// A latched journal is closed without another fsync and reports its
// failure.
func (j *journal) close() error {
	j.compactMu.Lock()
	defer j.compactMu.Unlock()
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
	if cerr := j.segs[1-j.act].f.Close(); err == nil {
		err = cerr
	}
	for _, f := range j.slots {
		if cerr := f.Close(); err == nil {
			err = cerr
		}
	}
	return err
}

// closeFiles closes whatever a failed open left open.
func (j *journal) closeFiles() {
	for _, f := range []file{j.slots[0], j.slots[1], j.segs[0].f, j.segs[1].f} {
		if f != nil {
			f.Close()
		}
	}
}
