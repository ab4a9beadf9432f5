package session

import (
	"bytes"
	"errors"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"math/rand/v2"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"geoind/internal/geo"
)

// fsOp is one journal file system call as logFS saw it.
type fsOp struct {
	kind string // create, open, write, sync, remove, syncdir
	name string // base name; empty for syncdir
	off  int64
	data []byte // write only
}

// logFS is the journal's file system seam over a real directory, logging
// every call in order. File fsyncs and directory fsyncs are logged but not
// performed: the crash enumeration rebuilds what a crash could leave from
// the log, not from the real disk.
type logFS struct {
	mu  sync.Mutex
	ops []fsOp
}

func (l *logFS) add(op fsOp) {
	l.mu.Lock()
	l.ops = append(l.ops, op)
	l.mu.Unlock()
}

func (l *logFS) len() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.ops)
}

// count returns how many logged calls of each kind came after the first n.
func (l *logFS) count(n int) map[string]int {
	l.mu.Lock()
	defer l.mu.Unlock()
	c := map[string]int{}
	for _, op := range l.ops[n:] {
		c[op.kind]++
	}
	return c
}

func (l *logFS) fs() fsys {
	return fsys{
		openFile: func(name string, flag int, perm os.FileMode) (file, error) {
			f, err := osFS.openFile(name, flag, perm)
			if err != nil {
				return nil, err
			}
			kind := "open"
			if flag&os.O_CREATE != 0 {
				kind = "create"
			}
			l.add(fsOp{kind: kind, name: filepath.Base(name)})
			return &logFile{file: f, l: l, name: filepath.Base(name)}, nil
		},
		remove: func(name string) error {
			err := os.Remove(name)
			if err == nil {
				l.add(fsOp{kind: "remove", name: filepath.Base(name)})
			}
			return err
		},
		syncDir: func(string) error {
			l.add(fsOp{kind: "syncdir"})
			return nil
		},
	}
}

type logFile struct {
	file
	l    *logFS
	name string
}

func (f *logFile) WriteAt(p []byte, off int64) (int, error) {
	n, err := f.file.WriteAt(p, off)
	f.l.add(fsOp{kind: "write", name: f.name, off: off, data: bytes.Clone(p[:n])})
	return n, err
}

func (f *logFile) Sync() error {
	f.l.add(fsOp{kind: "sync", name: f.name})
	return nil
}

// noSyncFS is the real file system without fsyncs, for opening the many
// directories the crash enumeration builds.
func noSyncFS() fsys {
	return fsys{
		openFile: func(name string, flag int, perm os.FileMode) (file, error) {
			f, err := osFS.openFile(name, flag, perm)
			if err != nil {
				return nil, err
			}
			return noSyncFile{f}, nil
		},
		remove:  os.Remove,
		syncDir: func(string) error { return nil },
	}
}

type noSyncFile struct{ file }

func (noSyncFile) Sync() error { return nil }

// TestJournalCompactionFreesNothing: with spends running on two goroutines,
// steady-state compactions create, open and remove no file and fsync no
// directory. (TestJournalNoDirectFileCalls shows the journal cannot rename
// or truncate behind the seam.)
func TestJournalCompactionFreesNothing(t *testing.T) {
	cfg := Config{Limit: 1e9, Window: time.Hour, Clock: newFakeClock().Now, Dir: t.TempDir(), CompactEvery: 64}
	l := &logFS{}
	s, err := open(cfg, l.fs())
	if err != nil {
		t.Fatal(err)
	}
	start, before := l.len(), s.Stats().Journal.Compactions
	var wg sync.WaitGroup
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 1e5 && s.Stats().Journal.Compactions-before < 6; i++ {
				if err := s.Spend(fmt.Sprintf("u%d", (w*400+i)%97), 0.5); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	s.j.wg.Wait()
	if err := s.Compact(); err != nil {
		t.Fatal(err)
	}
	n := s.Stats().Journal.Compactions - before
	if n < 5 {
		t.Fatalf("%d compactions, want at least 5", n)
	}
	c := l.count(start)
	for _, kind := range []string{"create", "open", "remove", "syncdir"} {
		if c[kind] != 0 {
			t.Errorf("%d %s calls over %d steady-state compactions, want 0", c[kind], kind, n)
		}
	}
	if c["write"] == 0 || c["sync"] == 0 {
		t.Fatalf("seam saw no writes or fsyncs (%v): the journal bypassed it", c)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestJournalNoDirectFileCalls: outside the osFS seam and fsyncDir, the
// package's code makes no call that creates, opens for writing, renames,
// removes or truncates a file, so counting through the seam counts them all.
func TestJournalNoDirectFileCalls(t *testing.T) {
	forbidden := map[string]bool{
		"Create": true, "CreateTemp": true, "OpenFile": true, "Rename": true, "Remove": true,
		"RemoveAll": true, "Truncate": true, "WriteFile": true, "Link": true, "Symlink": true,
	}
	fset := token.NewFileSet()
	pkgs, err := parser.ParseDir(fset, ".", func(fi os.FileInfo) bool {
		return !strings.HasSuffix(fi.Name(), "_test.go")
	}, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			ast.Inspect(f, func(n ast.Node) bool {
				if v, ok := n.(*ast.ValueSpec); ok && len(v.Names) == 1 && v.Names[0].Name == "osFS" {
					return false // the seam itself
				}
				if fn, ok := n.(*ast.FuncDecl); ok && fn.Name.Name == "fsyncDir" {
					return false
				}
				sel, ok := n.(*ast.SelectorExpr)
				if !ok {
					return true
				}
				if pkgID, ok := sel.X.(*ast.Ident); ok && pkgID.Name == "os" && forbidden[sel.Sel.Name] {
					t.Errorf("%s: os.%s outside the file system seam", fset.Position(sel.Pos()), sel.Sel.Name)
				}
				if sel.Sel.Name == "Truncate" {
					t.Errorf("%s: Truncate call", fset.Position(sel.Pos()))
				}
				return true
			})
		}
	}
}

// ---- crash-point enumeration ----

// pendingWrite is a write that no fsync has covered yet.
type pendingWrite struct {
	off  int64
	data []byte
}

// simDisk replays an fsLog as the disk sees it: each file's content as of
// its last fsync, the writes since, and directory entries, which are
// durable only after a directory fsync.
type simDisk struct {
	durable  map[string][]byte         // content covered by an fsync
	pending  map[string][]pendingWrite // writes since the last fsync
	names    map[string]bool           // durable directory entries
	dirQueue []fsOp                    // creates and removes since the last directory fsync
}

func newSimDisk(initial map[string][]byte) *simDisk {
	d := &simDisk{durable: map[string][]byte{}, pending: map[string][]pendingWrite{}, names: map[string]bool{}}
	for name, data := range initial {
		d.durable[name] = data
		d.names[name] = true
	}
	return d
}

func applyWrite(content []byte, w pendingWrite) []byte {
	end := w.off + int64(len(w.data))
	if int64(len(content)) < end {
		content = append(content, make([]byte, end-int64(len(content)))...)
	}
	copy(content[w.off:], w.data)
	return content
}

func (d *simDisk) step(op fsOp) {
	switch op.kind {
	case "create", "remove":
		d.dirQueue = append(d.dirQueue, op)
	case "write":
		d.pending[op.name] = append(d.pending[op.name], pendingWrite{op.off, op.data})
	case "sync":
		c := bytes.Clone(d.durable[op.name]) // crash states may share the old content
		for _, w := range d.pending[op.name] {
			c = applyWrite(c, w)
		}
		d.durable[op.name] = c
		delete(d.pending, op.name)
	case "syncdir":
		for _, q := range d.dirQueue {
			d.names[q.name] = q.kind == "create"
		}
		d.dirQueue = nil
	}
}

// cut keeps the first k pending writes of a file whole and the first b
// bytes of write k.
type cut struct{ k, b int }

// cuts lists the ways a crash can leave a file's pending writes: a prefix
// of them, the last one torn at its first byte, its middle or its last
// byte.
func cuts(ws []pendingWrite) []cut {
	out := []cut{{len(ws), 0}}
	for k, w := range ws {
		for _, b := range []int{0, 1, len(w.data) / 2, len(w.data) - 1} {
			if b >= 0 && b < len(w.data) && !slices.Contains(out, cut{k, b}) {
				out = append(out, cut{k, b})
			}
		}
	}
	return out
}

// crashState is one disk a crash could leave, with what it tore.
type crashState struct {
	files map[string][]byte
	torn  map[string]pendingWrite // file -> the write torn part-way
}

// states enumerates every disk a crash now could leave: each prefix of the
// unsynced directory operations, times each cut of each file's unsynced
// writes.
func (d *simDisk) states() []crashState {
	var names []string
	for name := range d.pending {
		names = append(names, name)
	}
	sort.Strings(names)
	var out []crashState
	for q := 0; q <= len(d.dirQueue); q++ {
		present := map[string]bool{}
		for n, ok := range d.names {
			present[n] = ok
		}
		for _, op := range d.dirQueue[:q] {
			present[op.name] = op.kind == "create"
		}
		var rec func(i int, st crashState)
		rec = func(i int, st crashState) {
			if i == len(names) {
				files := map[string][]byte{}
				for n, ok := range present {
					if ok {
						if c, ok := st.files[n]; ok {
							files[n] = c
						} else {
							files[n] = d.durable[n]
						}
					}
				}
				out = append(out, crashState{files: files, torn: st.torn})
				return
			}
			name := names[i]
			ws := d.pending[name]
			for _, c := range cuts(ws) {
				content := bytes.Clone(d.durable[name])
				for _, w := range ws[:c.k] {
					content = applyWrite(content, w)
				}
				next := crashState{files: cloneFiles(st.files), torn: cloneTorn(st.torn)}
				if c.k < len(ws) && c.b > 0 {
					content = applyWrite(content, pendingWrite{ws[c.k].off, ws[c.k].data[:c.b]})
					next.torn[name] = ws[c.k]
				}
				next.files[name] = content
				rec(i+1, next)
			}
		}
		rec(0, crashState{files: map[string][]byte{}, torn: map[string]pendingWrite{}})
	}
	return out
}

func cloneFiles(m map[string][]byte) map[string][]byte {
	out := make(map[string][]byte, len(m))
	for k, v := range m {
		out[k] = v
	}
	return out
}

func cloneTorn(m map[string]pendingWrite) map[string]pendingWrite {
	out := make(map[string]pendingWrite, len(m))
	for k, v := range m {
		out[k] = v
	}
	return out
}

// candidate is a store state a recovered journal may equal: the state
// after a mutation, acknowledged once ack operations were logged (-1: a
// state inside a Replace, never acknowledged).
type candidate struct {
	states map[string]State
	ack    int
}

func exportMap(s *Store) map[string]State {
	m := map[string]State{}
	for _, st := range s.Export() {
		m[st.User] = st
	}
	return m
}

func sameStates(a, b map[string]State) bool {
	if len(a) != len(b) {
		return false
	}
	for u, x := range a {
		y, ok := b[u]
		if !ok || x.Seq != y.Seq || x.Spent != y.Spent || !x.WindowStart.Equal(y.WindowStart) ||
			x.HasMemo != y.HasMemo || x.Memo != y.Memo {
			return false
		}
	}
	return true
}

const crashStepEps = 0.5

// crashWorkload drives a seeded mix of Spend, Refund, Step with a memo,
// Replace, compactions (one with spends between its rotation and its
// snapshot) and Close through l, and returns the candidate states and the
// log range of the spends made between that rotation and snapshot.
func crashWorkload(t *testing.T, cfg Config, l *logFS, seed uint64) ([]candidate, [2]int) {
	s, err := open(cfg, l.fs())
	if err != nil {
		t.Fatal(err)
	}
	cands := []candidate{{states: exportMap(s), ack: 0}}
	acked := func() { cands = append(cands, candidate{states: exportMap(s), ack: l.len()}) }
	rng := rand.New(rand.NewPCG(seed, 0))
	// Memos go to m0..m2 and refunds to r0..r2 only, so every memo's spend
	// is still charged (no refund can take it back).
	mutate := func() {
		switch rng.IntN(4) {
		case 0:
			u := fmt.Sprintf("m%d", rng.IntN(3))
			p := geo.Point{X: float64(rng.IntN(100)), Y: float64(rng.IntN(100))}
			if err := s.Step(u, func(tx *Tx) error {
				if err := tx.Spend(crashStepEps); err != nil {
					return err
				}
				tx.SetMemo(p)
				return nil
			}); err != nil && !errors.Is(err, ErrBudgetExhausted) {
				t.Fatal(err)
			}
		case 1:
			if err := s.Refund(fmt.Sprintf("r%d", rng.IntN(3)), 0.25); err != nil {
				t.Fatal(err)
			}
		default:
			users := []string{"m0", "m1", "m2", "r0", "r1", "r2"}
			if err := s.Spend(users[rng.IntN(len(users))], 0.25+0.25*float64(rng.IntN(3))); err != nil && !errors.Is(err, ErrBudgetExhausted) {
				t.Fatal(err)
			}
		}
		s.j.wg.Wait() // background compactions finish before the next mutation
		acked()
	}
	for i := 0; i < 20; i++ {
		mutate()
	}
	// Replace writes one record per entry and then compacts; a crash in
	// between may leave any prefix of the records over the old state.
	prev := cands[len(cands)-1].states
	imported := []State{
		{User: "m0", Spent: 1, WindowStart: cfg.Clock(), HasMemo: true, Memo: geo.Point{X: 7, Y: 8}},
		{User: "r1", Spent: 0.5, WindowStart: cfg.Clock()},
		{User: "n0", Spent: 2, WindowStart: cfg.Clock()},
	}
	seq := s.seq.Load()
	partial := cloneStates(prev)
	for i, st := range imported {
		st.Seq = seq + uint64(i) + 1
		partial[st.User] = st
		cands = append(cands, candidate{states: cloneStates(partial), ack: -1})
	}
	if err := s.Replace(imported); err != nil {
		t.Fatal(err)
	}
	acked()
	for i := 0; i < 12; i++ {
		mutate()
	}
	// A compaction with acknowledged spends between rotation and snapshot.
	var between [2]int
	if err := s.j.compact(func() []State {
		between[0] = l.len()
		for i := 0; i < 3; i++ {
			mutate()
		}
		between[1] = l.len()
		return s.exportOwned()
	}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 12; i++ {
		mutate()
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if c := s.Stats().Journal.Compactions; c < 5 {
		t.Fatalf("workload ran %d compactions, want at least 5", c)
	}
	return cands, between
}

func cloneStates(m map[string]State) map[string]State {
	out := make(map[string]State, len(m))
	for k, v := range m {
		out[k] = v
	}
	return out
}

// TestJournalCrashPoints enumerates every crash point of a seeded workload
// (see crashWorkload), from a fresh directory and from a version-1 one.
// At each logged file system call it builds every disk a crash could leave
// (unsynced writes absent, whole, or torn; directory entries durable only
// after a directory fsync) and opens it. Each must open; hold every
// acknowledged mutation; keep each user within the limit; equal, exactly,
// the store state after some mutation no earlier than the last one
// acknowledged; and hold no memo without its spend. Each recovered
// directory must reopen to the same state.
func TestJournalCrashPoints(t *testing.T) {
	for _, tc := range []struct {
		name string
		v1   bool
		seed uint64
	}{{"fresh", false, 1}, {"v1", true, 2}} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := Config{Limit: 10, Window: 24 * time.Hour, Clock: v1Clock, Dir: t.TempDir(), CompactEvery: 6}
			initial := map[string][]byte{}
			if tc.v1 {
				copyV1(t, cfg.Dir)
				for _, name := range []string{snapName, walOldName, walName} {
					data, err := os.ReadFile(filepath.Join(cfg.Dir, name))
					if err != nil {
						t.Fatal(err)
					}
					initial[name] = data
				}
			}
			l := &logFS{}
			cands, between := crashWorkload(t, cfg, l, tc.seed)

			disk := newSimDisk(initial)
			work := filepath.Join(t.TempDir(), "crash")
			checkCfg := cfg
			checkCfg.Dir = work
			var states, tornSlots, tornHeaders, tornZeros, inBetween int
			for i := 0; i <= len(l.ops); i++ {
				if i > 0 {
					disk.step(l.ops[i-1])
				}
				k := 0
				for c, cand := range cands {
					if cand.ack >= 0 && cand.ack <= i {
						k = c
					}
				}
				for _, cs := range disk.states() {
					states++
					for name, w := range cs.torn {
						switch {
						case strings.HasPrefix(name, "sessions.snap."):
							tornSlots++
						case strings.HasPrefix(name, "sessions.wal.") && w.off == 0:
							tornHeaders++
						case strings.HasPrefix(name, "sessions.wal.") && lastNonzero(w.data) == 0:
							tornZeros++
						}
					}
					// A crash between rotation and snapshot leaves a pending
					// segment for the recovery to cover; one during the
					// first Open of a version-1 directory, a migration.
					nest := i >= between[0] && i < between[1]
					if nest {
						inBetween++
					}
					if tc.v1 && i < cands[1].ack {
						nest = true
					}
					if err := checkCrashState(t, checkCfg, cs, cands, k, nest); err != nil {
						t.Fatalf("crash after op %d/%d (%+v): %v", i, len(l.ops), opString(l.ops, i), err)
					}
				}
			}
			t.Logf("%d ops, %d crash states: %d torn slot writes, %d torn segment headers, %d torn zero-fills, %d between rotation and snapshot",
				len(l.ops), states, tornSlots, tornHeaders, tornZeros, inBetween)
			if tornSlots == 0 || tornHeaders == 0 || tornZeros == 0 || inBetween == 0 {
				t.Fatal("enumeration missed a required crash kind")
			}
		})
	}
}

func opString(ops []fsOp, i int) string {
	if i == 0 {
		return "start"
	}
	op := ops[i-1]
	return fmt.Sprintf("%s %s @%d len %d", op.kind, op.name, op.off, len(op.data))
}

// materialize makes dir hold exactly files.
func materialize(t *testing.T, dir string, files map[string][]byte) {
	t.Helper()
	if err := os.RemoveAll(dir); err != nil {
		t.Fatal(err)
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	for name, data := range files {
		if err := os.WriteFile(filepath.Join(dir, name), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

// recoverState opens cfg.Dir through fs and returns the store's state
// after Open and Close.
func recoverState(cfg Config, fs fsys) (map[string]State, error) {
	s, err := open(cfg, fs)
	if err != nil {
		return nil, fmt.Errorf("open: %w", err)
	}
	got := exportMap(s)
	if err := s.Close(); err != nil {
		return nil, fmt.Errorf("close: %w", err)
	}
	return got, nil
}

// checkCrashState writes cs into cfg.Dir, opens it and checks the five
// recovery properties, then reopens the recovered directory. With nest
// set, it also enumerates the crash points of the recovery itself: each
// must recover the same state.
func checkCrashState(t *testing.T, cfg Config, cs crashState, cands []candidate, k int, nest bool) error {
	materialize(t, cfg.Dir, cs.files)
	l := &logFS{}
	got, err := recoverState(cfg, l.fs())
	if err != nil {
		return err
	}
	match := -1
	for m := k; m < len(cands); m++ {
		if sameStates(got, cands[m].states) {
			match = m
			break
		}
	}
	if match < 0 {
		return fmt.Errorf("recovered state %v equals no state at or after acknowledged mutation %d (%v)", got, k, cands[k].states)
	}
	for u, st := range got {
		if st.Spent > cfg.Limit {
			return fmt.Errorf("user %s spent %g over the limit %g", u, st.Spent, cfg.Limit)
		}
		if st.HasMemo && st.Spent < crashStepEps {
			return fmt.Errorf("user %s has a memo but spent only %g", u, st.Spent)
		}
	}
	again, err := recoverState(cfg, noSyncFS())
	if err != nil {
		return fmt.Errorf("reopen after recovery: %w", err)
	}
	if !sameStates(got, again) {
		return fmt.Errorf("reopen after recovery changed the state: %v, then %v", got, again)
	}

	if !nest {
		return nil
	}
	nested := cfg
	nested.Dir = cfg.Dir + "-recovery"
	disk := newSimDisk(cs.files)
	for i := 0; i <= len(l.ops); i++ {
		if i > 0 {
			disk.step(l.ops[i-1])
		}
		for _, ns := range disk.states() {
			materialize(t, nested.Dir, ns.files)
			st, err := recoverState(nested, noSyncFS())
			if err != nil {
				return fmt.Errorf("crash %d ops into recovery (%s): %w", i, opString(l.ops, i), err)
			}
			if !sameStates(got, st) {
				return fmt.Errorf("crash %d ops into recovery (%s) recovered %v, want %v", i, opString(l.ops, i), st, got)
			}
		}
	}
	return nil
}

// TestJournalRotationSyncsWrittenRecords: a record written before a
// rotation and waited on after it is durable in every disk a crash could
// then leave, though the wait's own fsync is on the new segment.
func TestJournalRotationSyncsWrittenRecords(t *testing.T) {
	cfg := Config{Limit: 10, Window: time.Hour, Clock: v1Clock, Dir: t.TempDir(), CompactEvery: 1 << 30}
	l := &logFS{}
	s, err := open(cfg, l.fs())
	if err != nil {
		t.Fatal(err)
	}
	ticket, err := s.j.append(record{at: 1, seq: s.seq.Add(1), user: "x", spent: 1, windowStart: v1Clock().UnixNano()})
	if err != nil || ticket == 0 {
		t.Fatalf("append: ticket %d, %v", ticket, err)
	}
	if err := s.j.rotate(); err != nil {
		t.Fatal(err)
	}
	if err := s.j.wait(ticket); err != nil {
		t.Fatal(err)
	}
	disk := newSimDisk(nil)
	for _, op := range l.ops {
		disk.step(op)
	}
	check := cfg
	check.Dir = filepath.Join(t.TempDir(), "crash")
	for _, cs := range disk.states() {
		materialize(t, check.Dir, cs.files)
		got, err := recoverState(check, noSyncFS())
		if err != nil {
			t.Fatal(err)
		}
		if got["x"].Spent != 1 {
			t.Fatalf("acknowledged record lost: recovered %v", got)
		}
	}
	_ = s.j.close()
}
