package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"geoind"
	"geoind/internal/channel"
	"geoind/internal/geo"
	"geoind/internal/server"
	"geoind/internal/session"
)

// stack is the in-process serving stack of a traced run: the packages and
// configuration of the geoind-server binary, with span wrappers at the
// server and mechanism seams, served over loopback.
type stack struct {
	srv    *server.Server
	ledger *server.Ledger
	hs     *http.Server
	base   string
	served chan error
}

func newStack(m *geoind.MSM, region geo.Rect, tr *tracer, ledgerDir string) (*stack, error) {
	var ledger *server.Ledger
	var err error
	if ledgerDir != "" {
		st, err := session.Open(session.Config{Limit: budgetLimit, Window: 24 * time.Hour, Dir: ledgerDir})
		if err != nil {
			return nil, err
		}
		ledger, err = server.NewLedgerStore(st)
		if err != nil {
			return nil, err
		}
	} else if ledger, err = server.NewLedger(budgetLimit, 24*time.Hour, nil); err != nil {
		return nil, err
	}
	srv, err := server.New(tracedMech{m: m, tr: tr}, ledger, region)
	if err != nil {
		return nil, err
	}
	if err := srv.EnableTrace(server.TraceConfig{Theta: traceTheta, EpsTest: traceEpsTest, Seed: mechSeed}); err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	s := &stack{srv: srv, ledger: ledger, base: "http://" + ln.Addr().String(), served: make(chan error, 1)}
	s.hs = &http.Server{Handler: tracedHandler{next: srv, tr: tr}}
	go func() { s.served <- s.hs.Serve(ln) }()
	return s, nil
}

func (s *stack) close() error {
	err := s.hs.Shutdown(context.Background())
	if serr := <-s.served; !errors.Is(serr, http.ErrServerClosed) && err == nil {
		err = serr
	}
	if cerr := s.ledger.Sessions().Close(); err == nil {
		err = cerr
	}
	return err
}

// Requests each class probe sends when the workload's own traffic has none
// of that class.
var probeOps = [numClasses]int{2000, 300, 2000}

// runTraced is the traced run of any workload. It reports the per-layer
// metrics: the workload's traffic runs through the traced in-process stack
// (after an untraced phase on the same inputs, for the tracing overhead),
// classes the workload does not send are probed on one connection, and each
// layer's public functions are timed directly.
func (b *bench) runTraced() error {
	httpLoad := b.workload != "sanitize-bulk"
	// The set-up residual is what set-up costs beyond building the mechanism:
	// for the server, exec to ready with the same flags but planar Laplace,
	// which needs no prior and solves no channel.
	var residual time.Duration
	if httpLoad {
		args, err := b.serverArgs(false)
		if err != nil {
			return err
		}
		p, err := startServer(b.serverBin, filepath.Join(b.work, "server-bare.log"), args)
		if err != nil {
			return err
		}
		residual = p.ready
		if err := p.stop(); err != nil {
			return err
		}
	}
	t0 := time.Now()
	ds, m, st, err := buildMSM(b.workers)
	if err != nil {
		return err
	}
	if !httpLoad {
		residual = time.Since(t0) - st.total
	}
	region := ds.Region()
	b.set("setup.dataset_s", st.dataset.Seconds(), "s")
	b.set("setup.new_s", st.build.Seconds(), "s")
	b.set("setup.precompute_s", st.precompute.Seconds(), "s")
	b.set("setup.residual_s", residual.Seconds(), "s")
	b.set("lp.solves", float64(m.StoreStats().Misses), "count")

	tr := newTracer()
	ledgerDir := ""
	if b.workload == "trace-durable" {
		if ledgerDir, err = os.MkdirTemp(b.work, "ledger-*"); err != nil {
			return err
		}
		defer os.RemoveAll(ledgerDir)
	}
	stk, err := newStack(m, region, tr, ledgerDir)
	if err != nil {
		return err
	}
	defer stk.close()
	d := newDriver(stk.base, b.conns, region, mechEps, traceEpsTest)
	charged := make(map[string]float64)

	// The workload's own traffic: an untraced phase of half the run, then a
	// traced phase sending exactly the same ops (under fresh user IDs, so
	// trace sessions start alike). Counters cover the traced phase.
	var untracedLat, tracedLat []time.Duration
	var ops float64
	var memoRate float64
	var chBefore channel.Stats
	var sessBefore, sessAfter session.Stats
	var gc0, gc1 runtime.MemStats
	before := func() {
		chBefore, sessBefore = m.StoreStats(), stk.ledger.Sessions().Stats()
		runtime.ReadMemStats(&gc0)
	}
	after := func() {
		runtime.ReadMemStats(&gc1)
		sessAfter = stk.ledger.Sessions().Stats()
	}
	if httpLoad {
		tu, sent := d.run(b.ops("a", region.Width(), nil), b.dur/2, nil)
		b.addTally(tu)
		d.tr = tr
		before()
		tt, _ := d.run(b.ops("b", region.Width(), sent), 0, sent)
		after()
		b.addTally(tt)
		untracedLat, tracedLat, ops = latencies(tu.samples), latencies(tt.samples), float64(tt.attempted)
		if tt.fresh+tt.memo > 0 {
			memoRate = float64(tt.memo) / float64(tt.fresh+tt.memo)
		}
		for _, t := range []*tally{tu, tt} {
			for u, e := range t.charged {
				charged[u] += e
			}
		}
	} else {
		pts := bulkInput(ds, b.seed)
		leaf := leafGrid{region, m.LeafGranularity()}
		tu := bulkLoop(tracedMech{m: m}, nil, pts, leaf, b.dur/2, 0)
		b.addBulk(tu)
		before()
		tt := bulkLoop(tracedMech{m: m, tr: tr}, tr, pts, leaf, 0, tu.calls)
		after()
		b.addBulk(tt)
		untracedLat, tracedLat, ops = latencies(tu.samples), latencies(tt.samples), float64(tt.calls)
	}
	chAfter := m.StoreStats()
	traffic := tr.snapshot()

	hits, misses := chAfter.Hits-chBefore.Hits, chAfter.Misses-chBefore.Misses
	if misses != 0 {
		b.failf("channel store solved %d channels after set-up", misses)
	}
	b.set("channel.steady_misses", float64(misses), "count")
	b.set("channel.hit_ratio", float64(hits)/float64(max(hits+misses, 1)), "ratio")
	b.set("gc.cycles_per_kop", float64(gc1.NumGC-gc0.NumGC)/ops*1000, "count")
	b.set("trace.overhead_us", us(percentile(tracedLat, 50)-percentile(untracedLat, 50)), "us")
	b.setJournal(sessBefore, sessAfter, ops)

	// Probe the classes the traffic did not send, so every class has spans.
	sent := make(map[class]bool)
	for _, s := range traffic {
		if s.name == spanHandler {
			sent[s.class] = true
		}
	}
	for c := range numClasses {
		if sent[c] {
			continue
		}
		pd := newDriver(stk.base, 1, region, mechEps, traceEpsTest)
		pd.tr = tr
		pt, _ := pd.run([][]op{classOps(c, b.seed, 0, probeOps[c], "p", region.Width())}, 0, []int{probeOps[c]})
		b.addTally(pt)
		if c == classTrace {
			memoRate = float64(pt.memo) / float64(max(pt.fresh+pt.memo, 1))
		}
		for u, e := range pt.charged {
			charged[u] += e
		}
	}
	all := tr.snapshot()
	b.setSpanMetrics(traffic, all[len(traffic):])
	b.set("trajectory.memo_hit_rate", memoRate, "ratio")
	if err := auditEps(budgetLimit, charged, d.remaining); err != nil {
		b.failf("%v", err)
	}

	if err := b.allocProbes(stk.srv, region); err != nil {
		return err
	}
	if err := b.corePerPoint(m, ds); err != nil {
		return err
	}
	if err := b.sessionProbes(); err != nil {
		return err
	}
	return tr.dump(filepath.Join(b.work, b.workload+"-spans.csv"))
}

// setJournal reports the session journal's work per request over the traced
// traffic; a memory-only ledger has no journal and reports zeros.
func (b *bench) setJournal(before, after session.Stats, ops float64) {
	var recs, syncs, bytes, comps float64
	if before.Journal != nil && after.Journal != nil {
		recs = float64(after.Journal.Records - before.Journal.Records)
		syncs = float64(after.Journal.Syncs - before.Journal.Syncs)
		bytes = float64(after.Journal.Bytes - before.Journal.Bytes)
		comps = float64(after.Journal.Compactions - before.Journal.Compactions)
	}
	b.set("session.records_per_step", recs/ops, "count")
	b.set("session.fsyncs_per_step", syncs/ops, "count")
	b.set("session.bytes_per_step", bytes/ops, "bytes")
	b.set("session.compactions", comps, "count")
}

// setSpanMetrics derives the server, network and core metrics from spans:
// from the workload's traffic where it exercised the seam, otherwise from
// the class probes.
func (b *bench) setSpanMetrics(traffic, probes []span) {
	pick := func(f func([]span) []float64) []float64 {
		if v := f(traffic); len(v) > 0 {
			return v
		}
		return f(probes)
	}
	for c := range numClasses {
		handler := pick(func(s []span) []float64 { return handlerTimes(s, c, false) })
		self := pick(func(s []span) []float64 { return handlerTimes(s, c, true) })
		b.set("server.handler_us."+classNames[c], median(handler)/1e3, "us")
		b.set("server.self_us."+classNames[c], median(self)/1e3, "us")
	}
	overhead := pick(func(spans []span) []float64 {
		t := newSpanTree(spans)
		var v []float64
		for i, s := range spans {
			if s.name == spanClient && s.class == classReport {
				if h, ok := t.child(i, spanHandler); ok {
					v = append(v, float64(s.dur()-h.dur()))
				}
			}
		}
		return v
	})
	b.set("net.overhead_us.report", median(overhead)/1e3, "us")
	perPoint := func(name spanName) func([]span) []float64 {
		return func(spans []span) []float64 {
			var v []float64
			for _, s := range spans {
				if s.name == name {
					v = append(v, float64(s.dur())/float64(s.n))
				}
			}
			return v
		}
	}
	b.set("core.report_ns", median(pick(perPoint(spanMechOne))), "ns")
	b.set("core.batch_ns_per_point", median(pick(perPoint(spanMechBatch))), "ns")
}

// handlerTimes lists the durations (or self times) of class c's handler
// spans, in ns.
func handlerTimes(spans []span, c class, self bool) []float64 {
	t := newSpanTree(spans)
	var v []float64
	for i, s := range spans {
		if s.name != spanHandler || s.class != c {
			continue
		}
		if self {
			v = append(v, float64(t.self(i)))
		} else {
			v = append(v, float64(s.dur()))
		}
	}
	return v
}

// allocProbes counts heap allocations per request of each class through
// *server.Server.ServeHTTP on a ResponseRecorder, with no span wrapper.
func (b *bench) allocProbes(srv *server.Server, region geo.Rect) error {
	const n = 200
	for c := range numClasses {
		ops := classOps(c, b.seed, 1, n, "q", region.Width())
		reqs := make([]*http.Request, n)
		recs := make([]*httptest.ResponseRecorder, n)
		for i, o := range ops {
			reqs[i] = httptest.NewRequest(http.MethodPost, classPaths[c], bytes.NewReader(o.body))
			recs[i] = httptest.NewRecorder()
		}
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		for i := range reqs {
			srv.ServeHTTP(recs[i], reqs[i])
		}
		runtime.ReadMemStats(&m1)
		for _, r := range recs {
			if r.Code != http.StatusOK {
				return fmt.Errorf("alloc probe %s: status %d: %s", classPaths[c], r.Code, r.Body.Bytes())
			}
		}
		b.set("server.allocs_per_req."+classNames[c], float64(m1.Mallocs-m0.Mallocs)/n, "count")
	}
	return nil
}

// corePerPoint counts heap allocations per released location of the pooled
// batch path.
func (b *bench) corePerPoint(m *geoind.MSM, ds *geoind.Dataset) error {
	const batches = 8
	pts := bulkInput(ds, b.seed)[:batches*bulkBatch]
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for i := range batches {
		if _, err := m.ReportBatchCtx(context.Background(), pts[i*bulkBatch:(i+1)*bulkBatch]); err != nil {
			return err
		}
	}
	runtime.ReadMemStats(&m1)
	b.set("core.allocs_per_point", float64(m1.Mallocs-m0.Mallocs)/float64(len(pts)), "count")
	return nil
}

// sessionProbes times Store.Spend on a memory-only store and on a journaled
// store that fsyncs every record, in the benchmark's own directory, and
// Store.Sync on its own.
func (b *bench) sessionProbes() error {
	mem, err := session.Open(session.Config{Limit: budgetLimit, Window: time.Hour})
	if err != nil {
		return err
	}
	users := make([]string, numUsers)
	for i := range users {
		users[i] = fmt.Sprintf("u%d", i)
	}
	var rounds []float64
	for range 20 {
		t0 := time.Now()
		for _, u := range users {
			if err := mem.Spend(u, 1); err != nil {
				return err
			}
		}
		rounds = append(rounds, us(time.Since(t0))/numUsers)
	}
	b.set("session.spend_us.mem", median(rounds), "us")

	dir, err := os.MkdirTemp(b.work, "spend-*")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	st, err := session.Open(session.Config{Limit: budgetLimit, Window: time.Hour, Dir: dir, SyncEvery: 1})
	if err != nil {
		return err
	}
	var per []float64
	for i := range 100 {
		t0 := time.Now()
		if err := st.Spend(fmt.Sprintf("u%d", i%numUsers), 1); err != nil {
			return err
		}
		per = append(per, us(time.Since(t0)))
	}
	b.set("session.spend_us.sync1", median(per), "us")
	b.set("session.fsync_us", b.fsyncUS, "us")
	return st.Close()
}

// fsyncProbe is the median time of Store.Sync after one unsynced append, in
// µs, on a journal under dir.
func fsyncProbe(work string) (float64, error) {
	dir, err := os.MkdirTemp(work, "fsync-*")
	if err != nil {
		return 0, err
	}
	defer os.RemoveAll(dir)
	st, err := session.Open(session.Config{Limit: budgetLimit, Window: time.Hour, Dir: dir, SyncEvery: 1 << 30, CompactEvery: 1 << 30})
	if err != nil {
		return 0, err
	}
	var per []float64
	for i := range 50 {
		if err := st.Spend(fmt.Sprintf("u%d", i), 1); err != nil {
			return 0, err
		}
		t0 := time.Now()
		if err := st.Sync(); err != nil {
			return 0, err
		}
		per = append(per, us(time.Since(t0)))
	}
	return median(per), st.Close()
}
