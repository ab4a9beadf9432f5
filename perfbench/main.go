// Command perfbench is geoind's end-to-end and per-layer benchmark. It runs
// one named workload for a fixed time and prints, as the last line of its
// standard output, one JSON object with the run's correctness verdict and
// metrics: the end-to-end metrics with -trace 0, the per-layer metrics of a
// separate traced run with -trace 1. It exits non-zero when any request
// fails, any output check fails or the ε audit finds a mismatch.
//
// Workloads (every one serves MSM over the synthetic Gowalla prior, eps=1,
// g=6, fixed mechanism seed; the workload seed only shapes the inputs):
//
//	report-warm    the geoind-server binary with a memory-only ledger; 80%
//	               /v1/report, 20% 16-point /v1/report:batch, Zipf users,
//	               hotspot locations
//	trace-durable  the binary with -ledger-dir (fsync every record) and the
//	               predictive /v1/trace endpoint; each user walks on one
//	               connection
//	sanitize-bulk  the geoind facade in-process: ReportBatchCtx over the
//	               265,571 synthetic check-ins in batches of 1024
//
// HTTP workloads run a closed loop of nproc connections from this process.
// Build and run it through run.sh from the repository root.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"geoind/internal/geo"
	"geoind/internal/server"
)

// setupRepeats is how many times a run sets up; setup_s is their median.
const setupRepeats = 5

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// bench is one run of one workload.
type bench struct {
	root, serverBin, work string
	workload              string
	seed                  uint64
	dur                   time.Duration
	conns, workers        int
	fsyncUS               float64 // median Store.Sync time, measured once per run

	metrics           map[string]metric
	attempted, failed int64
	errs              []string
	dirs              []string // ledger directories to remove at exit
}

func (b *bench) set(name string, v float64, unit string) { b.metrics[name] = metric{v, unit} }

// failf records a correctness failure that is not one request's.
func (b *bench) failf(format string, args ...any) {
	b.errs = append(b.errs, fmt.Sprintf(format, args...))
}

func main() {
	var (
		b       bench
		seed    uint64
		seconds int
		trace   int
	)
	flag.StringVar(&b.workload, "workload", "", "report-warm, trace-durable or sanitize-bulk")
	flag.Uint64Var(&seed, "seed", 1, "workload seed: same seed, same inputs")
	flag.IntVar(&seconds, "seconds", 10, "measured seconds")
	flag.IntVar(&trace, "trace", 0, "1 = traced run reporting per-layer metrics")
	flag.StringVar(&b.root, "root", ".", "repository root")
	flag.StringVar(&b.serverBin, "server", "", "geoind-server binary")
	flag.Parse()
	b.seed, b.dur = seed, time.Duration(seconds)*time.Second
	b.conns, b.workers = runtime.NumCPU(), runtime.NumCPU()
	b.metrics = make(map[string]metric)
	b.work = filepath.Join(b.root, ".bench_build", "tmp")

	err := b.run(trace == 1)
	for _, d := range b.dirs {
		os.RemoveAll(d)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	for _, e := range b.errs {
		fmt.Fprintln(os.Stderr, "perfbench: check failed:", e)
	}
	names := make([]string, 0, len(b.metrics))
	for n := range b.metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(os.Stderr, "%-32s %14.6g %s\n", n, b.metrics[n].Value, b.metrics[n].Unit)
	}
	res := result{Correct: len(b.errs) == 0 && b.failed == 0, Attempted: b.attempted, Failed: b.failed, Metrics: b.metrics}
	out, _ := json.Marshal(res) // plain structs and finite floats
	fmt.Println(string(out))
	if !res.Correct {
		os.Exit(1)
	}
}

func (b *bench) run(traced bool) error {
	if b.serverBin == "" {
		return fmt.Errorf("-server is required (run through perfbench/run.sh)")
	}
	switch b.workload {
	case "report-warm", "trace-durable", "sanitize-bulk":
	default:
		return fmt.Errorf("unknown workload %q", b.workload)
	}
	if err := os.MkdirAll(b.work, 0o755); err != nil {
		return err
	}
	if err := b.printEnv(traced); err != nil {
		return err
	}
	switch {
	case traced:
		return b.runTraced()
	case b.workload == "sanitize-bulk":
		return b.runBulk()
	}
	return b.runHTTP()
}

// printEnv writes the environment stamp as one JSON line, so a slow disk or
// a different core count is visible next to the numbers.
func (b *bench) printEnv(traced bool) error {
	var err error
	if b.fsyncUS, err = fsyncProbe(b.work); err != nil {
		return err
	}
	serverProcs := runtime.NumCPU()
	if v := os.Getenv("GOMAXPROCS"); v != "" {
		fmt.Sscan(v, &serverProcs)
	}
	env := map[string]any{
		"workload": b.workload, "seed": b.seed, "seconds": b.dur.Seconds(), "traced": traced,
		"nproc": runtime.NumCPU(), "connections": b.conns,
		"client_gomaxprocs": runtime.GOMAXPROCS(0), "server_gomaxprocs": serverProcs,
		"go_version": runtime.Version(), "git_commit": gitCommit(b.root),
		"ledger_fs": fsType(b.work), "session_fsync_us": b.fsyncUS,
	}
	out, err := json.Marshal(map[string]any{"env": env})
	if err != nil {
		return err
	}
	fmt.Println(string(out))
	return nil
}

// serverArgs is the geoind-server command line of an HTTP workload; with
// msm false it serves planar Laplace instead, with no prior. The durable
// workload gets a fresh ledger directory each time.
func (b *bench) serverArgs(msm bool) ([]string, error) {
	args := []string{"-eps", fmt.Sprint(mechEps), "-seed", fmt.Sprint(mechSeed), "-budget", fmt.Sprint(budgetLimit)}
	if msm {
		args = append(args, "-mechanism", "msm", "-g", fmt.Sprint(mechG), "-dataset", "gowalla", "-workers", "-1")
	} else {
		args = append(args, "-mechanism", "pl")
	}
	if b.workload == "trace-durable" {
		dir, err := os.MkdirTemp(b.work, "ledger-*")
		if err != nil {
			return nil, err
		}
		b.dirs = append(b.dirs, dir)
		args = append(args, "-ledger-dir", dir,
			"-trace-theta", fmt.Sprint(traceTheta), "-trace-eps-test", fmt.Sprint(traceEpsTest))
	}
	return args, nil
}

// startTimed starts the server setupRepeats times, keeps the last one
// running, and returns it with the median exec-to-ready time.
func (b *bench) startTimed() (*serverProc, float64, error) {
	var ready []float64
	for i := 0; ; i++ {
		args, err := b.serverArgs(true)
		if err != nil {
			return nil, 0, err
		}
		p, err := startServer(b.serverBin, filepath.Join(b.work, fmt.Sprintf("server-%d.log", i)), args)
		if err != nil {
			return nil, 0, err
		}
		ready = append(ready, p.ready.Seconds())
		if i == setupRepeats-1 {
			return p, median(ready), nil
		}
		if err := p.stop(); err != nil {
			return nil, 0, err
		}
	}
}

// ops generates each connection's requests for this workload. Report ops
// are a pool each connection sends in a cycle. Trace steps never wrap, since
// a walk that wraps jumps back to its start: there are n[c] of them for
// connection c, or with n nil more than a run can send.
func (b *bench) ops(tag string, side float64, n []int) [][]op {
	conns := make([][]op, b.conns)
	for c := range conns {
		if b.workload != "trace-durable" {
			conns[c] = reportOps(b.seed, c, reportPool, tag, side, batchFrac)
			continue
		}
		k := traceStepsPerSec * int(b.dur.Seconds()+1)
		if n != nil {
			k = n[c]
		}
		conns[c] = traceOps(b.seed, c, k, tag, side)
	}
	return conns
}

const (
	reportPool       = 8192 // report-warm ops per connection, sent in a cycle
	traceStepsPerSec = 5000 // trace steps generated per connection per second
)

// runHTTP is the untraced run of report-warm or trace-durable against the
// real server binary.
func (b *bench) runHTTP() error {
	p, setup, err := b.startTimed()
	if err != nil {
		return err
	}
	defer p.stop()
	b.set("setup_s", setup, "s")

	d := newDriver(p.base, b.conns, geo.Rect{}, 0, 0)
	if err := b.configure(d); err != nil {
		return err
	}
	conns := b.ops("", d.region.Width(), nil)
	var before, after server.StatsResponse
	if err := d.getJSON("/v1/stats", &before); err != nil {
		return err
	}
	t, _ := d.run(conns, b.dur, nil)
	if err := d.getJSON("/v1/stats", &after); err != nil {
		return err
	}
	if miss := after.ChannelCache.Misses - before.ChannelCache.Misses; miss != 0 {
		b.failf("channel store solved %d channels after set-up", miss)
	}
	b.addTally(t)
	if err := auditEps(budgetLimit, t.charged, d.remaining); err != nil {
		b.failf("%v", err)
	}
	rss, err := peakRSSMB(p.cmd.Process.Pid)
	if err != nil {
		return err
	}
	b.set("rss_mb", rss, "MB")
	b.setWindows(t.samples)
	b.set("eps_per_point", t.epsTotal/float64(t.points), "eps")
	b.set("loss_km", t.lossSum/float64(t.points), "km")
	return nil
}

// configure reads the served region and ε from /v1/info.
func (b *bench) configure(d *driver) error {
	var info server.InfoResponse
	if err := d.getJSON("/v1/info", &info); err != nil {
		return err
	}
	d.region, d.eps = geo.NewSquare(info.RegionSideKm), info.Epsilon
	if info.Epsilon != mechEps || info.BudgetLimit != budgetLimit {
		return fmt.Errorf("server runs eps=%g budget=%g, want eps=%g budget=%g", info.Epsilon, info.BudgetLimit, mechEps, budgetLimit)
	}
	if b.workload == "trace-durable" {
		d.epsTest = traceEpsTest
	}
	return nil
}

// setWindows reports the throughput and latency metrics of a run.
func (b *bench) setWindows(samples []sample) {
	okPerS, pointsPerS, p50, p99 := windowStats(samples)
	b.set("ok_rps", okPerS, "1/s")
	b.set("points_per_s", pointsPerS, "1/s")
	b.set("p50_ms", ms(p50), "ms")
	b.set("p99_ms", ms(p99), "ms")
}

func (b *bench) addTally(t *tally) {
	b.attempted += t.attempted
	b.failed += t.failed
	if t.firstErr != nil {
		b.failf("%s: %d of %d requests failed, first: %v", b.workload, t.failed, t.attempted, t.firstErr)
	}
	if t.points == 0 {
		b.failf("%s: no location was released", b.workload)
	}
}
