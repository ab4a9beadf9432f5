// Command loadgen drives synthetic traffic at a running geoind-server (or
// an in-process one with -self) and reports the latency and error profile
// the way a capacity test would see it.
//
// The workload models the paper's setting rather than uniform noise: user
// IDs are Zipf-distributed (a few heavy hitters dominate, stressing
// per-user budget windows), locations follow a hotspot mixture (most
// reports cluster around a few popular places), traffic mixes single
// reports with batches (-batch-frac, -batch-size), and a configurable
// fraction of requests is abandoned mid-flight (-chaos-frac) to exercise
// the cancellation and budget-refund paths.
//
// Two pacing modes:
//
//   - closed loop (default): -workers goroutines issue requests
//     back-to-back, so offered load adapts to server latency.
//   - open loop (-rps > 0): arrivals are paced at a fixed rate regardless
//     of completions (bounded by -workers concurrent requests), which is
//     what reveals queueing collapse.
//
// The run summary — per-class p50/p99/p999, status-code counts, error and
// budget-refund rates (scraped from the server's /metrics) — is written to
// -out in the same JSON schema `cmd/benchjson` records, so a committed
// baseline diffs with:
//
//	go run ./cmd/benchjson -diff -threshold 50 BENCH_load.json new.json
//
// With -max-5xx and -max-p99 the command exits non-zero when the run
// violates the bound, making it usable as a CI smoke-load gate:
//
//	go run ./cmd/loadgen -self -duration 5s -max-5xx 0 -max-p99 500ms
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"hash/fnv"
	"io"
	"log"
	"net"
	"net/http"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"geoind"
	"geoind/internal/metrics"
	"geoind/internal/server"
)

type config struct {
	url      string
	targets  string
	affinity string
	duration time.Duration
	workers  int
	rps      float64
	timeout  time.Duration

	users     uint64
	zipfS     float64
	hotspots  int
	hotFrac   float64
	batchFrac float64
	batchSize int
	traceFrac float64
	chaosFrac float64
	chaosAt   time.Duration
	seed      int64

	out    string
	max5xx int64
	maxP99 time.Duration

	self          bool
	selfMech      string
	selfEps       float64
	selfBudget    float64
	selfMaxSolves int
}

func main() {
	var cfg config
	flag.StringVar(&cfg.url, "url", "", "base URL of a running geoind-server (e.g. http://localhost:8080); empty requires -self or -targets")
	flag.StringVar(&cfg.targets, "targets", "", "comma-separated base URLs of a replica fleet; traffic is spread across them per -affinity and each replica's /metrics is scraped for the fleet duplicate-solve estimate")
	flag.StringVar(&cfg.affinity, "affinity", "rr", "fleet traffic distribution with -targets: rr (round-robin per request) or user (each user ID sticks to one replica)")
	flag.DurationVar(&cfg.duration, "duration", 10*time.Second, "how long to drive load")
	flag.IntVar(&cfg.workers, "workers", 8, "closed-loop workers / open-loop concurrency cap")
	flag.Float64Var(&cfg.rps, "rps", 0, "open-loop arrival rate in requests/sec (0 = closed loop)")
	flag.DurationVar(&cfg.timeout, "timeout", 10*time.Second, "per-request client timeout")
	flag.Uint64Var(&cfg.users, "users", 1000, "distinct user IDs")
	flag.Float64Var(&cfg.zipfS, "zipf-s", 1.3, "Zipf exponent for user popularity (> 1; larger = more skew)")
	flag.IntVar(&cfg.hotspots, "hotspots", 5, "number of spatial hotspots in the location prior")
	flag.Float64Var(&cfg.hotFrac, "hotspot-frac", 0.8, "fraction of reports drawn from a hotspot (rest uniform)")
	flag.Float64Var(&cfg.batchFrac, "batch-frac", 0.2, "fraction of requests sent as /v1/report:batch")
	flag.IntVar(&cfg.batchSize, "batch-size", 16, "points per batch request")
	flag.Float64Var(&cfg.traceFrac, "trace-frac", 0, "fraction of requests sent as /v1/trace continuous-reporting steps: each user follows a persistent random walk, so the server's predictive memo gets realistic dwell patterns (requires a trace-enabled target; with -self also -self-budget)")
	flag.Float64Var(&cfg.chaosFrac, "chaos-frac", 0.05, "fraction of requests abandoned mid-flight (client disconnect chaos)")
	flag.DurationVar(&cfg.chaosAt, "chaos-after", 2*time.Millisecond, "mean time before a chaos request is abandoned")
	flag.Int64Var(&cfg.seed, "seed", 1, "workload RNG seed")
	flag.StringVar(&cfg.out, "out", "", "write the JSON summary here (benchjson-compatible; empty = stdout only)")
	flag.Int64Var(&cfg.max5xx, "max-5xx", -1, "fail (exit 1) if more than this many 5xx responses (-1 = no gate)")
	flag.DurationVar(&cfg.maxP99, "max-p99", 0, "fail (exit 1) if single-report p99 exceeds this (0 = no gate)")
	flag.BoolVar(&cfg.self, "self", false, "serve an in-process geoind-server on a loopback port instead of targeting -url")
	flag.StringVar(&cfg.selfMech, "self-mech", "pl", "-self mechanism: pl or msm")
	flag.Float64Var(&cfg.selfEps, "self-eps", 0.25, "-self privacy budget per report")
	flag.Float64Var(&cfg.selfBudget, "self-budget", 0, "-self per-user budget per 1h window (0 = enforcement disabled)")
	flag.IntVar(&cfg.selfMaxSolves, "self-max-solves", 0, "-self cold-solve admission bound (0 = unbounded; msm only)")
	flag.Parse()

	os.Exit(run(cfg, os.Stdout))
}

func run(cfg config, out io.Writer) int {
	modes := 0
	for _, on := range []bool{cfg.url != "", cfg.targets != "", cfg.self} {
		if on {
			modes++
		}
	}
	if modes != 1 {
		log.Print("loadgen: exactly one of -url, -targets or -self is required")
		return 2
	}
	if cfg.workers < 1 || cfg.batchSize < 1 {
		log.Print("loadgen: -workers and -batch-size must be >= 1")
		return 2
	}
	if cfg.traceFrac < 0 || cfg.traceFrac > 1 {
		log.Print("loadgen: -trace-frac must be in [0, 1]")
		return 2
	}
	if cfg.traceFrac > 0 && cfg.self && cfg.selfBudget <= 0 {
		log.Print("loadgen: -trace-frac with -self requires -self-budget > 0 (the trace endpoint needs budget sessions)")
		return 2
	}
	if cfg.affinity == "" {
		cfg.affinity = "rr"
	}
	if cfg.affinity != "rr" && cfg.affinity != "user" {
		log.Printf("loadgen: unknown -affinity %q (rr or user)", cfg.affinity)
		return 2
	}
	targets := []string{cfg.url}
	if cfg.targets != "" {
		targets = targets[:0]
		for _, t := range strings.Split(cfg.targets, ",") {
			if t = strings.TrimSpace(t); t != "" {
				targets = append(targets, t)
			}
		}
		if len(targets) == 0 {
			log.Print("loadgen: -targets is empty")
			return 2
		}
	}
	if cfg.self {
		selfURL, shutdown, err := startSelfServer(cfg)
		if err != nil {
			log.Printf("loadgen: start in-process server: %v", err)
			return 2
		}
		targets = []string{selfURL}
		defer shutdown()
	}
	base := targets[0]

	info, err := fetchInfo(base, cfg.timeout)
	if err != nil {
		log.Printf("loadgen: %v", err)
		return 2
	}
	log.Printf("target %s (%d replicas): mechanism=%s eps=%g region side=%g km",
		base, len(targets), info.Mechanism, info.Epsilon, info.RegionSideKm)

	r := newRunner(cfg, targets)
	summary, err := r.drive(info.RegionSideKm)
	if err != nil {
		log.Printf("loadgen: %v", err)
		return 2
	}
	summary.scrapeBudget(base, cfg.timeout)
	if len(targets) > 1 {
		summary.scrapeFleet(targets, cfg.timeout)
	}

	doc := summary.benchDocument()
	enc := json.NewEncoder(out)
	enc.SetIndent("", "  ")
	if err := enc.Encode(doc); err != nil {
		log.Printf("loadgen: %v", err)
		return 2
	}
	if cfg.out != "" {
		buf, _ := json.MarshalIndent(doc, "", "  ")
		buf = append(buf, '\n')
		if err := os.WriteFile(cfg.out, buf, 0o644); err != nil {
			log.Printf("loadgen: %v", err)
			return 2
		}
		log.Printf("wrote %s", cfg.out)
	}
	summary.print()
	return summary.assert(cfg)
}

// infoResponse mirrors the fields of /v1/info the generator needs.
type infoResponse struct {
	Mechanism    string  `json:"mechanism"`
	Epsilon      float64 `json:"epsilon_per_report"`
	RegionSideKm float64 `json:"region_side_km"`
}

func fetchInfo(base string, timeout time.Duration) (*infoResponse, error) {
	client := &http.Client{Timeout: timeout}
	resp, err := client.Get(base + "/v1/info")
	if err != nil {
		return nil, fmt.Errorf("fetch /v1/info: %w", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("fetch /v1/info: status %d", resp.StatusCode)
	}
	var info infoResponse
	if err := json.NewDecoder(resp.Body).Decode(&info); err != nil {
		return nil, fmt.Errorf("decode /v1/info: %w", err)
	}
	if info.RegionSideKm <= 0 {
		return nil, fmt.Errorf("/v1/info reports region side %g", info.RegionSideKm)
	}
	return &info, nil
}

// startSelfServer builds a mechanism + server and serves it on a loopback
// port, so CI smoke runs need no external process.
func startSelfServer(cfg config) (baseURL string, shutdown func(), err error) {
	region := geoind.Square(20)
	var mech server.Reporter
	switch cfg.selfMech {
	case "pl":
		m, err := geoind.NewPlanarLaplace(geoind.LaplaceConfig{Eps: cfg.selfEps, Seed: uint64(cfg.seed)})
		if err != nil {
			return "", nil, err
		}
		mech = m
	case "msm":
		m, err := geoind.NewMSM(geoind.MSMConfig{
			Eps: cfg.selfEps, Region: region, Granularity: 3,
			Seed: uint64(cfg.seed), Workers: -1, MaxSolves: cfg.selfMaxSolves,
		})
		if err != nil {
			return "", nil, err
		}
		mech = m
	default:
		return "", nil, fmt.Errorf("unknown -self-mech %q (pl or msm)", cfg.selfMech)
	}
	var ledger *server.Ledger
	if cfg.selfBudget > 0 {
		if ledger, err = server.NewLedger(cfg.selfBudget, time.Hour, nil); err != nil {
			return "", nil, err
		}
	}
	srv, err := server.New(mech, ledger, region)
	if err != nil {
		return "", nil, err
	}
	if cfg.traceFrac > 0 {
		// Theta covers the random walk's typical step so dwelling users hit
		// the memo; epsTest at eps/4 keeps the test cheap relative to a
		// fresh report.
		if err := srv.EnableTrace(server.TraceConfig{
			Theta:   2,
			EpsTest: cfg.selfEps / 4,
			Seed:    uint64(cfg.seed),
		}); err != nil {
			return "", nil, err
		}
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", nil, err
	}
	httpSrv := &http.Server{Handler: srv}
	go func() {
		if err := httpSrv.Serve(ln); err != nil && !errors.Is(err, http.ErrServerClosed) {
			log.Printf("loadgen: self server: %v", err)
		}
	}()
	shutdown = func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		_ = httpSrv.Shutdown(ctx)
	}
	return "http://" + ln.Addr().String(), shutdown, nil
}

// latencyBounds are the loadgen histogram buckets: log-spaced (x1.25) from
// 50µs to ~60s, fine enough that interpolated p999 is within one bucket
// ratio of the true value.
var latencyBounds = func() []float64 {
	var b []float64
	for v := 50e-6; v < 60; v *= 1.25 {
		b = append(b, v)
	}
	return b
}()

// runner owns the shared, concurrency-safe run state. Latencies go into
// lock-free histograms; status counts into a small mutex-guarded map.
type runner struct {
	cfg     config
	targets []string
	rr      atomic.Uint64 // round-robin cursor across targets
	client  *http.Client

	reportHist *metrics.Histogram
	batchHist  *metrics.Histogram
	traceHist  *metrics.Histogram

	mu     sync.Mutex
	status map[int]int64

	reports, batches, traces atomic.Int64 // completed with an HTTP status
	canceled, transport      atomic.Int64
}

func newRunner(cfg config, targets []string) *runner {
	return &runner{
		cfg:     cfg,
		targets: targets,
		client: &http.Client{
			Timeout: cfg.timeout,
			Transport: &http.Transport{
				MaxIdleConns:        cfg.workers * 2 * len(targets),
				MaxIdleConnsPerHost: cfg.workers * 2,
			},
		},
		reportHist: metrics.NewHistogram(latencyBounds),
		batchHist:  metrics.NewHistogram(latencyBounds),
		traceHist:  metrics.NewHistogram(latencyBounds),
		status:     make(map[int]int64),
	}
}

// target picks the replica a request goes to: round-robin spreads every
// request (cold channels land on arbitrary replicas, the worst case for
// duplicate solves), user affinity models a session-sticky load balancer.
func (r *runner) target(user string) string {
	if len(r.targets) == 1 {
		return r.targets[0]
	}
	if r.cfg.affinity == "user" {
		h := fnv.New64a()
		_, _ = h.Write([]byte(user))
		return r.targets[h.Sum64()%uint64(len(r.targets))]
	}
	return r.targets[r.rr.Add(1)%uint64(len(r.targets))]
}

// drive runs the configured load and returns the summary. Closed loop:
// every worker issues back-to-back. Open loop: a pacer feeds a token
// channel at -rps; workers block on tokens, so arrivals are rate-driven
// but concurrency stays capped at -workers (a partly-open system).
func (r *runner) drive(side float64) (*summary, error) {
	deadline := time.Now().Add(r.cfg.duration)
	ctx, cancel := context.WithDeadline(context.Background(), deadline)
	defer cancel()

	var tokens chan struct{}
	if r.cfg.rps > 0 {
		tokens = make(chan struct{}, r.cfg.workers)
		interval := time.Duration(float64(time.Second) / r.cfg.rps)
		if interval <= 0 {
			return nil, fmt.Errorf("rps %g too high to pace", r.cfg.rps)
		}
		go func() {
			tick := time.NewTicker(interval)
			defer tick.Stop()
			for {
				select {
				case <-ctx.Done():
					return
				case <-tick.C:
					select {
					case tokens <- struct{}{}:
					default: // all workers busy: the arrival is shed, not queued
					}
				}
			}
		}()
	}

	var wg sync.WaitGroup
	for i := 0; i < r.cfg.workers; i++ {
		w, err := newWorkload(r.cfg.seed+int64(i)*7919, side, r.cfg.users,
			r.cfg.zipfS, r.cfg.hotspots, r.cfg.hotFrac)
		if err != nil {
			cancel()
			wg.Wait()
			return nil, err
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Now().Before(deadline) {
				if tokens != nil {
					select {
					case <-ctx.Done():
						return
					case <-tokens:
					}
				}
				r.one(ctx, w)
			}
		}()
	}
	start := time.Now()
	wg.Wait()
	elapsed := time.Since(start)
	if d := r.cfg.duration; elapsed > d {
		elapsed = d // workers overshoot the deadline by at most one request
	}
	return r.summarize(elapsed), nil
}

// one issues a single request: a batch with probability batch-frac,
// otherwise a single report; with probability chaos-frac the request is
// abandoned after an exponentially distributed delay.
func (r *runner) one(ctx context.Context, w *workload) {
	draw := w.rng.Float64()
	isTrace := draw < r.cfg.traceFrac
	isBatch := !isTrace && draw < r.cfg.traceFrac+r.cfg.batchFrac
	var path string
	var body []byte
	user := w.user()
	if isTrace {
		path = "/v1/trace"
		x, y := w.traceStep(user)
		body = []byte(fmt.Sprintf(`{"user_id":%q,"x":%g,"y":%g}`, user, x, y))
	} else if isBatch {
		path = "/v1/report:batch"
		type rr struct {
			UserID string  `json:"user_id"`
			X      float64 `json:"x"`
			Y      float64 `json:"y"`
		}
		reqs := make([]rr, r.cfg.batchSize)
		for i := range reqs {
			x, y := w.point()
			reqs[i] = rr{UserID: user, X: x, Y: y}
		}
		body, _ = json.Marshal(reqs)
	} else {
		path = "/v1/report"
		x, y := w.point()
		body = []byte(fmt.Sprintf(`{"user_id":%q,"x":%g,"y":%g}`, user, x, y))
	}

	reqCtx := ctx
	if r.cfg.chaosFrac > 0 && w.rng.Float64() < r.cfg.chaosFrac {
		var cancel context.CancelFunc
		delay := time.Duration(w.rng.ExpFloat64() * float64(r.cfg.chaosAt))
		reqCtx, cancel = context.WithTimeout(ctx, delay)
		defer cancel()
	}
	req, err := http.NewRequestWithContext(reqCtx, http.MethodPost, r.target(user)+path, bytes.NewReader(body))
	if err != nil {
		r.transport.Add(1)
		return
	}
	req.Header.Set("Content-Type", "application/json")

	start := time.Now()
	resp, err := r.client.Do(req)
	lat := time.Since(start).Seconds()
	if err != nil {
		switch {
		case errors.Is(err, context.DeadlineExceeded), errors.Is(err, context.Canceled):
			r.canceled.Add(1) // chaos disconnect or run deadline: by design
		default:
			r.transport.Add(1)
		}
		return
	}
	_, _ = io.Copy(io.Discard, resp.Body)
	resp.Body.Close()

	switch {
	case isTrace:
		r.traces.Add(1)
		r.traceHist.Observe(lat)
	case isBatch:
		r.batches.Add(1)
		r.batchHist.Observe(lat)
	default:
		r.reports.Add(1)
		r.reportHist.Observe(lat)
	}
	r.mu.Lock()
	r.status[resp.StatusCode]++
	r.mu.Unlock()
}

// classStats is the per-request-class latency digest.
type classStats struct {
	Count  int64   `json:"count"`
	P50Ms  float64 `json:"p50_ms"`
	P99Ms  float64 `json:"p99_ms"`
	P999Ms float64 `json:"p999_ms"`
}

// summary is the machine-readable outcome of one run. It is embedded in the
// benchjson document under "load", next to the quantile "cases" that
// `benchjson -diff` compares.
type summary struct {
	Mode         string           `json:"mode"`
	DurationSec  float64          `json:"duration_sec"`
	Completed    int64            `json:"completed"`
	Throughput   float64          `json:"throughput_rps"`
	Report       classStats       `json:"report"`
	Batch        classStats       `json:"batch"`
	Trace        classStats       `json:"trace"`
	StatusCounts map[string]int64 `json:"status_counts"`
	Canceled     int64            `json:"canceled"`
	Transport    int64            `json:"transport_errors"`
	Err5xx       int64            `json:"errors_5xx"`
	ErrorRate    float64          `json:"error_rate"`

	// Budget movement scraped from the server's /metrics after the run;
	// charges and refunds count ledger debits and credits, so a trace step
	// that paid for a failed test and a report counts two charges.
	// RefundRate is refunds/charges (0 when the scrape is unavailable or
	// no ledger is configured).
	MetricsScraped bool    `json:"metrics_scraped"`
	BudgetCharges  float64 `json:"budget_charges"`
	BudgetRefunds  float64 `json:"budget_refunds"`
	RefundRate     float64 `json:"refund_rate"`
	SolveRejected  float64 `json:"solve_rejected"`

	// Trace pipeline counters (0 when the endpoint is disabled):
	// MemoHitRate = memo hits / (memo hits + fresh), the fraction of trace
	// steps served by re-releasing the session's prediction.
	TraceFresh    float64 `json:"trace_fresh"`
	TraceMemoHits float64 `json:"trace_memo_hits"`
	MemoHitRate   float64 `json:"memo_hit_rate"`

	// Fleet is present only with -targets: one scrape per replica plus the
	// fleet-wide duplicate-solve estimate.
	Fleet *fleetSummary `json:"fleet,omitempty"`
}

// replicaScrape is one replica's post-run /metrics digest.
type replicaScrape struct {
	URL string `json:"url"`
	// Solves is the replica's LP-solve count (channel-cache misses).
	Solves float64 `json:"solves"`
	// RemoteHits counts channels this replica fetched from a peer instead
	// of solving; Fallbacks counts remote lookups that gave up and solved
	// locally — each fallback is a potential fleet-duplicate solve.
	RemoteHits float64 `json:"remote_hits"`
	Fallbacks  float64 `json:"fallbacks"`
	Scraped    bool    `json:"scraped"`
}

// fleetSummary aggregates the per-replica scrapes. DuplicateSolveEstimate is
// the sum of remote fallbacks across the fleet: with healthy fabric
// ownership every channel is solved only by its owner, so any solve of a
// non-owned key happened through the fallback path and is the fleet's
// duplicate-solve signal (~0 when the fabric is on and peers are up).
type fleetSummary struct {
	Replicas               []replicaScrape `json:"replicas"`
	TotalSolves            float64         `json:"total_solves"`
	TotalRemoteHits        float64         `json:"total_remote_hits"`
	DuplicateSolveEstimate float64         `json:"duplicate_solve_estimate"`
}

// scrapeFleet reads every replica's /metrics once after the run and digests
// the fleet-wide solve distribution.
func (s *summary) scrapeFleet(targets []string, timeout time.Duration) {
	client := &http.Client{Timeout: timeout}
	fleet := &fleetSummary{}
	for _, t := range targets {
		rs := replicaScrape{URL: t}
		if samples, ok := scrapeMetrics(client, t); ok {
			rs.Scraped = true
			rs.Solves = samples["geoind_channel_cache_misses_total"]
			rs.RemoteHits = samples[`geoind_fabric_tier_hits_total{tier="remote"}`]
			rs.Fallbacks = samples["geoind_fabric_remote_fallbacks_total"]
		}
		fleet.Replicas = append(fleet.Replicas, rs)
		fleet.TotalSolves += rs.Solves
		fleet.TotalRemoteHits += rs.RemoteHits
		fleet.DuplicateSolveEstimate += rs.Fallbacks
	}
	s.Fleet = fleet
}

// scrapeMetrics fetches and validates one replica's /metrics exposition.
func scrapeMetrics(client *http.Client, base string) (map[string]float64, bool) {
	resp, err := client.Get(base + "/metrics")
	if err != nil {
		return nil, false
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil || resp.StatusCode != http.StatusOK {
		return nil, false
	}
	samples, problems := metrics.Validate(string(body))
	if len(problems) > 0 {
		log.Printf("loadgen: %s/metrics failed validation: %s", base, problems[0])
		return nil, false
	}
	return samples, true
}

func (r *runner) summarize(elapsed time.Duration) *summary {
	s := &summary{
		Mode:         "closed",
		DurationSec:  elapsed.Seconds(),
		StatusCounts: make(map[string]int64),
		Canceled:     r.canceled.Load(),
		Transport:    r.transport.Load(),
	}
	if r.cfg.rps > 0 {
		s.Mode = "open"
	}
	r.mu.Lock()
	for code, n := range r.status {
		s.StatusCounts[strconv.Itoa(code)] = n
		if code >= 500 {
			s.Err5xx += n
		}
	}
	r.mu.Unlock()
	s.Completed = r.reports.Load() + r.batches.Load() + r.traces.Load()
	if s.DurationSec > 0 {
		s.Throughput = float64(s.Completed) / s.DurationSec
	}
	if s.Completed > 0 {
		s.ErrorRate = float64(s.Err5xx) / float64(s.Completed)
	}
	s.Report = digest(r.reportHist)
	s.Batch = digest(r.batchHist)
	s.Trace = digest(r.traceHist)
	return s
}

func digest(h *metrics.Histogram) classStats {
	return classStats{
		Count:  h.Count(),
		P50Ms:  h.Quantile(0.5) * 1e3,
		P99Ms:  h.Quantile(0.99) * 1e3,
		P999Ms: h.Quantile(0.999) * 1e3,
	}
}

// scrapeBudget reads the server's /metrics once after the run and extracts
// the budget charge/refund totals and the admission-shed count.
func (s *summary) scrapeBudget(base string, timeout time.Duration) {
	client := &http.Client{Timeout: timeout}
	resp, err := client.Get(base + "/metrics")
	if err != nil {
		return
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil || resp.StatusCode != http.StatusOK {
		return
	}
	samples, problems := metrics.Validate(string(body))
	if len(problems) > 0 {
		log.Printf("loadgen: /metrics failed validation: %s", problems[0])
		return
	}
	s.MetricsScraped = true
	s.BudgetCharges = samples["geoind_budget_charges_total"]
	s.BudgetRefunds = samples["geoind_budget_refunds_total"]
	s.SolveRejected = samples["geoind_solve_rejected_total"]
	if s.BudgetCharges > 0 {
		s.RefundRate = s.BudgetRefunds / s.BudgetCharges
	}
	s.TraceFresh = samples["geoind_trace_fresh_total"]
	s.TraceMemoHits = samples["geoind_trace_memo_hits_total"]
	if steps := s.TraceFresh + s.TraceMemoHits; steps > 0 {
		s.MemoHitRate = s.TraceMemoHits / steps
	}
}

// benchCase / benchDocument mirror cmd/benchjson's schema so the committed
// BENCH_load.json baseline diffs with the same tool as every other
// benchmark file; the full summary rides along under "load".
type benchCase struct {
	Name       string  `json:"name"`
	Iterations int64   `json:"iterations"`
	NsPerOp    float64 `json:"ns_per_op"`
}

type benchDocument struct {
	GoMaxProcs int         `json:"go_max_procs"`
	Cases      []benchCase `json:"cases"`
	Load       *summary    `json:"load"`
}

func (s *summary) benchDocument() *benchDocument {
	doc := &benchDocument{GoMaxProcs: runtime.GOMAXPROCS(0), Load: s}
	add := func(class string, st classStats) {
		if st.Count == 0 {
			return
		}
		for _, q := range []struct {
			name string
			ms   float64
		}{{"p50", st.P50Ms}, {"p99", st.P99Ms}, {"p999", st.P999Ms}} {
			doc.Cases = append(doc.Cases, benchCase{
				Name:       "Loadgen/" + class + "/" + q.name,
				Iterations: st.Count,
				NsPerOp:    q.ms * 1e6,
			})
		}
	}
	add("report", s.Report)
	add("batch", s.Batch)
	add("trace", s.Trace)
	sort.Slice(doc.Cases, func(i, j int) bool { return doc.Cases[i].Name < doc.Cases[j].Name })
	return doc
}

// print logs the human-readable digest.
func (s *summary) print() {
	log.Printf("%s loop: %d completed in %.1fs (%.0f req/s), %d canceled (chaos), %d transport errors",
		s.Mode, s.Completed, s.DurationSec, s.Throughput, s.Canceled, s.Transport)
	log.Printf("report: n=%d p50=%.2fms p99=%.2fms p999=%.2fms", s.Report.Count, s.Report.P50Ms, s.Report.P99Ms, s.Report.P999Ms)
	if s.Batch.Count > 0 {
		log.Printf("batch:  n=%d p50=%.2fms p99=%.2fms p999=%.2fms", s.Batch.Count, s.Batch.P50Ms, s.Batch.P99Ms, s.Batch.P999Ms)
	}
	if s.Trace.Count > 0 {
		log.Printf("trace:  n=%d p50=%.2fms p99=%.2fms p999=%.2fms", s.Trace.Count, s.Trace.P50Ms, s.Trace.P99Ms, s.Trace.P999Ms)
	}
	codes := make([]string, 0, len(s.StatusCounts))
	for c := range s.StatusCounts {
		codes = append(codes, c)
	}
	sort.Strings(codes)
	for _, c := range codes {
		log.Printf("status %s: %d", c, s.StatusCounts[c])
	}
	if s.MetricsScraped {
		log.Printf("budget: %g charges, %g refunds (refund rate %.3f), %g solves shed",
			s.BudgetCharges, s.BudgetRefunds, s.RefundRate, s.SolveRejected)
		if s.TraceFresh+s.TraceMemoHits > 0 {
			log.Printf("trace pipeline: %g fresh, %g memo hits (hit rate %.3f)",
				s.TraceFresh, s.TraceMemoHits, s.MemoHitRate)
		}
	}
	if s.Fleet != nil {
		for _, rs := range s.Fleet.Replicas {
			if !rs.Scraped {
				log.Printf("fleet %s: scrape failed", rs.URL)
				continue
			}
			log.Printf("fleet %s: %g LP solves, %g remote hits, %g fallbacks",
				rs.URL, rs.Solves, rs.RemoteHits, rs.Fallbacks)
		}
		log.Printf("fleet total: %g LP solves, %g remote hits, duplicate-solve estimate %g",
			s.Fleet.TotalSolves, s.Fleet.TotalRemoteHits, s.Fleet.DuplicateSolveEstimate)
	}
	log.Printf("5xx: %d (error rate %.4f)", s.Err5xx, s.ErrorRate)
}

// assert applies the CI gates; returns the process exit code.
func (s *summary) assert(cfg config) int {
	failed := false
	if cfg.max5xx >= 0 && s.Err5xx > cfg.max5xx {
		log.Printf("FAIL: %d 5xx responses exceeds -max-5xx %d", s.Err5xx, cfg.max5xx)
		failed = true
	}
	if cfg.maxP99 > 0 && s.Report.Count > 0 && s.Report.P99Ms > cfg.maxP99.Seconds()*1e3 {
		log.Printf("FAIL: report p99 %.2fms exceeds -max-p99 %s", s.Report.P99Ms, cfg.maxP99)
		failed = true
	}
	if s.Completed == 0 {
		log.Print("FAIL: no requests completed")
		failed = true
	}
	if failed {
		return 1
	}
	return 0
}
