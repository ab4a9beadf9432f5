package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"sync/atomic"
	"time"

	"geoind/internal/channel"
	"geoind/internal/fabric"
	"geoind/internal/geo"
	"geoind/internal/metrics"
	"geoind/internal/session"
)

// Reporter is the mechanism the server fronts. Reports run under the
// request's context (plus the request timeout), so a client that disconnects
// mid-report stops paying for the work it no longer wants. Every public
// geoind mechanism satisfies it (geoind.Point is an alias of geo.Point).
type Reporter interface {
	ReportCtx(ctx context.Context, x geo.Point) (geo.Point, error)
	ReportBatchCtx(ctx context.Context, xs []geo.Point) ([]geo.Point, error)
	Epsilon() float64
	Name() string
}

// Statser is optionally implemented by mechanisms with counters of their own
// (geoind.MSM, geoind.AdaptiveMSM and geoind.Optimal are). /v1/stats and
// /metrics both render the snapshot it returns; a mechanism without it
// reports no mechanism sections.
type Statser interface {
	MechStats() MechStats
}

// MechStats is one snapshot of a mechanism's counters. Every section is
// optional: nil means the mechanism has no such part.
type MechStats struct {
	// Store holds the channel-store counters, including persistent-cache
	// disk hits and write-behind writes: the observable proof of a
	// zero-solve warm restart.
	Store *channel.Stats
	// Dir holds the snapshot cache directory's own counters; its version
	// misses (benign, files are rewritten) make a snapshot-format rollout
	// observable apart from errors. /v1/stats reports it only beside Store.
	Dir *channel.DirStats
	// Sampler is the warm-path sampler in use, the configured prune mass and
	// the per-variant channel counters.
	Sampler *SamplerStats
	// Local is the locally relevant OPT configuration and its counters; it
	// is reported only while the variant is enabled (RadiusKm > 0).
	Local *LocalStats
	// Fabric holds the per-tier and remote-fetch counters of a mechanism
	// joined to a channel fabric; FetchLatency is its remote-fetch latency
	// histogram in seconds, nil for a single-replica fleet.
	Fabric       *fabric.Stats
	FetchLatency *metrics.Histogram
}

// ChannelSource is optionally implemented by mechanisms that can serve
// their solved channels as verified snapshot frames (geoind.MSM is one).
// When the mechanism provides it, GET /v1/channels/{key} streams the
// persisted GICH framing to fleet peers; the frame carries the full key and
// a CRC, and the fetching peer re-verifies both before use.
type ChannelSource interface {
	ChannelSnapshot(ctx context.Context, key channel.Key, solve bool) ([]byte, error)
}

// MaxBatchSize bounds the number of points one /v1/report:batch request may
// carry; larger batches are rejected with 413 before any budget is charged.
const MaxBatchSize = 1024

// Server is the HTTP sanitization service: it owns a mechanism, a per-user
// budget ledger, and the region bounds used for input validation.
type Server struct {
	mech Reporter
	// eps, name and nameJSON (name as a JSON string) are the mechanism's
	// fixed epsilon and name, read once at New.
	eps        float64
	name       string
	nameJSON   string
	stats      func() MechStats // the mechanism's snapshot, empty without a Statser
	ledger     *Ledger
	region     geo.Rect
	mux        *http.ServeMux
	metrics    *serverMetrics
	reqTimeout time.Duration
	draining   atomic.Bool
	trace      atomic.Pointer[traceState]
}

// New assembles a server. The ledger may be nil, in which case budgets are
// not enforced (useful for trusted single-user deployments).
func New(mech Reporter, ledger *Ledger, region geo.Rect) (*Server, error) {
	if mech == nil {
		return nil, fmt.Errorf("server: nil mechanism")
	}
	if region.Width() <= 0 || region.Height() <= 0 {
		return nil, fmt.Errorf("server: degenerate region %v", region)
	}
	if ledger != nil && ledger.Limit() < mech.Epsilon() {
		return nil, fmt.Errorf("server: ledger limit %g below per-report epsilon %g: no request could ever succeed",
			ledger.Limit(), mech.Epsilon())
	}
	name := mech.Name()
	nameJSON, _ := json.Marshal(name) // a string always marshals
	s := &Server{
		mech: mech, eps: mech.Epsilon(), name: name, nameJSON: string(nameJSON),
		ledger: ledger, region: region, mux: http.NewServeMux(),
	}
	s.stats = func() MechStats { return MechStats{} }
	if st, ok := mech.(Statser); ok {
		s.stats = st.MechStats
	}
	s.metrics = newServerMetrics(s)
	s.mux.HandleFunc("/healthz", s.instrument("/healthz", s.handleHealth))
	s.mux.HandleFunc("/v1/healthz", s.instrument("/v1/healthz", s.handleReady))
	s.mux.HandleFunc("/v1/info", s.instrument("/v1/info", s.handleInfo))
	s.mux.HandleFunc("/v1/report", s.instrument("/v1/report", s.handleReport))
	s.mux.HandleFunc("/v1/report:batch", s.instrument("/v1/report:batch", s.handleReportBatch))
	s.mux.HandleFunc("/v1/budget", s.instrument("/v1/budget", s.handleBudget))
	s.mux.HandleFunc("/v1/trace", s.instrument("/v1/trace", s.handleTrace))
	s.mux.HandleFunc("/v1/stats", s.instrument("/v1/stats", s.handleStats))
	s.mux.HandleFunc(fabric.SnapshotPathPrefix, s.instrument("/v1/channels", s.handleChannelSnapshot))
	// The scrape endpoint is deliberately not instrumented: a Prometheus
	// server polling every few seconds would dominate the request counters.
	s.mux.HandleFunc("/metrics", s.handleMetrics)
	return s, nil
}

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.mux.ServeHTTP(w, r) }

// SetRequestTimeout bounds the mechanism work of each report request; 0 (the
// default) means the request runs until the client gives up. The deadline is
// layered on top of the per-request context, so whichever fires first —
// client disconnect or timeout — cancels the report.
func (s *Server) SetRequestTimeout(d time.Duration) { s.reqTimeout = d }

// BeginShutdown flips GET /v1/healthz to 503 so load balancers stop routing
// new traffic here. Call it before http.Server.Shutdown: in-flight requests
// still complete, but the readiness probe reports the drain immediately.
func (s *Server) BeginShutdown() { s.draining.Store(true) }

// requestCtx derives the context a report handler runs under: the request's
// own context (canceled when the client disconnects) plus the configured
// request timeout, when one is set.
func (s *Server) requestCtx(r *http.Request) (context.Context, context.CancelFunc) {
	if s.reqTimeout > 0 {
		return context.WithTimeout(r.Context(), s.reqTimeout)
	}
	return r.Context(), func() {}
}

// statusClientClosedRequest is the de-facto status (nginx's 499) for a
// request aborted by the client before the response was written. The client
// usually never sees it, but it keeps access logs honest about who gave up.
const statusClientClosedRequest = 499

// retryAfterSeconds is the hint returned with solve-overload 429s. The
// admission queue drains as fast as LP solves complete, so a short fixed
// backoff is honest: clients that wait even one second usually find a slot
// (or a freshly cached channel) on retry.
const retryAfterSeconds = "1"

// writeReportError maps a mechanism error to an HTTP status: solve-queue
// overload is a retryable 429 (with a Retry-After hint), a deadline that
// fired server-side is a 504, a client disconnect a 499, anything else a 500.
func writeReportError(w http.ResponseWriter, err error) {
	switch {
	case errors.Is(err, channel.ErrSolveOverload):
		w.Header().Set("Retry-After", retryAfterSeconds)
		writeJSON(w, http.StatusTooManyRequests, errorResponse{
			"server overloaded: " + err.Error() + " (no budget was charged)"})
	case errors.Is(err, context.DeadlineExceeded):
		writeJSON(w, http.StatusGatewayTimeout, errorResponse{"report timed out: " + err.Error()})
	case errors.Is(err, context.Canceled):
		writeJSON(w, statusClientClosedRequest, errorResponse{"request canceled: " + err.Error()})
	default:
		writeJSON(w, http.StatusInternalServerError, errorResponse{err.Error()})
	}
}

// writeLedgerError answers a refused budget charge: 429 for an exhausted
// window and 503 once the session journal has failed. On a journal failure
// the charge stays spent and nothing is released: the server fails closed
// rather than acknowledge budget use it could not make durable.
func writeLedgerError(w http.ResponseWriter, err error) {
	switch {
	case errors.Is(err, ErrBudgetExhausted):
		writeJSON(w, http.StatusTooManyRequests, errorResponse{err.Error()})
	case errors.Is(err, session.ErrJournalFailed):
		writeJSON(w, http.StatusServiceUnavailable, errorResponse{err.Error()})
	default:
		writeJSON(w, http.StatusInternalServerError, errorResponse{err.Error()})
	}
}

// userIDError explains why user cannot name a budget account, or returns ""
// when it can.
func userIDError(user string) string {
	switch {
	case user == "":
		return "user_id required"
	case len(user) > session.MaxUserLen:
		return fmt.Sprintf("user_id is %d bytes, limit %d", len(user), session.MaxUserLen)
	}
	return ""
}

// ReportRequest is the /v1/report request body.
type ReportRequest struct {
	// UserID identifies the budget account (required when budgets are
	// enforced).
	UserID string `json:"user_id"`
	// X, Y are the true planar coordinates in km.
	X float64 `json:"x"`
	Y float64 `json:"y"`
}

// ReportResponse is the /v1/report response body.
type ReportResponse struct {
	X        float64 `json:"x"`
	Y        float64 `json:"y"`
	EpsSpent float64 `json:"eps_spent"`
	// Remaining is present only when budget enforcement is enabled.
	Remaining *float64 `json:"remaining_budget,omitempty"`
	Mechanism string   `json:"mechanism"`
}

// BatchPoint is one sanitized location of a batch response.
type BatchPoint struct {
	X float64 `json:"x"`
	Y float64 `json:"y"`
}

// BatchReportResponse is the /v1/report:batch response body.
type BatchReportResponse struct {
	// Results holds one sanitized location per input point, in input order.
	Results []BatchPoint `json:"results"`
	// EpsSpent is the total privacy cost of the batch:
	// len(Results) * per-report epsilon.
	EpsSpent float64 `json:"eps_spent"`
	// Remaining is present only when budget enforcement is enabled.
	Remaining *float64 `json:"remaining_budget,omitempty"`
	Mechanism string   `json:"mechanism"`
}

// InfoResponse is the /v1/info response body.
type InfoResponse struct {
	Mechanism    string  `json:"mechanism"`
	Epsilon      float64 `json:"epsilon_per_report"`
	RegionSideKm float64 `json:"region_side_km"`
	BudgetLimit  float64 `json:"budget_limit,omitempty"`
	BudgetWindow string  `json:"budget_window,omitempty"`
}

// ChannelCacheStats is the channel-store section of a stats response.
type ChannelCacheStats struct {
	// Hits are lookups satisfied without an LP solve (resident entry,
	// deduplicated in-flight solve, or persistent-cache load).
	Hits int64 `json:"hits"`
	// Misses are lookups that performed an LP solve.
	Misses int64 `json:"misses"`
	// DiskHits of the hits were loaded from the persistent snapshot cache.
	DiskHits int64 `json:"disk_hits"`
	// DiskWrites counts solved channels handed to the snapshot cache.
	DiskWrites int64 `json:"disk_writes"`
	// VersionMisses counts intact snapshot files skipped because they were
	// written by a foreign format version (expected during rollouts; the
	// store re-solves and rewrites them in the current format).
	VersionMisses int64 `json:"version_misses"`
	// DiskErrors counts snapshot files found but rejected as corrupt,
	// truncated, or undecodable.
	DiskErrors int64 `json:"disk_errors"`
	Entries    int64 `json:"entries"`
	CostBytes  int64 `json:"cost_bytes"`
	Evictions  int64 `json:"evictions"`
	// Abandoned counts waiters that gave up on an in-flight solve (their
	// request was canceled or timed out while the solve kept running for
	// the remaining waiters).
	Abandoned int64 `json:"abandoned"`
	// Canceled counts solves aborted outright: every waiter abandoned the
	// flight, or the solve timeout elapsed.
	Canceled int64 `json:"canceled"`
	// SolveQueueDepth is the number of admitted solves currently waiting
	// for a free solve slot (nonzero only with -max-solves).
	SolveQueueDepth int64 `json:"solve_queue_depth"`
	// SolveRejected counts cold solves shed with 429 because the admission
	// queue was full.
	SolveRejected int64 `json:"solve_rejected"`
}

// SamplerStats is the sampling-configuration section of a stats response.
type SamplerStats struct {
	// Kind is the warm-path sampler in use ("cum" or "alias").
	Kind string `json:"kind"`
	// PruneMass is the configured per-row pruning bound (0 = dense).
	PruneMass float64 `json:"prune_mass,omitempty"`
	// PrunedChannels counts solved channels stored in compact form.
	PrunedChannels int64 `json:"pruned_channels"`
	// PruneFallbacks counts solved channels kept dense because the compact
	// form failed the post-prune GeoInd re-verification.
	PruneFallbacks int64 `json:"prune_fallbacks"`
}

// LocalStats is the locally-relevant-OPT section of a stats response,
// present only when the variant is enabled.
type LocalStats struct {
	// RadiusKm is the configured relevance dilation radius.
	RadiusKm float64 `json:"radius_km"`
	// MassFloor is the prior-mass budget outside the relevance core.
	MassFloor float64 `json:"mass_floor"`
	// LocalChannels counts channels solved over a reduced domain.
	LocalChannels int64 `json:"local_channels"`
	// DenseFallbacks counts local builds that fell back to the dense
	// formulation (failed restricted GeoInd gate or unconverged reduced LP).
	DenseFallbacks int64 `json:"dense_fallbacks"`
}

// FabricTierStats is one backing tier of the fabric section, fastest first.
type FabricTierStats struct {
	// Name identifies the tier ("mem", "disk", "remote").
	Name string `json:"name"`
	// Loads counts lookups that reached this tier; Hits of them returned a
	// verified channel.
	Loads int64 `json:"loads"`
	Hits  int64 `json:"hits"`
	// Errors counts snapshots found but rejected (corrupt, truncated, key
	// mismatch, undecodable); VersionMisses counts intact snapshots written
	// by a foreign format version (benign).
	Errors        int64 `json:"errors"`
	VersionMisses int64 `json:"version_misses"`
	// Writes counts snapshots stored into this tier (write-behind and
	// promotions); WriteErrors counts failed stores.
	Writes      int64 `json:"writes"`
	WriteErrors int64 `json:"write_errors"`
	// LoadMsTotal is the cumulative wall-clock time spent in this tier's
	// loads, in milliseconds.
	LoadMsTotal float64 `json:"load_ms_total"`
}

// FabricRemoteStats is the remote-fetch section of the fabric stats, absent
// for a single-replica fleet.
type FabricRemoteStats struct {
	// Fetches counts HTTP snapshot requests issued (primaries, hedges,
	// retries).
	Fetches int64 `json:"fetches"`
	// Hedges counts hedged second requests launched after the latency
	// threshold; HedgeWins of them answered first with a usable snapshot.
	Hedges    int64 `json:"hedges"`
	HedgeWins int64 `json:"hedge_wins"`
	// Retries counts re-fetches after transient failures.
	Retries int64 `json:"retries"`
	// Fallbacks counts remote lookups that gave up — the local LP solve
	// path took over (owner down, repeated corruption, timeout).
	Fallbacks int64 `json:"fallbacks"`
	// FetchP50Ms / FetchP99Ms are fetch-latency quantile estimates in
	// milliseconds.
	FetchP50Ms float64 `json:"fetch_p50_ms"`
	FetchP99Ms float64 `json:"fetch_p99_ms"`
}

// FabricStats is the distributed-channel-fabric section of a stats response.
type FabricStats struct {
	// Self is this replica's base URL; Peers is the full replica set.
	Self  string   `json:"self"`
	Peers []string `json:"peers"`
	// Tiers is the per-tier breakdown of the backing chain, fastest first.
	Tiers []FabricTierStats `json:"tiers"`
	// Remote is present only for fleets with more than one replica.
	Remote *FabricRemoteStats `json:"remote,omitempty"`
}

// StatsResponse is the /v1/stats response body.
type StatsResponse struct {
	Mechanism    string             `json:"mechanism"`
	ChannelCache *ChannelCacheStats `json:"channel_cache,omitempty"`
	Sampler      *SamplerStats      `json:"sampler,omitempty"`
	Local        *LocalStats        `json:"local,omitempty"`
	Fabric       *FabricStats       `json:"fabric,omitempty"`
	Sessions     *session.Stats     `json:"sessions,omitempty"`
	Trace        *TraceStats        `json:"trace,omitempty"`
}

// TraceStats is the /v1/trace section of StatsResponse.
type TraceStats struct {
	// Theta and EpsTest echo the predictive-test configuration.
	Theta   float64 `json:"theta"`
	EpsTest float64 `json:"eps_test"`
	// Fresh counts steps where the underlying mechanism ran; MemoHits counts
	// re-released predictions (each cost only EpsTest).
	Fresh    int64 `json:"fresh"`
	MemoHits int64 `json:"memo_hits"`
	// Independent counts mode=independent steps; Denied counts 429s from an
	// exhausted budget window.
	Independent int64 `json:"independent"`
	Denied      int64 `json:"denied"`
}

// errorResponse is the uniform error body.
type errorResponse struct {
	Error string `json:"error"`
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

// handleReady is the readiness probe: 200 while serving, 503 once
// BeginShutdown has been called or the session journal has failed (the
// store then refuses every budget charge until restart). Unlike /healthz
// (liveness: is the process up), readiness tells load balancers whether to
// route new traffic here.
func (s *Server) handleReady(w http.ResponseWriter, r *http.Request) {
	if s.draining.Load() {
		writeJSON(w, http.StatusServiceUnavailable, map[string]string{"status": "shutting_down"})
		return
	}
	if s.ledger != nil {
		if err := s.ledger.Sessions().Err(); err != nil {
			writeJSON(w, http.StatusServiceUnavailable, map[string]string{"status": "journal_failed", "error": err.Error()})
			return
		}
	}
	writeJSON(w, http.StatusOK, map[string]string{"status": "ready"})
}

func (s *Server) handleInfo(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeJSON(w, http.StatusMethodNotAllowed, errorResponse{"GET only"})
		return
	}
	info := InfoResponse{
		Mechanism:    s.name,
		Epsilon:      s.eps,
		RegionSideKm: s.region.Width(),
	}
	if s.ledger != nil {
		info.BudgetLimit = s.ledger.Limit()
		info.BudgetWindow = s.ledger.Window().String()
	}
	writeJSON(w, http.StatusOK, info)
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeJSON(w, http.StatusMethodNotAllowed, errorResponse{"GET only"})
		return
	}
	resp := statsResponse(s.name, s.stats())
	if s.ledger != nil {
		st := s.ledger.Sessions().Stats()
		resp.Sessions = &st
	}
	if ts := s.trace.Load(); ts != nil {
		resp.Trace = &TraceStats{
			Theta:       ts.cfg.Theta,
			EpsTest:     ts.cfg.EpsTest,
			Fresh:       ts.fresh.Load(),
			MemoHits:    ts.memoHits.Load(),
			Independent: ts.independent.Load(),
			Denied:      ts.denied.Load(),
		}
	}
	writeJSON(w, http.StatusOK, resp)
}

// statsResponse renders a mechanism snapshot as the mechanism's sections of
// a /v1/stats body.
func statsResponse(name string, st MechStats) StatsResponse {
	resp := StatsResponse{Mechanism: name, Sampler: st.Sampler}
	if c := st.Store; c != nil {
		resp.ChannelCache = &ChannelCacheStats{
			Hits:            c.Hits,
			Misses:          c.Misses,
			DiskHits:        c.BackingHits,
			DiskWrites:      c.BackingWrites,
			Entries:         c.Entries,
			CostBytes:       c.Cost,
			Evictions:       c.Evictions,
			Abandoned:       c.Abandoned,
			Canceled:        c.Canceled,
			SolveQueueDepth: c.Queued,
			SolveRejected:   c.Rejected,
		}
		if d := st.Dir; d != nil {
			resp.ChannelCache.VersionMisses = d.VersionMisses
			resp.ChannelCache.DiskErrors = d.Errors
		}
	}
	if st.Local != nil && st.Local.RadiusKm > 0 {
		resp.Local = st.Local
	}
	if f := st.Fabric; f != nil {
		sec := &FabricStats{Self: f.Self, Peers: f.Peers}
		for _, t := range f.Tiers {
			sec.Tiers = append(sec.Tiers, FabricTierStats{
				Name:          t.Name,
				Loads:         t.Loads,
				Hits:          t.Hits,
				Errors:        t.Errors,
				VersionMisses: t.VersionMisses,
				Writes:        t.Writes,
				WriteErrors:   t.WriteErrors,
				LoadMsTotal:   float64(t.LoadNanos) / 1e6,
			})
		}
		if t := f.Remote; t != nil {
			sec.Remote = &FabricRemoteStats{
				Fetches:    t.Fetches,
				Hedges:     t.Hedges,
				HedgeWins:  t.HedgeWins,
				Retries:    t.Retries,
				Fallbacks:  t.Fallbacks,
				FetchP50Ms: t.FetchP50Ms,
				FetchP99Ms: t.FetchP99Ms,
			}
		}
		resp.Fabric = sec
	}
	return resp
}

// handleChannelSnapshot serves GET /v1/channels/{key}: the fleet-internal
// snapshot endpoint peers fetch verified channel frames from. The key is
// parsed and hash-checked from the URL, then validated by the mechanism
// against its own configuration, so a malformed or foreign request can never
// trigger work for a channel outside this replica's index. A cached-only
// request (solve=0, what hedges send) for a cold key answers 404 — the
// definitive "not here" that makes a hedge unable to cause duplicate solves.
func (s *Server) handleChannelSnapshot(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeJSON(w, http.StatusMethodNotAllowed, errorResponse{"GET only"})
		return
	}
	cs, ok := s.mech.(ChannelSource)
	if !ok {
		writeJSON(w, http.StatusNotFound, errorResponse{"mechanism serves no channel snapshots"})
		return
	}
	key, solve, err := fabric.ParseSnapshotRequest(r)
	if err != nil {
		writeJSON(w, http.StatusBadRequest, errorResponse{"bad snapshot request: " + err.Error()})
		return
	}
	ctx, cancel := s.requestCtx(r)
	defer cancel()
	frame, err := cs.ChannelSnapshot(ctx, key, solve)
	if err != nil {
		writeChannelError(w, err)
		return
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Header().Set("Content-Length", fmt.Sprint(len(frame)))
	_, _ = w.Write(frame)
}

// writeChannelError maps a snapshot-endpoint error to an HTTP status. The
// mapping is what the remote tier's retry triage keys off: 404 (unknown key,
// not cached) is definitive, 429/5xx are retryable.
func writeChannelError(w http.ResponseWriter, err error) {
	switch {
	case errors.Is(err, channel.ErrUnknownKey):
		writeJSON(w, http.StatusNotFound, errorResponse{err.Error()})
	case errors.Is(err, channel.ErrNotCached):
		writeJSON(w, http.StatusNotFound, errorResponse{err.Error()})
	case errors.Is(err, channel.ErrSolveOverload):
		w.Header().Set("Retry-After", retryAfterSeconds)
		writeJSON(w, http.StatusTooManyRequests, errorResponse{err.Error()})
	case errors.Is(err, context.DeadlineExceeded):
		writeJSON(w, http.StatusGatewayTimeout, errorResponse{err.Error()})
	case errors.Is(err, context.Canceled):
		writeJSON(w, statusClientClosedRequest, errorResponse{err.Error()})
	default:
		writeJSON(w, http.StatusInternalServerError, errorResponse{err.Error()})
	}
}

func (s *Server) handleBudget(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeJSON(w, http.StatusMethodNotAllowed, errorResponse{"GET only"})
		return
	}
	if s.ledger == nil {
		writeJSON(w, http.StatusNotFound, errorResponse{"budget enforcement disabled"})
		return
	}
	user := r.URL.Query().Get("user_id")
	if user == "" {
		writeJSON(w, http.StatusBadRequest, errorResponse{"user_id query parameter required"})
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"user_id":          user,
		"remaining_budget": s.ledger.Remaining(user),
		"limit":            s.ledger.Limit(),
	})
}

func (s *Server) handleReport(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeJSON(w, http.StatusMethodNotAllowed, errorResponse{"POST only"})
		return
	}
	c := getCodecBuf()
	defer c.release()
	var req ReportRequest
	if err := c.decodeReport(w, r, &req); err != nil {
		writeJSON(w, http.StatusBadRequest, errorResponse{"invalid JSON: " + err.Error()})
		return
	}
	x := geo.Point{X: req.X, Y: req.Y}
	if !s.region.ContainsClosed(x) {
		writeJSON(w, http.StatusBadRequest, errorResponse{
			fmt.Sprintf("location %v outside service region %v", x, s.region)})
		return
	}
	if s.ledger != nil {
		if msg := userIDError(req.UserID); msg != "" {
			writeJSON(w, http.StatusBadRequest, errorResponse{msg})
			return
		}
		if err := s.ledger.Spend(req.UserID, s.eps); err != nil {
			writeLedgerError(w, err)
			return
		}
		s.metrics.chargeBudget(1, s.eps)
	}
	ctx, cancel := s.requestCtx(r)
	defer cancel()
	z, err := s.mech.ReportCtx(ctx, x)
	if err != nil {
		// A failed or canceled report revealed nothing, so it costs nothing.
		if s.ledger != nil {
			if s.ledger.Refund(req.UserID, s.eps) == nil {
				s.metrics.refundBudget(1, s.eps)
			}
		}
		writeReportError(w, err)
		return
	}
	var rem *float64
	if s.ledger != nil {
		r := s.ledger.Remaining(req.UserID)
		rem = &r
	}
	s.writeReport(w, c, z, rem)
}

// handleReportBatch sanitizes a JSON array of report requests in one round
// trip. Validation covers every entry before anything is charged or sampled;
// with budget enforcement the whole batch must belong to one user and its
// total cost len(batch) * epsilon is debited atomically — when the remaining
// budget cannot cover it, the request is refused with 429 and the ledger is
// left unchanged (all-or-nothing: a batch is never partially charged).
func (s *Server) handleReportBatch(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeJSON(w, http.StatusMethodNotAllowed, errorResponse{"POST only"})
		return
	}
	c := getCodecBuf()
	defer c.release()
	var reqs []ReportRequest
	if err := c.decodeBatch(w, r, &reqs); err != nil {
		writeJSON(w, http.StatusBadRequest, errorResponse{"invalid JSON: " + err.Error()})
		return
	}
	if len(reqs) == 0 {
		writeJSON(w, http.StatusBadRequest, errorResponse{"empty batch"})
		return
	}
	if len(reqs) > MaxBatchSize {
		writeJSON(w, http.StatusRequestEntityTooLarge, errorResponse{
			fmt.Sprintf("batch of %d exceeds limit %d", len(reqs), MaxBatchSize)})
		return
	}
	xs := make([]geo.Point, len(reqs))
	for i, req := range reqs {
		x := geo.Point{X: req.X, Y: req.Y}
		if !s.region.ContainsClosed(x) {
			writeJSON(w, http.StatusBadRequest, errorResponse{
				fmt.Sprintf("entry %d: location %v outside service region %v", i, x, s.region)})
			return
		}
		xs[i] = x
	}
	user := reqs[0].UserID
	cost := float64(len(reqs)) * s.eps
	if s.ledger != nil {
		if msg := userIDError(user); msg != "" {
			writeJSON(w, http.StatusBadRequest, errorResponse{"entry 0: " + msg})
			return
		}
		for i, req := range reqs[1:] {
			if req.UserID != user {
				writeJSON(w, http.StatusBadRequest, errorResponse{fmt.Sprintf(
					"mixed-user batch: entry %d has user_id %q, entry 0 has %q (a batch is charged to one budget account)",
					i+1, req.UserID, user)})
				return
			}
		}
		if err := s.ledger.Spend(user, cost); err != nil {
			if errors.Is(err, ErrBudgetExhausted) {
				writeJSON(w, http.StatusTooManyRequests, errorResponse{fmt.Sprintf(
					"batch cost %g exceeds remaining budget %g: %v (no budget was charged)",
					cost, s.ledger.Remaining(user), err)})
				return
			}
			writeLedgerError(w, err)
			return
		}
		s.metrics.chargeBudget(1, cost)
	}
	ctx, cancel := s.requestCtx(r)
	defer cancel()
	zs, err := s.mech.ReportBatchCtx(ctx, xs)
	if err != nil {
		// All-or-nothing extends to cancellation: a batch that dies
		// mid-flight released no sanitized locations, so the whole charge
		// comes back.
		if s.ledger != nil {
			if s.ledger.Refund(user, cost) == nil {
				s.metrics.refundBudget(1, cost)
			}
		}
		writeReportError(w, err)
		return
	}
	var rem *float64
	if s.ledger != nil {
		r := s.ledger.Remaining(user)
		rem = &r
	}
	s.writeBatch(w, c, zs, rem)
}
