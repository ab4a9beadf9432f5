package server

import (
	"maps"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"geoind/internal/channel"
	"geoind/internal/fabric"
	"geoind/internal/metrics"
	"geoind/internal/session"
)

// latencyBuckets are the request-duration histogram bounds in seconds:
// log-spaced from 100µs (a warm alias-table report) to 30s (a cold dense LP
// solve), so both regimes land in resolvable buckets.
var latencyBuckets = []float64{
	0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05,
	0.1, 0.25, 0.5, 1, 2.5, 5, 10, 30,
}

// serverMetrics owns the request-level instruments and the registry every
// scrape renders. Mechanism, session and trace statistics are not copied
// into instruments: they are registered as scrape-time sampling functions
// over the same snapshots and counters /v1/stats renders, so /metrics and
// /v1/stats can never disagree.
type serverMetrics struct {
	reg *metrics.Registry

	// requests are labeled per endpoint and status code at response time;
	// latency is one histogram per endpoint.
	requests map[string]*requestCounters
	latency  map[string]*metrics.Histogram

	// mech is the mechanism snapshot the current scrape renders: the
	// scrape handler takes one snapshot before every render, so all
	// mechanism series of one scrape agree.
	mech atomic.Pointer[MechStats]
	// sess is the session-store snapshot the current scrape renders, taken
	// beside mech: one Stats call (which locks every shard) per scrape.
	// Nil without a ledger.
	sess atomic.Pointer[session.Stats]

	budgetCharges *metrics.Counter
	budgetRefunds *metrics.Counter
	epsCharged    *metrics.FloatCounter
	epsRefunded   *metrics.FloatCounter
}

// instrumentedEndpoints are the routes that get their own latency histogram
// and request counters. Probes are included: scrape output then covers
// everything a load balancer touches.
var instrumentedEndpoints = []string{
	"/healthz", "/v1/healthz", "/v1/info", "/v1/report", "/v1/report:batch",
	"/v1/budget", "/v1/trace", "/v1/stats", "/v1/channels",
}

// newServerMetrics builds the registry and request instruments for one
// server and wires the scrape-time series over the mechanism's stats
// snapshot (one family set per section the snapshot at New holds), the
// ledger's session/journal counters (when budgets are enforced), and the
// trace pipeline's counters (zero until EnableTrace).
func newServerMetrics(s *Server) *serverMetrics {
	first := s.stats()
	reg := metrics.NewRegistry()
	m := &serverMetrics{
		reg:      reg,
		requests: make(map[string]*requestCounters, len(instrumentedEndpoints)),
		latency:  make(map[string]*metrics.Histogram, len(instrumentedEndpoints)),
	}
	for _, ep := range instrumentedEndpoints {
		m.requests[ep] = newRequestCounters(reg, ep)
		m.latency[ep] = reg.Histogram("geoind_request_duration_seconds",
			"Request latency by endpoint.",
			metrics.Labels{"endpoint": ep}, latencyBuckets)
	}
	m.budgetCharges = reg.Counter("geoind_budget_charges_total",
		"Successful budget debits (refunded charges still count).", nil)
	m.budgetRefunds = reg.Counter("geoind_budget_refunds_total",
		"Budget refunds for reports that failed, timed out or were canceled.", nil)
	m.epsCharged = reg.FloatCounter("geoind_budget_eps_charged_total",
		"Total epsilon debited from user budgets.", nil)
	m.epsRefunded = reg.FloatCounter("geoind_budget_eps_refunded_total",
		"Total epsilon refunded to user budgets.", nil)

	m.mech.Store(&first)
	if first.Store != nil {
		store := sample(func() *channel.Stats { return m.mech.Load().Store })
		reg.CounterFunc("geoind_channel_cache_hits_total",
			"Channel-store lookups satisfied without an LP solve.", nil,
			store(func(st *channel.Stats) int64 { return st.Hits }))
		reg.CounterFunc("geoind_channel_cache_misses_total",
			"Channel-store lookups that performed an LP solve.", nil,
			store(func(st *channel.Stats) int64 { return st.Misses }))
		reg.CounterFunc("geoind_channel_cache_evictions_total",
			"Channels evicted by the cost-aware LRU policy.", nil,
			store(func(st *channel.Stats) int64 { return st.Evictions }))
		reg.CounterFunc("geoind_channel_cache_disk_hits_total",
			"Channel loads satisfied by the persistent snapshot cache.", nil,
			store(func(st *channel.Stats) int64 { return st.BackingHits }))
		reg.CounterFunc("geoind_channel_cache_disk_writes_total",
			"Solved channels handed to the snapshot cache for write-behind.", nil,
			store(func(st *channel.Stats) int64 { return st.BackingWrites }))
		reg.CounterFunc("geoind_channel_solves_abandoned_total",
			"Waiters that gave up on an in-flight solve.", nil,
			store(func(st *channel.Stats) int64 { return st.Abandoned }))
		reg.CounterFunc("geoind_channel_solves_canceled_total",
			"Solves aborted before completion.", nil,
			store(func(st *channel.Stats) int64 { return st.Canceled }))
		reg.CounterFunc("geoind_solve_rejected_total",
			"Cold-solve admissions rejected with 429 because the queue was full.", nil,
			store(func(st *channel.Stats) int64 { return st.Rejected }))
		reg.GaugeFunc("geoind_channel_cache_entries",
			"Resident channels in the store.", nil,
			store(func(st *channel.Stats) int64 { return st.Entries }))
		reg.GaugeFunc("geoind_channel_cache_cost_bytes",
			"Resident channel bytes under the cache budget.", nil,
			store(func(st *channel.Stats) int64 { return st.Cost }))
		reg.GaugeFunc("geoind_solves_inflight",
			"Channel solves currently executing.", nil,
			store(func(st *channel.Stats) int64 { return st.Inflight }))
		reg.GaugeFunc("geoind_solve_queue_depth",
			"Admitted solves waiting for a free solve slot.", nil,
			store(func(st *channel.Stats) int64 { return st.Queued }))
	}
	if first.Fabric != nil {
		// The tier chain is fixed at startup, so one series per tier can be
		// registered up front; each samples its tier's live counters.
		for i, t := range first.Fabric.Tiers {
			tier := sample(func() *channel.TierStats {
				if f := m.mech.Load().Fabric; f != nil && i < len(f.Tiers) {
					return &f.Tiers[i]
				}
				return nil
			})
			ls := metrics.Labels{"tier": t.Name}
			reg.CounterFunc("geoind_fabric_tier_loads_total",
				"Channel lookups that reached this fabric tier.", ls,
				tier(func(t *channel.TierStats) int64 { return t.Loads }))
			reg.CounterFunc("geoind_fabric_tier_hits_total",
				"Fabric tier lookups that returned a verified channel.", ls,
				tier(func(t *channel.TierStats) int64 { return t.Hits }))
			reg.CounterFunc("geoind_fabric_tier_errors_total",
				"Fabric tier snapshots rejected as corrupt or undecodable.", ls,
				tier(func(t *channel.TierStats) int64 { return t.Errors }))
			reg.CounterFunc("geoind_fabric_tier_version_misses_total",
				"Intact fabric-tier snapshots skipped for a foreign format version.", ls,
				tier(func(t *channel.TierStats) int64 { return t.VersionMisses }))
			reg.CounterFunc("geoind_fabric_tier_writes_total",
				"Snapshots stored into this fabric tier (write-behind and promotions).", ls,
				tier(func(t *channel.TierStats) int64 { return t.Writes }))
		}
		if first.Fabric.Remote != nil {
			remote := sample(func() *fabric.RemoteStats {
				if f := m.mech.Load().Fabric; f != nil {
					return f.Remote
				}
				return nil
			})
			reg.CounterFunc("geoind_fabric_remote_fetches_total",
				"Remote snapshot HTTP requests issued (primaries, hedges, retries).", nil,
				remote(func(rs *fabric.RemoteStats) int64 { return rs.Fetches }))
			reg.CounterFunc("geoind_fabric_remote_hedges_total",
				"Hedged second fetches launched after the latency threshold.", nil,
				remote(func(rs *fabric.RemoteStats) int64 { return rs.Hedges }))
			reg.CounterFunc("geoind_fabric_remote_hedge_wins_total",
				"Hedged fetches that answered first with a usable snapshot.", nil,
				remote(func(rs *fabric.RemoteStats) int64 { return rs.HedgeWins }))
			reg.CounterFunc("geoind_fabric_remote_retries_total",
				"Remote fetch retries after transient failures.", nil,
				remote(func(rs *fabric.RemoteStats) int64 { return rs.Retries }))
			reg.CounterFunc("geoind_fabric_remote_fallbacks_total",
				"Remote lookups that gave up; the local solve path took over.", nil,
				remote(func(rs *fabric.RemoteStats) int64 { return rs.Fallbacks }))
		}
		if first.FetchLatency != nil {
			reg.RegisterHistogram("geoind_fabric_fetch_duration_seconds",
				"Remote snapshot fetch latency (completed attempts).", nil, first.FetchLatency)
		}
	}
	if first.Dir != nil {
		dir := sample(func() *channel.DirStats { return m.mech.Load().Dir })
		reg.CounterFunc("geoind_snapshot_version_misses_total",
			"Intact snapshot files skipped for a foreign format version.", nil,
			dir(func(d *channel.DirStats) int64 { return d.VersionMisses }))
		reg.CounterFunc("geoind_snapshot_disk_errors_total",
			"Snapshot files rejected as corrupt or undecodable.", nil,
			dir(func(d *channel.DirStats) int64 { return d.Errors }))
	}
	if s.ledger != nil {
		st := s.ledger.Sessions().Stats()
		m.sess.Store(&st)
		sess := sample(m.sess.Load)
		reg.GaugeFunc("geoind_sessions",
			"Users with live session entries (idle entries are GCed).", nil,
			sess(func(st *session.Stats) int64 { return int64(st.Users) }))
		reg.CounterFunc("geoind_session_evictions_total",
			"Idle session entries garbage-collected.", nil,
			sess(func(st *session.Stats) int64 { return st.Evicted }))
		reg.CounterFunc("geoind_session_memo_hits_total",
			"Memo reads that found a previous release for the user.", nil,
			sess(func(st *session.Stats) int64 { return st.MemoHits }))
		reg.CounterFunc("geoind_session_memo_writes_total",
			"Releases memoized as session predictions.", nil,
			sess(func(st *session.Stats) int64 { return st.MemoWrites }))
		journal := sample(func() *session.JournalStats { return m.sess.Load().Journal })
		reg.CounterFunc("geoind_session_journal_records_total",
			"Session-state records appended to the durability journal.", nil,
			journal(func(js *session.JournalStats) int64 { return js.Records }))
		reg.CounterFunc("geoind_session_journal_bytes_total",
			"Bytes appended to the session journal.", nil,
			journal(func(js *session.JournalStats) int64 { return js.Bytes }))
		reg.CounterFunc("geoind_session_journal_syncs_total",
			"fsync calls on the session journal.", nil,
			journal(func(js *session.JournalStats) int64 { return js.Syncs }))
		reg.CounterFunc("geoind_session_journal_compactions_total",
			"Journal compactions (snapshot + segment rotation).", nil,
			journal(func(js *session.JournalStats) int64 { return js.Compactions }))
		reg.CounterFunc("geoind_session_journal_anomalies_total",
			"Replay anomalies tolerated (torn tails truncated, spends clamped).", nil,
			journal(func(js *session.JournalStats) int64 { return js.Anomalies }))
	}
	trace := sample(s.trace.Load)
	reg.CounterFunc("geoind_trace_fresh_total",
		"Trace steps that ran the underlying mechanism.", nil,
		trace(func(ts *traceState) int64 { return ts.fresh.Load() }))
	reg.CounterFunc("geoind_trace_memo_hits_total",
		"Trace steps that re-released the session's previous release.", nil,
		trace(func(ts *traceState) int64 { return ts.memoHits.Load() }))
	reg.CounterFunc("geoind_trace_independent_total",
		"Trace steps served in independent (full-epsilon) mode.", nil,
		trace(func(ts *traceState) int64 { return ts.independent.Load() }))
	reg.CounterFunc("geoind_trace_denied_total",
		"Trace steps refused because the user's budget window was exhausted.", nil,
		trace(func(ts *traceState) int64 { return ts.denied.Load() }))
	return m
}

// sample binds an optional stats section, loaded at scrape time: the
// returned function turns one counter of the section into a scrape-time
// reading, 0 while the section is absent.
func sample[T any](section func() *T) func(pick func(*T) int64) func() float64 {
	return func(pick func(*T) int64) func() float64 {
		return func() float64 {
			if sec := section(); sec != nil {
				return float64(pick(sec))
			}
			return 0
		}
	}
}

// chargeBudget / refundBudget record n ledger debits (credits) totalling
// eps that a handler made; a trace step may make several. The eps totals
// make refund *mass* (not just counts) visible, which is what the loadgen
// refund-rate assertion checks against.
func (m *serverMetrics) chargeBudget(n int, eps float64) {
	m.budgetCharges.Add(int64(n))
	m.epsCharged.Add(eps)
}

func (m *serverMetrics) refundBudget(n int, eps float64) {
	m.budgetRefunds.Add(int64(n))
	m.epsRefunded.Add(eps)
}

// statusRecorder captures the status code a handler writes so the
// instrumentation middleware can label its counters.
type statusRecorder struct {
	http.ResponseWriter
	status int
}

func (r *statusRecorder) WriteHeader(code int) {
	r.status = code
	r.ResponseWriter.WriteHeader(code)
}

// instrument wraps one endpoint's handler with request counting and latency
// observation. The duration covers the full handler — decode, validation,
// budget accounting and mechanism work — which is what a client experiences.
func (s *Server) instrument(endpoint string, h http.HandlerFunc) http.HandlerFunc {
	hist := s.metrics.latency[endpoint]
	requests := s.metrics.requests[endpoint]
	return func(w http.ResponseWriter, r *http.Request) {
		rec := &statusRecorder{ResponseWriter: w, status: http.StatusOK}
		start := time.Now()
		h(rec, r)
		hist.Observe(time.Since(start).Seconds())
		requests.get(rec.status).Inc()
	}
}

// requestCounters caches one endpoint's geoind_requests_total series by
// status code. A series is registered on the first response with its code,
// exactly when an uncached registry lookup would have created it, so
// /metrics output is unchanged; every later response reads a copy-on-write
// map without building labels or taking the registry lock.
type requestCounters struct {
	reg      *metrics.Registry
	endpoint string
	mu       sync.Mutex // serializes registrations
	byCode   atomic.Pointer[map[int]*metrics.Counter]
}

func newRequestCounters(reg *metrics.Registry, endpoint string) *requestCounters {
	rc := &requestCounters{reg: reg, endpoint: endpoint}
	rc.byCode.Store(&map[int]*metrics.Counter{})
	return rc
}

// get returns the counter for status code, registering it on first use.
func (rc *requestCounters) get(code int) *metrics.Counter {
	if c, ok := (*rc.byCode.Load())[code]; ok {
		return c
	}
	rc.mu.Lock()
	defer rc.mu.Unlock()
	cur := *rc.byCode.Load()
	if c, ok := cur[code]; ok {
		return c
	}
	c := rc.reg.Counter("geoind_requests_total",
		"HTTP requests served, by endpoint and status code.",
		metrics.Labels{"endpoint": rc.endpoint, "code": strconv.Itoa(code)})
	next := maps.Clone(cur)
	next[code] = c
	rc.byCode.Store(&next)
	return c
}

// handleMetrics serves GET /metrics in the Prometheus text exposition
// format. Everything is rendered from live counters at scrape time; the
// endpoint performs no allocation-heavy aggregation and is safe to scrape
// at high frequency.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeJSON(w, http.StatusMethodNotAllowed, errorResponse{"GET only"})
		return
	}
	st := s.stats()
	s.metrics.mech.Store(&st)
	if s.ledger != nil {
		ss := s.ledger.Sessions().Stats()
		s.metrics.sess.Store(&ss)
	}
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	_ = s.metrics.reg.WritePrometheus(w)
}
