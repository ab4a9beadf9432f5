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
// scrape renders. Store, budget and solve-queue statistics are not copied
// into instruments: they are registered as scrape-time sampling functions
// over the subsystems' own atomic counters, so /metrics and /v1/stats can
// never disagree.
type serverMetrics struct {
	reg *metrics.Registry

	// requests are labeled per endpoint and status code at response time;
	// latency is one histogram per endpoint.
	requests map[string]*requestCounters
	latency  map[string]*metrics.Histogram

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
// server and wires the scrape-time gauges over the mechanism's store,
// sampler and solve-queue counters (when the mechanism exposes them), the
// ledger's session/journal counters (when budgets are enforced), and the
// trace pipeline's counters (zero until EnableTrace).
func newServerMetrics(s *Server) *serverMetrics {
	mech := s.mech
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

	if ss, ok := mech.(StoreStatser); ok {
		reg.CounterFunc("geoind_channel_cache_hits_total",
			"Channel-store lookups satisfied without an LP solve.", nil,
			func() float64 { return float64(ss.StoreStats().Hits) })
		reg.CounterFunc("geoind_channel_cache_misses_total",
			"Channel-store lookups that performed an LP solve.", nil,
			func() float64 { return float64(ss.StoreStats().Misses) })
		reg.CounterFunc("geoind_channel_cache_evictions_total",
			"Channels evicted by the cost-aware LRU policy.", nil,
			func() float64 { return float64(ss.StoreStats().Evictions) })
		reg.CounterFunc("geoind_channel_cache_disk_hits_total",
			"Channel loads satisfied by the persistent snapshot cache.", nil,
			func() float64 { return float64(ss.StoreStats().BackingHits) })
		reg.CounterFunc("geoind_channel_cache_disk_writes_total",
			"Solved channels handed to the snapshot cache for write-behind.", nil,
			func() float64 { return float64(ss.StoreStats().BackingWrites) })
		reg.CounterFunc("geoind_channel_solves_abandoned_total",
			"Waiters that gave up on an in-flight solve.", nil,
			func() float64 { return float64(ss.StoreStats().Abandoned) })
		reg.CounterFunc("geoind_channel_solves_canceled_total",
			"Solves aborted before completion.", nil,
			func() float64 { return float64(ss.StoreStats().Canceled) })
		reg.CounterFunc("geoind_solve_rejected_total",
			"Cold-solve admissions rejected with 429 because the queue was full.", nil,
			func() float64 { return float64(ss.StoreStats().Rejected) })
		reg.GaugeFunc("geoind_channel_cache_entries",
			"Resident channels in the store.", nil,
			func() float64 { return float64(ss.StoreStats().Entries) })
		reg.GaugeFunc("geoind_channel_cache_cost_bytes",
			"Resident channel bytes under the cache budget.", nil,
			func() float64 { return float64(ss.StoreStats().Cost) })
		reg.GaugeFunc("geoind_solves_inflight",
			"Channel solves currently executing.", nil,
			func() float64 { return float64(ss.StoreStats().Inflight) })
		reg.GaugeFunc("geoind_solve_queue_depth",
			"Admitted solves waiting for a free solve slot.", nil,
			func() float64 { return float64(ss.StoreStats().Queued) })
	}
	if fs, ok := mech.(FabricStatser); ok {
		if fst, have := fs.FabricStats(); have {
			// The tier chain is fixed at startup, so one series per tier can
			// be registered up front; each samples the live counters by name.
			for _, t := range fst.Tiers {
				name := t.Name
				tier := func() channel.TierStats {
					st, _ := fs.FabricStats()
					for _, cand := range st.Tiers {
						if cand.Name == name {
							return cand
						}
					}
					return channel.TierStats{}
				}
				ls := metrics.Labels{"tier": name}
				reg.CounterFunc("geoind_fabric_tier_loads_total",
					"Channel lookups that reached this fabric tier.", ls,
					func() float64 { return float64(tier().Loads) })
				reg.CounterFunc("geoind_fabric_tier_hits_total",
					"Fabric tier lookups that returned a verified channel.", ls,
					func() float64 { return float64(tier().Hits) })
				reg.CounterFunc("geoind_fabric_tier_errors_total",
					"Fabric tier snapshots rejected as corrupt or undecodable.", ls,
					func() float64 { return float64(tier().Errors) })
				reg.CounterFunc("geoind_fabric_tier_version_misses_total",
					"Intact fabric-tier snapshots skipped for a foreign format version.", ls,
					func() float64 { return float64(tier().VersionMisses) })
				reg.CounterFunc("geoind_fabric_tier_writes_total",
					"Snapshots stored into this fabric tier (write-behind and promotions).", ls,
					func() float64 { return float64(tier().Writes) })
			}
			remote := func() *fabric.RemoteStats {
				st, _ := fs.FabricStats()
				return st.Remote
			}
			if remote() != nil {
				sample := func(pick func(*fabric.RemoteStats) int64) func() float64 {
					return func() float64 {
						if rs := remote(); rs != nil {
							return float64(pick(rs))
						}
						return 0
					}
				}
				reg.CounterFunc("geoind_fabric_remote_fetches_total",
					"Remote snapshot HTTP requests issued (primaries, hedges, retries).", nil,
					sample(func(rs *fabric.RemoteStats) int64 { return rs.Fetches }))
				reg.CounterFunc("geoind_fabric_remote_hedges_total",
					"Hedged second fetches launched after the latency threshold.", nil,
					sample(func(rs *fabric.RemoteStats) int64 { return rs.Hedges }))
				reg.CounterFunc("geoind_fabric_remote_hedge_wins_total",
					"Hedged fetches that answered first with a usable snapshot.", nil,
					sample(func(rs *fabric.RemoteStats) int64 { return rs.HedgeWins }))
				reg.CounterFunc("geoind_fabric_remote_retries_total",
					"Remote fetch retries after transient failures.", nil,
					sample(func(rs *fabric.RemoteStats) int64 { return rs.Retries }))
				reg.CounterFunc("geoind_fabric_remote_fallbacks_total",
					"Remote lookups that gave up; the local solve path took over.", nil,
					sample(func(rs *fabric.RemoteStats) int64 { return rs.Fallbacks }))
			}
			if h := fs.FabricFetchLatency(); h != nil {
				reg.RegisterHistogram("geoind_fabric_fetch_duration_seconds",
					"Remote snapshot fetch latency (completed attempts).", nil, h)
			}
		}
	}
	if ds, ok := mech.(DirStatser); ok {
		if _, have := ds.DirCacheStats(); have {
			reg.CounterFunc("geoind_snapshot_version_misses_total",
				"Intact snapshot files skipped for a foreign format version.", nil,
				func() float64 {
					st, _ := ds.DirCacheStats()
					return float64(st.VersionMisses)
				})
			reg.CounterFunc("geoind_snapshot_disk_errors_total",
				"Snapshot files rejected as corrupt or undecodable.", nil,
				func() float64 {
					st, _ := ds.DirCacheStats()
					return float64(st.Errors)
				})
		}
	}
	if s.ledger != nil {
		sess := s.ledger.Sessions()
		reg.GaugeFunc("geoind_sessions",
			"Users with live session entries (idle entries are GCed).", nil,
			func() float64 { return float64(sess.Stats().Users) })
		reg.CounterFunc("geoind_session_evictions_total",
			"Idle session entries garbage-collected.", nil,
			func() float64 { return float64(sess.Stats().Evicted) })
		reg.CounterFunc("geoind_session_memo_hits_total",
			"Memo reads that found a previous release for the user.", nil,
			func() float64 { return float64(sess.Stats().MemoHits) })
		reg.CounterFunc("geoind_session_memo_writes_total",
			"Releases memoized as session predictions.", nil,
			func() float64 { return float64(sess.Stats().MemoWrites) })
		journal := func(pick func(*session.JournalStats) int64) func() float64 {
			return func() float64 {
				if js := sess.Stats().Journal; js != nil {
					return float64(pick(js))
				}
				return 0
			}
		}
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
	trace := func(pick func(*traceState) int64) func() float64 {
		return func() float64 {
			if ts := s.trace.Load(); ts != nil {
				return float64(pick(ts))
			}
			return 0
		}
	}
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
		metrics.Labels{"endpoint": rc.endpoint, "code": statusText(code)})
	next := maps.Clone(cur)
	next[code] = c
	rc.byCode.Store(&next)
	return c
}

// statusText renders a status code as its metric label.
func statusText(code int) string {
	// Fast path for the codes the server actually emits.
	switch code {
	case http.StatusOK:
		return "200"
	case http.StatusBadRequest:
		return "400"
	case http.StatusNotFound:
		return "404"
	case http.StatusMethodNotAllowed:
		return "405"
	case http.StatusRequestEntityTooLarge:
		return "413"
	case http.StatusTooManyRequests:
		return "429"
	case statusClientClosedRequest:
		return "499"
	case http.StatusInternalServerError:
		return "500"
	case http.StatusServiceUnavailable:
		return "503"
	case http.StatusGatewayTimeout:
		return "504"
	}
	return strconv.Itoa(code)
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
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	_ = s.metrics.reg.WritePrometheus(w)
}
