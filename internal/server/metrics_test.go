package server

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"geoind/internal/channel"
	"geoind/internal/geo"
	"geoind/internal/metrics"
)

// scrape fetches /metrics, asserts it parses as valid exposition text, and
// returns the samples keyed by full series name.
func scrape(t *testing.T, url string) map[string]float64 {
	t.Helper()
	resp, err := http.Get(url + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /metrics: status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.Contains(ct, "version=0.0.4") {
		t.Errorf("Content-Type = %q, want text exposition 0.0.4", ct)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	samples, problems := metrics.Validate(string(body))
	for _, p := range problems {
		t.Errorf("exposition problem: %s", p)
	}
	return samples
}

func TestMetricsEndpoint(t *testing.T) {
	ledger, err := NewLedger(10, time.Hour, nil)
	if err != nil {
		t.Fatal(err)
	}
	ts := newTestServer(t, ledger)

	// Drive every instrumented outcome the scrape should reflect: two good
	// reports, one validation failure, and a probe.
	for i := 0; i < 2; i++ {
		resp, _ := postReport(t, ts.URL, `{"user_id":"u1","x":1,"y":2}`)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("report %d: status %d", i, resp.StatusCode)
		}
	}
	resp, _ := postReport(t, ts.URL, `{"user_id":"u1","x":999,"y":2}`)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("out-of-region report: status %d", resp.StatusCode)
	}
	if hr, err := http.Get(ts.URL + "/healthz"); err != nil {
		t.Fatal(err)
	} else {
		hr.Body.Close()
	}

	samples := scrape(t, ts.URL)
	if got := samples[`geoind_requests_total{code="200",endpoint="/v1/report"}`]; got != 2 {
		t.Errorf("report 200s = %g, want 2", got)
	}
	if got := samples[`geoind_requests_total{code="400",endpoint="/v1/report"}`]; got != 1 {
		t.Errorf("report 400s = %g, want 1", got)
	}
	if got := samples[`geoind_requests_total{code="200",endpoint="/healthz"}`]; got != 1 {
		t.Errorf("healthz 200s = %g, want 1", got)
	}
	if got := samples[`geoind_request_duration_seconds_count{endpoint="/v1/report"}`]; got != 3 {
		t.Errorf("report latency count = %g, want 3", got)
	}
	if got := samples["geoind_budget_charges_total"]; got != 2 {
		t.Errorf("budget charges = %g, want 2 (400 must not charge)", got)
	}
	if got := samples["geoind_budget_eps_charged_total"]; got != 1.0 {
		t.Errorf("eps charged = %g, want 1.0 (2 reports at eps=0.5)", got)
	}
	if got := samples["geoind_budget_refunds_total"]; got != 0 {
		t.Errorf("budget refunds = %g, want 0", got)
	}
	// Scraping must not count itself.
	if got := samples[`geoind_requests_total{code="200",endpoint="/metrics"}`]; got != 0 {
		t.Errorf("/metrics counted itself: %g", got)
	}
}

func TestMetricsExposeStoreCounters(t *testing.T) {
	rep := &dirStatsReporter{
		statsReporter: statsReporter{
			Reporter: newTestReporter(t, 0.5),
			st: channel.Stats{
				Hits: 7, Misses: 3, Evictions: 1, BackingHits: 2, BackingWrites: 3,
				Entries: 4, Cost: 4096, Inflight: 1, Abandoned: 1, Canceled: 2,
				Queued: 5, Rejected: 6,
			},
		},
		dst: channel.DirStats{VersionMisses: 8, Errors: 9},
		ok:  true,
	}
	s, err := New(rep, nil, geo.NewSquare(20))
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s)
	t.Cleanup(ts.Close)

	samples := scrape(t, ts.URL)
	want := map[string]float64{
		"geoind_channel_cache_hits_total":        7,
		"geoind_channel_cache_misses_total":      3,
		"geoind_channel_cache_evictions_total":   1,
		"geoind_channel_cache_disk_hits_total":   2,
		"geoind_channel_cache_disk_writes_total": 3,
		"geoind_channel_cache_entries":           4,
		"geoind_channel_cache_cost_bytes":        4096,
		"geoind_solves_inflight":                 1,
		"geoind_channel_solves_abandoned_total":  1,
		"geoind_channel_solves_canceled_total":   2,
		"geoind_solve_queue_depth":               5,
		"geoind_solve_rejected_total":            6,
		"geoind_snapshot_version_misses_total":   8,
		"geoind_snapshot_disk_errors_total":      9,
	}
	for name, v := range want {
		if samples[name] != v {
			t.Errorf("%s = %g, want %g", name, samples[name], v)
		}
	}
}

// overloadReporter fails every report with the admission-queue-full error,
// wrapped the way the mechanism stack wraps it.
type overloadReporter struct {
	Reporter
}

func (r *overloadReporter) Report(geo.Point) (geo.Point, error) {
	return geo.Point{}, fmt.Errorf("solve channel: %w", channel.ErrSolveOverload)
}

func (r *overloadReporter) ReportBatch([]geo.Point) ([]geo.Point, error) {
	return nil, fmt.Errorf("solve channel: %w", channel.ErrSolveOverload)
}

func TestOverloadReturns429AndChargesNothing(t *testing.T) {
	const limit = 10.0
	ledger, err := NewLedger(limit, time.Hour, nil)
	if err != nil {
		t.Fatal(err)
	}
	s, err := New(&overloadReporter{Reporter: newTestReporter(t, 0.5)}, ledger, geo.NewSquare(20))
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s)
	t.Cleanup(ts.Close)

	resp, out := postReport(t, ts.URL, `{"user_id":"u1","x":1,"y":2}`)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("overloaded report: status %d, want 429 (body %v)", resp.StatusCode, out)
	}
	if got := resp.Header.Get("Retry-After"); got != "1" {
		t.Errorf("Retry-After = %q, want \"1\"", got)
	}

	// Batch path: same contract.
	br, err := http.Post(ts.URL+"/v1/report:batch", "application/json",
		strings.NewReader(`[{"user_id":"u1","x":1,"y":2},{"user_id":"u1","x":3,"y":4}]`))
	if err != nil {
		t.Fatal(err)
	}
	br.Body.Close()
	if br.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("overloaded batch: status %d, want 429", br.StatusCode)
	}
	if got := br.Header.Get("Retry-After"); got != "1" {
		t.Errorf("batch Retry-After = %q, want \"1\"", got)
	}

	// The shed requests must not consume budget: the spend was refunded in
	// full, so remaining equals the configured limit.
	bresp, err := http.Get(ts.URL + "/v1/budget?user_id=u1")
	if err != nil {
		t.Fatal(err)
	}
	defer bresp.Body.Close()
	var budget struct {
		Remaining float64 `json:"remaining_budget"`
	}
	if err := json.NewDecoder(bresp.Body).Decode(&budget); err != nil {
		t.Fatal(err)
	}
	if budget.Remaining != limit {
		t.Errorf("remaining budget after 429s = %g, want full limit %g", budget.Remaining, limit)
	}

	// And the metrics must show the round trip: every charge refunded, eps
	// refunded mass equal to eps charged mass.
	samples := scrape(t, ts.URL)
	if c, r := samples["geoind_budget_charges_total"], samples["geoind_budget_refunds_total"]; c != r || c == 0 {
		t.Errorf("charges %g vs refunds %g, want equal and nonzero", c, r)
	}
	if c, r := samples["geoind_budget_eps_charged_total"], samples["geoind_budget_eps_refunded_total"]; c != r || c == 0 {
		t.Errorf("eps charged %g vs refunded %g, want equal and nonzero", c, r)
	}
	if got := samples[`geoind_requests_total{code="429",endpoint="/v1/report"}`]; got != 1 {
		t.Errorf("429 count = %g, want 1", got)
	}
}

func TestStatsExposeAdmissionCounters(t *testing.T) {
	rep := &statsReporter{
		Reporter: newTestReporter(t, 0.5),
		st:       channel.Stats{Queued: 3, Rejected: 11},
	}
	s, err := New(rep, nil, geo.NewSquare(20))
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s)
	t.Cleanup(ts.Close)

	resp, err := http.Get(ts.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out struct {
		ChannelCache *ChannelCacheStats `json:"channel_cache"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	if out.ChannelCache == nil {
		t.Fatal("stats response missing channel_cache")
	}
	if out.ChannelCache.SolveQueueDepth != 3 {
		t.Errorf("solve_queue_depth = %d, want 3", out.ChannelCache.SolveQueueDepth)
	}
	if out.ChannelCache.SolveRejected != 11 {
		t.Errorf("solve_rejected = %d, want 11", out.ChannelCache.SolveRejected)
	}
}

// TestRequestCountersRegisterOnce: concurrent first responses with the same
// status code share one registry series, the same one an uncached lookup
// returns, and a code never seen registers no series.
func TestRequestCountersRegisterOnce(t *testing.T) {
	reg := metrics.NewRegistry()
	rc := newRequestCounters(reg, "/v1/report")
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				rc.get(http.StatusOK).Inc()
				rc.get(http.StatusTooManyRequests).Inc()
			}
		}()
	}
	wg.Wait()
	for _, code := range []string{"200", "429"} {
		c := reg.Counter("geoind_requests_total", "HTTP requests served, by endpoint and status code.",
			metrics.Labels{"endpoint": "/v1/report", "code": code})
		if got := c.Value(); got != 800 {
			t.Errorf("code %s: registry series counts %d, want 800", code, got)
		}
	}
	var b strings.Builder
	if err := reg.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	if n := strings.Count(b.String(), "geoind_requests_total{"); n != 2 {
		t.Errorf("%d geoind_requests_total series rendered, want 2:\n%s", n, b.String())
	}
}
