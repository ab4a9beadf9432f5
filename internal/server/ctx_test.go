package server

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"geoind/internal/channel"
	"geoind/internal/geo"
)

// blockingReporter is a Reporter whose report paths block until the request
// context dies, simulating a cold solve that takes longer than the client is
// willing to wait.
type blockingReporter struct{}

func (blockingReporter) Epsilon() float64 { return 0.5 }
func (blockingReporter) Name() string     { return "blocking" }

func (blockingReporter) ReportCtx(ctx context.Context, x geo.Point) (geo.Point, error) {
	<-ctx.Done()
	return geo.Point{}, ctx.Err()
}

func (blockingReporter) ReportBatchCtx(ctx context.Context, xs []geo.Point) ([]geo.Point, error) {
	<-ctx.Done()
	return nil, ctx.Err()
}

// do serves req against s and returns the recorded response.
func do(t *testing.T, s *Server, req *http.Request) *httptest.ResponseRecorder {
	t.Helper()
	w := httptest.NewRecorder()
	done := make(chan struct{})
	go func() {
		s.ServeHTTP(w, req)
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatalf("%s %s did not return: handler hung on a dead request", req.Method, req.URL.Path)
	}
	return w
}

// TestReportClientDisconnect: a /v1/report whose context is already canceled
// (the client hung up) returns promptly with 499 and refunds the charge — it
// must not hang on the singleflight waiting for a solve nobody wants.
func TestReportClientDisconnect(t *testing.T) {
	ledger, _ := NewLedger(1.0, time.Hour, nil)
	s, err := New(blockingReporter{}, ledger, geo.NewSquare(20))
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	req := httptest.NewRequest(http.MethodPost, "/v1/report",
		strings.NewReader(`{"user_id":"u","x":5,"y":5}`)).WithContext(ctx)

	w := do(t, s, req)
	if w.Code != statusClientClosedRequest {
		t.Errorf("status %d want %d", w.Code, statusClientClosedRequest)
	}
	if r := ledger.Remaining("u"); r != 1.0 {
		t.Errorf("canceled report charged the budget: remaining %g want 1.0", r)
	}
}

// TestBatchClientDisconnect is the batch counterpart: the whole charge comes
// back (all-or-nothing extends to cancellation).
func TestBatchClientDisconnect(t *testing.T) {
	ledger, _ := NewLedger(2.0, time.Hour, nil)
	s, err := New(blockingReporter{}, ledger, geo.NewSquare(20))
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	req := httptest.NewRequest(http.MethodPost, "/v1/report:batch",
		strings.NewReader(`[{"user_id":"u","x":1,"y":1},{"user_id":"u","x":2,"y":2}]`)).WithContext(ctx)

	w := do(t, s, req)
	if w.Code != statusClientClosedRequest {
		t.Errorf("status %d want %d", w.Code, statusClientClosedRequest)
	}
	if r := ledger.Remaining("u"); r != 2.0 {
		t.Errorf("canceled batch charged the budget: remaining %g want 2.0", r)
	}
}

// TestRequestTimeout: with -request-timeout configured, a report that outlives
// the deadline is canceled server-side, answered 504, and refunded.
func TestRequestTimeout(t *testing.T) {
	ledger, _ := NewLedger(1.0, time.Hour, nil)
	s, err := New(blockingReporter{}, ledger, geo.NewSquare(20))
	if err != nil {
		t.Fatal(err)
	}
	s.SetRequestTimeout(20 * time.Millisecond)
	req := httptest.NewRequest(http.MethodPost, "/v1/report",
		strings.NewReader(`{"user_id":"u","x":5,"y":5}`))

	w := do(t, s, req)
	if w.Code != http.StatusGatewayTimeout {
		t.Errorf("status %d want 504", w.Code)
	}
	if r := ledger.Remaining("u"); r != 1.0 {
		t.Errorf("timed-out report charged the budget: remaining %g want 1.0", r)
	}
}

// TestReadinessFlipsOnShutdown: /v1/healthz is 200 while serving and 503 once
// BeginShutdown is called; the liveness probe /healthz stays 200 throughout.
func TestReadinessFlipsOnShutdown(t *testing.T) {
	s, err := New(newTestReporter(t, 0.5), nil, geo.NewSquare(20))
	if err != nil {
		t.Fatal(err)
	}
	get := func(path string) int {
		w := httptest.NewRecorder()
		s.ServeHTTP(w, httptest.NewRequest(http.MethodGet, path, nil))
		return w.Code
	}
	if c := get("/v1/healthz"); c != http.StatusOK {
		t.Fatalf("ready before shutdown: %d want 200", c)
	}
	s.BeginShutdown()
	if c := get("/v1/healthz"); c != http.StatusServiceUnavailable {
		t.Errorf("ready after BeginShutdown: %d want 503", c)
	}
	if c := get("/healthz"); c != http.StatusOK {
		t.Errorf("liveness after BeginShutdown: %d want 200 (process is still up)", c)
	}
}

// cancelStatser is a Statser stub exposing cancellation counters.
type cancelStatser struct{ blockingReporter }

func (cancelStatser) MechStats() MechStats {
	return MechStats{Store: &channel.Stats{Hits: 3, Misses: 1, Abandoned: 2, Canceled: 1}}
}

// TestStatsExposeCancellation: /v1/stats surfaces the store's Abandoned and
// Canceled counters.
func TestStatsExposeCancellation(t *testing.T) {
	s, err := New(cancelStatser{}, nil, geo.NewSquare(20))
	if err != nil {
		t.Fatal(err)
	}
	w := httptest.NewRecorder()
	s.ServeHTTP(w, httptest.NewRequest(http.MethodGet, "/v1/stats", nil))
	if w.Code != http.StatusOK {
		t.Fatalf("stats: %d", w.Code)
	}
	var resp StatsResponse
	if err := json.NewDecoder(w.Body).Decode(&resp); err != nil {
		t.Fatal(err)
	}
	if resp.ChannelCache == nil {
		t.Fatal("channel_cache section missing")
	}
	if resp.ChannelCache.Abandoned != 2 || resp.ChannelCache.Canceled != 1 {
		t.Errorf("cancellation counters %+v want abandoned=2 canceled=1", resp.ChannelCache)
	}
}
