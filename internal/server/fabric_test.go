package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"geoind/internal/channel"
	"geoind/internal/fabric"
	"geoind/internal/geo"
	"geoind/internal/metrics"
)

// fabricReporter stands in for an MSM joined to a channel fabric: it serves
// one canned snapshot frame and fixed fabric counters.
type fabricReporter struct {
	Reporter
	key     channel.Key
	frame   []byte
	err     error // overrides the frame when set
	gotKey  channel.Key
	gotSolv bool
	st      fabric.Stats
	hist    *metrics.Histogram
}

func (f *fabricReporter) ChannelSnapshot(_ context.Context, key channel.Key, solve bool) ([]byte, error) {
	f.gotKey, f.gotSolv = key, solve
	if f.err != nil {
		return nil, f.err
	}
	if key != f.key {
		return nil, fmt.Errorf("%w: not my key", channel.ErrUnknownKey)
	}
	return f.frame, nil
}

func (f *fabricReporter) MechStats() MechStats { return MechStats{Fabric: &f.st, FetchLatency: f.hist} }

func newFabricReporter(t *testing.T) *fabricReporter {
	t.Helper()
	key := channel.NewKey("msm", 1, 5, 0.5, 0, 0xabc)
	hist := metrics.NewHistogram([]float64{0.001, 0.01, 0.1, 1})
	hist.Observe(0.002)
	return &fabricReporter{
		Reporter: newTestReporter(t, 0.5),
		key:      key,
		frame:    channel.Snapshot(key, []byte("payload")),
		st: fabric.Stats{
			Self:  "http://a",
			Peers: []string{"http://a", "http://b"},
			Tiers: []channel.TierStats{
				{Name: "mem", DirStats: channel.DirStats{Loads: 10, Hits: 6}},
				{Name: "remote", DirStats: channel.DirStats{Loads: 4, Hits: 3, Errors: 1}, LoadNanos: 2_000_000},
			},
			Remote: &fabric.RemoteStats{Fetches: 4, Hedges: 2, HedgeWins: 1, Retries: 1, Fallbacks: 1},
		},
		hist: hist,
	}
}

// TestChannelSnapshotEndpoint: the fleet snapshot endpoint round-trips a
// frame for a well-formed URL and maps mechanism errors onto the statuses
// the remote tier's retry triage expects.
func TestChannelSnapshotEndpoint(t *testing.T) {
	mech := newFabricReporter(t)
	srv, err := New(mech, nil, geo.NewSquare(20))
	if err != nil {
		t.Fatal(err)
	}
	get := func(url string) *httptest.ResponseRecorder {
		rec := httptest.NewRecorder()
		srv.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, url, nil))
		return rec
	}

	rec := get(fabric.SnapshotURL("http://a", mech.key, true))
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d: %s", rec.Code, rec.Body)
	}
	if !bytes.Equal(rec.Body.Bytes(), mech.frame) {
		t.Fatal("response body is not the snapshot frame")
	}
	if mech.gotKey != mech.key || !mech.gotSolv {
		t.Fatalf("mechanism saw key %+v solve=%v", mech.gotKey, mech.gotSolv)
	}
	if ct := rec.Header().Get("Content-Type"); ct != "application/octet-stream" {
		t.Fatalf("content type %q", ct)
	}

	// solve=0 must reach the mechanism as solve=false (the hedge contract).
	if rec := get(fabric.SnapshotURL("http://a", mech.key, false)); rec.Code != http.StatusOK {
		t.Fatalf("cached-only status %d", rec.Code)
	} else if mech.gotSolv {
		t.Fatal("solve=0 URL reached the mechanism with solve=true")
	}

	// Error mapping.
	otherKey := channel.NewKey("msm", 2, 9, 0.25, 0, 0xabc)
	if rec := get(fabric.SnapshotURL("http://a", otherKey, true)); rec.Code != http.StatusNotFound {
		t.Fatalf("unknown key: status %d, want 404", rec.Code)
	}
	mech.err = channel.ErrNotCached
	if rec := get(fabric.SnapshotURL("http://a", mech.key, false)); rec.Code != http.StatusNotFound {
		t.Fatalf("not cached: status %d, want 404", rec.Code)
	}
	mech.err = channel.ErrSolveOverload
	rec = get(fabric.SnapshotURL("http://a", mech.key, true))
	if rec.Code != http.StatusTooManyRequests || rec.Header().Get("Retry-After") == "" {
		t.Fatalf("overload: status %d retry-after %q", rec.Code, rec.Header().Get("Retry-After"))
	}
	mech.err = context.DeadlineExceeded
	if rec := get(fabric.SnapshotURL("http://a", mech.key, true)); rec.Code != http.StatusGatewayTimeout {
		t.Fatalf("deadline: status %d, want 504", rec.Code)
	}
	mech.err = fmt.Errorf("solver exploded")
	if rec := get(fabric.SnapshotURL("http://a", mech.key, true)); rec.Code != http.StatusInternalServerError {
		t.Fatalf("generic error: status %d, want 500", rec.Code)
	}
	mech.err = nil

	// Malformed URLs are rejected before the mechanism sees them.
	if rec := get("/v1/channels/zzzz"); rec.Code != http.StatusBadRequest {
		t.Fatalf("mangled URL: status %d, want 400", rec.Code)
	}
	// Method and capability gates.
	rec = httptest.NewRecorder()
	srv.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, fabric.SnapshotURL("http://a", mech.key, true), nil))
	if rec.Code != http.StatusMethodNotAllowed {
		t.Fatalf("POST: status %d, want 405", rec.Code)
	}
}

// TestChannelSnapshotWithoutSource: a mechanism that serves no snapshots
// answers 404 (a definitive miss for the remote tier), not 500.
func TestChannelSnapshotWithoutSource(t *testing.T) {
	srv, err := New(newTestReporter(t, 0.5), nil, geo.NewSquare(20))
	if err != nil {
		t.Fatal(err)
	}
	key := channel.NewKey("msm", 1, 5, 0.5, 0, 0xabc)
	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, fabric.SnapshotURL("http://a", key, true), nil))
	if rec.Code != http.StatusNotFound {
		t.Fatalf("status %d, want 404", rec.Code)
	}
}

// TestStatsEndpointFabricSection: a fabric-joined mechanism surfaces the
// per-tier and remote counters; plain mechanisms omit the section.
func TestStatsEndpointFabricSection(t *testing.T) {
	mech := newFabricReporter(t)
	srv, err := New(mech, nil, geo.NewSquare(20))
	if err != nil {
		t.Fatal(err)
	}
	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/stats", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d: %s", rec.Code, rec.Body)
	}
	var resp StatsResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	fs := resp.Fabric
	if fs == nil {
		t.Fatal("fabric section missing")
	}
	if fs.Self != "http://a" || len(fs.Peers) != 2 {
		t.Fatalf("fleet identity %+v", fs)
	}
	if len(fs.Tiers) != 2 || fs.Tiers[0].Name != "mem" || fs.Tiers[1].Name != "remote" {
		t.Fatalf("tiers %+v", fs.Tiers)
	}
	if fs.Tiers[1].Errors != 1 || fs.Tiers[1].LoadMsTotal != 2 {
		t.Fatalf("remote tier counters %+v", fs.Tiers[1])
	}
	if fs.Remote == nil || fs.Remote.Hedges != 2 || fs.Remote.HedgeWins != 1 || fs.Remote.Fallbacks != 1 {
		t.Fatalf("remote section %+v", fs.Remote)
	}

	// A non-fabric mechanism omits the key entirely.
	plain, err := New(newTestReporter(t, 0.5), nil, geo.NewSquare(20))
	if err != nil {
		t.Fatal(err)
	}
	rec = httptest.NewRecorder()
	plain.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/stats", nil))
	var raw map[string]json.RawMessage
	if err := json.Unmarshal(rec.Body.Bytes(), &raw); err != nil {
		t.Fatal(err)
	}
	if _, ok := raw["fabric"]; ok {
		t.Fatal("fabric section present for a plain Reporter")
	}
}

// TestMetricsFabricSeries: /metrics renders the per-tier counters, the
// remote fetch counters, and the externally-owned fetch-latency histogram.
func TestMetricsFabricSeries(t *testing.T) {
	srv, err := New(newFabricReporter(t), nil, geo.NewSquare(20))
	if err != nil {
		t.Fatal(err)
	}
	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d", rec.Code)
	}
	body := rec.Body.String()
	for _, want := range []string{
		`geoind_fabric_tier_loads_total{tier="mem"} 10`,
		`geoind_fabric_tier_hits_total{tier="remote"} 3`,
		`geoind_fabric_tier_errors_total{tier="remote"} 1`,
		`geoind_fabric_remote_fetches_total 4`,
		`geoind_fabric_remote_hedges_total 2`,
		`geoind_fabric_remote_hedge_wins_total 1`,
		`geoind_fabric_remote_fallbacks_total 1`,
		`geoind_fabric_fetch_duration_seconds_count 1`,
	} {
		if !strings.Contains(body, want) {
			t.Errorf("scrape output missing %q", want)
		}
	}
}
