package server

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"

	"geoind/internal/channel"
	"geoind/internal/geo"
)

// statsReporter is a Reporter that also exposes channel-store counters,
// standing in for MSM/adaptive mechanisms in /v1/stats tests.
type statsReporter struct {
	Reporter
	st channel.Stats
}

func (s *statsReporter) MechStats() MechStats { return MechStats{Store: &s.st} }

// dirStatsReporter additionally exposes persistent-cache counters, standing
// in for a mechanism with a configured cache directory (ok) or without one.
type dirStatsReporter struct {
	statsReporter
	dst channel.DirStats
	ok  bool
}

func (d *dirStatsReporter) MechStats() MechStats {
	st := d.statsReporter.MechStats()
	if d.ok {
		st.Dir = &d.dst
	}
	return st
}

func TestStatsEndpoint(t *testing.T) {
	mech := &statsReporter{
		Reporter: newTestReporter(t, 0.5),
		st: channel.Stats{
			Hits: 12, Misses: 3, BackingHits: 7, BackingWrites: 3,
			Entries: 3, Cost: 4096, Evictions: 1,
		},
	}
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
	if resp.Mechanism != "PL" {
		t.Errorf("mechanism %q", resp.Mechanism)
	}
	cc := resp.ChannelCache
	if cc == nil {
		t.Fatal("channel_cache missing for a mechanism with a store section")
	}
	if cc.Hits != 12 || cc.Misses != 3 || cc.DiskHits != 7 || cc.DiskWrites != 3 ||
		cc.Entries != 3 || cc.CostBytes != 4096 || cc.Evictions != 1 {
		t.Fatalf("channel_cache %+v", cc)
	}
}

// TestStatsEndpointDirCacheCounters: a mechanism with a persistent snapshot
// cache surfaces version misses (format-skew rollout signal) and decode
// errors separately from the in-memory store counters.
func TestStatsEndpointDirCacheCounters(t *testing.T) {
	mech := &dirStatsReporter{
		statsReporter: statsReporter{
			Reporter: newTestReporter(t, 0.5),
			st:       channel.Stats{Hits: 1, Misses: 9},
		},
		dst: channel.DirStats{Loads: 10, Hits: 1, VersionMisses: 8, Errors: 1},
		ok:  true,
	}
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
	cc := resp.ChannelCache
	if cc == nil {
		t.Fatal("channel_cache missing")
	}
	if cc.VersionMisses != 8 || cc.DiskErrors != 1 {
		t.Fatalf("version_misses=%d disk_errors=%d, want 8 and 1", cc.VersionMisses, cc.DiskErrors)
	}

	// Without a configured cache directory (ok=false) the counters stay zero.
	mech.ok = false
	rec = httptest.NewRecorder()
	srv.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/stats", nil))
	resp = StatsResponse{}
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if resp.ChannelCache.VersionMisses != 0 || resp.ChannelCache.DiskErrors != 0 {
		t.Fatalf("counters leaked without a backing: %+v", resp.ChannelCache)
	}
}

func TestStatsEndpointWithoutStoreStatser(t *testing.T) {
	srv, err := New(newTestReporter(t, 0.5), nil, geo.NewSquare(20))
	if err != nil {
		t.Fatal(err)
	}
	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/stats", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d", rec.Code)
	}
	// The channel_cache key must be omitted entirely, not null-filled.
	var raw map[string]json.RawMessage
	if err := json.Unmarshal(rec.Body.Bytes(), &raw); err != nil {
		t.Fatal(err)
	}
	if _, ok := raw["channel_cache"]; ok {
		t.Fatal("channel_cache present for a plain Reporter")
	}

	rec = httptest.NewRecorder()
	srv.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/stats", nil))
	if rec.Code != http.StatusMethodNotAllowed {
		t.Fatalf("POST /v1/stats: status %d, want 405", rec.Code)
	}
}

// localStatsReporter stands in for a mechanism supporting the locally
// relevant OPT construction.
type localStatsReporter struct {
	Reporter
	radius, floor   float64
	local, fallback int64
}

func (l *localStatsReporter) MechStats() MechStats {
	return MechStats{Local: &LocalStats{
		RadiusKm: l.radius, MassFloor: l.floor, LocalChannels: l.local, DenseFallbacks: l.fallback,
	}}
}

// TestStatsEndpointLocalSection: a mechanism with a local section with the variant
// enabled surfaces the local solve and dense-fallback counters; with the
// variant off (radius 0) the section is omitted entirely.
func TestStatsEndpointLocalSection(t *testing.T) {
	mech := &localStatsReporter{
		Reporter: newTestReporter(t, 0.5),
		radius:   2.5, floor: 0.01, local: 20, fallback: 1,
	}
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
	if resp.Local == nil {
		t.Fatal("local section missing for a mechanism with the variant enabled")
	}
	if resp.Local.RadiusKm != 2.5 || resp.Local.MassFloor != 0.01 ||
		resp.Local.LocalChannels != 20 || resp.Local.DenseFallbacks != 1 {
		t.Fatalf("local section %+v", resp.Local)
	}

	// Variant off: the key must be omitted, not zero-filled.
	mech.radius = 0
	rec = httptest.NewRecorder()
	srv.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/stats", nil))
	var raw map[string]json.RawMessage
	if err := json.Unmarshal(rec.Body.Bytes(), &raw); err != nil {
		t.Fatal(err)
	}
	if _, ok := raw["local"]; ok {
		t.Fatal("local section present with the variant disabled")
	}
}
