package server_test

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"testing"
	"time"

	"geoind"
	"geoind/internal/channel"
	"geoind/internal/fabric"
	"geoind/internal/geo"
	"geoind/internal/metrics"
	"geoind/internal/server"
	"geoind/internal/session"
)

// get serves one GET against s and returns the body, failing on a non-200.
func get(t *testing.T, s *server.Server, path string) string {
	t.Helper()
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, path, nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("GET %s: status %d: %s", path, rec.Code, rec.Body)
	}
	return rec.Body.String()
}

func sha(s string) string {
	h := sha256.Sum256([]byte(s))
	return hex.EncodeToString(h[:])
}

// TestStatsMetricsGolden pins the exact /metrics text and /v1/stats body of
// a server fronting a mechanism with every stats section (store, dir cache,
// sampler, local, fabric with remote counters and a fetch histogram), a
// journaled ledger and the trace pipeline. /metrics is scraped before any
// instrumented request, so every value in it is fixed.
func TestStatsMetricsGolden(t *testing.T) {
	st, err := session.Open(session.Config{Limit: 10, Window: time.Hour, Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() })
	ledger, err := server.NewLedgerStore(st)
	if err != nil {
		t.Fatal(err)
	}
	s, err := server.New(newGoldenMech(), ledger, geo.NewSquare(20))
	if err != nil {
		t.Fatal(err)
	}
	if err := s.EnableTrace(server.TraceConfig{Theta: 4, EpsTest: 0.5, Seed: 1}); err != nil {
		t.Fatal(err)
	}
	const (
		metricsSHA = "c9994883e30b7c35e36033d030b676d18854e4fb5f0ba7014e454a7c88210159"
		statsSHA   = "b6bb6ad97f240942d37de1cc18e63c086755e321a21c8cfa4c6e1403f7d3ac2b"
	)
	if text := get(t, s, "/metrics"); sha(text) != metricsSHA {
		t.Errorf("/metrics sha256 %s, want %s:\n%s", sha(text), metricsSHA, text)
	}
	if body := get(t, s, "/v1/stats"); sha(body) != statsSHA {
		t.Errorf("/v1/stats sha256 %s, want %s:\n%s", sha(body), statsSHA, body)
	}
}

// TestStatsMetricsFacadeSections pins, per public mechanism, which /v1/stats
// sections a server fronting it reports and which /metrics families it
// registers.
func TestStatsMetricsFacadeSections(t *testing.T) {
	ds := geoind.GowallaSynthetic()
	base := []string{
		"geoind_budget_charges_total", "geoind_budget_eps_charged_total",
		"geoind_budget_eps_refunded_total", "geoind_budget_refunds_total",
		"geoind_request_duration_seconds", "geoind_trace_denied_total",
		"geoind_trace_fresh_total", "geoind_trace_independent_total",
		"geoind_trace_memo_hits_total",
	}
	store := []string{
		"geoind_channel_cache_cost_bytes", "geoind_channel_cache_disk_hits_total",
		"geoind_channel_cache_disk_writes_total", "geoind_channel_cache_entries",
		"geoind_channel_cache_evictions_total", "geoind_channel_cache_hits_total",
		"geoind_channel_cache_misses_total", "geoind_channel_solves_abandoned_total",
		"geoind_channel_solves_canceled_total", "geoind_solve_queue_depth",
		"geoind_solve_rejected_total", "geoind_solves_inflight",
	}
	dir := []string{"geoind_snapshot_disk_errors_total", "geoind_snapshot_version_misses_total"}
	tiers := []string{
		"geoind_fabric_tier_errors_total", "geoind_fabric_tier_hits_total",
		"geoind_fabric_tier_loads_total", "geoind_fabric_tier_version_misses_total",
		"geoind_fabric_tier_writes_total",
	}
	cases := []struct {
		name     string
		mech     func(t *testing.T) server.Reporter
		sections []string
		families [][]string
	}{
		{"PL", func(t *testing.T) server.Reporter {
			m, err := geoind.NewPlanarLaplace(geoind.LaplaceConfig{Eps: 0.5, Seed: 1})
			if err != nil {
				t.Fatal(err)
			}
			return m
		}, []string{"mechanism"}, [][]string{base}},
		{"OPT", func(t *testing.T) server.Reporter {
			m, err := geoind.NewOptimal(geoind.OptimalConfig{
				Eps: 3, Region: ds.Region(), Granularity: 3, PriorPoints: ds.Points(),
				Seed: 1, LocalRadius: 4, LocalMassFloor: 0.05,
			})
			if err != nil {
				t.Fatal(err)
			}
			return m
		}, []string{"local", "mechanism"}, [][]string{base}},
		{"MSM", func(t *testing.T) server.Reporter {
			m, err := geoind.NewMSM(geoind.MSMConfig{
				Eps: 3, Region: ds.Region(), Granularity: 3, PriorPoints: ds.Points(),
				Seed: 1, CacheDir: t.TempDir(), LocalRadius: 4, LocalMassFloor: 0.05,
				Fabric: &geoind.FabricConfig{Peers: []string{"http://a"}, Self: "http://a"},
			})
			if err != nil {
				t.Fatal(err)
			}
			return m
		}, []string{"channel_cache", "fabric", "local", "mechanism", "sampler"}, [][]string{base, store, dir, tiers}},
		{"MSM-adaptive", func(t *testing.T) server.Reporter {
			m, err := geoind.NewAdaptiveMSM(geoind.AdaptiveMSMConfig{
				Eps: 0.5, Region: ds.Region(), Fanout: 3, PriorPoints: ds.Points(),
				Seed: 1, CacheDir: t.TempDir(),
			})
			if err != nil {
				t.Fatal(err)
			}
			return m
		}, []string{"channel_cache", "mechanism", "sampler"}, [][]string{base, store, dir}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			s, err := server.New(c.mech(t), nil, geoind.Square(20))
			if err != nil {
				t.Fatal(err)
			}
			var families []string
			for _, line := range strings.Split(get(t, s, "/metrics"), "\n") {
				if f := strings.Fields(line); len(f) == 4 && f[1] == "TYPE" {
					families = append(families, f[2])
				}
			}
			slices.Sort(families)
			want := slices.Concat(c.families...)
			slices.Sort(want)
			if !slices.Equal(families, want) {
				t.Errorf("/metrics families\n got %q\nwant %q", families, want)
			}
			var raw map[string]json.RawMessage
			if err := json.Unmarshal([]byte(get(t, s, "/v1/stats")), &raw); err != nil {
				t.Fatal(err)
			}
			var got []string
			for k := range raw {
				got = append(got, k)
			}
			slices.Sort(got)
			if !slices.Equal(got, c.sections) {
				t.Errorf("/v1/stats sections %q, want %q", got, c.sections)
			}
		})
	}
}

// goldenMech is a mechanism with fixed counters in every stats section.
type goldenMech struct {
	store  channel.Stats
	dir    channel.DirStats
	fabric fabric.Stats
	hist   *metrics.Histogram
}

func newGoldenMech() *goldenMech {
	hist := metrics.NewHistogram([]float64{0.001, 0.01, 0.1, 1})
	for _, v := range []float64{0.0005, 0.002, 0.004, 0.05, 2} {
		hist.Observe(v)
	}
	return &goldenMech{
		store: channel.Stats{
			Hits: 101, Misses: 13, Evictions: 3, BackingHits: 7, BackingWrites: 11,
			Entries: 17, Cost: 40960, Inflight: 2, Abandoned: 5, Canceled: 1,
			Queued: 4, Rejected: 9,
		},
		dir: channel.DirStats{Loads: 20, Hits: 7, Errors: 2, VersionMisses: 6, Writes: 11, WriteErrors: 1},
		fabric: fabric.Stats{
			Self:  "http://a",
			Peers: []string{"http://a", "http://b"},
			Tiers: []channel.TierStats{
				{Name: "mem", DirStats: channel.DirStats{Loads: 30, Hits: 12, Writes: 8}, LoadNanos: 250_000},
				{Name: "disk", DirStats: channel.DirStats{Loads: 18, Hits: 7, Errors: 2, VersionMisses: 6, Writes: 11, WriteErrors: 1}, LoadNanos: 3_500_000},
				{Name: "remote", DirStats: channel.DirStats{Loads: 11, Hits: 9, Errors: 1}, LoadNanos: 42_000_000},
			},
			Remote: &fabric.RemoteStats{
				Fetches: 14, Hedges: 3, HedgeWins: 2, Retries: 1, Fallbacks: 2,
				FetchP50Ms: 3.5, FetchP99Ms: 180.25,
			},
		},
		hist: hist,
	}
}

func (g *goldenMech) ReportCtx(_ context.Context, x geo.Point) (geo.Point, error) {
	return x, nil
}
func (g *goldenMech) ReportBatchCtx(_ context.Context, xs []geo.Point) ([]geo.Point, error) {
	return xs, nil
}
func (g *goldenMech) Epsilon() float64 { return 0.5 }
func (g *goldenMech) Name() string     { return "golden" }

func (g *goldenMech) MechStats() server.MechStats {
	return server.MechStats{
		Store:        &g.store,
		Dir:          &g.dir,
		Sampler:      &server.SamplerStats{Kind: "alias", PruneMass: 0.02, PrunedChannels: 6, PruneFallbacks: 1},
		Local:        &server.LocalStats{RadiusKm: 2.5, MassFloor: 0.05, LocalChannels: 10, DenseFallbacks: 2},
		Fabric:       &g.fabric,
		FetchLatency: g.hist,
	}
}
