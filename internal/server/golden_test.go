package server_test

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math/rand/v2"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"sync"
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

// bodyMech is a fixed-seed stub mechanism whose releases span every float
// format the JSON encoder emits: plain decimals, tiny and huge exponents,
// negative values and full 17-digit mantissas.
type bodyMech struct {
	mu  sync.Mutex
	rng *rand.Rand
	k   int
}

var bodyScales = [...]float64{1, 1e-7, 1e21, -3e-12, 123456.789}

func (m *bodyMech) ReportCtx(_ context.Context, x geo.Point) (geo.Point, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.k++
	return geo.Point{X: x.X + m.rng.NormFloat64(), Y: x.Y * bodyScales[m.k%len(bodyScales)]}, nil
}

func (m *bodyMech) ReportBatchCtx(ctx context.Context, xs []geo.Point) ([]geo.Point, error) {
	out := make([]geo.Point, len(xs))
	for i, x := range xs {
		out[i], _ = m.ReportCtx(ctx, x)
	}
	return out, nil
}

func (m *bodyMech) Epsilon() float64 { return 0.3 }
func (m *bodyMech) Name() string     { return "stub<&>" }

// TestHandlerBodiesGolden pins the status, Content-Type and exact body of
// the report, batch and trace endpoints: their 200s (with and without a
// budget ledger) and every class of request body the JSON decoder accepts
// or rejects, including inputs a strict parser would treat differently
// (case-variant keys, escapes, null, duplicate keys, trailing data).
func TestHandlerBodiesGolden(t *testing.T) {
	start := time.Date(2024, 1, 1, 0, 0, 0, 0, time.UTC)
	ledger, err := server.NewLedger(100, time.Hour, func() time.Time { return start })
	if err != nil {
		t.Fatal(err)
	}
	s, err := server.New(&bodyMech{rng: rand.New(rand.NewPCG(5, 6))}, ledger, geo.NewSquare(20))
	if err != nil {
		t.Fatal(err)
	}
	if err := s.EnableTrace(server.TraceConfig{Theta: 4, EpsTest: 0.1, Seed: 3}); err != nil {
		t.Fatal(err)
	}
	open, err := server.New(&bodyMech{rng: rand.New(rand.NewPCG(7, 8))}, nil, geo.NewSquare(20))
	if err != nil {
		t.Fatal(err)
	}

	batch := func(n int, entry string) string {
		return "[" + strings.Repeat(entry+",", n-1) + entry + "]"
	}
	var batch16 strings.Builder
	batch16.WriteString("[")
	for i := range 16 {
		if i > 0 {
			batch16.WriteString(",")
		}
		fmt.Fprintf(&batch16, `{"user_id":"bob","x":%g,"y":%g}`, float64(i)+0.25, 19.5-float64(i))
	}
	batch16.WriteString("]")
	pad := strings.Repeat(" ", 1<<16)

	const (
		report = "/v1/report"
		batchP = "/v1/report:batch"
		trace  = "/v1/trace"
	)
	cases := []struct {
		name   string
		srv    *server.Server
		path   string
		body   string
		status int
		want   string
	}{
		{"report", s, report, `{"user_id":"alice","x":3.25,"y":11.5}`, 200,
			"{\"x\":4.088849479686759,\"y\":0.00000115,\"eps_spent\":0.3,\"remaining_budget\":99.7,\"mechanism\":\"stub\\u003c\\u0026\\u003e\"}\n"},
		{"report again", s, report, ` {"y":0.125, "x":19.75 ,"user_id":"alice"}` + "\n", 200,
			"{\"x\":19.07218940771325,\"y\":125000000000000000000,\"eps_spent\":0.3,\"remaining_budget\":99.4,\"mechanism\":\"stub\\u003c\\u0026\\u003e\"}\n"},
		{"report zero", s, report, `{"user_id":"alice","x":0,"y":2e-3}`, 200,
			"{\"x\":-0.4567080589992088,\"y\":-6.0000000000000005e-15,\"eps_spent\":0.3,\"remaining_budget\":99.1,\"mechanism\":\"stub\\u003c\\u0026\\u003e\"}\n"},
		{"report negative zero", s, report, `{"user_id":"alice","x":-0,"y":20}`, 200,
			"{\"x\":-0.018368972426645036,\"y\":2469135.7800000003,\"eps_spent\":0.3,\"remaining_budget\":98.8,\"mechanism\":\"stub\\u003c\\u0026\\u003e\"}\n"},
		{"report exponents", s, report, `{"user_id":"alice","x":1E1,"y":7.5e+0}`, 200,
			"{\"x\":9.098342480161147,\"y\":7.5,\"eps_spent\":0.3,\"remaining_budget\":98.5,\"mechanism\":\"stub\\u003c\\u0026\\u003e\"}\n"},
		{"batch16", s, batchP, batch16.String(), 200,
			"{\"results\":[{\"x\":-1.7755973093268258,\"y\":0.00000195},{\"x\":0.27982884713655465,\"y\":1.85e+22},{\"x\":1.6945118583194314,\"y\":-5.25e-11},{\"x\":3.4549219488804415,\"y\":2037037.0185},{\"x\":4.170129084501634,\"y\":15.5},{\"x\":4.037844755736162,\"y\":0.0000014499999999999999},{\"x\":4.948110337992581,\"y\":1.35e+22},{\"x\":7.645031606423349,\"y\":-3.75e-11},{\"x\":8.34116897268882,\"y\":1419753.0735},{\"x\":7.995174271924284,\"y\":10.5},{\"x\":10.716204759486908,\"y\":9.5e-7},{\"x\":11.14978105580473,\"y\":8.5e+21},{\"x\":12.031035470868535,\"y\":-2.25e-11},{\"x\":14.62366893535824,\"y\":802469.1285},{\"x\":12.201966137046156,\"y\":5.5},{\"x\":15.448370938322345,\"y\":4.5e-7}],\"eps_spent\":4.8,\"remaining_budget\":95.2,\"mechanism\":\"stub\\u003c\\u0026\\u003e\"}\n"},
		{"trace fresh", s, trace, `{"user_id":"carol","x":7,"y":11}`, 200,
			"{\"x\":6.11408602311409,\"y\":1.1e+22,\"eps_spent\":0.3,\"fresh\":true,\"mode\":\"predictive\",\"remaining_budget\":99.7,\"mechanism\":\"stub\\u003c\\u0026\\u003e\"}\n"},
		{"trace dwell", s, trace, `{"user_id":"carol","x":7.1,"y":11,"mode":"predictive"}`, 200,
			"{\"x\":7.883617556394507,\"y\":-3.3e-11,\"eps_spent\":0.4,\"fresh\":true,\"mode\":\"predictive\",\"remaining_budget\":99.3,\"mechanism\":\"stub\\u003c\\u0026\\u003e\"}\n"},
		{"trace memo hit", s, trace, `{"user_id":"carol","x":7,"y":11}`, 200,
			"{\"x\":7.883617556394507,\"y\":-3.3e-11,\"eps_spent\":0.1,\"fresh\":false,\"mode\":\"predictive\",\"remaining_budget\":99.2,\"mechanism\":\"stub\\u003c\\u0026\\u003e\"}\n"},
		{"trace independent", s, trace, `{"mode":"independent","user_id":"carol","x":7,"y":11}`, 200,
			"{\"x\":6.331631963002477,\"y\":1358024.679,\"eps_spent\":0.3,\"fresh\":true,\"mode\":\"independent\",\"remaining_budget\":98.9,\"mechanism\":\"stub\\u003c\\u0026\\u003e\"}\n"},
		{"open report", open, report, `{"x":5,"y":5}`, 200,
			"{\"x\":5.924329974418349,\"y\":5e-7,\"eps_spent\":0.3,\"mechanism\":\"stub\\u003c\\u0026\\u003e\"}\n"},
		{"open batch", open, batchP, `[{"x":5,"y":5},{"user_id":"z","x":6,"y":6}]`, 200,
			"{\"results\":[{\"x\":4.959769313780524,\"y\":5e+21},{\"x\":4.720790279481136,\"y\":-1.8000000000000002e-11}],\"eps_spent\":0.6,\"mechanism\":\"stub\\u003c\\u0026\\u003e\"}\n"},

		{"unknown field", s, report, `{"user_id":"alice","x":1,"y":1,"z":1}`, 400,
			"{\"error\":\"invalid JSON: json: unknown field \\\"z\\\"\"}\n"},
		{"case-variant key", s, report, `{"user_id":"alice","X":2,"y":1}`, 200,
			"{\"x\":3.309939257771452,\"y\":1,\"eps_spent\":0.3,\"remaining_budget\":98.2,\"mechanism\":\"stub\\u003c\\u0026\\u003e\"}\n"},
		{"escaped user_id", s, report, `{"user_id":"al\u0069ce","x":1,"y":1}`, 200,
			"{\"x\":2.8000937696569164,\"y\":1e-7,\"eps_spent\":0.3,\"remaining_budget\":97.9,\"mechanism\":\"stub\\u003c\\u0026\\u003e\"}\n"},
		{"non-ascii user_id", s, report, `{"user_id":"alicé","x":1,"y":1}`, 200,
			"{\"x\":1.0710332447322521,\"y\":1e+21,\"eps_spent\":0.3,\"remaining_budget\":99.7,\"mechanism\":\"stub\\u003c\\u0026\\u003e\"}\n"},
		{"null body", s, report, `null`, 400,
			"{\"error\":\"user_id required\"}\n"},
		{"null field", s, report, `{"user_id":"alice","x":null,"y":1}`, 200,
			"{\"x\":0.11656640914391614,\"y\":-3e-12,\"eps_spent\":0.3,\"remaining_budget\":97.6,\"mechanism\":\"stub\\u003c\\u0026\\u003e\"}\n"},
		{"duplicate key", s, report, `{"user_id":"alice","x":1,"x":4,"y":1}`, 200,
			"{\"x\":5.263443723741128,\"y\":123456.789,\"eps_spent\":0.3,\"remaining_budget\":97.3,\"mechanism\":\"stub\\u003c\\u0026\\u003e\"}\n"},
		{"trailing garbage", s, report, `{"user_id":"alice","x":1,"y":1} trailing`, 200,
			"{\"x\":1.5208233586918851,\"y\":1,\"eps_spent\":0.3,\"remaining_budget\":97,\"mechanism\":\"stub\\u003c\\u0026\\u003e\"}\n"},
		{"second value", s, report, `{"user_id":"alice","x":1,"y":1}{"x":2}`, 200,
			"{\"x\":1.8251644747268125,\"y\":1e-7,\"eps_spent\":0.3,\"remaining_budget\":96.7,\"mechanism\":\"stub\\u003c\\u0026\\u003e\"}\n"},
		{"out of range", s, report, `{"user_id":"alice","x":1e400,"y":1}`, 400,
			"{\"error\":\"invalid JSON: json: cannot unmarshal number 1e400 into Go struct field ReportRequest.x of type float64\"}\n"},
		{"number grammar", s, report, `{"user_id":"alice","x":01,"y":1}`, 400,
			"{\"error\":\"invalid JSON: invalid character '1' after object key:value pair\"}\n"},
		{"string number", s, report, `{"user_id":"alice","x":"1","y":1}`, 400,
			"{\"error\":\"invalid JSON: json: cannot unmarshal string into Go struct field ReportRequest.x of type float64\"}\n"},
		{"over limit", s, report, pad + `{"user_id":"alice","x":1,"y":1}`, 400,
			"{\"error\":\"invalid JSON: http: request body too large\"}\n"},
		{"padded under limit", s, report, `{"user_id":"alice","x":1,"y":1}` + pad, 200,
			"{\"x\":0.6124749178557394,\"y\":1e+21,\"eps_spent\":0.3,\"remaining_budget\":96.4,\"mechanism\":\"stub\\u003c\\u0026\\u003e\"}\n"},
		{"array", s, report, `[]`, 400,
			"{\"error\":\"invalid JSON: json: cannot unmarshal array into Go value of type server.ReportRequest\"}\n"},
		{"empty", s, report, ``, 400,
			"{\"error\":\"invalid JSON: EOF\"}\n"},
		{"truncated", s, report, `{"user_id":"alice","x":1`, 400,
			"{\"error\":\"invalid JSON: unexpected EOF\"}\n"},
		{"outside region", s, report, `{"user_id":"alice","x":21,"y":1}`, 400,
			"{\"error\":\"location (21.0000, 1.0000) outside service region [0.000,20.000)x[0.000,20.000)\"}\n"},
		{"missing user", s, report, `{"x":1,"y":1}`, 400,
			"{\"error\":\"user_id required\"}\n"},

		{"batch empty", s, batchP, `[]`, 400,
			"{\"error\":\"empty batch\"}\n"},
		{"batch null", s, batchP, `null`, 400,
			"{\"error\":\"empty batch\"}\n"},
		{"batch object", s, batchP, `{"user_id":"bob","x":1,"y":1}`, 400,
			"{\"error\":\"invalid JSON: json: cannot unmarshal object into Go value of type []server.ReportRequest\"}\n"},
		{"batch unknown field", s, batchP, `[{"user_id":"bob","x":1,"y":1,"mode":"x"}]`, 400,
			"{\"error\":\"invalid JSON: json: unknown field \\\"mode\\\"\"}\n"},
		{"batch trailing", s, batchP, `[{"user_id":"bob","x":1,"y":1}],`, 200,
			"{\"results\":[{\"x\":1.1965335223747398,\"y\":-3e-12}],\"eps_spent\":0.3,\"remaining_budget\":94.9,\"mechanism\":\"stub\\u003c\\u0026\\u003e\"}\n"},
		{"batch mixed users", s, batchP, `[{"user_id":"bob","x":1,"y":1},{"user_id":"Bob","x":1,"y":1}]`, 400,
			"{\"error\":\"mixed-user batch: entry 1 has user_id \\\"Bob\\\", entry 0 has \\\"bob\\\" (a batch is charged to one budget account)\"}\n"},
		{"batch 1025", s, batchP, batch(1025, `{"user_id":"bob","x":1,"y":1}`), 413,
			"{\"error\":\"batch of 1025 exceeds limit 1024\"}\n"},
		{"batch over budget", s, batchP, batch(1024, `{"user_id":"bob","x":1,"y":1}`), 429,
			"{\"error\":\"batch cost 307.2 exceeds remaining budget 94.9: privacy budget exhausted for this window (no budget was charged)\"}\n"},

		{"trace escaped mode", s, trace, `{"user_id":"dave","x":1,"y":1,"mode":"indep\u0065ndent"}`, 200,
			"{\"x\":0.7764106001453575,\"y\":123456.789,\"eps_spent\":0.3,\"fresh\":true,\"mode\":\"independent\",\"remaining_budget\":99.7,\"mechanism\":\"stub\\u003c\\u0026\\u003e\"}\n"},
		{"trace bad mode", s, trace, `{"user_id":"dave","x":1,"y":1,"mode":"Independent"}`, 400,
			"{\"error\":\"unknown mode \\\"Independent\\\" (want \\\"predictive\\\" or \\\"independent\\\")\"}\n"},
		{"trace unknown field", s, trace, `{"user_id":"dave","x":1,"y":1,"theta":1}`, 400,
			"{\"error\":\"invalid JSON: json: unknown field \\\"theta\\\"\"}\n"},
		{"trace null", s, trace, `null`, 400,
			"{\"error\":\"user_id required\"}\n"},
		{"trace over limit", s, trace, `{"user_id":"dave","x":1,"y":1,"mode":"` + pad + `"}`, 400,
			"{\"error\":\"invalid JSON: http: request body too large\"}\n"},
	}
	for _, c := range cases {
		rec := httptest.NewRecorder()
		c.srv.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, c.path, strings.NewReader(c.body)))
		if ct := rec.Header().Get("Content-Type"); rec.Code != c.status || ct != "application/json" {
			t.Errorf("%s: status %d, Content-Type %q; want %d, application/json", c.name, rec.Code, ct, c.status)
		}
		if got := rec.Body.String(); got != c.want {
			t.Errorf("%s: body\n got %q\nwant %q", c.name, got, c.want)
		}
	}
}
