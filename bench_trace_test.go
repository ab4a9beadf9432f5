package geoind_test

// Trace-pipeline benchmarks behind `make bench-trace` (committed baseline:
// BENCH_trace.json, compared by bench-diff):
//
//   - BenchmarkTraceEndpoint drives the stateful /v1/trace endpoint of an
//     in-process server journaling every spend to disk, and reports request
//     latency quantiles plus the predictive memo-hit rate;
//   - BenchmarkTracePredictiveSavings documents the tentpole economics
//     offline: on correlated random-walk traces the predictive pipeline
//     spends <=50% of independent composition's budget (spend_ratio) at
//     equal-or-better empirical adversary error (ind/pred_adv_km);
//   - BenchmarkJournalAppend (./internal/session) rides along in the same
//     baseline for the per-record durability cost.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"math/rand/v2"
	"net/http/httptest"
	"sort"
	"testing"
	"time"

	"geoind"
	"geoind/internal/server"
	"geoind/internal/session"
)

const (
	benchTraceEps     = 2.0
	benchTraceEpsTest = 0.5
	benchTraceTheta   = 4.0
)

// BenchmarkTraceEndpoint: each op is a burst of 512 predictive /v1/trace
// requests from 16 random-walk users (sigma 0.2 km/step — mostly dwelling,
// the regime the predictive test exploits) against a server with a durable
// session store at the default fsync-every-record policy.
func BenchmarkTraceEndpoint(b *testing.B) {
	mech, err := geoind.NewPlanarLaplace(geoind.LaplaceConfig{Eps: benchTraceEps, Seed: 7})
	if err != nil {
		b.Fatal(err)
	}
	st, err := session.Open(session.Config{Limit: 1e9, Window: 24 * time.Hour, Dir: b.TempDir(), SyncEvery: 1})
	if err != nil {
		b.Fatal(err)
	}
	defer st.Close()
	ledger, err := server.NewLedgerStore(st)
	if err != nil {
		b.Fatal(err)
	}
	srv, err := server.New(mech, ledger, geoind.Square(20))
	if err != nil {
		b.Fatal(err)
	}
	if err := srv.EnableTrace(server.TraceConfig{Theta: benchTraceTheta, EpsTest: benchTraceEpsTest, Seed: 7}); err != nil {
		b.Fatal(err)
	}
	ts := httptest.NewServer(srv)
	defer ts.Close()
	client := ts.Client()

	const burst, nUsers = 512, 16
	rng := rand.New(rand.NewPCG(7, 0xbe9c))
	walk := make([][2]float64, nUsers)
	for i := range walk {
		walk[i] = [2]float64{10, 10}
	}
	var lat []time.Duration
	var fresh, hits float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for r := 0; r < burst; r++ {
			u := r % nUsers
			walk[u][0] = math.Min(math.Max(walk[u][0]+rng.NormFloat64()*0.2, 0), 19.9)
			walk[u][1] = math.Min(math.Max(walk[u][1]+rng.NormFloat64()*0.2, 0), 19.9)
			body := fmt.Sprintf(`{"user_id":"u%d","x":%g,"y":%g}`, u, walk[u][0], walk[u][1])
			t0 := time.Now()
			resp, err := client.Post(ts.URL+"/v1/trace", "application/json", bytes.NewReader([]byte(body)))
			if err != nil {
				b.Fatal(err)
			}
			var tr server.TraceResponse
			if err := json.NewDecoder(resp.Body).Decode(&tr); err != nil {
				b.Fatal(err)
			}
			resp.Body.Close()
			lat = append(lat, time.Since(t0))
			if resp.StatusCode != 200 {
				b.Fatalf("trace status %d", resp.StatusCode)
			}
			if tr.Fresh {
				fresh++
			} else {
				hits++
			}
		}
	}
	b.StopTimer()
	sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
	quantile := func(q float64) float64 {
		return float64(lat[min(int(q*float64(len(lat))), len(lat)-1)])
	}
	b.ReportMetric(quantile(0.50), "p50_ns")
	b.ReportMetric(quantile(0.99), "p99_ns")
	b.ReportMetric(hits/(hits+fresh), "memo_hit_rate")
}

// BenchmarkTracePredictiveSavings: offline comparison on 8 generated
// mobility traces (85% dwell) at eps=2/report. spend_ratio is predictive
// total spend over independent-composition spend; the adv_km metrics are the
// empirical Bayesian attacker's mean localization error against each run
// (larger = more private — predictive must not come out below independent).
func BenchmarkTracePredictiveSavings(b *testing.B) {
	region := geoind.Square(20)
	anchors := []geoind.Point{{X: 5, Y: 5}, {X: 15, Y: 15}, {X: 10, Y: 3}, {X: 3, Y: 17}}
	traces, err := geoind.GenerateTraces(8, geoind.TraceConfig{
		Region: region, Anchors: anchors, Steps: 200,
		StayProb: 0.85, LocalSigma: 0.05, JumpProb: 0.05, WalkSigma: 0.5, Seed: 7,
	})
	if err != nil {
		b.Fatal(err)
	}
	var spendRatio, indAdv, predAdv float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		indMech, err := geoind.NewPlanarLaplace(geoind.LaplaceConfig{Eps: benchTraceEps, Seed: uint64(1000 + i)})
		if err != nil {
			b.Fatal(err)
		}
		predMech, err := geoind.NewPlanarLaplace(geoind.LaplaceConfig{Eps: benchTraceEps, Seed: uint64(2000 + i)})
		if err != nil {
			b.Fatal(err)
		}
		var indSpent, predSpent float64
		indRuns := make([][]geoind.TraceStep, 0, len(traces))
		predRuns := make([][]geoind.TraceStep, 0, len(traces))
		for ti, pts := range traces {
			steps, sum, err := geoind.ReportTrace(context.Background(), indMech, pts)
			if err != nil {
				b.Fatal(err)
			}
			indSpent += sum.TotalSpent
			indRuns = append(indRuns, steps)
			psteps, psum, err := geoind.ReportTracePredictive(context.Background(), predMech, pts,
				geoind.PredictiveConfig{Theta: benchTraceTheta, EpsTest: benchTraceEpsTest},
				uint64(3000+100*i+ti))
			if err != nil {
				b.Fatal(err)
			}
			predSpent += psum.TotalSpent
			predRuns = append(predRuns, psteps)
		}
		spendRatio = predSpent / indSpent
		if indAdv, err = geoind.AdversaryError(region, 24, benchTraceEps, traces, indRuns); err != nil {
			b.Fatal(err)
		}
		if predAdv, err = geoind.AdversaryError(region, 24, benchTraceEps, traces, predRuns); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(spendRatio, "spend_ratio")
	b.ReportMetric(indAdv, "ind_adv_km")
	b.ReportMetric(predAdv, "pred_adv_km")
}
