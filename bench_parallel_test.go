package geoind_test

// Parallel-pipeline benchmarks: warm-path sampling throughput under
// concurrent load (lock-free per-query RNG streams vs the historical shared
// mutex-guarded RNG) and the interior-point solve at increasing granularity
// with 1, 4 and all-CPU block workers. On a multi-core machine the
// Workers=all variants should scale with cores; the solver output is
// bit-identical for every worker count, so these only trade wall time.

import (
	"context"
	"fmt"
	"testing"

	"geoind"
)

// warmMSM builds and precomputes an MSM over the synthetic Gowalla prior.
func warmMSM(b *testing.B, workers int) *geoind.MSM {
	b.Helper()
	ds := geoind.GowallaSynthetic()
	m, err := geoind.NewMSM(geoind.MSMConfig{
		Eps: 0.5, Region: ds.Region(), Granularity: 4,
		PriorPoints: ds.Points(), Seed: 1, Workers: workers,
	})
	if err != nil {
		b.Fatal(err)
	}
	if err := m.Precompute(); err != nil {
		b.Fatal(err)
	}
	return m
}

// BenchmarkMSMReportParallel measures warm sampling throughput with
// b.RunParallel. "sequential" keeps the Workers<=1 shared-RNG mode, so
// every goroutine contends on one mutex; "streams" uses the lock-free
// per-query PCG streams (Workers=all).
func BenchmarkMSMReportParallel(b *testing.B) {
	ds := geoind.GowallaSynthetic()
	reqs := ds.SampleRequests(4096, 1)
	for _, mode := range []struct {
		name    string
		workers int
	}{
		{"sequential", 1},
		{"streams", -1},
	} {
		b.Run(mode.name, func(b *testing.B) {
			m := warmMSM(b, mode.workers)
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				i := 0
				for pb.Next() {
					if _, err := m.ReportCtx(context.Background(), reqs[i%len(reqs)]); err != nil {
						b.Fatal(err)
					}
					i++
				}
			})
		})
	}
}

// BenchmarkAdaptiveReportParallel is the adaptive-index counterpart of the
// warm sampling benchmark (lock-free streams, all workers).
func BenchmarkAdaptiveReportParallel(b *testing.B) {
	ds := geoind.GowallaSynthetic()
	reqs := ds.SampleRequests(4096, 1)
	m, err := geoind.NewAdaptiveMSM(geoind.AdaptiveMSMConfig{
		Eps: 0.5, Region: ds.Region(), Fanout: 3,
		PriorPoints: ds.Points(), Seed: 1, Workers: -1,
	})
	if err != nil {
		b.Fatal(err)
	}
	if err := m.Precompute(); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		i := 0
		for pb.Next() {
			if _, err := m.ReportCtx(context.Background(), reqs[i%len(reqs)]); err != nil {
				b.Fatal(err)
			}
			i++
		}
	})
}

// BenchmarkIPMWorkers measures the OPT solve (dominated by the per-column
// Cholesky block factorizations of the interior-point method) at g in
// {4, 6, 8} with 1, 4 and all-CPU workers.
func BenchmarkIPMWorkers(b *testing.B) {
	ds := geoind.GowallaSynthetic()
	for _, g := range []int{4, 6, 8} {
		for _, w := range []struct {
			name    string
			workers int
		}{
			{"w=1", 1},
			{"w=4", 4},
			{"w=all", -1},
		} {
			b.Run(fmt.Sprintf("g=%d/%s", g, w.name), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					if _, err := geoind.NewOptimal(geoind.OptimalConfig{
						Eps: 0.5, Region: ds.Region(), Granularity: g,
						PriorPoints: ds.Points(), Seed: 1, Workers: w.workers,
					}); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}
