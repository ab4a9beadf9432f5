package geoind_test

// Channel-fabric fleet benchmarks: cold start + full cold coverage for a
// 2-replica fabric-joined fleet vs two isolated replicas solving the same
// key space. The fabric's consistent-hash ownership partitions the LP solves
// (each unique channel solved once fleet-wide, non-owned channels fetched
// over HTTP), so the fleet side reports ~half the solves/op of the isolated
// side — the committed BENCH_fabric.json baseline documents the >=1.8x
// reduction. Remote-fetch latency quantiles ride along as custom metrics.
// `make bench-fabric` regenerates the baseline; bench-diff compares runs.

import (
	"sync"
	"testing"

	"geoind"
)

const benchFabricEps = 2.4 // height 3 with g=3: 91 unique channels

// BenchmarkFabricFleet: construct a 2-replica fleet, precompute both
// replicas concurrently (owner-only), then demand every channel at every
// replica so non-owned channels cross the wire.
func BenchmarkFabricFleet(b *testing.B) {
	var totalSolves int64
	var p50, p99 float64
	for i := 0; i < b.N; i++ {
		f := startFleet(b, 2, benchFabricEps)
		var wg sync.WaitGroup
		for _, m := range f.msms {
			m := m
			wg.Add(1)
			go func() {
				defer wg.Done()
				if err := m.Precompute(); err != nil {
					b.Error(err)
				}
			}()
		}
		wg.Wait()
		for _, m := range f.msms {
			sweep(b, m, 0.7)
		}
		for _, m := range f.msms {
			totalSolves += m.StoreStats().Misses
			if h := m.MechStats().FetchLatency; h != nil && h.Count() > 0 {
				p50 = max(p50, h.Quantile(0.5)*1e3)
				p99 = max(p99, h.Quantile(0.99)*1e3)
			}
		}
		f.stop()
	}
	b.ReportMetric(float64(totalSolves)/float64(b.N), "solves/op")
	b.ReportMetric(p50, "fetch_p50_ms")
	b.ReportMetric(p99, "fetch_p99_ms")
}

// BenchmarkFabricIsolated: the control — two replicas with no fabric each
// solve the full key space themselves.
func BenchmarkFabricIsolated(b *testing.B) {
	var totalSolves int64
	for i := 0; i < b.N; i++ {
		var wg sync.WaitGroup
		var mu sync.Mutex
		for r := 0; r < 2; r++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				m, err := geoind.NewMSM(geoind.MSMConfig{
					Eps: benchFabricEps, Region: geoind.Square(20), Granularity: 3, Seed: 7,
				})
				if err != nil {
					b.Error(err)
					return
				}
				if err := m.Precompute(); err != nil {
					b.Error(err)
					return
				}
				misses := m.StoreStats().Misses
				mu.Lock()
				totalSolves += misses
				mu.Unlock()
			}()
		}
		wg.Wait()
	}
	b.ReportMetric(float64(totalSolves)/float64(b.N), "solves/op")
}
