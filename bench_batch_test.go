package geoind_test

// Batch-path benchmarks. Each BenchmarkReportBatch op is ONE batch of n
// points through ReportBatchCtx; each BenchmarkReportLoop op is the same n
// points through n sequential ReportCtx calls on an identically configured
// mechanism — the baseline the batch path amortizes. Compare ns/op at equal
// mechanism/n/w to read the batching speedup directly; ns/op divided by n is
// the per-report cost. w=1 is the sequential shared-RNG mode, w=all uses the
// full worker pool (per-query PCG streams + fan-out).

import (
	"context"
	"fmt"
	"testing"

	"geoind"
)

// batchSizes are the paper-style batch sweep points.
var batchSizes = []int{1, 16, 256}

// batchWorkerModes pairs the display name with the Workers config value.
var batchWorkerModes = []struct {
	name    string
	workers int
}{
	{"w=1", 1},
	{"w=all", -1},
}

// benchBatchMechanism builds the warm mechanism under test for one
// (mechanism, workers) cell.
func benchBatchMechanism(b *testing.B, mech string, workers int) geoind.Mechanism {
	b.Helper()
	ds := geoind.GowallaSynthetic()
	switch mech {
	case "msm":
		return warmMSM(b, workers)
	case "adaptive":
		m, err := geoind.NewAdaptiveMSM(geoind.AdaptiveMSMConfig{
			Eps: 0.5, Region: ds.Region(), Fanout: 3,
			PriorPoints: ds.Points(), Seed: 1, Workers: workers,
		})
		if err != nil {
			b.Fatal(err)
		}
		if err := m.Precompute(); err != nil {
			b.Fatal(err)
		}
		return m
	case "opt":
		m, err := geoind.NewOptimal(geoind.OptimalConfig{
			Eps: 0.5, Region: ds.Region(), Granularity: 8,
			PriorPoints: ds.Points(), Seed: 1, Workers: workers,
		})
		if err != nil {
			b.Fatal(err)
		}
		return m
	case "pl":
		m, err := geoind.NewPlanarLaplace(geoind.LaplaceConfig{Eps: 0.5, Seed: 1})
		if err != nil {
			b.Fatal(err)
		}
		return m
	default:
		b.Fatalf("unknown mechanism %q", mech)
		return nil
	}
}

// benchMechs lists the mechanisms × worker modes in the sweep. PL has no
// Workers knob, so only the w=1 cell exists for it.
func benchMechs() []struct {
	mech, wname string
	workers     int
} {
	var out []struct {
		mech, wname string
		workers     int
	}
	for _, mech := range []string{"msm", "adaptive", "opt", "pl"} {
		for _, wm := range batchWorkerModes {
			if mech == "pl" && wm.name != "w=1" {
				continue
			}
			out = append(out, struct {
				mech, wname string
				workers     int
			}{mech, wm.name, wm.workers})
		}
	}
	return out
}

// BenchmarkReportBatch measures one ReportBatchCtx call per op across
// mechanisms × batch sizes {1,16,256} × workers {1, all}.
func BenchmarkReportBatch(b *testing.B) {
	ds := geoind.GowallaSynthetic()
	for _, cell := range benchMechs() {
		b.Run(fmt.Sprintf("%s/%s", cell.mech, cell.wname), func(b *testing.B) {
			m := benchBatchMechanism(b, cell.mech, cell.workers)
			for _, n := range batchSizes {
				pts := ds.SampleRequests(n, 1)
				b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
					b.ReportAllocs()
					b.ResetTimer()
					for i := 0; i < b.N; i++ {
						if _, err := m.ReportBatchCtx(context.Background(), pts); err != nil {
							b.Fatal(err)
						}
					}
					b.ReportMetric(float64(n)*float64(b.N)/b.Elapsed().Seconds(), "reports/s")
				})
			}
		})
	}
}

// BenchmarkReportLoop is the sequential baseline: n ReportCtx calls per op on
// the same mechanism configurations.
func BenchmarkReportLoop(b *testing.B) {
	ds := geoind.GowallaSynthetic()
	for _, cell := range benchMechs() {
		b.Run(fmt.Sprintf("%s/%s", cell.mech, cell.wname), func(b *testing.B) {
			m := benchBatchMechanism(b, cell.mech, cell.workers)
			for _, n := range batchSizes {
				pts := ds.SampleRequests(n, 1)
				b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
					b.ReportAllocs()
					b.ResetTimer()
					for i := 0; i < b.N; i++ {
						for _, x := range pts {
							if _, err := m.ReportCtx(context.Background(), x); err != nil {
								b.Fatal(err)
							}
						}
					}
					b.ReportMetric(float64(n)*float64(b.N)/b.Elapsed().Seconds(), "reports/s")
				})
			}
		})
	}
}
