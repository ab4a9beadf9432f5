package geoind_test

import (
	"context"
	"sync"
	"testing"

	"geoind"
)

// samplerTestConfig is persistTestConfig without the cache directory, with
// the warm-path sampler configuration under test.
func samplerTestConfig(sampler string, pruneMass float64) geoind.MSMConfig {
	cfg := persistTestConfig("")
	cfg.CacheDir = ""
	cfg.Sampler = sampler
	cfg.PruneMass = pruneMass
	return cfg
}

// TestSamplerConfigValidation covers the facade-level refusal paths for the
// new sampler knobs.
func TestSamplerConfigValidation(t *testing.T) {
	cfg := samplerTestConfig("vose", 0)
	if _, err := geoind.NewMSM(cfg); err == nil {
		t.Error("unknown sampler name accepted")
	}
	for _, mass := range []float64{-0.1, 0.5, 1.2} {
		cfg := samplerTestConfig("alias", mass)
		if _, err := geoind.NewMSM(cfg); err == nil {
			t.Errorf("prune mass %g accepted", mass)
		}
	}
}

// TestAliasSamplerReportsMatchDistribution smoke-checks the alias warm path
// end to end at the facade: an alias-configured MSM (with pruning enabled)
// precomputes, reports, and reports in batch without error, and the sampler
// stats section reflects the configuration. Run under -race by the Makefile's focused pass.
func TestAliasSamplerReportsMatchDistribution(t *testing.T) {
	m, err := geoind.NewMSM(samplerTestConfig("alias", 0.1))
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Precompute(); err != nil {
		t.Fatal(err)
	}
	sam := m.MechStats().Sampler
	if sam.Kind != "alias" || sam.PruneMass != 0.1 {
		t.Fatalf("sampler = (%q, %g), want (alias, 0.1)", sam.Kind, sam.PruneMass)
	}
	if sam.PrunedChannels+sam.PruneFallbacks == 0 {
		t.Fatal("no channel was pruned or counted as a fallback")
	}
	reportSequence(t, m, 100)
}

// TestAliasSharingConcurrentReports races the shared lazy alias tables
// through the full stack: one alias-mode MSM, many goroutines issuing
// ReportBatchCtx concurrently against the shared channel store. Every report
// must land inside the region; the -race instrumented Makefile pass
// (race-persist) runs this to prove the once-guarded table build and
// subsequent lock-free sharing are sound.
func TestAliasSharingConcurrentReports(t *testing.T) {
	for _, mass := range []float64{0, 0.1} {
		m, err := geoind.NewMSM(samplerTestConfig("alias", mass))
		if err != nil {
			t.Fatal(err)
		}
		// No Precompute: let the goroutines also race channel creation and
		// the first Sampler(alias) call on each freshly solved channel.
		const workers = 8
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				pts := make([]geoind.Point, 40)
				for i := range pts {
					pts[i] = geoind.Point{
						X: float64((i*7+w)%9) * 2.2,
						Y: float64((i*3+w)%5) * 3.9,
					}
				}
				for round := 0; round < 5; round++ {
					zs, err := m.ReportBatchCtx(context.Background(), pts)
					if err != nil {
						t.Errorf("worker %d: %v", w, err)
						return
					}
					for _, z := range zs {
						if z.X < 0 || z.X > 20 || z.Y < 0 || z.Y > 20 {
							t.Errorf("worker %d: report %v outside region", w, z)
							return
						}
					}
				}
			}(w)
		}
		wg.Wait()
	}
}
