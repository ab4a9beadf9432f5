package geoind_test

// Benchmark harness: one testing.B benchmark per table and figure of the
// paper's evaluation section (see DESIGN.md §2 for the experiment index),
// plus per-mechanism latency micro-benchmarks. Each experiment benchmark
// executes its eval runner end to end (with a reduced request workload so a
// single iteration stays in benchmark territory) and publishes the headline
// quantities via b.ReportMetric, so `go test -bench=.` regenerates the
// paper's series. For full-size paper-style tables use:
//
//	go run ./cmd/experiments all

import (
	"context"
	"testing"

	"geoind"
	"geoind/internal/eval"
	"geoind/internal/geo"
)

// benchContext returns an eval context sized for benchmarking.
func benchContext() *eval.Context {
	c := eval.NewContext()
	c.Requests = 500
	return c
}

// BenchmarkFig3_OPT regenerates Figure 3: OPT utility loss and solve time vs
// grid granularity (expected shape: utility falls, time explodes with g).
func BenchmarkFig3_OPT(b *testing.B) {
	c := benchContext()
	for i := 0; i < b.N; i++ {
		res, err := c.RunFig3([]int{2, 3, 4, 5, 6})
		if err != nil {
			b.Fatal(err)
		}
		first, last := res.Rows[0], res.Rows[len(res.Rows)-1]
		b.ReportMetric(first.UtilityLoss, "km_g2")
		b.ReportMetric(last.UtilityLoss, "km_g6")
		b.ReportMetric(last.BuildSeconds/first.BuildSeconds, "time_blowup_x")
	}
}

// BenchmarkFig5_BudgetAccuracy regenerates Figure 5: empirical Pr[x|x]
// against the analytical target rho (expected: within a few percent for
// g >= 3).
func BenchmarkFig5_BudgetAccuracy(b *testing.B) {
	c := benchContext()
	for i := 0; i < b.N; i++ {
		res, err := c.RunFig5([]int{2, 3, 4, 5, 6}, []float64{0.5, 0.7, 0.9})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.MaxDeviation(true), "max_dev_g3plus")
	}
}

// BenchmarkTable2_MSMvsOPT regenerates Table 2: utility and time of MSM
// against OPT at matched effective granularity (expected: OPT slightly
// better utility, orders of magnitude slower).
func BenchmarkTable2_MSMvsOPT(b *testing.B) {
	c := benchContext()
	maxOpt := 9
	if !testing.Short() {
		maxOpt = 16 // the paper's 72h+ Gurobi case; minutes here
	}
	for i := 0; i < b.N; i++ {
		res, err := c.RunTable2([]int{4, 9, 16}, maxOpt)
		if err != nil {
			b.Fatal(err)
		}
		row := res.Rows[1] // effective granularity 9
		b.ReportMetric(row.OPTUtility, "opt_km_eff9")
		b.ReportMetric(row.MSMUtility, "msm_km_eff9")
		b.ReportMetric(row.OPTSolveSec/row.MSMColdSec, "opt_over_msm_time_x")
	}
}

// BenchmarkFig6_EpsSweepEuclid regenerates Figure 6: utility (d) vs eps for
// MSM and PL (expected: MSM ~3x better at eps=0.1, converging near eps=1).
func BenchmarkFig6_EpsSweepEuclid(b *testing.B) {
	benchEpsSweep(b, geo.Euclidean)
}

// BenchmarkFig7_EpsSweepSquared regenerates Figure 7: utility (d^2) vs eps
// (expected: up to ~5x gap at small eps).
func BenchmarkFig7_EpsSweepSquared(b *testing.B) {
	benchEpsSweep(b, geo.SquaredEuclidean)
}

func benchEpsSweep(b *testing.B, metric geo.Metric) {
	c := benchContext()
	for i := 0; i < b.N; i++ {
		res, err := c.RunEpsSweep(metric, []float64{0.1, 0.5, 0.9}, []int{4})
		if err != nil {
			b.Fatal(err)
		}
		lowEps, highEps := res.Rows[0], res.Rows[2]
		b.ReportMetric(lowEps.PL/lowEps.MSM, "pl_over_msm_eps01")
		b.ReportMetric(highEps.PL/highEps.MSM, "pl_over_msm_eps09")
	}
}

// BenchmarkFig8_GranularitySweep regenerates Figure 8: MSM utility (d) vs g
// (expected: U shape with the optimum around g=4-5).
func BenchmarkFig8_GranularitySweep(b *testing.B) {
	benchGranularitySweep(b, geo.Euclidean)
}

// BenchmarkFig9_GranularitySweepSquared regenerates Figure 9 (d^2 metric).
func BenchmarkFig9_GranularitySweepSquared(b *testing.B) {
	benchGranularitySweep(b, geo.SquaredEuclidean)
}

func benchGranularitySweep(b *testing.B, metric geo.Metric) {
	c := benchContext()
	for i := 0; i < b.N; i++ {
		res, err := c.RunGranularitySweep(metric, []int{2, 3, 4, 5, 6}, []float64{0.9})
		if err != nil {
			b.Fatal(err)
		}
		best, worst := res.Rows[0].MSM, res.Rows[0].MSM
		for _, row := range res.Rows {
			if row.MSM < best {
				best = row.MSM
			}
			if row.MSM > worst {
				worst = row.MSM
			}
		}
		b.ReportMetric(best, "best_loss")
		b.ReportMetric(worst/best, "worst_over_best_x")
	}
}

// BenchmarkFig10_RhoSweep regenerates Figure 10: MSM utility (d) vs rho.
func BenchmarkFig10_RhoSweep(b *testing.B) {
	benchRhoSweep(b, geo.Euclidean)
}

// BenchmarkFig11_RhoSweepSquared regenerates Figure 11 (d^2 metric).
func BenchmarkFig11_RhoSweepSquared(b *testing.B) {
	benchRhoSweep(b, geo.SquaredEuclidean)
}

func benchRhoSweep(b *testing.B, metric geo.Metric) {
	c := benchContext()
	for i := 0; i < b.N; i++ {
		res, err := c.RunRhoSweep(metric, []float64{0.5, 0.7, 0.9}, []int{2, 4})
		if err != nil {
			b.Fatal(err)
		}
		// g=2 shows the paper's clean decreasing trend; report its spread.
		var first, last float64
		for _, row := range res.Rows {
			if row.G == 2 && row.Dataset == "gowalla-austin-synthetic" {
				if first == 0 {
					first = row.MSM
				}
				last = row.MSM
			}
		}
		b.ReportMetric(first-last, "g2_rho_gain")
	}
}

// BenchmarkMechanismLatency covers the §6.2 timing claims: per-report cost
// of PL, warm MSM, cold MSM and OPT sampling.
func BenchmarkMechanismLatency(b *testing.B) {
	ds := geoind.GowallaSynthetic()
	reqs := ds.SampleRequests(4096, 1)

	b.Run("PL", func(b *testing.B) {
		pl, err := geoind.NewPlanarLaplace(geoind.LaplaceConfig{Eps: 0.5, Seed: 1})
		if err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := pl.ReportCtx(context.Background(), reqs[i%len(reqs)]); err != nil {
				b.Fatal(err)
			}
		}
	})

	b.Run("MSM_warm", func(b *testing.B) {
		m, err := geoind.NewMSM(geoind.MSMConfig{
			Eps: 0.5, Region: ds.Region(), Granularity: 4,
			PriorPoints: ds.Points(), Seed: 1,
		})
		if err != nil {
			b.Fatal(err)
		}
		if err := m.Precompute(); err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := m.ReportCtx(context.Background(), reqs[i%len(reqs)]); err != nil {
				b.Fatal(err)
			}
		}
	})

	b.Run("MSM_cold", func(b *testing.B) {
		pts := ds.Points()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			m, err := geoind.NewMSM(geoind.MSMConfig{
				Eps: 0.5, Region: ds.Region(), Granularity: 4,
				PriorPoints: pts, Seed: uint64(i),
			})
			if err != nil {
				b.Fatal(err)
			}
			if _, err := m.ReportCtx(context.Background(), reqs[i%len(reqs)]); err != nil {
				b.Fatal(err)
			}
		}
	})

	b.Run("OPT_sample", func(b *testing.B) {
		o, err := geoind.NewOptimal(geoind.OptimalConfig{
			Eps: 0.5, Region: ds.Region(), Granularity: 6,
			PriorPoints: ds.Points(), Seed: 1,
		})
		if err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := o.ReportCtx(context.Background(), reqs[i%len(reqs)]); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkOPTSolve measures the LP solve cost at increasing granularity:
// the scalability wall of Figure 3 in isolation.
func BenchmarkOPTSolve(b *testing.B) {
	ds := geoind.GowallaSynthetic()
	for _, g := range []int{3, 4, 6, 8} {
		b.Run(g2s(g), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := geoind.NewOptimal(geoind.OptimalConfig{
					Eps: 0.5, Region: ds.Region(), Granularity: g,
					PriorPoints: ds.Points(), Seed: 1,
				}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func g2s(g int) string {
	return "g=" + string(rune('0'+g))
}

// BenchmarkExtensionAdaptive regenerates the adaptive-vs-grid comparison.
func BenchmarkExtensionAdaptive(b *testing.B) {
	c := benchContext()
	for i := 0; i < b.N; i++ {
		res, err := c.RunAdaptiveComparison([]float64{0.5}, 3)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.Rows[0].GridLoss, "grid_km")
		b.ReportMetric(res.Rows[0].AdaptiveLoss, "adaptive_km")
	}
}

// BenchmarkExtensionSpanner regenerates the spanner-reduced OPT ablation.
func BenchmarkExtensionSpanner(b *testing.B) {
	c := benchContext()
	for i := 0; i < b.N; i++ {
		res, err := c.RunSpannerAblation(6, 0.5, []float64{1.5})
		if err != nil {
			b.Fatal(err)
		}
		full, sp := res.Rows[0], res.Rows[1]
		b.ReportMetric(float64(full.PairFamilies)/float64(sp.PairFamilies), "constraint_reduction_x")
		b.ReportMetric(sp.ExpectedLoss/full.ExpectedLoss, "loss_premium_x")
	}
}

// BenchmarkExtensionAdversary regenerates the Bayesian-adversary
// privacy-utility plane.
func BenchmarkExtensionAdversary(b *testing.B) {
	c := benchContext()
	for i := 0; i < b.N; i++ {
		res, err := c.RunAdversary(9, []float64{0.5})
		if err != nil {
			b.Fatal(err)
		}
		for _, row := range res.Rows {
			switch row.Mechanism {
			case "PL+remap":
				b.ReportMetric(row.AdvError, "pl_adv_err_km")
			case "OPT":
				b.ReportMetric(row.AdvError, "opt_adv_err_km")
			}
		}
	}
}

// BenchmarkExtensionAudit regenerates the effective-epsilon privacy audit.
func BenchmarkExtensionAudit(b *testing.B) {
	c := benchContext()
	for i := 0; i < b.N; i++ {
		res, err := c.RunPrivacyAudit(0.5, 3)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.Rows[0].MaxEffEps, "opt_eff_eps")
		b.ReportMetric(res.Rows[1].MaxEffEps, "msm_eff_eps")
	}
}

// BenchmarkExtensionBudgetAblation regenerates the budget-split ablation.
func BenchmarkExtensionBudgetAblation(b *testing.B) {
	c := benchContext()
	for i := 0; i < b.N; i++ {
		res, err := c.RunBudgetAblation(0.5, 3)
		if err != nil {
			b.Fatal(err)
		}
		var paper, reversed float64
		for _, row := range res.Rows {
			switch row.Strategy {
			case "problem-1 split (paper)":
				paper = row.UtilityLoss
			case "reversed split (leaf-heavy)":
				reversed = row.UtilityLoss
			}
		}
		b.ReportMetric(reversed/paper, "reversed_over_paper_x")
	}
}

// BenchmarkExtensionTrajectory regenerates the trajectory-protection
// comparison (independent vs predictive mechanism).
func BenchmarkExtensionTrajectory(b *testing.B) {
	c := benchContext()
	for i := 0; i < b.N; i++ {
		res, err := c.RunTrajectory(1.0, 300)
		if err != nil {
			b.Fatal(err)
		}
		sedentary := res.Rows[0]
		b.ReportMetric(sedentary.IndSpent/sedentary.PredSpent, "budget_savings_x")
	}
}

// BenchmarkExtensionElastic regenerates the elastic-metric analysis.
func BenchmarkExtensionElastic(b *testing.B) {
	c := benchContext()
	for i := 0; i < b.N; i++ {
		res, err := c.RunElastic(4, 0.9)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.Rows[0].PrSameSensitive-res.Rows[1].PrSameSensitive, "district_prsame_drop")
	}
}
