package geoind_test

// Cancellation-plumbing overhead benchmarks. The tentpole claim of the
// context refactor is that the warm ReportCtx hot path — resident channel,
// pure sampling, no locks — pays (almost) nothing for cancelability: every
// polling site short-circuits on ctx.Done() == nil, so a Background context
// never reaches a select, and a cancelable context costs one non-blocking
// Err() check per descent step. `make bench-ctx` records the variants side
// by side in BENCH_ctx.json; Report_legacy vs ReportCtx_cancelable is the
// plumbing cost, expected under 2%. The _legacy cases measured the removed
// context-free methods, which were wrappers over a background context; they
// keep their names, now calling that form directly, so the committed
// baseline still pairs up.

import (
	"context"
	"testing"

	"geoind"
)

func warmCtxMSM(b *testing.B) (*geoind.MSM, []geoind.Point) {
	b.Helper()
	ds := geoind.GowallaSynthetic()
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
	return m, ds.SampleRequests(4096, 1)
}

// BenchmarkCtxOverheadReport measures the warm single-report hot path under
// a background and a cancelable context.
func BenchmarkCtxOverheadReport(b *testing.B) {
	b.Run("Report_legacy", func(b *testing.B) {
		m, reqs := warmCtxMSM(b)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := m.ReportCtx(context.Background(), reqs[i%len(reqs)]); err != nil {
				b.Fatal(err)
			}
		}
	})

	b.Run("ReportCtx_background", func(b *testing.B) {
		m, reqs := warmCtxMSM(b)
		ctx := context.Background()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := m.ReportCtx(ctx, reqs[i%len(reqs)]); err != nil {
				b.Fatal(err)
			}
		}
	})

	b.Run("ReportCtx_cancelable", func(b *testing.B) {
		m, reqs := warmCtxMSM(b)
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := m.ReportCtx(ctx, reqs[i%len(reqs)]); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkCtxOverheadBatch measures the pooled warm batch path with and
// without a cancelable context.
func BenchmarkCtxOverheadBatch(b *testing.B) {
	const batch = 256
	b.Run("ReportBatch_legacy", func(b *testing.B) {
		m, reqs := warmCtxMSM(b)
		pts := reqs[:batch]
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := m.ReportBatchCtx(context.Background(), pts); err != nil {
				b.Fatal(err)
			}
		}
	})

	b.Run("ReportBatchCtx_cancelable", func(b *testing.B) {
		m, reqs := warmCtxMSM(b)
		pts := reqs[:batch]
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := m.ReportBatchCtx(ctx, pts); err != nil {
				b.Fatal(err)
			}
		}
	})
}
