package geoind_test

// Batch-path contract tests. The contract (see Mechanism): at Workers <= 1
// a batch is bit-identical to calling ReportCtx in a loop on an identically
// seeded mechanism; at Workers > 1 the output is deterministic in input
// (arrival) order — independent of the worker count, and equal to a
// sequential ReportCtx loop in the same order.

import (
	"context"
	"testing"
	"time"

	"geoind"
)

// batchTestPoints samples a deterministic workload over the synthetic
// Gowalla region.
func batchTestPoints(n int) []geoind.Point {
	ds := geoind.GowallaSynthetic()
	return ds.SampleRequests(n, 7)
}

// mkMSM builds a small MSM with the given worker count (fixed seed).
func mkMSM(t testing.TB, workers int) *geoind.MSM {
	t.Helper()
	ds := geoind.GowallaSynthetic()
	m, err := geoind.NewMSM(geoind.MSMConfig{
		Eps: 0.5, Region: ds.Region(), Granularity: 3, MaxHeight: 2,
		PriorPoints: ds.Points(), Seed: 42, Workers: workers,
	})
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// mkAdaptive builds a small adaptive MSM with the given worker count.
func mkAdaptive(t testing.TB, workers int) *geoind.AdaptiveMSM {
	t.Helper()
	ds := geoind.GowallaSynthetic()
	m, err := geoind.NewAdaptiveMSM(geoind.AdaptiveMSMConfig{
		Eps: 0.5, Region: ds.Region(), Fanout: 3, Height: 2,
		PriorPoints: ds.Points(), Seed: 42, Workers: workers,
	})
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// reportLoop calls ReportCtx once per point, in order.
func reportLoop(t *testing.T, m geoind.Mechanism, pts []geoind.Point) []geoind.Point {
	t.Helper()
	out := make([]geoind.Point, len(pts))
	for i, x := range pts {
		z, err := m.ReportCtx(context.Background(), x)
		if err != nil {
			t.Fatal(err)
		}
		out[i] = z
	}
	return out
}

func assertSamePoints(t *testing.T, name string, got, want []geoind.Point) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d results, want %d", name, len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("%s: point %d diverged: batch %v vs loop %v", name, i, got[i], want[i])
		}
	}
}

// TestReportBatchBitIdenticalSequential verifies that at Workers=1 every
// mechanism's ReportBatchCtx is bit-identical to a ReportCtx loop on an
// identically seeded twin.
func TestReportBatchBitIdenticalSequential(t *testing.T) {
	ds := geoind.GowallaSynthetic()
	pts := batchTestPoints(64)

	mechs := []struct {
		name string
		mk   func() geoind.Mechanism
	}{
		{"msm", func() geoind.Mechanism { return mkMSM(t, 1) }},
		{"adaptive", func() geoind.Mechanism { return mkAdaptive(t, 1) }},
		{"pl", func() geoind.Mechanism {
			m, err := geoind.NewPlanarLaplace(geoind.LaplaceConfig{Eps: 0.5, Seed: 42})
			if err != nil {
				t.Fatal(err)
			}
			return m
		}},
		{"pl+remap", func() geoind.Mechanism {
			m, err := geoind.NewPlanarLaplace(geoind.LaplaceConfig{
				Eps: 0.5, Seed: 42, Remap: true, Region: ds.Region(), Granularity: 8,
			})
			if err != nil {
				t.Fatal(err)
			}
			return m
		}},
		{"opt", func() geoind.Mechanism {
			m, err := geoind.NewOptimal(geoind.OptimalConfig{
				Eps: 0.5, Region: ds.Region(), Granularity: 4,
				PriorPoints: ds.Points(), Seed: 42, Workers: 1,
			})
			if err != nil {
				t.Fatal(err)
			}
			return m
		}},
	}
	for _, tc := range mechs {
		t.Run(tc.name, func(t *testing.T) {
			loop := reportLoop(t, tc.mk(), pts)
			batch, err := tc.mk().ReportBatchCtx(context.Background(), pts)
			if err != nil {
				t.Fatal(err)
			}
			assertSamePoints(t, tc.name, batch, loop)
		})
	}
}

// TestReportBatchOrderDeterministicParallel verifies the Workers>1 contract:
// the batch output depends only on seed and input order, not on the worker
// count — and matches a sequential ReportCtx loop in the same arrival order,
// because the batch reserves the same per-query stream indices the loop
// would consume.
func TestReportBatchOrderDeterministicParallel(t *testing.T) {
	pts := batchTestPoints(128)

	// Workers values are pinned above 1 rather than using -1 (all CPUs): on
	// a single-core host -1 resolves to 1, which is the sequential shared-RNG
	// mode — a different (equally deterministic) output stream by design.
	t.Run("msm", func(t *testing.T) {
		b2, err := mkMSM(t, 2).ReportBatchCtx(context.Background(), pts)
		if err != nil {
			t.Fatal(err)
		}
		b8, err := mkMSM(t, 8).ReportBatchCtx(context.Background(), pts)
		if err != nil {
			t.Fatal(err)
		}
		assertSamePoints(t, "workers 2 vs 8", b8, b2)
		loop := reportLoop(t, mkMSM(t, 2), pts)
		assertSamePoints(t, "batch vs arrival-order loop", b2, loop)
	})

	t.Run("adaptive", func(t *testing.T) {
		b2, err := mkAdaptive(t, 2).ReportBatchCtx(context.Background(), pts)
		if err != nil {
			t.Fatal(err)
		}
		b8, err := mkAdaptive(t, 8).ReportBatchCtx(context.Background(), pts)
		if err != nil {
			t.Fatal(err)
		}
		assertSamePoints(t, "workers 2 vs 8", b8, b2)
		loop := reportLoop(t, mkAdaptive(t, 2), pts)
		assertSamePoints(t, "batch vs arrival-order loop", b2, loop)
	})

	t.Run("opt", func(t *testing.T) {
		ds := geoind.GowallaSynthetic()
		mk := func(workers int) *geoind.Optimal {
			m, err := geoind.NewOptimal(geoind.OptimalConfig{
				Eps: 0.5, Region: ds.Region(), Granularity: 4,
				PriorPoints: ds.Points(), Seed: 42, Workers: workers,
			})
			if err != nil {
				t.Fatal(err)
			}
			return m
		}
		b2, err := mk(2).ReportBatchCtx(context.Background(), pts)
		if err != nil {
			t.Fatal(err)
		}
		b8, err := mk(8).ReportBatchCtx(context.Background(), pts)
		if err != nil {
			t.Fatal(err)
		}
		assertSamePoints(t, "workers 2 vs 8", b8, b2)
	})
}

// TestReportBatchEdgeCases covers the empty batch.
func TestReportBatchEdgeCases(t *testing.T) {
	m := mkMSM(t, -1)
	out, err := m.ReportBatchCtx(context.Background(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 0 {
		t.Errorf("empty batch returned %d results", len(out))
	}
}

// TestBudgetedReportBatchAllOrNothing verifies the client-side per-user
// batch: the whole batch is charged atomically, and a rejected batch leaves
// the ledger unchanged.
func TestBudgetedReportBatchAllOrNothing(t *testing.T) {
	m, err := geoind.NewPlanarLaplace(geoind.LaplaceConfig{Eps: 0.5, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	b, err := geoind.NewBudgeted(m, 2.0, time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	pts := batchTestPoints(3)

	// Cost 1.5 fits in 2.0.
	zs, err := b.ReportBatchCtx(context.Background(), "alice", pts)
	if err != nil {
		t.Fatal(err)
	}
	if len(zs) != 3 {
		t.Fatalf("%d results, want 3", len(zs))
	}
	if r := b.Remaining("alice"); r != 0.5 {
		t.Errorf("remaining %g want 0.5", r)
	}

	// Second batch would cost another 1.5 > 0.5: rejected, ledger unchanged.
	if _, err := b.ReportBatchCtx(context.Background(), "alice", pts); err != geoind.ErrBudgetExhausted {
		t.Fatalf("got %v want ErrBudgetExhausted", err)
	}
	if r := b.Remaining("alice"); r != 0.5 {
		t.Errorf("rejected batch changed ledger: remaining %g want 0.5", r)
	}

	// Empty batch is free.
	if _, err := b.ReportBatchCtx(context.Background(), "alice", nil); err != nil {
		t.Fatal(err)
	}
	if r := b.Remaining("alice"); r != 0.5 {
		t.Errorf("empty batch charged ledger: remaining %g want 0.5", r)
	}
}
