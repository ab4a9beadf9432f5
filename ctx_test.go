package geoind_test

// Cancellation-contract tests for the public facade: canceled requests abort
// cold reports promptly, abandoned solves keep serving their remaining
// waiters, and canceled work never consumes privacy budget.

import (
	"context"
	"errors"
	"testing"
	"time"

	"geoind"
)

// blockMech is a Mechanism whose reports block until canceled (or until
// release is closed) — a stand-in for a cold report stuck behind a long
// solve.
type blockMech struct{ release chan struct{} }

func (blockMech) Epsilon() float64 { return 0.5 }
func (blockMech) Name() string     { return "block" }
func (m blockMech) ReportCtx(ctx context.Context, x geoind.Point) (geoind.Point, error) {
	select {
	case <-ctx.Done():
		return geoind.Point{}, ctx.Err()
	case <-m.release:
		return x, nil
	}
}
func (m blockMech) ReportBatchCtx(ctx context.Context, points []geoind.Point) ([]geoind.Point, error) {
	select {
	case <-ctx.Done():
		return nil, ctx.Err()
	case <-m.release:
		return points, nil
	}
}

// TestBudgetedCanceledBatchLeavesBudgetUnchanged is the regression test for
// the budget-leak bug: a batch canceled mid-flight must refund its whole
// upfront charge — no sanitized location left the mechanism, so nothing may
// be billed.
func TestBudgetedCanceledBatchLeavesBudgetUnchanged(t *testing.T) {
	release := make(chan struct{})
	b, err := geoind.NewBudgeted(blockMech{release: release}, 10, time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	pts := []geoind.Point{{X: 1, Y: 1}, {X: 2, Y: 2}, {X: 3, Y: 3}}

	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, err := b.ReportBatchCtx(ctx, "alice", pts)
		done <- err
	}()
	// Give the batch time to take its upfront charge, then cancel it.
	deadline := time.Now().Add(5 * time.Second)
	for b.Remaining("alice") == 10 {
		if time.Now().After(deadline) {
			t.Fatal("batch never charged the upfront budget")
		}
		time.Sleep(time.Millisecond)
	}
	cancel()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("err=%v want context.Canceled", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("canceled batch did not return")
	}
	if r := b.Remaining("alice"); r != 10 {
		t.Errorf("canceled batch leaked budget: remaining %g want 10", r)
	}

	// A later batch still works and is charged normally on success.
	close(release)
	if _, err := b.ReportBatchCtx(context.Background(), "alice", pts); err != nil {
		t.Fatal(err)
	}
	if r := b.Remaining("alice"); r != 8.5 {
		t.Errorf("successful batch: remaining %g want 8.5", r)
	}
}

// TestBudgetedCanceledReportRefunds: the single-report counterpart.
func TestBudgetedCanceledReportRefunds(t *testing.T) {
	b, err := geoind.NewBudgeted(blockMech{release: make(chan struct{})}, 1, time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := b.ReportCtx(ctx, "u", geoind.Point{X: 1, Y: 1}); !errors.Is(err, context.Canceled) {
		t.Fatalf("err=%v want context.Canceled", err)
	}
	if r := b.Remaining("u"); r != 1 {
		t.Errorf("canceled report leaked budget: remaining %g want 1", r)
	}
}

// TestMSMCanceledColdReportAbandonsSolve is the detached-lifecycle acceptance
// test at the facade level: a canceled request aborts an in-flight cold
// ReportCtx well before the LP completes, while a second uncanceled waiter on
// the same channel still receives the solved result.
func TestMSMCanceledColdReportAbandonsSolve(t *testing.T) {
	// Granularity 8 makes the root solve a 64-cell exact LP — hundreds of
	// milliseconds even without the race detector — so the cancel below
	// lands while the solve is demonstrably in flight.
	m, err := geoind.NewMSM(geoind.MSMConfig{
		Eps: 0.5, Region: geoind.Square(20), Granularity: 8, Seed: 42,
	})
	if err != nil {
		t.Fatal(err)
	}
	x := geoind.Point{X: 10, Y: 10}

	ctxA, cancelA := context.WithCancel(context.Background())
	defer cancelA()
	errA := make(chan error, 1)
	go func() {
		_, err := m.ReportCtx(ctxA, x)
		errA <- err
	}()
	// Wait for A's miss to start the detached root-channel solve.
	deadline := time.Now().Add(30 * time.Second)
	for m.StoreStats().Inflight == 0 {
		if time.Now().After(deadline) {
			t.Fatal("cold report never started a solve")
		}
		time.Sleep(time.Millisecond)
	}

	// B joins the same flight under a background context.
	type res struct {
		z   geoind.Point
		err error
	}
	resB := make(chan res, 1)
	go func() {
		z, err := m.ReportCtx(context.Background(), x)
		resB <- res{z, err}
	}()
	// B must be registered as a waiter before A cancels, or the refcount
	// could hit zero and abort the solve B wants. Joining a flight is a map
	// lookup plus a refcount bump — 50ms dwarfs it, while the LP still has
	// hundreds of milliseconds to run.
	time.Sleep(50 * time.Millisecond)
	cancelA()

	select {
	case err := <-errA:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("canceled caller: err=%v want context.Canceled", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("canceled caller did not return while the solve was in flight")
	}
	// A returned by abandoning, not by waiting out the LP: the solve must
	// still be running for B.
	st := m.StoreStats()
	if st.Abandoned == 0 {
		t.Errorf("stats %+v: no waiter was recorded as abandoned", st)
	}
	if st.Canceled != 0 {
		t.Errorf("stats %+v: the solve was aborted even though B still waits", st)
	}

	select {
	case r := <-resB:
		if r.err != nil {
			t.Fatalf("surviving waiter: %v", r.err)
		}
		if r.z == (geoind.Point{}) {
			t.Error("surviving waiter got a zero point")
		}
	case <-time.After(60 * time.Second):
		t.Fatal("surviving waiter never received the solved channel")
	}
}

// TestReportBatchCtxPreCanceled: a batch refuses a dead context without
// sampling.
func TestReportBatchCtxPreCanceled(t *testing.T) {
	pl, err := geoind.NewPlanarLaplace(geoind.LaplaceConfig{Eps: 0.5, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := pl.ReportBatchCtx(ctx, []geoind.Point{{X: 1, Y: 1}}); !errors.Is(err, context.Canceled) {
		t.Fatalf("err=%v want context.Canceled", err)
	}
}

// TestFacadeCallersObserveCtx: EvaluateUtility, ReportTrace and
// ReportTracePredictive run the mechanism under the caller's ctx, so a
// canceled one stops each of them with context.Canceled.
func TestFacadeCallersObserveCtx(t *testing.T) {
	m := blockMech{release: make(chan struct{})}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	pts := []geoind.Point{{X: 1, Y: 1}, {X: 2, Y: 2}}
	if _, err := geoind.EvaluateUtility(ctx, m, pts, geoind.Euclidean); !errors.Is(err, context.Canceled) {
		t.Errorf("EvaluateUtility: err=%v want context.Canceled", err)
	}
	if _, _, err := geoind.ReportTrace(ctx, m, pts); !errors.Is(err, context.Canceled) {
		t.Errorf("ReportTrace: err=%v want context.Canceled", err)
	}
	cfg := geoind.PredictiveConfig{Theta: 4, EpsTest: 0.25}
	if _, _, err := geoind.ReportTracePredictive(ctx, m, pts, cfg, 1); !errors.Is(err, context.Canceled) {
		t.Errorf("ReportTracePredictive: err=%v want context.Canceled", err)
	}
}
