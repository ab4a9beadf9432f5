package geoind_test

import (
	"bytes"
	"context"
	"math"
	"testing"
	"time"

	"geoind"
)

func TestPlanarLaplaceFacade(t *testing.T) {
	pl, err := geoind.NewPlanarLaplace(geoind.LaplaceConfig{Eps: 0.5, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if pl.Name() != "PL" || pl.Epsilon() != 0.5 {
		t.Errorf("Name=%s Eps=%g", pl.Name(), pl.Epsilon())
	}
	z, err := pl.ReportCtx(context.Background(), geoind.Point{X: 5, Y: 5})
	if err != nil {
		t.Fatal(err)
	}
	if math.IsNaN(z.X) || math.IsNaN(z.Y) {
		t.Error("NaN report")
	}
	// Remapped variant.
	plr, err := geoind.NewPlanarLaplace(geoind.LaplaceConfig{
		Eps: 0.5, Seed: 1, Remap: true, Region: geoind.Square(20), Granularity: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	if plr.Name() != "PL+remap" {
		t.Errorf("Name=%s", plr.Name())
	}
	z, err = plr.ReportCtx(context.Background(), geoind.Point{X: 5, Y: 5})
	if err != nil {
		t.Fatal(err)
	}
	// A remapped output is a cell center: coordinates are odd multiples of 2.5.
	for _, v := range []float64{z.X, z.Y} {
		q := v / 2.5
		if math.Abs(q-math.Round(q)) > 1e-9 || int(math.Round(q))%2 == 0 {
			t.Errorf("remapped output %v not a 4x4 cell center", z)
		}
	}
	// Invalid remap config.
	if _, err := geoind.NewPlanarLaplace(geoind.LaplaceConfig{Eps: 0.5, Remap: true}); err == nil {
		t.Error("remap without grid should error")
	}
}

func TestOptimalFacade(t *testing.T) {
	ds := geoind.YelpSynthetic()
	o, err := geoind.NewOptimal(geoind.OptimalConfig{
		Eps: 0.5, Region: ds.Region(), Granularity: 3,
		PriorPoints: ds.Points(), Seed: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	if o.Name() != "OPT" || o.Epsilon() != 0.5 {
		t.Errorf("Name=%s Eps=%g", o.Name(), o.Epsilon())
	}
	if ex := o.VerifyGeoInd(); ex > 1e-6 {
		t.Errorf("GeoInd excess %g", ex)
	}
	if o.ExpectedLoss() <= 0 {
		t.Errorf("expected loss %g", o.ExpectedLoss())
	}
	k := o.Channel()
	if len(k) != 81 {
		t.Errorf("channel len %d", len(k))
	}
	if _, err := o.ReportCtx(context.Background(), geoind.Point{X: 1, Y: 1}); err != nil {
		t.Fatal(err)
	}
}

func TestMSMFacade(t *testing.T) {
	ds := geoind.YelpSynthetic()
	m, err := geoind.NewMSM(geoind.MSMConfig{
		Eps: 0.9, Region: ds.Region(), Granularity: 3,
		PriorPoints: ds.Points(), Seed: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	if m.Name() != "MSM" || m.Epsilon() != 0.9 {
		t.Errorf("Name=%s Eps=%g", m.Name(), m.Epsilon())
	}
	split := m.BudgetSplit()
	if len(split) != m.Height() {
		t.Errorf("split len %d height %d", len(split), m.Height())
	}
	sum := 0.0
	for _, e := range split {
		sum += e
	}
	if math.Abs(sum-0.9) > 1e-12 {
		t.Errorf("split sums to %g", sum)
	}
	want := 1
	for i := 0; i < m.Height(); i++ {
		want *= 3
	}
	if m.LeafGranularity() != want {
		t.Errorf("leaf granularity %d want %d", m.LeafGranularity(), want)
	}
	if _, err := m.ReportCtx(context.Background(), geoind.Point{X: 4, Y: 16}); err != nil {
		t.Fatal(err)
	}
	queries, solves := m.Stats()
	if queries != 1 || solves < 1 {
		t.Errorf("queries=%d solves=%d", queries, solves)
	}
	if err := m.Precompute(); err != nil {
		t.Fatal(err)
	}
}

// TestMSMMaxSolves: setting MaxSolves alone still builds a shared store (the
// admission bound needs one), reports flow normally under it, and the
// admission counters surface through StoreStats.
func TestMSMMaxSolves(t *testing.T) {
	ds := geoind.YelpSynthetic()
	m, err := geoind.NewMSM(geoind.MSMConfig{
		Eps: 0.9, Region: ds.Region(), Granularity: 3,
		PriorPoints: ds.Points(), Seed: 3, MaxSolves: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		if _, err := m.ReportCtx(context.Background(), geoind.Point{X: 4, Y: 16}); err != nil {
			t.Fatalf("report %d under max-solves: %v", i, err)
		}
	}
	st := m.StoreStats()
	if st.Misses == 0 {
		t.Error("expected cold solves to go through the admission-bounded store")
	}
	if st.Rejected != 0 || st.Queued != 0 {
		t.Errorf("sequential load should not shed or leave queued solves: %+v", st)
	}
}

func TestEvaluateUtility(t *testing.T) {
	ds := geoind.YelpSynthetic()
	pl, err := geoind.NewPlanarLaplace(geoind.LaplaceConfig{Eps: 0.5, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	reqs := ds.SampleRequests(500, 9)
	st, err := geoind.EvaluateUtility(context.Background(), pl, reqs, geoind.Euclidean)
	if err != nil {
		t.Fatal(err)
	}
	if st.N != 500 {
		t.Errorf("N=%d", st.N)
	}
	// PL mean loss at eps=0.5 should be near 2/eps = 4 km.
	if st.Mean < 2.5 || st.Mean > 6 {
		t.Errorf("PL mean loss %g km, want ~4", st.Mean)
	}
	if st.Max < st.Mean {
		t.Errorf("max %g < mean %g", st.Max, st.Mean)
	}
}

func TestDatasetFacade(t *testing.T) {
	ds := geoind.GowallaSynthetic()
	if ds.Len() != 265571 || ds.NumUsers() != 12155 {
		t.Errorf("len=%d users=%d", ds.Len(), ds.NumUsers())
	}
	if ds.Region().Width() != 20 {
		t.Errorf("region %v", ds.Region())
	}
	c := ds.CheckIn(0)
	if c.User < 0 || c.User >= ds.NumUsers() {
		t.Errorf("checkin user %d", c.User)
	}
	var buf bytes.Buffer
	small := geoind.YelpSynthetic()
	if err := small.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := geoind.ReadDatasetCSV(&buf, "", 0)
	if err != nil {
		t.Fatal(err)
	}
	if back.Len() != small.Len() {
		t.Errorf("round trip %d != %d", back.Len(), small.Len())
	}
	// Deterministic request sampling.
	a := ds.SampleRequests(10, 7)
	b := ds.SampleRequests(10, 7)
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("SampleRequests not deterministic")
		}
	}
}

// TestMechanismComparison is the facade-level smoke test of the paper's
// headline: at a tight budget MSM beats PL on utility.
func TestMechanismComparison(t *testing.T) {
	ds := geoind.YelpSynthetic()
	reqs := ds.SampleRequests(1500, 11)

	msm, err := geoind.NewMSM(geoind.MSMConfig{
		Eps: 0.3, Region: ds.Region(), Granularity: 4,
		PriorPoints: ds.Points(), Seed: 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	pl, err := geoind.NewPlanarLaplace(geoind.LaplaceConfig{Eps: 0.3, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	msmStats, err := geoind.EvaluateUtility(context.Background(), msm, reqs, geoind.Euclidean)
	if err != nil {
		t.Fatal(err)
	}
	plStats, err := geoind.EvaluateUtility(context.Background(), pl, reqs, geoind.Euclidean)
	if err != nil {
		t.Fatal(err)
	}
	if msmStats.Mean >= plStats.Mean {
		t.Errorf("MSM %.3f km not better than PL %.3f km", msmStats.Mean, plStats.Mean)
	}
	t.Logf("eps=0.3: MSM=%.3f km, PL=%.3f km", msmStats.Mean, plStats.Mean)
}

func TestAdaptiveMSMFacade(t *testing.T) {
	ds := geoind.YelpSynthetic()
	m, err := geoind.NewAdaptiveMSM(geoind.AdaptiveMSMConfig{
		Eps: 0.5, Region: ds.Region(), Fanout: 3,
		PriorPoints: ds.Points(), Seed: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	if m.Name() != "MSM-adaptive" || m.Epsilon() != 0.5 {
		t.Errorf("Name=%s Eps=%g", m.Name(), m.Epsilon())
	}
	if m.NumNodes() < 1+9 {
		t.Errorf("NumNodes=%d too small", m.NumNodes())
	}
	if m.MeanLeafSide() <= 0 || m.MeanLeafSide() > 20 {
		t.Errorf("MeanLeafSide=%g", m.MeanLeafSide())
	}
	z, err := m.ReportCtx(context.Background(), geoind.Point{X: 4, Y: 16})
	if err != nil {
		t.Fatal(err)
	}
	if !ds.Region().ContainsClosed(z) {
		t.Errorf("report %v outside region", z)
	}
	if err := m.Precompute(); err != nil {
		t.Fatal(err)
	}
	// Invalid config surfaces errors.
	if _, err := geoind.NewAdaptiveMSM(geoind.AdaptiveMSMConfig{Eps: -1, Region: ds.Region(), Fanout: 3}); err == nil {
		t.Error("negative eps should error")
	}
}

// TestAllMechanismsSatisfyInterface drives every mechanism through the same
// workload via the Mechanism interface.
func TestAllMechanismsSatisfyInterface(t *testing.T) {
	ds := geoind.YelpSynthetic()
	reqs := ds.SampleRequests(50, 13)
	pl, err := geoind.NewPlanarLaplace(geoind.LaplaceConfig{Eps: 0.5, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	o, err := geoind.NewOptimal(geoind.OptimalConfig{Eps: 0.5, Region: ds.Region(), Granularity: 3, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	m, err := geoind.NewMSM(geoind.MSMConfig{Eps: 0.5, Region: ds.Region(), Granularity: 3, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	a, err := geoind.NewAdaptiveMSM(geoind.AdaptiveMSMConfig{
		Eps: 0.5, Region: ds.Region(), Fanout: 3, PriorPoints: ds.Points(), Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, mech := range []geoind.Mechanism{pl, o, m, a} {
		st, err := geoind.EvaluateUtility(context.Background(), mech, reqs, geoind.Euclidean)
		if err != nil {
			t.Fatalf("%s: %v", mech.Name(), err)
		}
		if st.N != 50 || st.Mean <= 0 {
			t.Errorf("%s: stats %+v", mech.Name(), st)
		}
		t.Logf("%-12s mean loss %.3f km", mech.Name(), st.Mean)
	}
}

func TestBudgetedWrapper(t *testing.T) {
	pl, err := geoind.NewPlanarLaplace(geoind.LaplaceConfig{Eps: 0.25, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	b, err := geoind.NewBudgeted(pl, 0.5, time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	if b.Limit() != 0.5 || b.Epsilon() != 0.25 {
		t.Errorf("limit=%g eps=%g", b.Limit(), b.Epsilon())
	}
	x := geoind.Point{X: 5, Y: 5}
	if _, err := b.ReportCtx(context.Background(), "alice", x); err != nil {
		t.Fatal(err)
	}
	if r := b.Remaining("alice"); math.Abs(r-0.25) > 1e-12 {
		t.Errorf("remaining %g want 0.25", r)
	}
	if _, err := b.ReportCtx(context.Background(), "alice", x); err != nil {
		t.Fatal(err)
	}
	if _, err := b.ReportCtx(context.Background(), "alice", x); err != geoind.ErrBudgetExhausted {
		t.Errorf("third report: %v want ErrBudgetExhausted", err)
	}
	// Other users unaffected.
	if _, err := b.ReportCtx(context.Background(), "bob", x); err != nil {
		t.Errorf("bob: %v", err)
	}
	// Ledger persistence round trip.
	var buf bytes.Buffer
	if err := b.SaveLedger(&buf); err != nil {
		t.Fatal(err)
	}
	b2, err := geoind.NewBudgeted(pl, 0.5, time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	if err := b2.LoadLedger(&buf); err != nil {
		t.Fatal(err)
	}
	if r := b2.Remaining("alice"); r > 1e-12 {
		t.Errorf("restored remaining %g want 0", r)
	}
	// Validation.
	if _, err := geoind.NewBudgeted(nil, 1, time.Hour); err == nil {
		t.Error("nil mechanism should error")
	}
	if _, err := geoind.NewBudgeted(pl, 0.1, time.Hour); err == nil {
		t.Error("limit below eps should error")
	}
}

func TestTrajectoryFacade(t *testing.T) {
	traces, err := geoind.GenerateTraces(2, geoind.TraceConfig{
		Region:  geoind.Square(20),
		Anchors: []geoind.Point{{X: 5, Y: 5}, {X: 15, Y: 15}},
		Steps:   100, StayProb: 0.9, LocalSigma: 0.05, JumpProb: 0.03, WalkSigma: 0.5,
		Seed: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(traces) != 2 || len(traces[0]) != 100 {
		t.Fatalf("traces %dx%d", len(traces), len(traces[0]))
	}
	pl, err := geoind.NewPlanarLaplace(geoind.LaplaceConfig{Eps: 1.0, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	steps, sum, err := geoind.ReportTrace(context.Background(), pl, traces[0])
	if err != nil {
		t.Fatal(err)
	}
	if len(steps) != 100 || sum.TotalSpent != 100 {
		t.Errorf("independent: %d steps spent %g", len(steps), sum.TotalSpent)
	}
	psteps, psum, err := geoind.ReportTracePredictive(context.Background(), pl, traces[0],
		geoind.PredictiveConfig{Theta: 4, EpsTest: 0.25}, 7)
	if err != nil {
		t.Fatal(err)
	}
	if len(psteps) != 100 {
		t.Errorf("predictive steps %d", len(psteps))
	}
	if psum.TotalSpent >= sum.TotalSpent {
		t.Errorf("predictive spent %g not below %g", psum.TotalSpent, sum.TotalSpent)
	}
	// Bad config errors.
	if _, _, err := geoind.ReportTracePredictive(context.Background(), pl, traces[0], geoind.PredictiveConfig{}, 7); err == nil {
		t.Error("zero config should error")
	}
	if _, err := geoind.GenerateTraces(0, geoind.TraceConfig{}); err == nil {
		t.Error("bad trace config should error")
	}
}
